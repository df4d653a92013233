"""Definitional references for the brute-force, split, moment and fitting engines.

The O(n^2) counters in catstats.perms and the split closure in
catstats.splits are checked against these: every occurrence count here
comes from classifying subsequences one at a time, and the insertion map's
bijection is checked by building every image.  The av123 census is checked
against a pass of deletion chains that walks every avoider of every length.
The integer moment rows of catstats.moments are checked against the chain
of Fraction definitions below: raw moments, then central moments, then
standardized ones.  The fits of catstats.guessing are replayed term by term
from their printed models: a recurrence window by window, an algebraic
equation as the series Phi(z, y(z)), a closed form at each n.  None of it
is fast, and nothing in the package calls it.
"""
import math
from fractions import Fraction
from itertools import combinations

from catstats.errors import DegenerateStatisticError, UsageError
from catstats.moments import StandardizedMoments, stirling2_row
from catstats.perms import AV123, DEFAULT_ORACLE_LIMIT, enumerate_avoiders, format_perm


def standardize(seq) -> tuple:
    """Relabel distinct values order-isomorphically to 1..len(seq)."""
    seq = tuple(seq)
    if len(set(seq)) != len(seq):
        raise UsageError(f"cannot standardize a sequence with repeats: {seq}")
    rank = {v: i + 1 for i, v in enumerate(sorted(seq))}
    return tuple(rank[v] for v in seq)


def count_occurrences(pattern, perm) -> int:
    """Number of subsequences of `perm` order-isomorphic to `pattern`."""
    k = len(pattern)
    if k == 0:
        return 1
    if k > len(perm):
        return 0
    count = 0
    for comb in combinations(perm, k):
        rank = {v: i + 1 for i, v in enumerate(sorted(comb))}
        if all(rank[v] == p for v, p in zip(comb, pattern)):
            count += 1
    return count


def classify_all_subsets(perm, k: int) -> dict:
    """Pattern -> occurrence count over all C(n, k) subsequences of length k."""
    if k < 0:
        raise UsageError("subset size must be >= 0")
    out: dict = {}
    for comb in combinations(perm, k):
        rank = {v: i + 1 for i, v in enumerate(sorted(comb))}
        pat = tuple(rank[v] for v in comb)
        out[pat] = out.get(pat, 0) + 1
    return out


def deletion_totals_123(n_max: int, limit: int = DEFAULT_ORACLE_LIMIT) -> dict:
    """Pattern -> its total-occurrence sequence over the 123-avoiders on
    sizes 0..n_max, for every 123-avoider of length 1..n_max.

    Deleting one entry at a time and standardizing after each step, a
    permutation of length n reaches q of length k along (n-k)!*occ(q, pi)
    chains.  Every deletion of a 123-avoider avoids 123 and every shorter
    avoider is a deletion of a longer one, so one pass down from the
    avoiders of length n_max, each carrying its chain counts by starting
    length, reaches every avoider with all of its chains."""
    chains = {p: [0] * (n_max + 1) for p in enumerate_avoiders(AV123, n_max, limit)}
    totals = {}
    for m in range(n_max, 0, -1):
        below: dict = {}
        for p, counts in chains.items():
            counts[m] += 1  # p itself starts a chain of length m
            seq = [0] * (n_max + 1)
            for n in range(m, n_max + 1):
                seq[n], rest = divmod(counts[n], math.factorial(n - m))
                if rest:
                    raise AssertionError(f"{counts[n]} chains from {n} to {p} is not a multiple of {n - m}!")
            totals[p] = tuple(seq)
            for v in p:
                q = tuple(w - (w > v) for w in p if w != v)
                acc = below.setdefault(q, [0] * (n_max + 1))
                for n in range(m, n_max + 1):
                    acc[n] += counts[n]
        chains = below
    return totals


def validate_insertion_reading(insert, n_max: int, limit: int = DEFAULT_ORACLE_LIMIT):
    """Check the (k, left, right) composition is a bijection for every n <= n_max.

    Returns (ok, diagnostic).
    """
    for n in range(0, n_max + 1):
        target = set(enumerate_avoiders(AV123, n, limit))
        seen = {}
        for k in range(1, n + 1):
            rights = enumerate_avoiders(AV123, k - 1, limit)
            for left in enumerate_avoiders(AV123, n - k, limit):
                for right in rights:
                    u = insert(right)
                    img = tuple(v + len(u) for v in left) + u
                    if img in seen:
                        return False, (
                            f"collision at n={n}: ({k},{format_perm(left)},{format_perm(right)}) "
                            f"and {seen[img]} both give {format_perm(img)}"
                        )
                    seen[img] = (k, format_perm(left), format_perm(right))
                    if img not in target:
                        return False, f"image {format_perm(img)} at n={n} contains 123"
        if n == 0:
            if () not in target:
                return False, "empty permutation missing"
            continue
        if len(seen) != len(target):
            missing = target - set(seen)
            return False, f"not onto at n={n}: {len(seen)} images vs {len(target)} avoiders, e.g. missing {sorted(missing)[:3]}"
    return True, "ok"


def raw_from_factorial(frow) -> "list[Fraction]":
    """[m_0 .. m_r]: r-th power sums divided by the object count f_0."""
    if not frow or frow[0] == 0:
        raise UsageError("cannot normalize by an empty family (f_0 = 0)")
    f0 = frow[0]
    out = [Fraction(1)]
    for r in range(1, len(frow)):
        srow = stirling2_row(r)
        total = sum(srow[j] * frow[j] for j in range(1, r + 1))
        out.append(Fraction(total, f0))
    return out


def central_from_raw(mrow) -> "list[Fraction]":
    """[M_0 .. M_r] about the mean; M_1 is identically 0."""
    mean = mrow[1] if len(mrow) > 1 else Fraction(0)
    out = [Fraction(1)]
    for r in range(1, len(mrow)):
        total = Fraction(0)
        for j in range(r + 1):
            total += math.comb(r, j) * mrow[j] * (-mean) ** (r - j)
        out.append(total)
    return out


def standardized(Mrow) -> StandardizedMoments:
    """Standardize central moments; degenerate variance is an error."""
    if len(Mrow) < 3:
        raise UsageError("standardization needs central moments to order >= 2")
    var = Mrow[2]
    if var == 0:
        raise DegenerateStatisticError("variance is 0: standardized moments undefined")
    if var < 0:
        raise UsageError("negative variance: inconsistent central moments")
    ss = []
    fl = []
    for r, M in enumerate(Mrow):
        sq = M * M / var**r
        sq = sq if M >= 0 else -sq
        ss.append(sq)
        root = math.sqrt(float(abs(sq)))
        fl.append(root if sq >= 0 else -root)
    return StandardizedMoments(tuple(ss), tuple(fl))


def verify_recurrence(rec, values, offset: int = 0):
    """(True, None) when sum_i q_i(n) a(n+i) vanishes in every window, else
    (False, the first n where it does not); values[s] is a(offset + s)."""
    for s in range(len(values) - rec.order):
        n = offset + s
        total = sum(
            sum(c * n**j for j, c in enumerate(q)) * values[s + i]
            for i, q in enumerate(rec.coeffs)
        )
        if total != 0:
            return False, n
    return True, None


def algebraic_residual(eq, values) -> list:
    """Series coefficients of Phi(z, y(z)) below z^len(values), for
    y = sum values[m] z^m; all zero when the equation holds that far."""
    T = len(values)
    powers = [[1] + [0] * (T - 1)]
    for _ in range(eq.degree_y()):
        prev = powers[-1]
        powers.append([sum(prev[k] * values[m - k] for k in range(m + 1)) for m in range(T)])
    out = [0] * T
    for (i, j), c in eq.coeffs:
        for m in range(i, T):
            out[m] += c * powers[j][m - i]
    return out


def closed_form_value(fit, n: int):
    """The closed form's value at n, with c(-1) = 0."""
    def cat(k):
        return math.comb(2 * k, k) // (k + 1) if k >= 0 else 0

    total = Fraction(0)
    for poly, v in zip(fit.parts, (4**n, cat(n), cat(n - 1), 1)):
        total += sum(c * n**j for j, c in enumerate(poly)) * v
    return total
