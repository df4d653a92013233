"""Average occurrence counts of a fixed pattern over the 132-avoiders.

Splitting a 132-avoider at its maximum splits every occurrence of a pattern
p as well: the occurrence uses some prefix of p inside the high left block,
optionally routes one entry of p through the maximum itself (only possible
for an entry equal to max(p)), and puts the rest in the low right block.
Validity only needs every prefix-part value to exceed every suffix-part
value, because the blocks are value-separated.  Summing over avoiders turns
this into a closed system of Catalan-convolution recurrences

    A_p(n) = sum_k sum_(splits of p) A_prefix(k-1) * A_suffix(n-k)

over the (standardized) split parts of p, grounded at A_empty = the Catalan
numbers.  The system is linear, so totals over the family come out directly;
dividing by c_n gives averages.  Patterns containing 132 never occur and
their sequences are identically zero; the same recurrence reproduces that,
so they are allowed anywhere in the system.

The class census groups all length-k patterns by their value sequences.
Equality is tested on a finite prefix (default length 30), so the census is
an equality-of-prefix census: classes that first differ beyond the prefix
would be merged silently, and the report says so.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .errors import UsageError
from .perms import (
    AV123,
    AV132,
    DEFAULT_ORACLE_LIMIT,
    catalan,
    catalan_list,
    check_oracle_limit,
    enumerate_avoiders,
    format_perm,
    standardize,
)

Perm = "tuple[int, ...]"


@dataclass(frozen=True)
class SplitTerm:
    prefix: tuple
    suffix: tuple
    uses_max: bool


@dataclass(frozen=True)
class SplitDecomposition:
    pattern: tuple
    terms: "tuple[SplitTerm, ...]"


def split_decompose(p) -> SplitDecomposition:
    """All ways an occurrence of p distributes over (left block, max, right block)."""
    p = tuple(p)
    if sorted(p) != list(range(1, len(p) + 1)):
        raise UsageError(f"pattern must be standardized, got {p}")
    size = len(p)
    terms = []
    for i in range(size + 1):
        prefix, suffix = p[:i], p[i:]
        if not prefix or not suffix or min(prefix) > max(suffix):
            terms.append(SplitTerm(standardize(prefix), standardize(suffix), False))
        if i < size and p[i] == size:
            prefix, suffix = p[:i], p[i + 1 :]
            if not prefix or not suffix or min(prefix) > max(suffix):
                terms.append(SplitTerm(standardize(prefix), standardize(suffix), True))
    return SplitDecomposition(p, tuple(terms))


class AverageEngine:
    """Shared memo of total-occurrence sequences A_p(0..n_max).

    One engine instance amortizes the whole closure of sub-patterns across
    any number of queries (the census asks for thousands of patterns whose
    split parts overlap heavily).
    """

    def __init__(self, n_max: int):
        if n_max < 0:
            raise UsageError("n_max must be >= 0")
        self.n_max = n_max
        self.catalan = catalan_list(n_max)
        self.memo: "dict[tuple, tuple]" = {(): tuple(self.catalan)}

    def sequence(self, pattern) -> "tuple[int, ...]":
        pattern = tuple(pattern)
        hit = self.memo.get(pattern)
        if hit is not None:
            return hit
        if sorted(pattern) != list(range(1, len(pattern) + 1)):
            raise UsageError(f"pattern must be standardized, got {pattern}")
        # resolve the closure iteratively, shortest first, so that when a
        # pattern is computed every strictly shorter part is already done
        todo = {pattern}
        closure = set()
        while todo:
            q = todo.pop()
            if q in closure or q in self.memo:
                continue
            closure.add(q)
            for term in split_decompose(q).terms:
                for part in (term.prefix, term.suffix):
                    if part != q and part not in self.memo:
                        todo.add(part)
        for q in sorted(closure, key=len):
            self._compute(q)
        return self.memo[pattern]

    def _compute(self, q: tuple) -> None:
        n_max = self.n_max
        cats = self.catalan
        pair_mult: "dict[tuple, int]" = {}
        for term in split_decompose(q).terms:
            if (term.prefix, term.suffix) == (q, ()) or (term.prefix, term.suffix) == ((), q):
                continue  # the two self-referencing terms, handled below
            key = (term.prefix, term.suffix)
            pair_mult[key] = pair_mult.get(key, 0) + 1
        B = [0] * (n_max + 1)
        for (pre, suf), mult in pair_mult.items():
            A1 = self.memo[pre]
            A2 = self.memo[suf]
            if not any(A1) or not any(A2):
                continue
            for i, a in enumerate(A1):  # i = k - 1, so n = i + 1 + j
                if a:
                    am = a * mult
                    base = i + 1
                    row = B
                    for j in range(n_max + 1 - base):
                        b = A2[j]
                        if b:
                            row[base + j] += am * b
        # the (q, empty) and (empty, q) terms are mirror images of each other
        A = [0] * (n_max + 1)
        if not q:
            raise AssertionError("empty pattern is seeded in the memo")
        for n in range(1, n_max + 1):
            s = 0
            for k in range(1, n + 1):
                a = A[k - 1]
                if a:
                    s += a * cats[n - k]
            A[n] = B[n] + 2 * s
        self.memo[q] = tuple(A)


def average_sequence(pattern, n_max: int, engine: "AverageEngine | None" = None) -> "list[int]":
    """Total occurrences of `pattern` over all 132-avoiders of each size
    0..n_max.  Divide by the Catalan numbers for averages."""
    if engine is None:
        engine = AverageEngine(n_max)
    elif engine.n_max < n_max:
        raise UsageError(f"engine only covers n <= {engine.n_max}")
    return list(engine.sequence(tuple(pattern))[: n_max + 1])


# -- the class censuses ----------------------------------------------------


@dataclass(frozen=True)
class CensusClass:
    representative: tuple  # lexicographically least member
    size: int
    patterns: "tuple[tuple, ...]"
    prefix: "tuple[int, ...]"  # shared value sequence on the tested range


@dataclass(frozen=True)
class CensusResult:
    family: str
    k: int
    prefix_len: int
    classes: "tuple[CensusClass, ...]"
    caveat: str

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def to_json_obj(self) -> dict:
        return {
            "family": self.family,
            "k": self.k,
            "prefix_len": self.prefix_len,
            "class_count": self.class_count,
            "caveat": self.caveat,
            "classes": [
                {
                    "representative": format_perm(c.representative),
                    "size": c.size,
                    "prefix_first_12": [str(v) for v in c.prefix[:12]],
                }
                for c in self.classes
            ],
        }


_EQUALITY_CAVEAT = (
    "classes are by equality of the first {m} values; "
    "sequences that first differ beyond that range would be merged"
)


def _census(family: str, k: int, prefix_len: int, sequences) -> CensusResult:
    """Group (pattern, value sequence on sizes 0..prefix_len) pairs into
    classes of equal sequences."""
    groups: "dict[tuple, list]" = {}
    for p, seq in sequences:
        groups.setdefault(tuple(seq), []).append(p)
    classes = []
    for seq, members in groups.items():
        members.sort()
        classes.append(
            CensusClass(
                representative=members[0],
                size=len(members),
                patterns=tuple(members),
                prefix=seq,
            )
        )
    classes.sort(key=lambda c: c.representative)
    return CensusResult(
        family=family,
        k=k,
        prefix_len=prefix_len,
        classes=tuple(classes),
        caveat=_EQUALITY_CAVEAT.format(m=prefix_len + 1),
    )


def bona_census_132(k: int, prefix_len: int = 30, engine: "AverageEngine | None" = None) -> CensusResult:
    """Group the 132-avoiding length-k patterns by their total-occurrence
    sequences on sizes 0..prefix_len."""
    if k < 1:
        raise UsageError("k must be >= 1")
    if prefix_len < 2 * k:
        raise UsageError(f"prefix_len must be >= 2k = {2 * k} to separate length-{k} patterns sensibly")
    if engine is None:
        engine = AverageEngine(prefix_len)
    elif engine.n_max < prefix_len:
        raise UsageError(f"engine only covers n <= {engine.n_max}")
    patterns = enumerate_avoiders(AV132, k, limit=max(k, DEFAULT_ORACLE_LIMIT))
    return _census(
        "av132", k, prefix_len, ((p, engine.sequence(p)[: prefix_len + 1]) for p in patterns)
    )


def bona_census_123(k: int, n_max: int = 9, limit: int = DEFAULT_ORACLE_LIMIT) -> CensusResult:
    """Brute-force analog on the 123-avoiders: group length-k patterns that
    avoid 123 by their total-occurrence sequences on sizes 0..n_max.

    The totals come from deletion chains: delete one entry at a time and
    standardize after each step.  A permutation pi of length n reaches q of
    length k along exactly (n-k)!*occ(q, pi) chains, one per occurrence of q
    and order of deleting the other n-k entries.  Every deletion of a
    123-avoider avoids 123, and every avoider shorter than n_max is a
    deletion of a longer one (prepend the maximum), so one pass down from the
    avoiders of length n_max visits every avoider of every length.  Each
    carries its chain counts N_n indexed by the starting length n, and at
    length k, A_q(n) = N_n(q) / (n-k)!.
    """
    if k < 1:
        raise UsageError("k must be >= 1")
    if n_max < k:
        raise UsageError(f"length-{k} patterns never occur below n = {k}; raise n_max")
    check_oracle_limit(n_max, limit)
    level = {p: [0] * (n_max + 1) for p in enumerate_avoiders(AV123, n_max, limit)}
    for m in range(n_max, k - 1, -1):
        if len(level) != catalan(m):
            raise AssertionError(f"deletion pass reached {len(level)} avoiders of length {m}")
        for chains in level.values():
            chains[m] += 1  # the avoider itself starts a chain of length m
        if m == k:
            break
        below: "dict[tuple, list]" = {}
        for p, chains in level.items():
            for v in p:
                q = tuple(w - (w > v) for w in p if w != v)
                acc = below.get(q)
                if acc is None:
                    below[q] = chains[:]
                else:
                    for n in range(m, n_max + 1):
                        acc[n] += chains[n]
        level = below
    for chains in level.values():
        for n in range(k, n_max + 1):
            total, rest = divmod(chains[n], factorial(n - k))
            if rest:
                raise AssertionError(f"{chains[n]} chains from length {n} is not a multiple of {n - k}!")
            chains[n] = total
    return _census("av123", k, n_max, level.items())


def partition_numbers(k_max: int) -> "list[int]":
    """p(0..k_max) by the coin-style DP over part sizes."""
    if k_max < 0:
        raise UsageError("k_max must be >= 0")
    p = [1] + [0] * k_max
    for part in range(1, k_max + 1):
        for s in range(part, k_max + 1):
            p[s] += p[s - part]
    return p
