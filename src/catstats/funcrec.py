"""Catalan-type functional recurrences with catalytic variables.

A spec describes how the weight enumerator Q_n of a pattern statistic over an
avoidance family decomposes at the position k of the maximum:

    Q_0 = 1
    Q_n = sum over terms, sum over k in the term's range of
          coef(n, k) * subst_L(Q_(k-1)) * subst_R(Q_(n-k))

where coef is the monomial prod_i v_i^(E_i(n, k)) and each substitution
sends every variable to a monomial in the variables.  An exponent is an int
when it is constant and an IndexPoly, an integer polynomial in (n, k), when
it varies.  A missing substitution (None) is the identity, and so is one
whose matrix is the unit matrix: `TermExponents` reads both as None.  The
first variable (t in the catalog) tracks the statistic, whatever its name,
and every substitution fixes it, with the int row (1, 0, ..., 0): only the
catalytic variables after it are substituted.  This shape is exactly what
splitting an avoider at its maximum produces: the statistic of the whole is
an index-dependent affine combination of the statistics of the two parts,
which exponent bookkeeping turns into monomial substitutions.

A monomial is 1 at the all-ones point, so the masses Q_n(1) follow from the
terms' k-ranges alone.  Construction checks that they are the Catalan
numbers for n <= 12, and that every exponent is non-negative there.  The
check and both modes read every exponent over a whole k-window from one
evaluator, `TermExponents.window`, which alone refuses a negative one: all
three name its first (n, k) in the order n, then term, then k.

Full mode (`eval_full`) is exact, with exponential-size output.  Its walk
(`_packed_walk`) keeps each Q_m as one integer per catalytic exponent
vector, with the t-coefficients packed in fixed-width slots: a product of
two rows is one bigint product, and a coefficient or a substitution moves a
row to a new key and shifts it.

Truncated mode keeps Taylor expansions about the all-ones point to a fixed
total degree, which is all the moment pipeline ever reads.  Each value is a
TruncatedSeries: a plain coefficient list over a SeriesBasis, with no
arithmetic of its own.  Substitution images fix the all-ones point
(monomials always do), so truncation commutes with the recurrence and the
truncated values are exact initial segments, not approximations.  The walk
itself is described in truncated.py.

The builtin catalog covers the seven length-3-pattern statistics on the
132-avoiders (one catalytic variable) and the 213 statistic on the
123-avoiders (two catalytic variables driven by the insertion map; see
perms.py).  Every spec is mass-checked at construction time, and
`verify_catalog` checks the whole catalog against the brute-force
enumerators of perms.py.
"""
from __future__ import annotations

from itertools import accumulate, repeat
from operator import add, mul, sub
from typing import Mapping, NamedTuple, Sequence

from .errors import UsageError
from .multipoly import IndexPoly, MultiPoly
from .perms import (
    AV132,
    DEFAULT_ORACLE_LIMIT,
    brute_sigma_enum,
    brute_weight_enum,
    catalan_list,
    parse_perm,
)

DEFAULT_FULL_LIMIT = 64


# An exponent: an int when constant, an IndexPoly when it varies with (n, k).
Exponent = "int | IndexPoly"
# Substitution: image of variable i is prod_j var_j ^ matrix[i][j](n, k).
SubstMatrix = "tuple[tuple[Exponent, ...], ...]"


class RecTerm(NamedTuple):
    """One summand of the recurrence, with coefficient
    prod_i var_i ^ coef[i](n, k).

    The sum runs k = k_low .. n by default; k_high pins an absolute upper
    bound instead (k_high=1 with k_low=1 encodes a single boundary summand,
    which the 123-family recurrence needs).
    """

    coef: "tuple[Exponent, ...]"
    k_low: int = 1
    k_high: "int | None" = None
    left: "SubstMatrix | None" = None
    right: "SubstMatrix | None" = None

    def k_range(self, n: int) -> range:
        return range(self.k_low, (n if self.k_high is None else min(self.k_high, n)) + 1)


def subst_matrix(variables: "Sequence[str]", images: Mapping) -> SubstMatrix:
    """Build a substitution matrix from {source: {target: exponent}}.

    Unmentioned variables map to themselves; exponents are int or IndexPoly.
    """
    variables = tuple(variables)
    for src in images:
        if src not in variables:
            raise UsageError(f"unknown substitution source {src!r}")
    return tuple(tuple(images.get(v, {v: 1}).get(u, 0) for u in variables) for v in variables)


class FuncRecSpec:
    """A validated functional recurrence for one (family, statistic) pair."""

    __slots__ = ("family", "statistic", "variables", "terms", "tracked", "full_limit", "exponents")

    def __init__(
        self,
        family: str,
        statistic: str,
        variables: "Sequence[str]",
        terms: "Sequence[RecTerm]",
        tracked: "tuple[tuple[str, str], ...]" = (),
        full_limit: int = DEFAULT_FULL_LIMIT,
    ):
        self.family = family
        self.statistic = statistic
        self.variables = tuple(variables)
        self.terms = tuple(terms)
        self.tracked = tracked
        self.full_limit = full_limit  # largest n_max eval_full accepts
        if not self.variables:
            raise UsageError("a spec needs at least one variable")
        if not self.terms:
            raise UsageError("a spec needs at least one term")
        nv = len(self.variables)
        unit = subst_matrix(self.variables, {})
        for term in self.terms:
            if term.k_low < 1:
                raise UsageError("k_low must be >= 1")
            if term.k_high is not None and term.k_high < term.k_low:
                raise UsageError("k_high must be >= k_low")
            if len(term.coef) != nv:
                raise UsageError("coefficient exponent arity does not match variables")
            for mat in (term.left, term.right):
                if mat is None:
                    continue
                if len(mat) != nv or any(len(row) != nv for row in mat):
                    raise UsageError("substitution matrix arity does not match variables")
                if tuple(mat[0]) != unit[0]:
                    raise UsageError(
                        f"{self.label}: a substitution must fix {self.variables[0]}, "
                        "the tracked variable"
                    )
        self.exponents = tuple(TermExponents(self.label, term, unit) for term in self.terms)
        self._mass_check()

    @property
    def label(self) -> str:
        return f"{self.family}:{self.statistic}"

    def _mass_check(self, n_max: int = 12) -> None:
        """At the all-ones point the recurrence must reproduce the Catalan
        numbers; exponent data must also evaluate non-negative on the range."""
        for n in range(1, n_max + 1):
            for exps in self.exponents:
                exps.window(n)  # refuses a negative exponent
        for n, (total, want) in enumerate(zip(_masses(self, n_max), catalan_list(n_max))):
            if total != want:
                raise UsageError(
                    f"{self.label}: mass check failed at n = {n}: {total} != {want}"
                )

    def __repr__(self):
        return f"FuncRecSpec({self.label}, vars={self.variables}, {len(self.terms)} terms)"


class EnumeratorSequence(NamedTuple):
    """Q_0 .. Q_N as produced by one of the evaluators."""

    spec: FuncRecSpec
    cap: "int | None"  # None in full mode
    values: list


# -- the recurrence walk ---------------------------------------------------


def _masses(spec: FuncRecSpec, n_max: int) -> "list[int]":
    """Q_0(1) .. Q_n_max(1): every coefficient and substitution image is a
    monomial, 1 at the all-ones point, so only the k-ranges count."""
    masses = [1]
    for n in range(1, n_max + 1):
        masses.append(
            sum(masses[k - 1] * masses[n - k] for term in spec.terms for k in term.k_range(n))
        )
    return masses


class TermExponents:
    """A term's exponents, evaluated one k-window at a time.

    `coef` holds the coefficient's exponent per variable and `left` and
    `right` the substitutions' exponent rows, None for the identity: a
    missing substitution or the unit matrix.  A constant entry is an int; a
    varying one is an IndexPoly, listed once in `varying`.
    """

    __slots__ = ("label", "term", "coef", "left", "right", "varying", "least")

    def __init__(self, label: str, term: RecTerm, unit: SubstMatrix):
        def rows(mat):
            mat = mat and tuple(map(tuple, mat))
            return None if mat == unit else mat

        self.label, self.term, self.coef = label, term, tuple(term.coef)
        self.left, self.right = rows(term.left), rows(term.right)
        mats = [mat for mat in (self.left, self.right) if mat]
        entries = [*self.coef, *(e for mat in mats for row in mat for e in row)]
        self.varying = list(dict.fromkeys(e for e in entries if type(e) is not int))
        self.least = min((e for e in entries if type(e) is int), default=0)

    def window(self, n: int) -> "tuple[range, dict]":
        """The term's k-window at n and, per varying exponent, its values
        over the window, summed from its forward differences in k.  A
        negative exponent is a UsageError naming the window's first k at
        which any exponent is negative."""
        ks = self.term.k_range(n)
        evals = {p: _window_values(p, n, ks) for p in self.varying}
        if ks and min([self.least, *map(min, evals.values())]) < 0:
            k = next(k for k, *row in zip(ks, repeat(self.least), *evals.values()) if min(row) < 0)
            raise UsageError(f"{self.label}: negative exponent at (n={n}, k={k})")
        return ks, evals

    def at(self, evals: dict, i: int) -> tuple:
        """The exponents at position i of a window whose varying values are
        `evals`: the coefficient's exponent vector and the substitutions'
        rows, None for an identity."""
        def pick(row):
            return tuple(e if type(e) is int else evals[e][i] for e in row)

        return pick(self.coef), *(mat and tuple(map(pick, mat)) for mat in (self.left, self.right))


def _window_values(poly: IndexPoly, n: int, ks: range) -> "list[int]":
    """poly(n, k) for k in ks, by summing up its forward differences in k."""
    deg = max((dk for _, dk in poly.terms), default=0)
    head = [poly.eval(n, k) for k in ks[: deg + 1]]
    if len(ks) <= deg + 1:
        return head
    diffs = []
    for _ in range(deg + 1):
        diffs.append(head[0])
        head = list(map(sub, head[1:], head))
    seq = [diffs[deg]] * (len(ks) - deg)
    for first in reversed(diffs[:deg]):
        seq = list(accumulate(seq, initial=first))
    return seq


def _substitute(value: dict, rows, w: int) -> dict:
    """A packed value under the substitution with exponent rows `rows`
    (None: the identity), which fixes t.  The monomial with catalytic
    exponents b goes to t^s times the catalytic monomial b', where
    (s, b') = sum_i b_i * rows[i] over the catalytic variables i."""
    if rows is None:
        return value
    cols = list(zip(*rows[1:]))
    out: dict = {}
    for b, x in value.items():
        image = [sum(map(mul, b, col)) for col in cols]
        key = tuple(image[1:])
        out[key] = out.get(key, 0) + (x << w * image[0])
    return out


def _packed_walk(spec: FuncRecSpec, n_max: int) -> "list[MultiPoly]":
    """Q_0 .. Q_n_max of `spec`, exact, by one walk over packed values.

    Each Q_m is a dict from the exponent vectors of variables[1:] to one
    integer, whose slot a, w bits wide, holds the coefficient of t^a.  A
    product of two rows is one bigint product.  The coefficient monomial
    and the substitutions (which fix t) move a row to a new key and shift
    it left by w times the t-exponent it picks up.

    The width is exact.  Monomials are 1 at the all-ones point, so the
    image of Q_m under a substitution has mass Q_m(1), and the summand at
    (n, k) has mass Q_(k-1)(1) * Q_(n-k)(1) <= Q_n(1).  Every coefficient
    the walk forms (of a value, an image, a product of rows, a partial sum
    of Q_n) is non-negative and at most the mass of what it belongs to, so
    at most M, the largest of Q_0(1) .. Q_n_max(1).  With w = M.bit_length()
    every slot stays below 2^w and never carries into the next.  No
    narrower width is exact in general: av132:132's Q_m is the constant
    C_m, one slot that equals the mass.
    """
    w = max(_masses(spec, n_max)).bit_length()
    values: "list[dict]" = [{(0,) * (len(spec.variables) - 1): 1}]
    values += [{} for _ in range(n_max)]
    for n in range(1, n_max + 1):
        acc = values[n]
        for exps in spec.exponents:
            ks, evals = exps.window(n)
            for i, k in enumerate(ks):
                coef, left, right = exps.at(evals, i)
                shift, lift = w * coef[0], coef[1:]
                rf = _substitute(values[n - k], right, w)
                for b, x in _substitute(values[k - 1], left, w).items():
                    b, x = tuple(map(add, b, lift)), x << shift
                    for c, y in rf.items():
                        key = tuple(map(add, b, c))
                        acc[key] = acc.get(key, 0) + x * y
    mask = (1 << w) - 1
    out = []
    for value in values:
        terms = {}
        for b, x in value.items():
            a = 0
            while x:
                if x & mask:
                    terms[(a,) + b] = x & mask
                x >>= w
                a += 1
        out.append(MultiPoly(spec.variables, terms))
    return out


def eval_full(spec: FuncRecSpec, n_max: int) -> EnumeratorSequence:
    """Exact polynomial enumerators Q_0 .. Q_n_max, for n_max up to the
    spec's `full_limit`."""
    if n_max < 0:
        raise UsageError("n_max must be >= 0")
    if n_max > spec.full_limit:
        raise UsageError(
            f"full mode on {spec.label} is capped at n = {spec.full_limit}, got "
            f"n = {n_max}; use truncated mode for moment work"
        )
    return EnumeratorSequence(spec, None, _packed_walk(spec, n_max))


def eval_truncated(spec: FuncRecSpec, n_max: int, cap: int) -> EnumeratorSequence:
    """Taylor expansions of Q_0 .. Q_n_max about all-ones, total degree <= cap.

    The series coefficients are exact: coefficient of prod z_i^(e_i) equals
    the corresponding mixed Taylor coefficient of the full enumerator.  The
    walk is `truncated.walk`.
    """
    if n_max < 0:
        raise UsageError("n_max must be >= 0")
    if cap < 1:
        raise UsageError("cap must be >= 1")
    # imported here, so that commands which never evaluate truncated mode
    # do not compile it in a process that has no bytecode cache
    from .truncated import walk

    return EnumeratorSequence(spec, cap, walk(spec, n_max, cap))


# -- builtin catalog -------------------------------------------------------

_K_MINUS_1 = IndexPoly({(0, 1): 1, (0, 0): -1})           # k - 1
_N_MINUS_K = IndexPoly({(1, 0): 1, (0, 1): -1})           # n - k
_K = IndexPoly({(0, 1): 1})                               # k
_K_TIMES_NK = IndexPoly({(1, 1): 1, (0, 2): -1})          # k(n - k)
_K1_TIMES_NK = IndexPoly({(1, 1): 1, (0, 2): -1, (1, 0): -1, (0, 1): 1})  # (k-1)(n-k)


def _spec_av132_univariate(stat: str, exponent: Exponent, full_limit: int) -> FuncRecSpec:
    return FuncRecSpec(
        "av132",
        stat,
        ("t",),
        [RecTerm(coef=(exponent,))],
        tracked=(("t", stat),),
        full_limit=full_limit,
    )


def _spec_av132_catalytic(stat, coef_t, coef_q, left_images, right_images, q_pattern, full_limit):
    variables = ("t", "q")
    left = subst_matrix(variables, left_images) if left_images else None
    right = subst_matrix(variables, right_images) if right_images else None
    return FuncRecSpec(
        "av132",
        stat,
        variables,
        [RecTerm(coef=(coef_t, coef_q), left=left, right=right)],
        tracked=(("t", stat), ("q", q_pattern)),
        full_limit=full_limit,
    )


def _spec_av123_213() -> FuncRecSpec:
    variables = ("t", "s1", "s2")
    boundary = RecTerm(
        coef=(0, 0, 1),  # coefficient s2
        k_low=1,
        k_high=1,
    )
    bulk = RecTerm(
        coef=(0, 0, 0),  # coefficient 1
        k_low=2,
        left=subst_matrix(variables, {"s1": {"t": 1, "s1": 1}, "s2": {"s1": 1, "s2": 1}}),
    )
    return FuncRecSpec(
        "av123", "213", variables, [boundary, bulk], tracked=(("t", "213"),), full_limit=18
    )


# Each spec's full_limit caps eval_full.  The caps come from an earlier walk
# that multiplied polynomials term by term; raising one would change which
# runs succeed, so they stay.  At its cap the packed walk takes, in process on
# a 2-vCPU VM (Python 3.11), about 0.1 s for 21 and 12 (n = 42), 0.3-0.6 s
# for the catalytic av132 specs (n = 18, or 20 for 123) and 0.4 s for
# av123:213 (n = 18); the multi-variable specs cost 1.8-3x more every two
# steps past their caps.  av132:132 is a single monomial and keeps the default.
_CATALOG_BUILDERS = {
    ("av132", "21"): lambda: _spec_av132_univariate("21", _K_TIMES_NK, 42),
    ("av132", "12"): lambda: _spec_av132_univariate("12", _K_MINUS_1, 42),
    ("av132", "132"): lambda: _spec_av132_univariate("132", 0, DEFAULT_FULL_LIMIT),
    ("av132", "231"): lambda: _spec_av132_catalytic(
        "231", _K1_TIMES_NK, _K_MINUS_1, {"q": {"t": _N_MINUS_K, "q": 1}}, None, "12", 18
    ),
    ("av132", "123"): lambda: _spec_av132_catalytic(
        "123", 0, _K_MINUS_1, {"q": {"t": 1, "q": 1}}, None, "12", 20
    ),
    ("av132", "321"): lambda: _spec_av132_catalytic(
        "321", 0, _K_TIMES_NK, {"q": {"t": _N_MINUS_K, "q": 1}}, {"q": {"t": _K, "q": 1}}, "21", 18
    ),
    ("av132", "213"): lambda: _spec_av132_catalytic(
        "213", 0, _K_TIMES_NK, {"q": {"t": 1, "q": 1}}, None, "21", 18
    ),
    ("av132", "312"): lambda: _spec_av132_catalytic(
        "312", 0, _K_MINUS_1, None, {"q": {"t": _K, "q": 1}}, "12", 18
    ),
    ("av123", "213"): _spec_av123_213,
}


def builtin_families() -> "list[tuple[str, str]]":
    return sorted(_CATALOG_BUILDERS)


def builtin_spec(family: str, statistic: str) -> FuncRecSpec:
    key = (family, statistic)
    if key not in _CATALOG_BUILDERS:
        known = ", ".join(f"{f}:{s}" for f, s in builtin_families())
        raise UsageError(f"no builtin recurrence for {family}:{statistic}; available: {known}")
    return _CATALOG_BUILDERS[key]()


# -- brute-force oracle ----------------------------------------------------


def verify_catalog(max_n: int, limit: int = DEFAULT_ORACLE_LIMIT) -> "dict[str, tuple | None]":
    """Check every catalog spec's full-mode enumerators against brute force
    for n = 0..max_n.

    Maps each spec label, in catalog order, to None when all agree, else to
    (first mismatching n, engine polynomial, brute-force polynomial).  Per n
    the 132-avoiders are walked once: one enumerator counts every tracked
    av132 pattern jointly, and each av132 spec's enumerator is read off it.
    The av123 spec is checked against the (213, sigma1, sigma2) enumerator.
    """
    if max_n > limit:
        raise UsageError(f"brute force is capped at n = {limit}; asked for {max_n}")
    specs = [builtin_spec(family, stat) for family, stat in builtin_families()]
    engine = {spec.label: eval_full(spec, max_n).values for spec in specs}
    patterns = sorted({pat for spec in specs if spec.family == "av132" for _, pat in spec.tracked})
    stats = [parse_perm(p) for p in patterns]
    result: "dict[str, tuple | None]" = dict.fromkeys(engine)
    for n in range(max_n + 1):
        joint = brute_weight_enum(AV132, stats, n, patterns, limit)
        for spec in specs:
            if result[spec.label] is not None:
                continue
            if spec.family == "av132":
                # each spec variable takes its pattern's exponent, and the
                # untracked patterns go to 1
                names = [dict(spec.tracked)[v] for v in spec.variables]
                brute = MultiPoly(spec.variables, joint.project(names).terms)
            else:
                brute = brute_sigma_enum(n, limit)
            if engine[spec.label][n] != brute:
                result[spec.label] = (n, engine[spec.label][n], brute)
    return result
