"""Catalan-type functional recurrences with catalytic variables.

A spec describes how the weight enumerator Q_n of a pattern statistic over an
avoidance family decomposes at the position k of the maximum:

    Q_0 = 1
    Q_n = sum over terms, sum over k in the term's range of
          coef(n, k) * subst_L(Q_(k-1)) * subst_R(Q_(n-k))

where coef is a sum of atoms c * n^a * k^b * prod_i t_i^(E_i(n,k)) and each
substitution sends every variable to a monomial in the variables with
exponents that are themselves integer polynomials in (n, k).  This shape is
exactly what splitting an avoider at its maximum produces: the statistic of
the whole is an index-dependent affine combination of the statistics of the
two parts, which exponent bookkeeping turns into monomial substitutions.

One driver, `_recur`, walks the recurrence; it is handed the ring to work in
(its unit, how to build a coefficient atom, how to apply a substitution) and
evaluates each summand's exponents once.  Two rings use it.  The mass check
runs it in the integers with every substitution the identity: at the
all-ones point the recurrence must reproduce the Catalan numbers.  Full mode
runs it in MultiPoly (exponential-size output, exact).

Truncated mode keeps Taylor expansions about the all-ones point to a fixed
total degree, which is all the moment pipeline ever reads.  Each value is a
TruncatedSeries: a plain coefficient list over a SeriesBasis, with no
arithmetic of its own.  Substitution images fix the all-ones point
(monomials always do), so truncation commutes with the recurrence and the
truncated values are exact initial segments, not approximations.  Its walk
(truncated.py) is transposed: one n at a time, each term's k-sum formed once
over the whole k-window.  Every stored Q_m goes through each substitution
once.  A constant substitution is a linear map on the coefficient vector,
applied directly; a varying one is split into per-index differences Delta_d
(d <= cap) with per-(n, k) weights C(a(n, k), d), exact because every entry
of the substitution's operator is a polynomial of total degree <= cap in its
varying exponents a.  For each n the window's coefficients are laid out as
one column per basis monomial; varying substitutions and coefficient
monomials (binomial shifts along one variable) enter as per-window weight
vectors, and the product summed over k is one C-level dot product per in-cap
pair of monomials.

The builtin catalog covers the seven length-3-pattern statistics on the
132-avoiders (one catalytic variable) and the 213 statistic on the
123-avoiders (two catalytic variables driven by the insertion map; see
perms.py).  Every spec is mass-checked at construction time, and
`verify_catalog` checks the whole catalog against the brute-force
enumerators of perms.py.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping, NamedTuple, Sequence

from .errors import UsageError
from .multipoly import IndexPoly, MultiPoly, index_poly
from .perms import (
    AV132,
    DEFAULT_ORACLE_LIMIT,
    brute_sigma_enum,
    brute_weight_enum,
    catalan_list,
    parse_perm,
)

DEFAULT_FULL_LIMIT = 64


class CoefAtom(NamedTuple):
    """factor * n^n_deg * k^k_deg * prod_i var_i ^ var_exps[i](n, k)."""

    var_exps: "tuple[IndexPoly, ...]"
    factor: "int | Fraction" = 1
    n_deg: int = 0
    k_deg: int = 0

    def scalar(self, n: int, k: int):
        return self.factor * n**self.n_deg * k**self.k_deg


# Substitution: image of variable i is prod_j var_j ^ matrix[i][j](n, k).
SubstMatrix = "tuple[tuple[IndexPoly, ...], ...]"


class RecTerm(NamedTuple):
    """One summand of the recurrence.

    The sum runs k = k_low .. n by default; k_high pins an absolute upper
    bound instead (k_high=1 with k_low=1 encodes a single boundary summand,
    which the 123-family recurrence needs).
    """

    atoms: "tuple[CoefAtom, ...]"
    k_low: int = 1
    k_high: "int | None" = None
    left: "SubstMatrix | None" = None
    right: "SubstMatrix | None" = None

    def k_range(self, n: int) -> range:
        return range(self.k_low, (n if self.k_high is None else min(self.k_high, n)) + 1)


def subst_matrix(variables: "Sequence[str]", images: Mapping) -> SubstMatrix:
    """Build a substitution matrix from {source: {target: exponent}}.

    Unmentioned variables map to themselves; exponents are IndexPoly or int.
    """
    variables = tuple(variables)
    for src in images:
        if src not in variables:
            raise UsageError(f"unknown substitution source {src!r}")
    rows = []
    for i, v in enumerate(variables):
        img = images.get(v)
        if img is None:
            rows.append(tuple(IndexPoly.ONE if j == i else IndexPoly.ZERO for j in range(len(variables))))
        else:
            row = []
            for j, u in enumerate(variables):
                e = img.get(u, 0)
                row.append(index_poly(e) if not isinstance(e, IndexPoly) else e)
            rows.append(tuple(row))
    return tuple(rows)


class FuncRecSpec:
    """A validated functional recurrence for one (family, statistic) pair."""

    __slots__ = ("family", "statistic", "variables", "terms", "tracked", "full_limit")

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
        for term in self.terms:
            if term.k_low < 1:
                raise UsageError("k_low must be >= 1")
            if term.k_high is not None and term.k_high < term.k_low:
                raise UsageError("k_high must be >= k_low")
            if not term.atoms:
                raise UsageError("a term needs at least one coefficient atom")
            for atom in term.atoms:
                if len(atom.var_exps) != nv:
                    raise UsageError("atom exponent arity does not match variables")
            for mat in (term.left, term.right):
                if mat is not None and (
                    len(mat) != nv or any(len(row) != nv for row in mat)
                ):
                    raise UsageError("substitution matrix arity does not match variables")
        self._mass_check()

    @property
    def label(self) -> str:
        return f"{self.family}:{self.statistic}"

    def _mass_check(self, n_max: int = 12) -> None:
        """At the all-ones point the recurrence must reproduce the Catalan
        numbers; exponent data must also evaluate non-negative on the range."""
        mass = _recur(self, n_max, 1, lambda scalar, exps: scalar, lambda value, rows: value)
        for n, (total, want) in enumerate(zip(mass, catalan_list(n_max))):
            if total != want:
                raise UsageError(
                    f"{self.label}: mass check failed at n = {n}: {total} != {want}"
                )

    def __repr__(self):
        return f"FuncRecSpec({self.label}, vars={self.variables}, {len(self.terms)} terms)"


class EnumeratorSequence(NamedTuple):
    """Q_0 .. Q_N as produced by one of the evaluators."""

    spec: FuncRecSpec
    mode: str  # "full" | "truncated"
    cap: "int | None"
    values: list


# -- the recurrence walk ---------------------------------------------------


def _recur(spec: FuncRecSpec, n_max: int, one, coefficient: Callable, substitute: Callable) -> list:
    """Q_0 .. Q_n_max of `spec` in the ring whose unit is `one`.

    `coefficient(scalar, exps)` is the ring element of one coefficient atom
    at (n, k): its scalar times the monomial with exponent vector `exps`.
    `substitute(value, rows)` applies a substitution whose evaluated exponent
    matrix `rows` is not the identity.  Each summand's exponents are
    evaluated once (constant ones once per walk), and a negative one is a
    UsageError naming (n, k).  A unit coefficient is not multiplied in;
    otherwise the product is formed as (coef * L) * R.  Truncated mode walks
    in the same order and names the same first (n, k).
    """
    nv = len(spec.variables)
    identity = tuple(tuple(int(i == j) for j in range(nv)) for i in range(nv))
    walks = []
    for term in spec.terms:
        # the atoms' exponent vectors, then the rows of the left and right matrices
        polys = [e for a in term.atoms for e in a.var_exps]
        polys += [e for mat in (term.left, term.right) if mat is not None for row in mat for e in row]
        walks.append((term, [e.eval(0, 0) if e.is_constant() else e for e in polys]))
    zero = one * 0
    values = [one]
    for n in range(1, n_max + 1):
        acc = zero
        for term, polys in walks:
            na = len(term.atoms)
            for k in term.k_range(n):
                ev = [e if type(e) is int else e.eval(n, k) for e in polys]
                if min(ev) < 0:
                    raise UsageError(f"{spec.label}: negative exponent at (n={n}, k={k})")
                vecs = [tuple(ev[i:i + nv]) for i in range(0, len(ev), nv)]
                mats = [tuple(vecs[i:i + nv]) for i in range(na, len(vecs), nv)]
                lf, rf = values[k - 1], values[n - k]
                if term.left is not None and mats[0] != identity:
                    lf = substitute(lf, mats[0])
                if term.right is not None and mats[-1] != identity:
                    rf = substitute(rf, mats[-1])
                scalars = [a.scalar(n, k) for a in term.atoms]
                if scalars != [1] or any(vecs[0]):
                    coef = None
                    for scalar, exps in zip(scalars, vecs):
                        piece = coefficient(scalar, exps)
                        coef = piece if coef is None else coef + piece
                    lf = coef * lf
                acc = acc + lf * rf
        values.append(acc)
    return values


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
    variables = spec.variables
    values = _recur(
        spec,
        n_max,
        MultiPoly.one(variables),
        lambda scalar, exps: MultiPoly.monomial(variables, exps, scalar),
        lambda p, rows: p.subst_monomial(dict(zip(variables, rows))),
    )
    return EnumeratorSequence(spec, "full", None, values)


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

    return EnumeratorSequence(spec, "truncated", cap, walk(spec, n_max, cap))


# -- builtin catalog -------------------------------------------------------

_E = index_poly
_K_MINUS_1 = _E({(0, 1): 1, (0, 0): -1})           # k - 1
_N_MINUS_K = _E({(1, 0): 1, (0, 1): -1})           # n - k
_K = _E({(0, 1): 1})                               # k
_K_TIMES_NK = _E({(1, 1): 1, (0, 2): -1})          # k(n - k)
_K1_TIMES_NK = _E({(1, 1): 1, (0, 2): -1, (1, 0): -1, (0, 1): 1})  # (k-1)(n-k)
_ZERO = IndexPoly.ZERO
_ONE = IndexPoly.ONE


def _atom(*var_exps) -> CoefAtom:
    return CoefAtom(var_exps=tuple(var_exps))


def _spec_av132_univariate(stat: str, exponent: IndexPoly, full_limit: int) -> FuncRecSpec:
    return FuncRecSpec(
        "av132",
        stat,
        ("t",),
        [RecTerm(atoms=(_atom(exponent),))],
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
        [RecTerm(atoms=(_atom(coef_t, coef_q),), left=left, right=right)],
        tracked=(("t", stat), ("q", q_pattern)),
        full_limit=full_limit,
    )


def _spec_av123_213() -> FuncRecSpec:
    variables = ("t", "s1", "s2")
    boundary = RecTerm(
        atoms=(_atom(_ZERO, _ZERO, _ONE),),  # coefficient s2
        k_low=1,
        k_high=1,
    )
    bulk = RecTerm(
        atoms=(_atom(_ZERO, _ZERO, _ZERO),),  # coefficient 1
        k_low=2,
        left=subst_matrix(variables, {"s1": {"t": 1, "s1": 1}, "s2": {"s1": 1, "s2": 1}}),
    )
    return FuncRecSpec(
        "av123", "213", variables, [boundary, bulk], tracked=(("t", "213"),), full_limit=18
    )


# Each spec's full_limit is the largest n, in steps of two, at which eval_full
# finished within about 6 s on a 2-vCPU VM (Python 3.11).  Past it the cost
# grows about 3x every two steps for the catalytic specs and 1.3x for 21 and
# 12; av132:132 is a single monomial and keeps the default.
_CATALOG_BUILDERS = {
    ("av132", "21"): lambda: _spec_av132_univariate("21", _K_TIMES_NK, 42),
    ("av132", "12"): lambda: _spec_av132_univariate("12", _K_MINUS_1, 42),
    ("av132", "132"): lambda: _spec_av132_univariate("132", _ZERO, DEFAULT_FULL_LIMIT),
    ("av132", "231"): lambda: _spec_av132_catalytic(
        "231", _K1_TIMES_NK, _K_MINUS_1, {"q": {"t": _N_MINUS_K, "q": 1}}, None, "12", 18
    ),
    ("av132", "123"): lambda: _spec_av132_catalytic(
        "123", _ZERO, _K_MINUS_1, {"q": {"t": 1, "q": 1}}, None, "12", 20
    ),
    ("av132", "321"): lambda: _spec_av132_catalytic(
        "321",
        _ZERO,
        _K_TIMES_NK,
        {"q": {"t": _N_MINUS_K, "q": 1}},
        {"q": {"t": _K, "q": 1}},
        "21",
        18,
    ),
    ("av132", "213"): lambda: _spec_av132_catalytic(
        "213", _ZERO, _K_TIMES_NK, {"q": {"t": 1, "q": 1}}, None, "21", 18
    ),
    ("av132", "312"): lambda: _spec_av132_catalytic(
        "312", _ZERO, _K_MINUS_1, None, {"q": {"t": _K, "q": 1}}, "12", 18
    ),
    ("av123", "213"): _spec_av123_213,
}

_CATALOG_CACHE: dict = {}


def builtin_families() -> "list[tuple[str, str]]":
    return sorted(_CATALOG_BUILDERS)


def builtin_spec(family: str, statistic: str) -> FuncRecSpec:
    key = (family, statistic)
    if key not in _CATALOG_BUILDERS:
        known = ", ".join(f"{f}:{s}" for f, s in builtin_families())
        raise UsageError(f"no builtin recurrence for {family}:{statistic}; available: {known}")
    if key not in _CATALOG_CACHE:
        _CATALOG_CACHE[key] = _CATALOG_BUILDERS[key]()
    return _CATALOG_CACHE[key]


# -- brute-force oracle ----------------------------------------------------


def _read_off(joint: MultiPoly, spec: FuncRecSpec) -> MultiPoly:
    """A spec's enumerator from the joint enumerator over pattern variables:
    untracked patterns go to 1, each spec variable takes its pattern's exponent."""
    names = [dict(spec.tracked)[v] for v in spec.variables]
    kept = joint.specialize_ones(v for v in joint.variables if v not in names)
    pos = [kept.variables.index(name) for name in names]
    return MultiPoly(
        spec.variables, {tuple(e[i] for i in pos): c for e, c in kept.terms.items()}
    )


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
                brute = _read_off(joint, spec)
            else:
                brute = brute_sigma_enum(n, limit)
            if engine[spec.label][n] != brute:
                result[spec.label] = (n, engine[spec.label][n], brute)
    return result
