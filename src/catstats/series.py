"""Truncated multivariate power series (total degree cap, exact coefficients).

A series lives in a SeriesBasis: the graded-lex-ordered list of all monomials
in the deviation variables with total degree <= cap.  Coefficients are stored
densely, indexed by that list.  Each basis keeps, per monomial i, the list
of (j, index of i*j) over the monomials j whose product with i stays within
the cap, so multiplication walks only in-cap pairs instead of hashing
exponent tuples.  Bases are interned per (variables, cap).

A monomial substitution fixes the all-ones point, so composing a series with
it is a linear map on the coefficient vector: `substitution_operator` builds
that map once as a sparse matrix and `apply_operator` applies it.

The intended reading everywhere in this package: the variables are deviations
z_v = v - 1 from the all-ones point, and a series holds the Taylor expansion
of a polynomial (or enumerator) around that point, truncated past the cap.
"""
from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from operator import add
from typing import Iterable, Sequence

from .errors import UsageError
from .multipoly import MultiPoly, norm_coeff


def monomials_upto(nvars: int, cap: int) -> "list[tuple[int, ...]]":
    out = [()]
    for _ in range(nvars):
        out = [e + (j,) for e in out for j in range(cap + 1 - sum(e))]
    out.sort(key=lambda e: (sum(e), e))
    return out


class SeriesBasis:
    """Shared monomial enumeration + in-cap product pairs for one (variables, cap)."""

    _interned: "dict[tuple, SeriesBasis]" = {}

    __slots__ = ("variables", "cap", "monomials", "index", "pairs")

    def __new__(cls, variables: "tuple[str, ...]", cap: int):
        key = (tuple(variables), cap)
        hit = cls._interned.get(key)
        if hit is not None:
            return hit
        if cap < 1:
            raise UsageError("series cap must be >= 1")
        self = object.__new__(cls)
        self.variables = key[0]
        self.cap = cap
        self.monomials = monomials_upto(len(self.variables), cap)
        self.index = {e: i for i, e in enumerate(self.monomials)}
        # pairs[i] = [(j, index of monomial i*j)] for every j with i*j within
        # the cap: the monomials are sorted by degree, so those j form a prefix
        degs = [sum(e) for e in self.monomials]
        self.pairs = [
            [
                (j, self.index[tuple(map(add, ea, eb))])
                for j, eb in enumerate(self.monomials[: bisect_right(degs, cap - da)])
            ]
            for ea, da in zip(self.monomials, degs)
        ]
        cls._interned[key] = self
        return self

    def __len__(self) -> int:
        return len(self.monomials)

    def __repr__(self):
        return f"SeriesBasis({self.variables!r}, cap={self.cap}, {len(self)} monomials)"


class TruncatedSeries:
    """Dense exact series over a SeriesBasis."""

    __slots__ = ("basis", "coeffs")

    def __init__(self, basis: SeriesBasis, coeffs: "Sequence | None" = None):
        self.basis = basis
        if coeffs is None:
            self.coeffs = [0] * len(basis)
        else:
            if len(coeffs) != len(basis):
                raise UsageError("coefficient list does not match basis size")
            self.coeffs = [norm_coeff(c) for c in coeffs]

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, basis: SeriesBasis, c) -> "TruncatedSeries":
        s = cls(basis)
        s.coeffs[0] = norm_coeff(c)
        return s

    def copy(self) -> "TruncatedSeries":
        s = TruncatedSeries(self.basis)
        s.coeffs = list(self.coeffs)
        return s

    # -- basics ------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.basis is other.basis and self.coeffs == other.coeffs

    def __bool__(self):
        return any(self.coeffs)

    def coefficient(self, exps) -> "int | Fraction":
        i = self.basis.index.get(tuple(exps))
        if i is None:
            raise UsageError(f"monomial {tuple(exps)} outside basis cap {self.basis.cap}")
        return self.coeffs[i]

    def constant_term(self):
        return self.coeffs[0]

    def _check(self, other: "TruncatedSeries"):
        if self.basis is not other.basis:
            raise UsageError("series from different bases (variables or cap differ)")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            out = self.copy()
            out.coeffs[0] = norm_coeff(out.coeffs[0] + other)
            return out
        self._check(other)
        out = TruncatedSeries(self.basis)
        out.coeffs = [a + b for a, b in zip(self.coeffs, other.coeffs)]
        return out

    __radd__ = __add__

    def __neg__(self):
        out = TruncatedSeries(self.basis)
        out.coeffs = [-a for a in self.coeffs]
        return out

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            out = self.copy()
            out.coeffs[0] = norm_coeff(out.coeffs[0] - other)
            return out
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            c = norm_coeff(other)
            out = TruncatedSeries(self.basis)
            out.coeffs = [a * c for a in self.coeffs]
            return out
        self._check(other)
        out = [0] * len(self.basis)
        pairs = self.basis.pairs
        bc = other.coeffs
        for i, a in enumerate(self.coeffs):
            if a:
                for j, t in pairs[i]:
                    b = bc[j]
                    if b:
                        out[t] += a * b
        s = TruncatedSeries(self.basis)
        s.coeffs = out
        return s

    __rmul__ = __mul__

    def restrict(self, drop: "Iterable[str]") -> "TruncatedSeries":
        """Set the named original variables back to 1.

        At the expansion point a deviation fixed at 0 simply kills every
        monomial with a nonzero exponent in it; the survivors re-embed in the
        basis over the remaining variables at the same cap.
        """
        drop = set(drop)
        unknown = drop - set(self.basis.variables)
        if unknown:
            raise UsageError(f"unknown variables {sorted(unknown)}")
        keep_idx = [i for i, v in enumerate(self.basis.variables) if v not in drop]
        keep_vars = tuple(self.basis.variables[i] for i in keep_idx)
        if not keep_vars:
            raise UsageError("cannot restrict away every variable")
        new_basis = SeriesBasis(keep_vars, self.basis.cap)
        out = TruncatedSeries(new_basis)
        drop_idx = [i for i, v in enumerate(self.basis.variables) if v in drop]
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            e = self.basis.monomials[i]
            if any(e[d] for d in drop_idx):
                continue
            out.coeffs[new_basis.index[tuple(e[j] for j in keep_idx)]] = c
        return out

    # -- conversions and presentation --------------------------------------

    def __str__(self):
        return str(self.as_deviation_poly())

    def as_deviation_poly(self) -> MultiPoly:
        """The coefficients as a polynomial in the deviation variables themselves."""
        return MultiPoly(
            self.basis.variables,
            {e: c for e, c in zip(self.basis.monomials, self.coeffs) if c},
        )

    def __repr__(self):
        return f"TruncatedSeries(cap={self.basis.cap}, {self})"


# -- helpers ---------------------------------------------------------------


def binomial_coeffs(e: int, cap: int) -> "list[int]":
    """[C(e, 0), C(e, 1), ..., C(e, cap)] for arbitrarily large integer e >= 0.

    Multiplicative recurrence; never touches factorials of e.
    """
    if e < 0:
        raise UsageError("binomial exponent must be >= 0")
    out = [1]
    c = 1
    for j in range(1, cap + 1):
        c = c * (e - j + 1) // j
        out.append(c)
    return out


def binomial_series(basis: SeriesBasis, var: str, e: int) -> TruncatedSeries:
    """(1 + z_var)^e truncated at the basis cap."""
    try:
        vi = basis.variables.index(var)
    except ValueError:
        raise UsageError(f"unknown variable {var!r}") from None
    coeffs = binomial_coeffs(e, basis.cap)
    nv = len(basis.variables)
    s = TruncatedSeries(basis)
    for j, c in enumerate(coeffs):
        exps = tuple(j if i == vi else 0 for i in range(nv))
        s.coeffs[basis.index[exps]] = c
    return s


def monomial_series(basis: SeriesBasis, exps: "Sequence[int]") -> TruncatedSeries:
    """The monomial prod_i v_i^exps[i] as the series prod_i (1 + z_i)^exps[i]."""
    out = None
    for v, e in zip(basis.variables, exps):
        if e:
            f = binomial_series(basis, v, e)
            out = f if out is None else out * f
    return TruncatedSeries.constant(basis, 1) if out is None else out


def substitution_operator(
    basis: SeriesBasis, rows: "Sequence[Sequence[int]]"
) -> "list[list[tuple[int, int]]]":
    """The linear map of the monomial substitution v_i -> prod_j v_j^rows[i][j].

    In deviation variables the image of z_i is image_i - 1, where image_i is
    `monomial_series` of rows[i] (an identity row sends z_i to itself); it
    has no constant term, so the image of z^e is the truncated product of
    (image_i - 1)^e_i.  Columns are built in graded order,
    column(e) = column(e - u_i) * (image_i - 1) with i the first variable
    in e, which is one series product per basis monomial.  The operator is
    returned per source index as its (target index, coefficient) list.
    Exponents must be >= 0.
    """
    devs = [monomial_series(basis, row) - 1 for row in rows]
    cols = [TruncatedSeries.constant(basis, 1)]
    for e in basis.monomials[1:]:
        i = next(i for i, x in enumerate(e) if x)
        prev = basis.index[e[:i] + (e[i] - 1,) + e[i + 1:]]
        cols.append(cols[prev] * devs[i])
    return [[(t, c) for t, c in enumerate(col.coeffs) if c] for col in cols]


def apply_operator(op: "list[list[tuple[int, int]]]", coeffs: "Sequence") -> "list":
    """The image of a coefficient vector under an operator built by
    `substitution_operator` over the same basis."""
    out = [0] * len(op)
    for c, col in zip(coeffs, op):
        if c:
            for t, m in col:
                out[t] += c * m
    return out
