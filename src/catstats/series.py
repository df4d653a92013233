"""Truncated multivariate power series (total degree cap, exact coefficients).

A series is a dense coefficient list over a SeriesBasis: the graded-lex-ordered
list of all monomials in the deviation variables with total degree <= cap.
Each basis keeps, per monomial i, the list of (j, index of i*j) over the
monomials j whose product with i stays within the cap, so `mul_into`, the one
product loop, walks only in-cap pairs instead of hashing exponent tuples; and,
per variable v, the chain of i's lowerings along v, so `binomial_shift`, the
one loop that multiplies by (1 + z_v)^E, walks only monomials in the basis.
Bases are interned per (variables, cap).  `TruncatedSeries` pairs a list with
its basis for readers that look coefficients up by exponent vector.

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
from itertools import repeat
from math import prod
from operator import add, floordiv, getitem, mul, sub
from typing import NamedTuple, Sequence

from .errors import UsageError


def monomials_upto(nvars: int, cap: int) -> "list[tuple[int, ...]]":
    out = [()]
    for _ in range(nvars):
        out = [e + (j,) for e in out for j in range(cap + 1 - sum(e))]
    out.sort(key=lambda e: (sum(e), e))
    return out


class SeriesBasis:
    """Shared monomial enumeration, in-cap product pairs and lowering chains
    for one (variables, cap)."""

    _interned: "dict[tuple, SeriesBasis]" = {}

    __slots__ = ("variables", "cap", "monomials", "index", "pairs", "lowerings")

    def __new__(cls, variables: "tuple[str, ...]", cap: int):
        key = (tuple(variables), cap)
        hit = cls._interned.get(key)
        if hit is not None:
            return hit
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
        # lowerings[v][i] = [(j, index of monomial i lowered by j in v)], j >= 1
        self.lowerings = [
            [[(j, self.index[e[:v] + (e[v] - j,) + e[v + 1:]]) for j in range(1, e[v] + 1)]
             for e in self.monomials]
            for v in range(len(self.variables))
        ]
        cls._interned[key] = self
        return self

    def __len__(self) -> int:
        return len(self.monomials)

    def __repr__(self):
        return f"SeriesBasis({self.variables!r}, cap={self.cap}, {len(self)} monomials)"


class TruncatedSeries(NamedTuple):
    """Dense exact coefficients over a SeriesBasis."""

    basis: SeriesBasis
    coeffs: list

    def coefficient(self, exps) -> "int | Fraction":
        i = self.basis.index.get(tuple(exps))
        if i is None:
            raise UsageError(f"monomial {tuple(exps)} outside basis cap {self.basis.cap}")
        return self.coeffs[i]


def mul_into(out: list, pairs: list, a: "Sequence", b: "Sequence") -> None:
    """Add the truncated product of the coefficient lists a and b to out,
    all over the basis whose in-cap pair table is `pairs`."""
    for x, row in zip(a, pairs):
        if x:
            for j, t in row:
                y = b[j]
                if y:
                    out[t] += x * y


def binomial_rows(values: "Sequence[int]", cap: int) -> "list[list[int]]":
    """[C(a, d) for a in values] for d = 0 .. cap, every a >= 0.

    Multiplicative recurrence; never touches factorials of a.
    """
    rows = [[1] * len(values)]
    for d in range(1, cap + 1):
        tops = map(sub, values, repeat(d - 1))
        rows.append(list(map(floordiv, map(mul, rows[-1], tops), repeat(d))))
    return rows


def binomial_shift(cols: list, lowering: list, rows: list) -> list:
    """Columns times (1 + z_v)^E: `cols` holds one column per basis monomial,
    each running over the positions of a window, `lowering` is the basis's
    `lowerings[v]` and rows[j] holds C(E, j) at each position."""
    shifted = []
    for col, chain in zip(cols, lowering):
        for j, src in chain:  # a column's sum stays lazy until it is listed
            col = map(add, col, map(mul, rows[j], cols[src]))
        shifted.append(list(col))
    return shifted


def monomial_coeffs(basis: SeriesBasis, exps: "Sequence[int]") -> list:
    """The monomial prod_i v_i^exps[i] as the coefficients of the series
    prod_i (1 + z_i)^exps[i]: prod_i C(exps[i], f_i) at z^f."""
    powers = list(zip(*binomial_rows(exps, basis.cap)))  # powers[i][d] = C(exps[i], d)
    return [prod(map(getitem, powers, f)) for f in basis.monomials]


def substitution_operator(
    basis: SeriesBasis, rows: "Sequence[Sequence[int]]"
) -> "list[list[tuple[int, int]]]":
    """The linear map of the monomial substitution v_i -> prod_j v_j^rows[i][j].

    In deviation variables the image of z_i is image_i - 1, where image_i is
    `monomial_coeffs` of rows[i] (an identity row sends z_i to itself); it
    has no constant term, so the image of z^e is the truncated product of
    (image_i - 1)^e_i.  Columns are built in graded order,
    column(e) = column(e - u_i) * (image_i - 1) with i the first variable
    in e, which is one series product per basis monomial.  The operator is
    returned per source index as its (target index, coefficient) list.
    Exponents must be >= 0.
    """
    devs = [monomial_coeffs(basis, row) for row in rows]
    for dev in devs:
        dev[0] -= 1
    cols = [[1] + [0] * (len(basis) - 1)]
    for e in basis.monomials[1:]:
        i = next(i for i, x in enumerate(e) if x)
        prev = basis.index[e[:i] + (e[i] - 1,) + e[i + 1:]]
        col = [0] * len(basis)
        mul_into(col, basis.pairs, cols[prev], devs[i])
        cols.append(col)
    return [[(t, c) for t, c in enumerate(col) if c] for col in cols]


def apply_operator(op: "list[list[tuple[int, int]]]", coeffs: "Sequence") -> "list":
    """The image of a coefficient vector under an operator built by
    `substitution_operator` over the same basis."""
    out = [0] * len(op)
    for c, col in zip(coeffs, op):
        if c:
            for t, m in col:
                out[t] += c * m
    return out
