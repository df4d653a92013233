"""Sparse multivariate polynomials and (n, k)-indexed exponent polynomials.

A MultiPoly is a record with no arithmetic: the exact form in which full mode
and the brute-force oracles hand over weight enumerators.  It is built from a
terms dict, compared, specialized at 1, read as a dense univariate list and
printed.  Coefficients are Python ints or fractions.Fraction; integral values
are collapsed to int on the way in.

Terms are a dict mapping exponent tuples (one entry per variable, order fixed
by the `variables` tuple) to nonzero coefficients.  Equality is structural.
Printed term order is graded lexicographic, ascending.  The rational helpers
(`norm_coeff`, `coeff_to_str`, `coeff_from_str`, `join_signed`) serve every
exact wire format.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Iterable, Mapping

from .errors import UsageError


def norm_coeff(c):
    """Collapse integral Fraction to int; reject non-rational input."""
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise UsageError(f"coefficient must be int or Fraction, got {type(c).__name__}")


def coeff_to_str(c) -> str:
    """Wire form of a rational: always 'num/den'."""
    f = Fraction(c)
    return f"{f.numerator}/{f.denominator}"


def coeff_from_str(s: str):
    num, _, den = s.partition("/")
    return norm_coeff(Fraction(int(num), int(den) if den else 1))


def join_signed(terms: Iterable[str]) -> str:
    """Join signed terms as 'a - b + c': a later term's leading '-' becomes
    its operator.  No terms read as '0'."""
    out = []
    for t in terms:
        if not out:
            out.append(t)
        elif t.startswith("-"):
            out.append("- " + t[1:])
        else:
            out.append("+ " + t)
    return " ".join(out) or "0"


def grlex_key(exps: tuple) -> tuple:
    return (sum(exps), exps)


class MultiPoly:
    """Immutable-by-convention sparse polynomial over named variables."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Iterable[str], terms: Mapping | None = None):
        self.variables = tuple(variables)
        clean = {}
        if terms:
            for exps, c in terms.items():
                if type(c) is not int:
                    c = norm_coeff(c)
                if c:
                    clean[exps if type(exps) is tuple else tuple(exps)] = c
            # every exponent vector at once: their lengths, the types of the
            # entries (so that the minimum compares only ints), the minimum
            nv = len(self.variables)
            flat = list(chain.from_iterable(clean))
            if (
                set(map(len, clean)) - {nv}
                or not all(issubclass(t, int) for t in set(map(type, flat)))
                or min(flat, default=0) < 0
            ):
                for exps in clean:
                    if len(exps) != nv or not all(isinstance(e, int) and e >= 0 for e in exps):
                        raise UsageError(f"bad exponent vector {exps} for variables {self.variables}")
        self.terms = clean

    # -- basics ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def sorted_terms(self) -> "list[tuple[tuple, int | Fraction]]":
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]))

    # -- structural operations ---------------------------------------------

    def specialize_ones(self, names: Iterable[str]) -> "MultiPoly":
        """Set the named variables to 1 and drop them."""
        names = set(names)
        unknown = names - set(self.variables)
        if unknown:
            raise UsageError(f"unknown variables {sorted(unknown)}")
        keep = [i for i, v in enumerate(self.variables) if v not in names]
        out = {}
        for exps, c in self.terms.items():
            key = tuple(exps[i] for i in keep)
            out[key] = out.get(key, 0) + c
        return MultiPoly(tuple(self.variables[i] for i in keep), out)

    def univariate_coeffs(self) -> list:
        """Dense coefficient list [c_0..c_d]; the polynomial must be univariate."""
        if len(self.variables) != 1:
            raise UsageError("univariate_coeffs needs a one-variable polynomial")
        d = self.total_degree()
        out = [0] * (d + 1)
        for (e,), c in self.terms.items():
            out[e] = c
        return out

    # -- presentation ------------------------------------------------------

    def __str__(self) -> str:
        chunks = []
        for exps, c in self.sorted_terms():
            mono = "*".join(
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self.variables, exps) if e
            )
            if not mono:
                body = str(c)
            elif c == 1:
                body = mono
            elif c == -1:
                body = "-" + mono
            else:
                body = f"{c}{mono}" if isinstance(c, int) else f"{c}*{mono}"
            chunks.append(body)
        return join_signed(chunks)

    def __repr__(self) -> str:
        return f"MultiPoly({self.variables!r}, {str(self)!r})"


class IndexPoly:
    """Integer polynomial in the recurrence indices n and k.

    Used for exponents inside functional recurrences: a term's coefficient
    carries t_i ^ E(n, k) and substitution images carry per-variable exponent
    entries.
    Immutable; evaluation must be non-negative wherever it is used as an
    exponent (checked at the use site, not here).
    """

    __slots__ = ("terms",)

    def __init__(self, terms: "Mapping[tuple, int] | None" = None):
        clean = {}
        if terms:
            for (dn, dk), c in terms.items():
                if not isinstance(c, int):
                    raise UsageError("IndexPoly coefficients must be int")
                if c:
                    clean[(dn, dk)] = c
        self.terms = clean

    @classmethod
    def const(cls, c: int) -> "IndexPoly":
        return cls({(0, 0): c})

    ZERO: "IndexPoly"
    ONE: "IndexPoly"

    def eval(self, n: int, k: int) -> int:
        return sum(c * n**dn * k**dk for (dn, dk), c in self.terms.items())

    def is_constant(self) -> bool:
        return all(key == (0, 0) for key in self.terms)

    def __eq__(self, other):
        return isinstance(other, IndexPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "IndexPoly(0)"
        bits = []
        for (dn, dk), c in sorted(self.terms.items()):
            mono = ""
            for sym, d in (("n", dn), ("k", dk)):
                if d == 1:
                    mono += sym
                elif d > 1:
                    mono += f"{sym}^{d}"
            bits.append(f"{c}{mono}" if mono else str(c))
        return f"IndexPoly({' + '.join(bits)})"


IndexPoly.ZERO = IndexPoly()
IndexPoly.ONE = IndexPoly.const(1)


def index_poly(expr: "Mapping[tuple, int] | int") -> IndexPoly:
    """Shorthand: int -> constant, dict {(dn, dk): c} -> polynomial."""
    if isinstance(expr, int):
        return IndexPoly.const(expr)
    return IndexPoly(expr)
