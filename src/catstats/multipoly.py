"""Sparse multivariate polynomials and (n, k)-indexed exponent polynomials.

All arithmetic is exact.  Coefficients are Python ints or fractions.Fraction;
integral values are collapsed to int on the way in, so computations whose
coefficients happen to stay integral (every weight enumerator here) never pay
Fraction normalization costs.

Terms are a dict mapping exponent tuples (one entry per variable, order fixed
by the `variables` tuple) to nonzero coefficients.  Equality is structural.
Printed term order is graded lexicographic, ascending.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .errors import UsageError

Coeff = "int | Fraction"
Expvec = "tuple[int, ...]"


def norm_coeff(c):
    """Collapse integral Fraction to int; reject non-rational input."""
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return c
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
        nv = len(self.variables)
        clean = {}
        if terms:
            for exps, c in terms.items():
                c = norm_coeff(c)
                if c == 0:
                    continue
                exps = tuple(exps)
                if len(exps) != nv or any(e < 0 or not isinstance(e, int) for e in exps):
                    raise UsageError(f"bad exponent vector {exps} for variables {self.variables}")
                clean[exps] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables) -> "MultiPoly":
        return cls(variables)

    @classmethod
    def constant(cls, variables, c) -> "MultiPoly":
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): c})

    @classmethod
    def one(cls, variables) -> "MultiPoly":
        return cls.constant(variables, 1)

    @classmethod
    def monomial(cls, variables, exps, c=1) -> "MultiPoly":
        return cls(variables, {tuple(exps): c})

    @classmethod
    def variable(cls, variables, name) -> "MultiPoly":
        variables = tuple(variables)
        if name not in variables:
            raise UsageError(f"unknown variable {name!r}")
        exps = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, {exps: 1})

    # -- basics ------------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    def _check_compatible(self, other: "MultiPoly") -> None:
        if self.variables != other.variables:
            raise UsageError(f"variable mismatch: {self.variables} vs {other.variables}")

    def coefficient(self, exps) -> "int | Fraction":
        return self.terms.get(tuple(exps), 0)

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def sorted_terms(self) -> "list[tuple[tuple, int | Fraction]]":
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            return self + MultiPoly.constant(self.variables, other)
        self._check_compatible(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            out[exps] = out.get(exps, 0) + c
        return MultiPoly(self.variables, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.variables, other)
        return self + (-other)

    def __rsub__(self, other):
        return MultiPoly.constant(self.variables, other) - self

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            c = norm_coeff(other)
            if c == 0:
                return MultiPoly.zero(self.variables)
            return MultiPoly(self.variables, {e: k * c for e, k in self.terms.items()})
        self._check_compatible(other)
        out = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                out[key] = out.get(key, 0) + ca * cb
        return MultiPoly(self.variables, out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise UsageError("negative polynomial power")
        out = MultiPoly.one(self.variables)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    # -- structural operations ---------------------------------------------

    def subst_monomial(self, images: "Mapping[str, tuple]") -> "MultiPoly":
        """Substitute each variable by a unit-coefficient monomial.

        `images` maps a variable name to the exponent vector of its image
        (over the same variable tuple); missing variables map to themselves.
        """
        nv = len(self.variables)
        rows = []
        for i, v in enumerate(self.variables):
            if v in images:
                img = tuple(images[v])
                if len(img) != nv or any(e < 0 for e in img):
                    raise UsageError(f"bad image exponents {img} for {v!r}")
                rows.append(img)
            else:
                rows.append(tuple(1 if j == i else 0 for j in range(nv)))
        out = {}
        for exps, c in self.terms.items():
            new = [0] * nv
            for e, row in zip(exps, rows):
                if e:
                    for j in range(nv):
                        new[j] += e * row[j]
            key = tuple(new)
            out[key] = out.get(key, 0) + c
        return MultiPoly(self.variables, out)

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

    Used for exponents inside functional recurrences: coefficient atoms carry
    t_i ^ E(n, k) and substitution images carry per-variable exponent entries.
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
