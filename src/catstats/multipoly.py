"""Weight enumerators as records, and (n, k)-indexed exponent polynomials.

A MultiPoly is the exact form in which full mode and the brute-force oracles
hand over weight enumerators: the names of the variables and a terms dict
from exponent tuples (one non-negative int per variable, in the order of
`variables`) to positive int counts.  Every producer builds it that way, so
the record checks and normalizes nothing, and equality is the tuple's.  It
has one projection, `project`, which keeps the named variables and sets the
others to 1, and it prints its terms in ascending graded lexicographic order.

The rational helpers (`norm_coeff`, `coeff_to_str`, `coeff_from_str`,
`join_signed`) serve every exact wire format; no MultiPoly holds a Fraction.
"""
from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

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
    """The rational with wire form s: an integer or 'num/den', in ASCII
    digits, with an optional '-' on the numerator only."""
    if not re.fullmatch(r"-?[0-9]+(/[0-9]+)?", s):
        raise ValueError(f"not a rational: {s!r}")
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


class MultiPoly(NamedTuple):
    """The weight enumerator sum of c * prod_i variables[i]^e[i] over the
    items (e, c) of `terms`, every c a positive int."""

    variables: "tuple[str, ...]"
    terms: "dict[tuple, int]"

    def project(self, names: "Sequence[str]") -> "MultiPoly":
        """The enumerator over `names`, in that order, with every other
        variable set to 1.  Each name must be one of `variables`."""
        pos = [self.variables.index(v) for v in names]
        terms: "dict[tuple, int]" = {}
        for exps, c in self.terms.items():
            key = tuple([exps[i] for i in pos])
            terms[key] = terms.get(key, 0) + c
        return MultiPoly(tuple(names), terms)

    def __str__(self) -> str:
        terms = self.terms
        # the strings of v^0 .. v^(top exponent) per variable, looked up per term
        powers = [
            ["", v] + [f"{v}^{e}" for e in range(2, top + 1)]
            for v, top in zip(self.variables, map(max, zip(*terms)))
        ]
        chunks = []
        keys = sorted(sorted(terms), key=sum)
        for exps, c in zip(keys, map(terms.__getitem__, keys)):
            mono = "*".join(filter(None, map(list.__getitem__, powers, exps)))
            chunks.append(mono if c == 1 and mono else f"{c}{mono}")
        return " + ".join(chunks)


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
