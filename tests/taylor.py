"""Taylor expansion at the all-ones point, and back, by binomial expansion.

The reference that truncated-mode values and the series operators are
checked against.  It shares no code with catstats.series beyond the result
type: v^e = (1 + z)^e = sum_j C(e, j) z^j by `math.comb`, and a monomial's
expansion is the product of its variables' expansions.
"""
from math import comb

from catstats.multipoly import MultiPoly
from catstats.series import SeriesBasis, TruncatedSeries


def taylor(p: MultiPoly, cap: int) -> TruncatedSeries:
    """p(1 + z_1, ..., 1 + z_v) without its monomials of total degree > cap,
    as a series over p's variables."""
    basis = SeriesBasis(p.variables, cap)
    coeffs = []
    for f in basis.monomials:
        total = 0
        for exps, c in p.terms.items():
            for e, j in zip(exps, f):
                c *= comb(e, j)
            total += c
        coeffs.append(total)
    return TruncatedSeries(basis, coeffs)


def polynomial(s: TruncatedSeries) -> MultiPoly:
    """The polynomial whose expansion at all-ones is s, the sum of
    c * prod_v (v - 1)^e_v; exact only when nothing was cut (degree <= cap).
    (v - 1)^e = sum_i C(e, i) (-1)^(e - i) v^i.  Its coefficients may be
    negative, and the terms that cancel to 0 are dropped."""
    terms: dict = {}
    for f, c in zip(s.basis.monomials, s.coeffs):
        parts = [((), c)]
        for e in f:
            parts = [
                (x + (i,), a * comb(e, i) * (-1) ** (e - i)) for x, a in parts for i in range(e + 1)
            ]
        for x, a in parts:
            terms[x] = terms.get(x, 0) + a
    return MultiPoly(s.basis.variables, {x: a for x, a in terms.items() if a})
