"""Taylor expansion at the all-ones point, and back, by MultiPoly arithmetic.

The reference that truncated-mode values and the series operators are
checked against.  It shares no code with catstats.series beyond the result
type: (1 + z)^e comes from MultiPoly products, and a monomial's expansion is
the product of its variables' expansions.
"""
from catstats.multipoly import MultiPoly
from catstats.series import SeriesBasis, TruncatedSeries

_Z = MultiPoly.variable(("z",), "z")


def _shifted_power(e: int, cap: int) -> "list[int]":
    """[z^0 .. z^cap] of (1 + z)^e, by squaring with every product cut at z^cap."""

    def cut(q: MultiPoly) -> MultiPoly:
        return MultiPoly(("z",), {x: c for x, c in q.terms.items() if x[0] <= cap})

    out, base = MultiPoly.one(("z",)), _Z + 1
    while e:
        if e & 1:
            out = cut(out * base)
        base = cut(base * base)
        e >>= 1
    return [out.coefficient((j,)) for j in range(cap + 1)]


def taylor(p: MultiPoly, cap: int) -> TruncatedSeries:
    """p(1 + z_1, ..., 1 + z_v) without its monomials of total degree > cap,
    as a series over p's variables."""
    rows: dict = {}
    for exps in p.terms:
        for e in exps:
            if e not in rows:
                rows[e] = _shifted_power(e, cap)
    basis = SeriesBasis(p.variables, cap)
    coeffs = []
    for f in basis.monomials:
        total = 0
        for exps, c in p.terms.items():
            for e, j in zip(exps, f):
                c *= rows[e][j]
            total += c
        coeffs.append(total)
    return TruncatedSeries(basis, coeffs)


def polynomial(s: TruncatedSeries) -> MultiPoly:
    """The polynomial whose expansion at all-ones is s, the sum of
    c * prod_v (v - 1)^e_v; exact only when nothing was cut (degree <= cap)."""
    variables = s.basis.variables
    out = MultiPoly.zero(variables)
    for exps, c in zip(s.basis.monomials, s.coeffs):
        term = MultiPoly.constant(variables, c)
        for v, e in zip(variables, exps):
            term = term * (MultiPoly.variable(variables, v) - 1) ** e
        out = out + term
    return out
