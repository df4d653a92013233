from fractions import Fraction
from math import comb
from operator import add

from catstats.multipoly import MultiPoly
from catstats.series import (
    SeriesBasis,
    TruncatedSeries,
    apply_operator,
    binomial_rows,
    binomial_shift,
    monomial_coeffs,
    mul_into,
    substitution_operator,
)
from taylor import polynomial, taylor


def signed(variables, terms):
    """A polynomial with signed coefficients, its zero terms dropped: the
    references here may cancel what MultiPoly's producers never make."""
    return MultiPoly(variables, {e: c for e, c in terms.items() if c})


def random_poly(rng, variables=("t", "q"), n_terms=4, max_exp=2, max_c=4):
    terms = {}
    for _ in range(n_terms):
        exps = tuple(rng.randrange(max_exp + 1) for _ in variables)
        terms[exps] = rng.randint(-max_c, max_c)
    return signed(variables, terms)


def product(a, b):
    """a * b, term by term: the reference for the series product."""
    terms = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            key = tuple(map(add, ea, eb))
            terms[key] = terms.get(key, 0) + ca * cb
    return signed(a.variables, terms)


def substitute(p, rows):
    """p with variable i sent to the monomial prod_j v_j^rows[i][j]: the
    reference for the substitution operators."""
    terms = {}
    for exps, c in p.terms.items():
        key = tuple(sum(e * row[j] for e, row in zip(exps, rows)) for j in range(len(rows)))
        terms[key] = terms.get(key, 0) + c
    return signed(p.variables, terms)


def evaluate(p, at):
    total = 0
    for exps, c in p.terms.items():
        for x, e in zip(at, exps):
            c *= x**e
        total += c
    return total


def test_references_match_point_evaluation(rng):
    at = (Fraction(3, 2), Fraction(-2, 5), 3)
    rows = ((1, 0, 0), (2, 1, 0), (0, 1, 1))
    image = tuple(evaluate(MultiPoly(("t", "q", "s"), {row: 1}), at) for row in rows)
    for _ in range(15):
        a = random_poly(rng, ("t", "q", "s"))
        b = random_poly(rng, ("t", "q", "s"))
        assert evaluate(product(a, b), at) == evaluate(a, at) * evaluate(b, at)
        assert evaluate(substitute(a, rows), at) == evaluate(a, image)


def test_basis_is_interned():
    a = SeriesBasis(("t", "q"), 4)
    b = SeriesBasis(("t", "q"), 4)
    c = SeriesBasis(("t",), 4)
    assert a is b
    assert a is not c


def test_roundtrip_within_cap(rng):
    for _ in range(20):
        p = random_poly(rng, max_exp=2)  # total degree <= 4 <= cap
        assert polynomial(taylor(p, 5)) == p


def test_expansion_coefficients_are_binomial_sums():
    # p(t) = sum c_j t^j about t = 1: coeff of dev^r is sum c_j C(j, r)
    p = MultiPoly(("t",), {(0,): 2, (3,): 1, (7,): -4})
    s = taylor(p, 3)
    for r in range(4):
        expected = 2 * comb(0, r) + comb(3, r) - 4 * comb(7, r)
        assert s.coefficient((r,)) == expected
    assert s.coeffs[0] == sum(p.terms.values())


def test_mul_matches_poly_product(rng):
    basis = SeriesBasis(("t", "q"), 6)
    for _ in range(15):
        a = random_poly(rng, max_exp=1)
        b = random_poly(rng, max_exp=1)
        out = taylor(b, 6).coeffs  # mul_into adds to what out holds
        mul_into(out, basis.pairs, taylor(a, 6).coeffs, taylor(b, 6).coeffs)
        assert out == list(map(add, taylor(product(a, b), 6).coeffs, taylor(b, 6).coeffs))


def test_compose_matches_monomial_substitution():
    # t -> t^2 q as an operator on the expansion about all-ones. The cap is
    # above the degree of the substituted polynomial, so the image is exact.
    basis = SeriesBasis(("t", "q"), 8)
    p = MultiPoly(("t", "q"), {(2, 0): 1, (1, 1): -2, (0, 0): 3})
    op = substitution_operator(basis, ((2, 1), (0, 1)))
    composed = apply_operator(op, taylor(p, 8).coeffs)
    want = substitute(p, ((2, 1), (0, 1)))
    assert composed == taylor(want, 8).coeffs
    assert polynomial(TruncatedSeries(basis, composed)) == want


def test_substitution_operator_three_variables(rng):
    # the shape of av123:213's left substitution: s1 -> t s1, s2 -> s1 s2
    variables = ("t", "s1", "s2")
    rows = ((1, 0, 0), (1, 1, 0), (0, 1, 1))
    for cap in (2, 4, 6):
        basis = SeriesBasis(variables, cap)
        op = substitution_operator(basis, rows)
        for _ in range(5):
            p = random_poly(rng, variables, n_terms=6, max_exp=2)
            want = substitute(p, rows)
            assert apply_operator(op, taylor(p, cap).coeffs) == taylor(want, cap).coeffs
    identity = substitution_operator(basis, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    s = taylor(random_poly(rng, variables, max_exp=3), cap)
    assert apply_operator(identity, s.coeffs) == s.coeffs


def test_binomial_coeffs_small_and_huge():
    small = [c for (c,) in binomial_rows([7], 4)]
    assert small == [comb(7, r) for r in range(5)]
    e = 10**12
    got = [c for (c,) in binomial_rows([e], 3)]
    assert got == [1, e, e * (e - 1) // 2, e * (e - 1) * (e - 2) // 6]
    # one row per order, over every value at once
    assert binomial_rows([7, e], 3) == [list(pair) for pair in zip(small, got)]


def test_binomial_series_matches_power_expansion():
    basis = SeriesBasis(("t", "q"), 4)
    for e in (0, 1, 2, 5, 9):
        for exps in ((e, 0), (0, e), (e, 3)):
            p = MultiPoly(("t", "q"), {exps: 1})
            assert monomial_coeffs(basis, exps) == taylor(p, 4).coeffs


def test_binomial_shift_matches_the_product_with_a_power_at_every_position(rng):
    # columns over a window of 3 positions, each position its own series and
    # its own exponent E, all multiplied by v^E at once
    for variables in (("t",), ("t", "q"), ("t", "s1", "s2")):
        for cap in range(1, 9):
            basis = SeriesBasis(variables, cap)
            polys = [random_poly(rng, variables, max_exp=3) for _ in range(3)]
            cols = [list(col) for col in zip(*(taylor(p, cap).coeffs for p in polys))]
            for v in range(len(variables)):
                exps = [rng.randrange(12) for _ in polys]
                got = binomial_shift(cols, basis.lowerings[v], binomial_rows(exps, cap))
                power = [(0,) * v + (e,) + (0,) * (len(variables) - v - 1) for e in exps]
                want = [
                    taylor(product(p, MultiPoly(variables, {x: 1})), cap).coeffs
                    for p, x in zip(polys, power)
                ]
                assert got == [list(col) for col in zip(*want)], (variables, cap, v)
