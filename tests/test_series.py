from fractions import Fraction
from math import comb

import pytest

from catstats.errors import UsageError
from catstats.multipoly import MultiPoly
from catstats.series import (
    SeriesBasis,
    TruncatedSeries,
    apply_operator,
    binomial_coeffs,
    binomial_series,
    substitution_operator,
)
from taylor import polynomial, taylor


def random_poly(rng, variables=("t", "q"), n_terms=4, max_exp=2, max_c=4):
    terms = {}
    for _ in range(n_terms):
        exps = tuple(rng.randrange(max_exp + 1) for _ in variables)
        terms[exps] = rng.randint(-max_c, max_c)
    return MultiPoly(variables, terms)


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
    assert s.constant_term() == p.mass()


def test_mul_matches_poly_product(rng):
    for _ in range(15):
        a = random_poly(rng, max_exp=1)
        b = random_poly(rng, max_exp=1)
        assert taylor(a, 6) * taylor(b, 6) == taylor(a * b, 6)


def test_add_matches_poly_sum():
    a = MultiPoly(("t",), {(2,): 3})
    b = MultiPoly(("t",), {(1,): -1, (0,): 5})
    assert taylor(a, 4) + taylor(b, 4) == taylor(a + b, 4)
    assert taylor(a, 4) - taylor(b, 4) == taylor(a - b, 4)


def test_compose_matches_monomial_substitution():
    # t -> t^2 q as an operator on the expansion about all-ones. The cap is
    # above the degree of the substituted polynomial, so the image is exact.
    basis = SeriesBasis(("t", "q"), 8)
    p = MultiPoly(("t", "q"), {(2, 0): 1, (1, 1): -2, (0, 0): 3})
    op = substitution_operator(basis, ((2, 1), (0, 1)))
    composed = apply_operator(op, taylor(p, 8).coeffs)
    want = p.subst_monomial({"t": (2, 1)})
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
            want = p.subst_monomial({"s1": rows[1], "s2": rows[2]})
            assert apply_operator(op, taylor(p, cap).coeffs) == taylor(want, cap).coeffs
    identity = substitution_operator(basis, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    s = taylor(random_poly(rng, variables, max_exp=3), cap)
    assert apply_operator(identity, s.coeffs) == s.coeffs


def test_restrict_sets_variable_to_one(rng):
    for _ in range(10):
        p = random_poly(rng, max_exp=2)
        restricted = taylor(p, 4).restrict({"q"})
        expected = taylor(p.substitute_values({"q": 1}), 4)
        assert restricted == expected


def test_binomial_coeffs_small_and_huge():
    assert binomial_coeffs(7, 4) == [comb(7, r) for r in range(5)]
    e = 10**12
    got = binomial_coeffs(e, 3)
    assert got == [1, e, e * (e - 1) // 2, e * (e - 1) * (e - 2) // 6]


def test_binomial_series_matches_power_expansion():
    basis = SeriesBasis(("t",), 4)
    for e in (0, 1, 2, 5, 9):
        p = MultiPoly(("t",), {(e,): 1})
        assert binomial_series(basis, "t", e) == taylor(p, 4)


def test_constant_series():
    basis = SeriesBasis(("t",), 3)
    s = TruncatedSeries.constant(basis, Fraction(5, 2))
    assert s.constant_term() == Fraction(5, 2)
    assert s.coefficient((1,)) == 0


def test_unknown_variable_restrict_raises():
    basis = SeriesBasis(("t",), 3)
    s = TruncatedSeries.constant(basis, 1)
    with pytest.raises(UsageError):
        s.restrict({"zz"})
