from fractions import Fraction

import pytest

from catstats.errors import UsageError
from catstats.multipoly import (
    MultiPoly,
    coeff_from_str,
    coeff_to_str,
    grlex_key,
    index_poly,
    norm_coeff,
)


def random_poly(rng, variables=("t", "q"), n_terms=4, max_exp=3, max_c=5):
    terms = {}
    for _ in range(n_terms):
        exps = tuple(rng.randrange(max_exp + 1) for _ in variables)
        terms[exps] = rng.randint(-max_c, max_c)
    return MultiPoly(variables, terms)


def evaluate(p, at):
    """p at the point `at` (every variable named), term by term."""
    total = 0
    for exps, c in p.terms.items():
        for v, e in zip(p.variables, exps):
            c *= at[v] ** e
        total += c
    return total


def test_norm_coeff_collapses_integral_fractions():
    assert norm_coeff(Fraction(4, 2)) == 2
    assert isinstance(norm_coeff(Fraction(4, 2)), int)
    assert norm_coeff(Fraction(1, 3)) == Fraction(1, 3)
    assert norm_coeff(-7) == -7


def test_coeff_str_roundtrip():
    for v in (0, 3, -12, Fraction(-7, 3), Fraction(22, 7)):
        assert coeff_from_str(coeff_to_str(v)) == v


def test_grlex_orders_by_total_degree_first():
    assert grlex_key((0, 2)) < grlex_key((3, 0))
    assert grlex_key((2, 1)) < grlex_key((1, 3))


def test_zero_coefficients_dropped_and_negative_exponents_rejected():
    p = MultiPoly(("t",), {(1,): 0, (2,): 5})
    assert p.terms == {(2,): 5}
    with pytest.raises(UsageError):
        MultiPoly(("t",), {(-1,): 2})


@pytest.mark.parametrize(
    "terms",
    [
        {(1,): 1},  # too few exponents
        {(1, 2, 3): 1},  # too many
        {(1, -1): 1},
        {(1.0, 1): 1},
        {(1, Fraction(1)): 1},
        {(1, "2"): 1},
        {(0, 0): 1, (2, 0): 3, (1, -4): 2},  # one bad vector among good ones
        {(1, 2): 1.5},  # a float coefficient
    ],
)
def test_constructor_rejects_bad_exponents_and_coefficients(terms):
    with pytest.raises(UsageError):
        MultiPoly(("t", "q"), terms)


def test_constructor_normalizes_clean_terms():
    # integral fractions collapse, zeros drop (whatever their key), tuples stay
    p = MultiPoly(["t", "q"], {(1, 2): Fraction(4, 2), (0, 1): Fraction(1, 3), (5,): 0, (3, 3): 0})
    assert p.terms == {(1, 2): 2, (0, 1): Fraction(1, 3)}
    assert isinstance(p.terms[(1, 2)], int)
    assert MultiPoly((), {(): 7}).terms == {(): 7}
    assert MultiPoly(("t",), {}).terms == {}


def test_evaluate_and_mass(rng):
    # the mass, the value at all-ones, is what specializing every variable leaves
    for _ in range(20):
        p = random_poly(rng)
        ones = p.specialize_ones(["t", "q"])
        assert ones.variables == ()
        assert ones.terms.get((), 0) == evaluate(p, {"t": 1, "q": 1})


def test_substitute_values_partial(rng):
    # setting q = 1 and evaluating the rest agrees with evaluating at q = 1
    for _ in range(10):
        p = random_poly(rng)
        q1 = p.specialize_ones(["q"])
        for x in (0, 1, 2, Fraction(-3, 2)):
            assert evaluate(q1, {"t": x}) == evaluate(p, {"t": x, "q": 1})


def test_str_rendering():
    p = MultiPoly(("t",), {(0,): 1, (1,): 1, (2,): 2, (3,): 1})
    assert str(p) == "1 + t + 2t^2 + t^3"
    assert str(MultiPoly(("t",))) == "0"
    pq = MultiPoly(("t", "q"), {(1, 1): 1})
    assert str(pq) == "t*q"


def test_sorted_terms_is_graded_lex():
    p = MultiPoly(("t", "q"), {(3, 0): 1, (0, 2): 1, (1, 1): 1})
    degrees = [e[0] + e[1] for e, _ in p.sorted_terms()]
    assert degrees == sorted(degrees)


def test_index_poly():
    ip = index_poly({(1, 0): 1, (0, 1): -1})  # n - k
    assert ip.eval(7, 3) == 4
    assert index_poly(5).eval(100, 100) == 5
    assert index_poly(5).is_constant()
    assert not ip.is_constant()
