from fractions import Fraction

import pytest

from catstats.funcrec import builtin_families, builtin_spec, eval_full
from catstats.multipoly import (
    IndexPoly,
    MultiPoly,
    coeff_from_str,
    coeff_to_str,
    norm_coeff,
)
from catstats.perms import AV123, AV132, brute_sigma_enum, brute_weight_enum, parse_perm


def random_poly(rng, variables=("t", "q"), n_terms=4, max_exp=3, max_c=5):
    terms = {}
    for _ in range(n_terms):
        exps = tuple(rng.randrange(max_exp + 1) for _ in variables)
        terms[exps] = rng.randint(1, max_c)
    return MultiPoly(variables, terms)


def evaluate(p, at):
    """p at the point `at` (every variable named), term by term."""
    total = 0
    for exps, c in p.terms.items():
        for v, e in zip(p.variables, exps):
            c *= at[v] ** e
        total += c
    return total


def assert_counts(p):
    """The invariant every MultiPoly producer keeps: positive int counts, and
    exponent tuples of non-negative ints with one entry per variable."""
    assert type(p.variables) is tuple and all(type(v) is str for v in p.variables)
    for exps, c in p.terms.items():
        assert type(c) is int and c > 0, (exps, c)
        assert type(exps) is tuple and len(exps) == len(p.variables), exps
        assert all(type(e) is int and e >= 0 for e in exps), exps


def test_norm_coeff_collapses_integral_fractions():
    assert norm_coeff(Fraction(4, 2)) == 2
    assert isinstance(norm_coeff(Fraction(4, 2)), int)
    assert norm_coeff(Fraction(1, 3)) == Fraction(1, 3)
    assert norm_coeff(-7) == -7


def test_coeff_str_roundtrip():
    for v in (0, 3, -12, Fraction(-7, 3), Fraction(22, 7)):
        assert coeff_from_str(coeff_to_str(v)) == v


def test_grlex_orders_by_total_degree_first():
    assert str(MultiPoly(("t", "q"), {(3, 0): 1, (0, 2): 1})) == "q^2 + t^3"
    assert str(MultiPoly(("t", "q"), {(1, 3): 1, (2, 1): 1})) == "t^2*q + t*q^3"


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
        {(1, 2): 1.5},  # a float count
        {(1, 2): 0},
        {(0, 0): 1, (1, 2): -3},
        {(1, 2): Fraction(2)},
    ],
)
def test_invariant_check_rejects_bad_terms(terms):
    # the record takes its terms as given; the producers' invariant test
    # below is what would catch a producer that broke them
    with pytest.raises(AssertionError):
        assert_counts(MultiPoly(("t", "q"), terms))


def test_producers_hold_positive_int_counts():
    for family, statistic in builtin_families():
        spec = builtin_spec(family, statistic)
        for p in eval_full(spec, 8).values:
            assert p.variables == spec.variables
            assert_counts(p)
            assert_counts(p.project(spec.variables[::-1]))
            assert_counts(p.project(["t"]))
    names = ["12", "123", "132", "21", "213", "231", "312", "321"]
    stats = [parse_perm(name) for name in names]
    for n in range(8):
        for forbidden in (AV132, AV123):
            joint = brute_weight_enum(forbidden, stats, n, names)
            assert_counts(joint)
            assert_counts(joint.project(["231", "12"]))
        sigma = brute_sigma_enum(n)
        assert_counts(sigma)
        assert_counts(sigma.project(["s2", "t"]))


def test_evaluate_and_mass(rng):
    # the mass, the value at all-ones, is what projecting onto no variable leaves
    for _ in range(20):
        p = random_poly(rng)
        ones = p.project(())
        assert ones.variables == ()
        assert ones.terms == {(): evaluate(p, {"t": 1, "q": 1})}


def test_substitute_values_partial(rng):
    # setting q = 1 and evaluating the rest agrees with evaluating at q = 1
    for _ in range(10):
        p = random_poly(rng)
        q1 = p.project(["t"])
        assert_counts(q1)
        for x in (0, 1, 2, Fraction(-3, 2)):
            assert evaluate(q1, {"t": x}) == evaluate(p, {"t": x, "q": 1})


def test_project_keeps_the_given_order(rng):
    for _ in range(10):
        p = random_poly(rng)
        swapped = p.project(["q", "t"])
        assert swapped.variables == ("q", "t")
        assert swapped.terms == {(q, t): c for (t, q), c in p.terms.items()}
        assert p.project(["t", "q"]) == p


def test_str_rendering():
    p = MultiPoly(("t",), {(0,): 1, (1,): 1, (2,): 2, (3,): 1})
    assert str(p) == "1 + t + 2t^2 + t^3"
    pq = MultiPoly(("t", "q"), {(1, 1): 1})
    assert str(pq) == "t*q"
    assert str(MultiPoly(("t", "s2"), {(0, 2): 3, (1, 1): 1, (0, 3): 1})) == "3s2^2 + t*s2 + s2^3"
    assert str(MultiPoly((), {(): 7})) == "7"


def test_sorted_terms_is_graded_lex():
    # the printed terms ascend by total degree, then lexicographically
    p = MultiPoly(("t", "q"), {(3, 0): 1, (0, 2): 1, (1, 1): 1, (0, 0): 4, (2, 1): 2})
    assert str(p) == "4 + q^2 + t*q + 2t^2*q + t^3"


def test_index_poly():
    ip = IndexPoly({(1, 0): 1, (0, 1): -1})  # n - k
    assert ip.eval(7, 3) == 4
    assert IndexPoly({(0, 0): 5}).eval(100, 100) == 5
    # zero coefficients are dropped, so every zero polynomial is the empty one
    assert IndexPoly({(0, 0): 0, (1, 0): 0}) == IndexPoly()
    assert IndexPoly().eval(7, 3) == 0
