from fractions import Fraction
from math import factorial

import pytest

from catstats.errors import UsageError
from catstats.funcrec import builtin_spec, eval_truncated
from catstats.guessing import (
    MAX_CLOSED_FORM_N,
    _sees_every_term,
    fit_closed_form,
    guess_algebraic,
    guess_p_recursive,
)
from catstats.moments import moments_from_truncated
from catstats.perms import catalan_list
from catstats.splits import AverageEngine
from reference import algebraic_residual, closed_form_value, verify_recurrence


def test_catalan_recurrence_recovered_exactly():
    cats = catalan_list(40)
    rec = guess_p_recursive(cats, max_order=2, max_degree=2)
    assert rec is not None
    assert (rec.order, rec.degree, rec.offset) == (1, 1, 0)
    assert rec.coeffs == ((-2, -4), (2, 1))
    assert rec.render() == "(n + 2)*a(n+1) - (4*n + 2)*a(n) = 0"
    assert verify_recurrence(rec, cats) == (True, None)


def test_verify_recurrence_flags_corruption():
    cats = catalan_list(40)
    rec = guess_p_recursive(cats, max_order=2, max_degree=2)
    bad = list(cats)
    bad[17] += 1
    ok, where = verify_recurrence(rec, bad)
    assert not ok
    assert where == 16


def test_factorial_recurrence():
    vals = [factorial(n) for n in range(20)]
    rec = guess_p_recursive(vals, max_order=1, max_degree=1)
    assert rec is not None
    assert (rec.order, rec.degree) == (1, 1)
    assert verify_recurrence(rec, [factorial(n) for n in range(30)]) == (True, None)


def test_random_order_one_recurrence_recovered(rng):
    for _ in range(5):
        b, c = rng.randint(1, 5), rng.randint(1, 5)
        vals = [1]
        for n in range(24):
            vals.append((b * n + c) * vals[-1])
        rec = guess_p_recursive(vals, max_order=1, max_degree=1)
        assert rec is not None
        assert verify_recurrence(rec, vals) == (True, None)


def test_zero_sequence_gets_the_order_one_recurrence():
    # every vector fits zeros: the first nullspace vector at order 1 is
    # a(n) = 0, with no a(n+1) term, so it is of order 0 and is skipped
    rec = guess_p_recursive([0] * 40, max_order=2, max_degree=2)
    assert (rec.order, rec.degree, rec.coeffs) == (1, 0, ((0,), (1,)))
    assert rec.render() == "a(n+1) = 0"


def test_constant_coefficient_polynomials_print_without_parentheses():
    rec = guess_p_recursive([2**n for n in range(40)], max_order=2, max_degree=2)
    assert rec.coeffs == ((-2,), (1,))
    assert rec.render() == "a(n+1) - 2*a(n) = 0"
    rec = rec._replace(order=2, degree=1, coeffs=((-1, 0), (3, 0), (1, 1)))
    assert rec.render() == "(n + 1)*a(n+2) + 3*a(n+1) - a(n) = 0"


def test_guess_p_recursive_not_found_and_preconditions(rng):
    noise = [rng.randint(1, 10**6) for _ in range(40)]
    assert guess_p_recursive(noise, max_order=2, max_degree=2) is None
    with pytest.raises(UsageError):
        guess_p_recursive(catalan_list(10), max_order=6, max_degree=6)


def test_catalan_algebraic_equation():
    eq = guess_algebraic(catalan_list(80))
    assert eq is not None
    assert eq.coeffs == (((0, 0), 1), ((0, 1), -1), ((1, 2), 1))
    assert (eq.degree_y(), eq.degree_z()) == (2, 1)
    assert eq.render() == "1 - y + z*y^2 = 0"
    assert eq.render_solved() == "y = 1 + z*y^2"
    assert not any(algebraic_residual(eq, catalan_list(40)))


def test_algebraic_residual_flags_corruption():
    eq = guess_algebraic(catalan_list(80))
    bad = catalan_list(40)
    bad[20] += 1
    assert any(algebraic_residual(eq, bad))


def test_guess_algebraic_not_found_and_preconditions(rng):
    noise = [rng.randint(1, 10**6) for _ in range(90)]
    assert guess_algebraic(noise) is None
    with pytest.raises(UsageError):
        guess_algebraic(catalan_list(60))


def test_closed_form_synthetic():
    vals = [3 * 4**n + 5 for n in range(1, 30)]
    fit = fit_closed_form(vals, offset=1)
    assert fit is not None
    assert fit.render() == "a(n) = 3*4^n + 5"
    assert all(closed_form_value(fit, n) == v for n, v in enumerate(vals, start=1))


def test_closed_form_of_mean_occurrence_totals():
    # total 213 occurrences over the 123-avoiders: exponential part plus a
    # quadratic multiple of the shifted Catalan numbers
    spec = builtin_spec("av123", "213")
    tab = moments_from_truncated(eval_truncated(spec, 39, 1))
    totals = [tab.row(n).f[1] for n in range(40)]
    fit = fit_closed_form(totals[1:], offset=1)
    assert fit is not None
    by_part = dict(zip(("4^n", "c(n)", "c(n-1)", "1"), fit.parts))
    # the two Catalan columns satisfy (n+1)c(n) = (4n-2)c(n-1), so only the
    # exponential and constant parts of the representation are unique
    assert by_part["4^n"] == (Fraction(-3, 8), 0, 0, 0)
    assert by_part["1"] == (0, 0, 0, 0)
    cats = catalan_list(39)
    for n in range(1, 40):
        reference = Fraction(-3, 8) * 4**n + Fraction(n + 2, 2) * (2 * n - 1) * cats[n - 1]
        assert closed_form_value(fit, n) == reference == totals[n]


def test_closed_form_not_found(rng):
    noise = [rng.randint(1, 10**6) for _ in range(40)]
    assert fit_closed_form(noise, offset=1) is None


# A held-out term off by one: the training rows still have the Catalan
# model in their nullspace, and only the holdout rows can refuse it.


def _off_by_one_at(values, index):
    bad = list(values)
    bad[index] += 1
    return bad


def test_p_recursive_holdout_refuses_a_corrupted_tail():
    cats = catalan_list(40)
    assert guess_p_recursive(cats, max_order=2, max_degree=2) is not None
    assert guess_p_recursive(_off_by_one_at(cats, -2), max_order=2, max_degree=2) is None


def test_algebraic_holdout_refuses_a_corrupted_tail():
    cats = catalan_list(40)
    assert guess_algebraic(cats, max_deg_y=2, max_deg_z=2) is not None
    assert guess_algebraic(_off_by_one_at(cats, -2), max_deg_y=2, max_deg_z=2) is None


def test_algebraic_fit_refuses_y_times_an_equation_that_failed():
    # y = z^2 C(z) solves z^3 - z*y + y^2 = 0.  With a term raised that
    # equation fails, but the rows of y times it stop short of the last two
    # terms, and a candidate without a y^0 term is never the fit
    shifted = [0, 0] + catalan_list(58)[:58]
    eq = guess_algebraic(shifted, max_deg_y=3, max_deg_z=3)
    assert eq.render() == "z^3 - z*y + y^2 = 0"
    assert guess_algebraic(_off_by_one_at(shifted, -2), max_deg_y=3, max_deg_z=3) is None
    assert guess_algebraic([0] * 30, max_deg_y=2, max_deg_z=2).render() == "y = 0"


# the length-4 patterns whose A_p file at n <= 80 got an algebraic equation
# with its last term raised by 1 while the fitter read rows below z^T only
LAST_TERM_UNSEEN = ("2134", "2314", "2341", "3124", "3241", "3412", "4123", "4213")


@pytest.mark.parametrize("pattern", LAST_TERM_UNSEEN)
def test_algebraic_fit_sees_a_raised_last_term(pattern):
    values = list(AverageEngine(80).sequence(tuple(map(int, pattern))))
    assert not any(algebraic_residual(guess_algebraic(values), values))
    raised = _off_by_one_at(values, -1)
    eq = guess_algebraic(raised)
    assert eq is None or not any(algebraic_residual(eq, raised))


def test_algebraic_candidate_needs_twice_its_valuation_below_the_term_count():
    # z^2*y annihilates the zero series, and Phi_y = z^2 has valuation 2: four
    # terms (2v = T) cannot show the last two terms entering any row; five can
    cols = [(j, i) for j in range(2) for i in range(3)]
    ints = [0, 0, 0, 0, 0, 1]
    for terms, seen in ((4, False), (5, True)):
        values = [0] * terms
        powers = [[1] + [0] * (terms - 1), values]
        assert _sees_every_term(ints, cols, values, powers) is seen


def test_closed_form_holdout_refuses_a_corrupted_tail():
    cats = catalan_list(40)[1:]
    assert fit_closed_form(cats, offset=1, degree=1) is not None
    assert fit_closed_form(_off_by_one_at(cats, -2), offset=1, degree=1) is None


def test_closed_form_refuses_terms_past_its_cap():
    # at n near 10^30 the rows could not even be built; the refusal comes first
    with pytest.raises(UsageError) as info:
        fit_closed_form(catalan_list(39), offset=10**30)
    assert str(info.value) == (
        f"closed-form fits are capped at n = {MAX_CLOSED_FORM_N}; the terms reach n = {10**30 + 39}"
    )
    last = catalan_list(MAX_CLOSED_FORM_N)[-14:]
    assert fit_closed_form(last, offset=MAX_CLOSED_FORM_N - 13, degree=0, holdout=1) is not None
