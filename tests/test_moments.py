from fractions import Fraction
from itertools import permutations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catstats.errors import DegenerateStatisticError, UsageError
from catstats.funcrec import builtin_families, builtin_spec, eval_full, eval_truncated
from catstats.moments import (
    factorial_from_full,
    falling_factorial,
    moment_table_from_rows,
    moments_from_full,
    moments_from_truncated,
    normal_reference,
    stirling2_row,
)
from catstats.perms import enumerate_avoiders
from reference import central_from_raw, count_occurrences, raw_from_factorial, standardized


def test_stirling_and_falling_factorial():
    assert stirling2_row(4) == [0, 1, 7, 6, 1]
    assert stirling2_row(0) == [1]
    assert falling_factorial(7, 3) == 7 * 6 * 5
    assert falling_factorial(3, 5) == 0
    assert falling_factorial(4, 0) == 1


def test_raw_and_central_conversions():
    # x ~ {0, 1, 2} uniform: factorial counts per value of x summed over 3 perms
    f = [3, 3, 2, 0]
    m = raw_from_factorial(f)
    assert m == [Fraction(1), Fraction(1), Fraction(5, 3), Fraction(3)]
    M = central_from_raw(m)
    assert M[1] == 0
    assert M[2] == Fraction(2, 3)


def test_normal_reference_odd_even():
    assert [normal_reference(r) for r in range(9)] == [1, 0, 1, 0, 3, 0, 15, 0, 105]


def test_frozen_inversion_moments():
    tab = moments_from_full(eval_full(builtin_spec("av132", "21"), 4), r_max=4)
    r3 = tab.row(3)
    assert r3.f[:4] == [5, 8, 10, 6]
    assert r3.m[1] == Fraction(8, 5)
    assert r3.M[2] == Fraction(26, 25)
    assert r3.M[3] == Fraction(-36, 125)
    assert r3.alpha.signed_square[3] == Fraction(-162, 2197)
    assert r3.alpha.float_value[3] == pytest.approx(-0.271545417883639)

    r4 = tab.row(4)
    assert r4.f[:3] == [14, 47, 148]
    assert r4.M[2] == Fraction(521, 196)
    assert r4.M[3] == Fraction(-576, 343)
    assert r4.alpha.float_value[3] == pytest.approx(-0.387485883606717)


def test_moments_match_brute_distribution():
    spec = builtin_spec("av132", "21")
    tab = moments_from_full(eval_full(spec, 6), r_max=4)
    for n in range(2, 7):
        counts = [
            count_occurrences((2, 1), p) for p in enumerate_avoiders((1, 3, 2), n)
        ]
        total = len(counts)
        raw = [
            Fraction(sum(c**r for c in counts), total) for r in range(5)
        ]
        row = tab.row(n)
        assert row.count == total
        assert row.m == raw
        fact = [sum(falling_factorial(c, r) for c in counts) for r in range(5)]
        assert row.f == fact


def test_factorial_from_full_is_derivative_data():
    # f_r(n) = sum over weights of (occ)_r, read off the enumerator
    spec = builtin_spec("av132", "123")
    values = [p.project(["t"]).terms for p in eval_full(spec, 6).values]
    for n in range(7):
        occs = [
            count_occurrences((1, 2, 3), p)
            for p in enumerate_avoiders((1, 3, 2), n)
        ]
        coeffs = [values[n].get((i,), 0) for i in range(max(values[n])[0] + 1)]
        got = factorial_from_full(coeffs, 3)
        assert got == [
            sum(falling_factorial(c, r) for c in occs) for r in range(4)
        ]


def test_full_and_truncated_tables_agree():
    for family, statistic in builtin_families():
        spec = builtin_spec(family, statistic)
        if family != "av132":
            continue
        full = moments_from_full(eval_full(spec, 8), r_max=6)
        seq = eval_truncated(spec, 8, 6)
        trunc = moments_from_truncated(seq)
        picked = moments_from_truncated(seq, ns=(2, 5, 8))
        assert picked.rows == [trunc.row(n) for n in (2, 5, 8)]
        for n in range(9):
            a, b = full.row(n), trunc.row(n)
            assert a.f == b.f
            assert a.M == b.M
            if a.alpha is None:
                assert b.alpha is None
            else:
                assert a.alpha.signed_square == b.alpha.signed_square


def test_standardized_invariants():
    # every catalog statistic: M1 = 0, alpha2 = 1, Pearson bound exact
    for family, statistic in builtin_families():
        spec = builtin_spec(family, statistic)
        tab = moments_from_truncated(eval_truncated(spec, 10, 4))
        for n in range(11):
            row = tab.row(n)
            assert row.M[1] == 0
            if row.alpha is None:
                continue
            ss = row.alpha.signed_square
            assert ss[2] == 1
            assert ss[4] >= (abs(ss[3]) + 1) ** 2


def test_degenerate_statistic_raises():
    tab = moments_from_full(eval_full(builtin_spec("av132", "132"), 5), r_max=4)
    assert tab.row(4).alpha is None
    assert "degenerate" in tab.row(4).note


def test_standardized_requires_second_moment():
    with pytest.raises(UsageError):
        standardized([Fraction(1), Fraction(0)])


def test_csv_rows_shape():
    tab = moments_from_full(eval_full(builtin_spec("av132", "21"), 3), r_max=4)
    rows = tab.csv_rows()
    header = rows[0]
    assert header[:2] == ["n", "count"]
    assert "alpha4" in header
    assert len(rows) == 5
    assert all(len(r) == len(header) for r in rows[1:])


def _reference_row(frow):
    """(m, M, alpha, note) by the Fraction definitions, step by step."""
    m = raw_from_factorial(frow)
    M = central_from_raw(m)
    if len(M) < 3:
        return m, M, None, "standardized moments need r_max >= 2"
    try:
        return m, M, standardized(M), ""
    except DegenerateStatisticError:
        return m, M, None, "degenerate: variance 0"


# a multiset of statistic values: 1-12 objects with counts 0-30, drawn
# freely or all equal (variance 0)
COUNTS = st.lists(st.integers(0, 30), min_size=1, max_size=12) | st.builds(
    lambda c, size: [c] * size, st.integers(0, 30), st.integers(1, 12)
)


@settings(max_examples=300, deadline=None)
@given(COUNTS, st.integers(0, 8))
def test_integer_rows_equal_the_fraction_definitions(counts, r_max):
    frow = [sum(falling_factorial(c, r) for c in counts) for r in range(r_max + 1)]
    row = moment_table_from_rows("x", "y", "full", None, r_max, [frow], [7]).rows[0]
    m, M, alpha, note = _reference_row(frow)
    assert (row.n, row.f) == (7, frow)
    assert row.m == m
    assert row.M == M
    assert row.note == note
    if alpha is None:
        assert row.alpha is None
    else:
        assert row.alpha.signed_square == alpha.signed_square
        assert row.alpha.float_value == alpha.float_value


@pytest.mark.parametrize(
    "frow,message",
    [([], "f_0 = 0"), ([0, 0, 0], "f_0 = 0"), ([1, 0, -1], "negative variance")],
)
def test_integer_rows_refuse_what_the_definitions_refuse(frow, message):
    with pytest.raises(UsageError, match=message):
        _reference_row(frow)
    with pytest.raises(UsageError, match=message):
        moment_table_from_rows("x", "y", "full", None, 2, [frow], [0])
