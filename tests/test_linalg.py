from fractions import Fraction

import pytest

from catstats.errors import UsageError
from catstats.linalg import integer_primitive, nullspace


def rref_rank(rows, ncols):
    # independent reference: plain Gauss-Jordan rank over the rationals
    mat = [[Fraction(v) for v in r] for r in rows]
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [v * inv for v in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def test_known_nullspace():
    # x + y + z = 0, x - z = 0 has the single line (1, -2, 1)
    basis = nullspace([[1, 1, 1], [1, 0, -1]], 3)
    assert len(basis) == 1
    v = basis[0]
    assert [v[0] - v[2], sum(v)] == [0, 0]
    assert integer_primitive(v) in ([1, -2, 1], [-1, 2, -1])


def test_nullspace_of_zero_matrix_is_full():
    basis = nullspace([[0, 0], [0, 0]], 2)
    assert len(basis) == 2


def test_nullspace_random_rank_nullity(rng):
    for _ in range(25):
        m = rng.randrange(1, 6)
        ncols = rng.randrange(1, 6)
        rows = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ncols)]
            for _ in range(m)
        ]
        basis = nullspace(rows, ncols)
        assert len(basis) == ncols - rref_rank(rows, ncols)
        for v in basis:
            assert any(v)
            for r in rows:
                assert sum(a * b for a, b in zip(r, v)) == 0


def test_int_rows_match_fraction_rows_and_stay_untouched(rng):
    # plain int rows are copied as they are, rows with a Fraction are scaled;
    # either way the basis is that of the same rows as Fractions
    for _ in range(25):
        ncols = rng.randrange(1, 6)
        rows = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(rng.randrange(1, 6))]
        if rng.random() < 0.5:
            rows[0][0] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        before = [list(r) for r in rows]
        assert nullspace(rows, ncols) == nullspace([[Fraction(v) for v in r] for r in rows], ncols)
        assert rows == before


def test_nullspace_refuses_ragged_rows_and_non_numbers():
    with pytest.raises(UsageError, match="^ragged matrix$"):
        nullspace([[1, 2], [3]], 2)
    with pytest.raises(UsageError, match="^matrix entries must be int or Fraction, got float$"):
        nullspace([[1, 2.0]], 2)
    with pytest.raises(UsageError, match="got str"):
        nullspace([[Fraction(1, 2), "3"]], 2)


def test_integer_primitive():
    assert integer_primitive([Fraction(1, 2), Fraction(1, 3)]) == [3, 2]
    assert integer_primitive([Fraction(0), Fraction(0)]) == [0, 0]
    assert integer_primitive([]) == []
    got = integer_primitive([Fraction(-4), Fraction(6)])
    assert got in ([-2, 3], [2, -3])
    from math import gcd

    assert gcd(*map(abs, got)) == 1
