from fractions import Fraction
from math import gcd, lcm

import pytest

from catstats.errors import UsageError
from catstats.linalg import nullspace

# spare rows past the first ncols in the leading blocks the tall-system
# tests build: blocks deep enough to hold repeated and zero rows
LEAD_SPARE_ROWS = 4


def rref(rows, ncols):
    # independent reference: plain Gauss-Jordan over the rationals; returns
    # the reduced rows and the pivot columns
    mat = [[Fraction(v) for v in r] for r in rows]
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
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
        pivots.append(col)
    return mat, pivots


def rref_rank(rows, ncols):
    return len(rref(rows, ncols)[1])


def rref_nullspace(rows, ncols):
    """The canonical basis read off the reduced rows: 1 at its free column,
    0 at the other free columns, minus that column's entries at the pivots."""
    mat, pivots = rref(rows, ncols)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        x = [Fraction(0)] * ncols
        x[free] = Fraction(1)
        for r, c in enumerate(pivots):
            x[c] = -mat[r][free]
        basis.append(x)
    return basis


def primitive(vec):
    """A rational vector scaled by a positive rational to coprime integers."""
    denom = lcm(*(Fraction(v).denominator for v in vec))
    ints = [int(v * denom) for v in vec]
    g = gcd(*ints)
    return [v // g for v in ints]


def test_known_nullspace():
    # x + y + z = 0, x - z = 0 has the single line (1, -2, 1); its free
    # column is the last
    assert nullspace([[1, 1, 1], [1, 0, -1]], 3) == [[1, -2, 1]]
    assert nullspace([[2, 0, 1]], 3) == [[0, 1, 0], [-1, 0, 2]]


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
        _assert_canonical(nullspace(rows, ncols), rows, ncols)


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


def _tall(rng, ncols, rank, nrows):
    """nrows random integer rows of the given rank: random combinations of
    `rank` random rows."""
    while True:
        base = [[rng.randint(-5, 5) for _ in range(ncols)] for _ in range(rank)]
        if rref_rank(base, ncols) == rank:
            break
    return [
        [sum(c * b[j] for c, b in zip(coeffs, base)) for j in range(ncols)]
        for coeffs in ([rng.randint(-3, 3) for _ in range(rank)] for _ in range(nrows))
    ]


def _assert_canonical(basis, rows, ncols):
    """Each vector is a primitive integer solution, positive at its free
    column and 0 at the other free columns."""
    free = [c for c in range(ncols) if c not in rref(rows, ncols)[1]]
    assert len(basis) == len(free)
    for fc, v in zip(free, basis):
        assert all(type(a) is int for a in v)
        assert gcd(*v) == 1
        assert v[fc] > 0 and not any(v[c] for c in free if c != fc)
        for r in rows:
            assert sum(a * b for a, b in zip(r, v)) == 0


def _assert_reference_basis(rows, ncols):
    before = [list(r) for r in rows]
    basis = nullspace(rows, ncols)
    assert basis == [primitive(v) for v in rref_nullspace(rows, ncols)]
    _assert_canonical(basis, rows, ncols)
    assert rows == before


def test_full_rank_past_a_deficient_leading_block(rng):
    # the leading block (ncols + LEAD_SPARE_ROWS rows) repeats rows or is
    # zero, so it has no full column rank, but the rows below it do
    for _ in range(20):
        ncols = rng.randrange(1, 7)
        lead = ncols + LEAD_SPARE_ROWS
        tail = _tall(rng, ncols, ncols, ncols + rng.randrange(0, 4))
        if rng.random() < 0.5:
            block = [[0] * ncols for _ in range(lead)]
        else:
            block = _tall(rng, ncols, rng.randrange(0, ncols), lead)
        block[rng.randrange(lead)] = list(block[0])
        rows = block + tail
        assert rref_rank(rows[:lead], ncols) < ncols == rref_rank(rows, ncols)
        _assert_reference_basis(rows, ncols)
        assert nullspace(rows, ncols) == []


def test_tall_systems_with_a_nullspace_match_gauss_jordan(rng):
    # rank below ncols, with the deficiency showing in the leading block or
    # not, and rows as tall as the fitters' systems
    for _ in range(20):
        ncols = rng.randrange(2, 9)
        rank = rng.randrange(0, ncols)
        rows = _tall(rng, ncols, rank, ncols + LEAD_SPARE_ROWS + rng.randrange(1, 30))
        assert len(nullspace(rows, ncols)) == ncols - rank
        _assert_reference_basis(rows, ncols)


def test_tall_systems_mixing_int_and_fraction_rows(rng):
    # a row with a Fraction is scaled to integers on its own; the basis is
    # that of the rational rows, with or without a nullspace
    for _ in range(20):
        ncols = rng.randrange(1, 7)
        rows = _tall(rng, ncols, rng.randrange(1, ncols + 1), ncols + LEAD_SPARE_ROWS + 5)
        for row in rng.sample(rows, len(rows) // 2):
            row[rng.randrange(ncols)] = Fraction(rng.randint(-9, 9), rng.randint(2, 5))
        _assert_reference_basis(rows, ncols)


def test_no_row_is_read_past_full_rank(rng):
    # the rows come from a generator that fails once it is asked for the
    # row after the one that completes the rank, so elimination must stop
    for _ in range(20):
        ncols = rng.randrange(1, 7)
        rows = _tall(rng, ncols, ncols, ncols + rng.randrange(0, 6))
        last = next(k for k in range(len(rows)) if rref_rank(rows[: k + 1], ncols) == ncols)

        def read():
            yield from rows[: last + 1]
            raise AssertionError("a row past full rank was read")

        assert nullspace(read(), ncols) == []


def test_pivots_out_of_column_order_match_gauss_jordan(rng):
    # the first rows lead at the last columns, so the pivots are found in
    # decreasing column order; rows may repeat and the rank may be short
    for _ in range(40):
        ncols = rng.randrange(2, 8)
        rows = []
        for lead in range(ncols - 1, -1, -1):
            rows.append([0] * lead + [rng.randint(-5, 5) or 1]
                        + [rng.randint(-5, 5) for _ in range(ncols - lead - 1)])
        rows = rows[: rng.randrange(1, ncols + 1)]
        rows += _tall(rng, ncols, rng.randrange(0, ncols), rng.randrange(0, 4))
        if rng.random() < 0.3:
            rows[rng.randrange(len(rows))] = list(rows[0])
        _assert_reference_basis(rows, ncols)
    assert nullspace([[0, 0, 1], [0, 1, 1]], 3) == [[1, 0, 0]]
    assert nullspace([[0, 0, 2], [0, 3, 1], [3, 1, 0]], 3) == []
    assert nullspace([[0, 2, 1], [1, 1, 1]], 3) == [[-1, -1, 2]]


def test_nullspace_refuses_ragged_rows_and_non_numbers():
    with pytest.raises(UsageError, match="^ragged matrix$"):
        nullspace([[1, 2], [3]], 2)
    with pytest.raises(UsageError, match="^matrix entries must be int or Fraction, got float$"):
        nullspace([[1, 2.0]], 2)
    with pytest.raises(UsageError, match="got str"):
        nullspace([[Fraction(1, 2), "3"]], 2)
