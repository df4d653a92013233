"""Exact linear algebra: fraction-free row-by-row elimination and nullspace.

`nullspace(rows, ncols)` reads its rows one at a time, from any iterable,
and scales each to integers (rows may mix ints and Fractions).  The row is
then reduced by the pivot rows kept so far, in the order they were kept:
with p the kept row's entry at its pivot column, f the new row's entry
there and prev the pivot entry of the row kept before it (1 for the first),
every entry a of the row becomes (p*a - f*b) // prev, b the kept row's entry
in that column.  A row that does not reduce to 0 is kept, with its first
nonzero column as its pivot.  An inhomogeneous system A x = b is solved as
the nullspace of [A | b] (see `guessing.fit_closed_form`).

The pivot columns are those of the column-ordered echelon form: each kept
row is 0 at the earlier pivots and at every column before its own, so r
kept rows lead at r distinct columns, and a space of dimension r has
exactly r leading columns.  Every division is exact: the kept rows, in
kept order, are one-step fraction-free elimination (Bareiss, Math. Comp.
1968) of the matrix with the kept rows and their pivot columns moved first,
in kept order, so each entry is a minor of the scaled rows; that holds for
any nonzero pivots, and the step rescales a row even where f = 0 to keep
it so.  Once ncols rows are kept the nullspace is {0}, and
no further row is read, so callers can pass rows that are built only when
read.

Nullspace bases are canonical: free columns are taken in increasing column
order, and each basis vector is primitive (integer entries with gcd 1),
positive at its free column and 0 at the other free columns, so downstream
normalization is deterministic.  The back-substitution stays in integers.
With M the scaled kept rows, as read, at their pivot columns (they span
every row read), the rational vector with 1 at a free column has pivot
entries y with M y = -(those rows at the free column), so det(M) y is
integral by Cramer's rule.  The last kept row's pivot entry is det(M) up
to sign (Bareiss); starting from its absolute value D at the free column,
each x[c] = -(row . x) / row[c] is D y_c and divides exactly, and dividing
x by the gcd of its entries leaves the primitive vector.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import UsageError


def _int_rows(rows: "Iterable[Sequence]", ncols: int):
    """Each row as a new list of integers, checked and scaled as it is read."""
    for row in rows:
        if len(row) != ncols:
            raise UsageError("ragged matrix")
        plain = True
        denom = 1
        for v in row:
            if type(v) is int:
                continue
            plain = False
            if isinstance(v, Fraction):
                denom = lcm(denom, v.denominator)
            elif not isinstance(v, int):
                raise UsageError(f"matrix entries must be int or Fraction, got {type(v).__name__}")
        yield list(row) if plain else [int(v * denom) for v in row]


def nullspace(rows: "Iterable[Sequence]", ncols: int) -> "list[list[int]]":
    """Basis of {x : A x = 0}, one primitive integer vector per free column."""
    kept = []  # (pivot column, row), in the order kept
    for row in _int_rows(rows, ncols):
        prev = 1
        for c, piv in kept:
            p, f = piv[c], row[c]
            row = [(p * a - f * b) // prev for a, b in zip(row, piv)]
            prev = p
        c = next((j for j, a in enumerate(row) if a), None)
        if c is not None:
            kept.append((c, row))
            if len(kept) == ncols:
                return []
    pivot_cols = {c for c, _ in kept}
    d = abs(kept[-1][1][kept[-1][0]]) if kept else 1
    basis = []
    for fc in (c for c in range(ncols) if c not in pivot_cols):
        x = [0] * ncols
        x[fc] = d
        for c, row in reversed(kept):
            if c > fc:
                continue  # the row has entries only past c > fc, so x[c] = 0
            # row is 0 before c, and x[c] is still 0
            x[c] = -sum(map(mul, row, x)) // row[c]
        g = gcd(*x)
        basis.append([v // g for v in x])
    return basis
