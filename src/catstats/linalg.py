"""Exact linear algebra: fraction-free echelon reduction and nullspace.

Input rows may mix ints and Fractions; rows are scaled to integers first.
The forward pass is one-step fraction-free elimination (divide by the
previous pivot), which keeps every entry an integer minor of the original
matrix instead of letting Fraction gcds dominate the runtime.  Back
substitution happens over Fractions, in `nullspace` only: an inhomogeneous
system A x = b is solved as the nullspace of [A | b] (see
`guessing.fit_closed_form`).

Most systems the fitters try have full column rank, so `nullspace` first
echelons a copy of the leading block, the first ncols + LEAD_SPARE_ROWS
rows: their span lies inside the row space of the whole system, so if the
block already has rank ncols, so does the system, and its nullspace is
{0}.  Otherwise the whole system is eliminated as if the block had not
been tried.  The spare rows cover systems whose first rows are zero or
repeat each other, as in sequences that start with zeros.

Nullspace bases are canonical: free columns are taken in increasing column
order and each basis vector has value 1 at its free column and 0 at the
other free columns, so downstream normalization is deterministic.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .errors import UsageError

# rows past the first ncols that the leading block of `nullspace` takes
LEAD_SPARE_ROWS = 4


def _int_rows(rows: "Sequence[Sequence]", ncols: int) -> "list[list[int]]":
    out = []
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
        out.append(list(row) if plain else [int(v * denom) for v in row])
    return out


def _echelon(mat: "list[list[int]]", ncols: int):
    """In-place fraction-free echelon form; returns the pivot (row, col) list."""
    m = len(mat)
    pivots = []
    r = 0
    prev = 1
    for c in range(ncols):
        sel = None
        for i in range(r, m):
            if mat[i][c]:
                sel = i
                break
        if sel is None:
            continue
        if sel != r:
            mat[r], mat[sel] = mat[sel], mat[r]
        pr = mat[r]
        for i in range(r + 1, m):
            ri = mat[i]
            if ri[c]:
                f = ri[c]
                for j in range(c + 1, ncols):
                    ri[j] = (pr[c] * ri[j] - f * pr[j]) // prev
                ri[c] = 0
            else:
                # the row still needs the pivot scaling to stay a minor
                for j in range(c + 1, ncols):
                    ri[j] = (pr[c] * ri[j]) // prev
        prev = pr[c]
        pivots.append((r, c))
        r += 1
        if r == m:
            break
    return pivots


def nullspace(rows: "Sequence[Sequence]", ncols: int) -> "list[list[Fraction]]":
    """Basis of {x : A x = 0}, one vector per free column, canonical form."""
    mat = _int_rows(rows, ncols)
    lead = ncols + LEAD_SPARE_ROWS
    if len(mat) > lead and len(_echelon([row[:] for row in mat[:lead]], ncols)) == ncols:
        return []  # the leading block already has full column rank
    pivots = _echelon(mat, ncols)
    pivot_cols = [c for _, c in pivots]
    free_cols = [c for c in range(ncols) if c not in set(pivot_cols)]
    basis = []
    for fc in free_cols:
        x = [Fraction(0)] * ncols
        x[fc] = Fraction(1)
        for r, c in reversed(pivots):
            if c > fc:
                continue
            s = Fraction(0)
            row = mat[r]
            for j in range(c + 1, ncols):
                if row[j] and x[j]:
                    s += row[j] * x[j]
            x[c] = -s / row[c]
        basis.append(x)
    return basis


def integer_primitive(vec: "Sequence[Fraction]") -> "list[int]":
    """Scale a rational vector to coprime integers (empty/zero stays zero)."""
    denom = 1
    for v in vec:
        denom = lcm(denom, Fraction(v).denominator)
    ints = [int(v * denom) for v in vec]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g:
        ints = [v // g for v in ints]
    return ints
