"""Exact moment pipeline: enumerators -> factorial -> raw -> central -> standardized.

For a weight enumerator P_n(t) = sum_s count(s) t^s:

    f_r = r-th factorial moment sum  = sum_s count(s) * s(s-1)...(s-r+1)
        = r! * [z^r] P_n(1+z),

which is exactly what truncated-mode evaluation stores, so both evaluation
modes feed the same pipeline.  Raw moments divide the power sums by the
object count f_0, central moments recenter at the mean, and standardized
moments divide by the r/2 power of the variance.  Odd standardized moments
involve a square root; they are stored exactly as the signed square
alpha*|alpha| and rendered to float only for display and for the limit
analysis.

A row is computed in integers, and each printed rational is built once, at
the cost of one gcd.  With the power sums

    S_0 = f_0,   S_r = sum_j S(r, j) f_j   (S(r, j): Stirling numbers of the 2nd kind),

the scaled central moments N_r = f_0^r M_r are integers,

    N_r = sum_{j=0..r} C(r, j) S_j (-S_1)^(r-j) f_0^(j-1),

where the j = 0 term is (-S_1)^r.  Then m_r = S_r / f_0, M_r = N_r / f_0^r,
and the signed square of alpha_r is N_r |N_r| / N_2^r.
"""
from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import UsageError
from .multipoly import coeff_to_str

if TYPE_CHECKING:  # only the truncated walk builds one, and it imports series itself
    from .series import TruncatedSeries


def stirling2_row(r: int) -> "list[int]":
    """S(r, 0..r) by the triangular recurrence; cached."""
    rows = _STIRLING_ROWS
    while len(rows) <= r:
        prev = rows[-1]
        j = len(rows)
        row = [0] * (j + 1)
        for m in range(1, j + 1):
            row[m] = (prev[m - 1] if m - 1 <= j - 1 else 0) + m * (prev[m] if m <= j - 1 else 0)
        rows.append(row)
    return rows[r]


_STIRLING_ROWS: "list[list[int]]" = [[1]]


def falling_factorial(i: int, r: int) -> int:
    out = 1
    for j in range(r):
        out *= i - j
    return out


def factorial_from_full(coeffs: "Sequence[int]", r_max: int) -> "list[int]":
    """[f_0 .. f_r_max] from the dense coefficients [c_0 .. c_d] of a
    univariate weight enumerator."""
    out = []
    for r in range(r_max + 1):
        out.append(sum(c * falling_factorial(i, r) for i, c in enumerate(coeffs) if c))
    return out


def factorial_from_truncated(series: TruncatedSeries) -> "list[int]":
    """[f_0 .. f_cap] of the variable t, read off a truncated expansion
    about all-ones to the series cap."""
    basis = series.basis
    try:
        vi = basis.variables.index("t")
    except ValueError:
        raise UsageError("series has no variable 't'") from None
    nv = len(basis.variables)
    out = []
    fact = 1
    for r in range(basis.cap + 1):
        if r:
            fact *= r
        exps = tuple(r if i == vi else 0 for i in range(nv))
        out.append(fact * series.coefficient(exps))
    return out


class StandardizedMoments(NamedTuple):
    """Exact signed squares alpha_r * |alpha_r| plus float renderings.

    Index r of each list is the order; entries below r = 2 are fixed by
    definition (alpha_0 = 1, alpha_1 = 0, alpha_2 = 1).
    """

    signed_square: "tuple[Fraction, ...]"
    float_value: "tuple[float, ...]"


def normal_reference(r: int) -> int:
    """Standardized moments of the Gaussian: 0 for odd r, (r-1)!! for even."""
    if r < 0:
        raise UsageError("moment order must be >= 0")
    if r % 2:
        return 0
    out = 1
    for j in range(r - 1, 0, -2):
        out *= j
    return out


class MomentRow(NamedTuple):
    n: int
    f: "list[int]"
    m: "list[Fraction]"
    M: "list[Fraction]"
    alpha: "StandardizedMoments | None"
    note: str = ""

    @property
    def count(self) -> int:
        return self.f[0]


class MomentTable(NamedTuple):
    family: str
    statistic: str
    mode: str
    cap: "int | None"
    r_max: int
    rows: "list[MomentRow]"

    def row(self, n: int) -> MomentRow:
        for r in self.rows:
            if r.n == n:
                return r
        raise UsageError(f"no row for n = {n}")

    def to_json_obj(self) -> dict:
        return {
            "family": self.family,
            "statistic": self.statistic,
            "mode": self.mode,
            "cap": self.cap,
            "r_max": self.r_max,
            "rows": [
                {
                    "n": row.n,
                    "count": str(row.count),
                    "f": [str(v) for v in row.f],
                    "m": [coeff_to_str(v) for v in row.m],
                    "M": [coeff_to_str(v) for v in row.M],
                    "alpha_signed_square": (
                        None if row.alpha is None else [coeff_to_str(v) for v in row.alpha.signed_square]
                    ),
                    "alpha_float": (
                        None if row.alpha is None else [float(f"{v:.15g}") for v in row.alpha.float_value]
                    ),
                    "note": row.note,
                }
                for row in self.rows
            ],
        }

    def csv_rows(self) -> "list[list[str]]":
        hdr = ["n", "count"]
        R = self.r_max
        hdr += [f"f{r}" for r in range(1, R + 1)]
        hdr += [f"m{r}" for r in range(1, R + 1)]
        hdr += [f"M{r}" for r in range(2, R + 1)]
        hdr += [f"alpha{r}" for r in range(3, R + 1)]
        out = [hdr]
        for row in self.rows:
            rec = [str(row.n), str(row.count)]
            rec += [str(v) for v in row.f[1:]]
            rec += [coeff_to_str(v) for v in row.m[1:]]
            rec += [coeff_to_str(v) for v in row.M[2:]]
            if row.alpha is None:
                rec += ["" for _ in range(3, R + 1)]
            else:
                rec += [f"{row.alpha.float_value[r]:.15g}" for r in range(3, R + 1)]
            out.append(rec)
        return out


def _moment_row(n: int, frow: "Sequence[int]") -> MomentRow:
    """One table row from [f_0 .. f_R], in integers up to the printed values."""
    f0 = frow[0] if frow else 0
    if f0 == 0:
        raise UsageError("cannot normalize by an empty family (f_0 = 0)")
    # power sums S_r, then T_j = S_j * f_0^(j-1) with T_0 = 1, so that
    # N_r = sum_j C(r, j) * T_j * (-S_1)^(r-j)
    sums = [sum(map(mul, stirling2_row(r), frow)) for r in range(len(frow))]
    scaled = [1] + [s * f0 ** (j - 1) for j, s in enumerate(sums) if j]
    minus_s1 = -sums[1] if len(sums) > 1 else 0
    powers = [minus_s1**i for i in range(len(sums))]
    central = [
        sum(math.comb(r, j) * scaled[j] * powers[r - j] for j in range(r + 1))
        for r in range(len(sums))
    ]
    m = [Fraction(s, f0) for s in sums]
    M = [Fraction(c, f0**r) for r, c in enumerate(central)]
    if len(central) < 3:
        return MomentRow(n, list(frow), m, M, None, "standardized moments need r_max >= 2")
    var = central[2]
    if var == 0:
        return MomentRow(n, list(frow), m, M, None, "degenerate: variance 0")
    if var < 0:
        raise UsageError("negative variance: inconsistent central moments")
    ss, fl = [], []
    for r, c in enumerate(central):
        sq = Fraction(c * abs(c), var**r)
        ss.append(sq)
        root = math.sqrt(float(abs(sq)))
        fl.append(root if sq >= 0 else -root)
    return MomentRow(n, list(frow), m, M, StandardizedMoments(tuple(ss), tuple(fl)))


def moment_table_from_rows(family, statistic, mode, cap, r_max, f_rows, ns) -> MomentTable:
    """Shared tail of the pipeline: factorial rows in, full table out; row i
    belongs to n = ns[i]."""
    rows = [_moment_row(n, frow) for n, frow in zip(ns, f_rows)]
    return MomentTable(family, statistic, mode, cap, r_max, rows)


def moments_from_full(seq, r_max: int) -> MomentTable:
    """Moment table of t from a full-mode EnumeratorSequence (catalytic
    variables are set to 1 first)."""
    if r_max < 0:
        raise UsageError(f"moment order r must be >= 0, got r = {r_max}")
    spec = seq.spec
    f_rows = []
    for p in seq.values:
        terms = p.project(("t",)).terms
        coeffs = [terms.get((i,), 0) for i in range(max(terms)[0] + 1)]
        f_rows.append(factorial_from_full(coeffs, r_max))
    return moment_table_from_rows(
        spec.family, spec.statistic, "full", None, r_max, f_rows, range(len(f_rows))
    )


def moments_from_truncated(seq, ns: "Sequence[int] | None" = None) -> MomentTable:
    """Moment table of t to the evaluation cap from a truncated-mode
    EnumeratorSequence, with a row for each n in ns (every n when omitted)."""
    spec = seq.spec
    if ns is None:
        ns = range(len(seq.values))
    f_rows = [factorial_from_truncated(seq.values[n]) for n in ns]
    return moment_table_from_rows(
        spec.family, spec.statistic, "truncated", seq.cap, seq.cap, f_rows, ns
    )
