"""Fit exact models to sequences: P-recurrences, algebraic equations, closed forms.

All three guessers run one pipeline.  `_prepare` normalizes the values and
checks the holdout, the search bounds and the term count.  The recurrence and
algebraic guessers walk their (size, degree) bounds with the one graded
search `_graded` (by total weight, then size), so the first hit is minimal
for that order; the closed form fits its one degree.

Each fitter states its model as one homogeneous linear system, one row per
term, built by one row function: a recurrence window's coefficients, a
series coefficient of Phi(z, y(z)), or [A_n | a(n)] for the closed form.
`_fits` has one acceptance rule for all three: candidates are the
`linalg.nullspace` vectors of the training rows, and a candidate is kept only
when its integer form annihilates every row, the holdout rows the fit never
saw included.  Rows are built only when read: the training rows until the
elimination reaches full rank, when no candidate exists, and the holdout
rows only once a candidate does.  Nothing found within bounds returns None;
that is an outcome, not an error.

A term that no row reads could change without refusing the fit.  A closed
form holds each term in its b column, and a recurrence window its last term
through q_order(n).  A series row reads a term only v rows on, v the
z-valuation of Phi_y, so the algebraic fitter checks v rows past the data.

Normalization: coefficient vectors are the nullspace's primitive integer
vectors, and the sign is fixed by the leading object (leading coefficient of
the top-order polynomial for recurrences, which the nullspace already makes
positive, and coefficient of the graded-lex-greatest monomial for algebraic
equations), so equal models always print identically.
"""
from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Callable, NamedTuple, Sequence

from .errors import UsageError
from .linalg import nullspace
from .multipoly import coeff_to_str, join_signed, norm_coeff
from .perms import catalan

DEFAULT_HOLDOUT = 10
# the search bounds of each fitter
DEFAULT_MAX_ORDER = 6
DEFAULT_MAX_DEGREE = 6
DEFAULT_MAX_DEG_Y = 4
DEFAULT_MAX_DEG_Z = 12
DEFAULT_DEGREE = 3
# the largest n a closed-form row may have.  Its 4^n and c(n) entries have
# about 2n bits and elimination takes minors of them, so the time grows about
# as n^2 (README); 1001 is the least cap that keeps every `average --max-n
# 1000` file
MAX_CLOSED_FORM_N = 1001


def _prepare(values: "Sequence", holdout: int, bounds, need: int, fits: str) -> list:
    """Normalized values, after checking the holdout, the bounds and the term count.

    `bounds` holds (name, value, least) triples; `need` is the term count the
    largest system and the holdout take together, and `fits` says what it
    is needed for in the message.
    """
    for name, value, least in (("holdout", holdout, 1), *bounds):
        if value < least:
            raise UsageError(f"{name} must be >= {least}")
    values = [norm_coeff(v) for v in values]
    if len(values) < need:
        raise UsageError(f"need at least {need} {fits} with holdout {holdout}; got {len(values)}")
    return values


def _graded(max_size: int, max_degree: int):
    """(size, degree) pairs with 1 <= size <= max_size and 0 <= degree <= max_degree,
    by total weight, then by size."""
    for weight in range(1, max_size + max_degree + 1):
        for size in range(max(1, weight - max_degree), min(weight, max_size) + 1):
            yield size, weight - size


def _fits(row: "Callable[[int], list]", train: int, total: int, ncols: int):
    """The primitive integer nullspace vectors x of the training rows
    row(0), ..., row(train - 1) with row(s) . x = 0 for every s < total.

    The training rows are built as the elimination reads them, and it stops
    reading once they have full rank."""
    basis = nullspace(map(row, range(train)), ncols)
    holdout = [row(s) for s in range(train, total)] if basis else []
    for vec in basis:
        if not any(sum(map(mul, r, vec)) for r in holdout):
            yield vec


def _times_powers(v, n: int, count: int) -> list:
    """[v, v*n, ..., v*n^(count-1)]: one row block of a system whose unknowns
    are polynomials in n."""
    out = []
    p = 1
    for _ in range(count):
        out.append(v * p)
        p *= n
    return out


def _term(c, mono: str) -> str:
    """One signed term c*mono, with unit coefficients left implicit."""
    if not mono:
        return str(c)
    if c == 1:
        return mono
    return f"-{mono}" if c == -1 else f"{c}*{mono}"


def _poly_str(coeffs: "Sequence", var: str = "n") -> str:
    return join_signed(
        _term(coeffs[j], "" if j == 0 else var if j == 1 else f"{var}^{j}")
        for j in range(len(coeffs) - 1, -1, -1)
        if coeffs[j]
    )


# -- P-recurrences ---------------------------------------------------------


class PRecurrence(NamedTuple):
    """sum_i q_i(n) * a(n+i) = 0 for n >= offset, with integer q_i."""

    order: int
    degree: int
    coeffs: "tuple[tuple[int, ...], ...]"  # coeffs[i][j]: n^j term of q_i
    offset: int = 0

    def render(self) -> str:
        terms = []
        for i in range(self.order, -1, -1):
            q = self.coeffs[i]
            if not any(q):
                continue
            arg = f"a(n+{i})" if i else "a(n)"
            if not any(q[1:]):
                terms.append(_term(q[0], arg))
                continue
            neg = next(c for c in reversed(q) if c) < 0
            body = _poly_str([-c for c in q] if neg else q)
            terms.append(f"{'-' if neg else ''}({body})*{arg}")
        return join_signed(terms) + " = 0"

    def to_json_obj(self) -> dict:
        return {
            "kind": "p-recurrence",
            "order": self.order,
            "degree": self.degree,
            "offset": self.offset,
            "coefficients": [list(q) for q in self.coeffs],
            "rendering": self.render(),
        }


def guess_p_recursive(
    values: "Sequence",
    offset: int = 0,
    max_order: int = DEFAULT_MAX_ORDER,
    max_degree: int = DEFAULT_MAX_DEGREE,
    holdout: int = DEFAULT_HOLDOUT,
) -> "PRecurrence | None":
    """Smallest (order, degree) recurrence fitting every term, or None.

    `values[i]` is the term at n = offset + i.  Row s is window s, the
    coefficients of sum_i q_i(n) a(n+i) at n = offset + s; the final
    `holdout` windows take no part in the fit and only vote on candidates.
    """
    values = _prepare(
        values, holdout, (("max_order", max_order, 1), ("max_degree", max_degree, 0)),
        need=(max_order + 1) * (max_degree + 1) + holdout + max_order,
        fits=f"terms for bounds (order {max_order}, degree {max_degree})",
    )
    # `need` leaves windows - holdout >= (order + 1) * w training windows,
    # at least one per unknown, at every (order, degree) searched
    for order, degree in _graded(max_order, max_degree):
        w = degree + 1
        windows = len(values) - order

        def row(s):
            return [x for i in range(order + 1)
                    for x in _times_powers(values[s + i], offset + s, w)]

        for ints in _fits(row, windows - holdout, windows, (order + 1) * w):
            if any(ints[order * w :]):  # else really lower order, searched before
                return _normalize_p_rec(ints, order, w, offset)
    return None


def _normalize_p_rec(ints: "list[int]", order: int, w: int, offset: int) -> PRecurrence:
    """A nullspace vector's last nonzero entry, at its free column, is
    positive; it lies in the top-order block, so q_order leads with it."""
    degree = max(j for j in range(w) for i in range(order + 1) if ints[i * w + j])
    coeffs = tuple(tuple(ints[i * w : i * w + degree + 1]) for i in range(order + 1))
    return PRecurrence(order=order, degree=degree, coeffs=coeffs, offset=offset)


# -- algebraic equations ---------------------------------------------------


class AlgebraicEquation(NamedTuple):
    """sum phi[(i, j)] z^i y^j = 0 for the series y(z), integer coefficients."""

    coeffs: "tuple[tuple[tuple[int, int], int], ...]"  # ((z_deg, y_deg), c), sorted

    def degree_y(self) -> int:
        return max((j for (_, j), _ in self.coeffs), default=0)

    def degree_z(self) -> int:
        return max((i for (i, _), _ in self.coeffs), default=0)

    def render(self) -> str:
        by_j: "dict[int, list]" = {}
        for (i, j), c in self.coeffs:
            by_j.setdefault(j, []).append((i, c))
        terms = []
        for j in sorted(by_j):
            group = by_j[j]
            zpoly = [0] * (max(i for i, _ in group) + 1)
            for i, c in group:
                zpoly[i] = c
            neg = next(c for c in reversed(zpoly) if c) < 0
            if neg:
                zpoly = [-c for c in zpoly]
            zs = _poly_str(zpoly, "z")
            y = "" if j == 0 else ("y" if j == 1 else f"y^{j}")
            if not y:
                body = zs if len(group) == 1 else f"({zs})"
            elif zs == "1":
                body = y
            elif len(group) == 1:
                body = f"{zs}*{y}"
            else:
                body = f"({zs})*{y}"
            terms.append(f"-{body}" if neg else body)
        return join_signed(terms) + " = 0"

    def render_solved(self) -> "str | None":
        """'y = ...' form when the y^1 coefficient is the constant -1 or 1."""
        cy = {c for (i, j), c in self.coeffs if j == 1 and i == 0}
        other_y1 = [1 for (i, j), _ in self.coeffs if j == 1 and i > 0]
        if other_y1 or cy not in ({1}, {-1}):
            return None
        sgn = -1 if cy == {1} else 1
        terms = []
        for (j, i), c in sorted(((j, i), sgn * c) for (i, j), c in self.coeffs if j != 1):
            mono = "*".join(
                ([f"z^{i}" if i > 1 else "z"] if i else [])
                + ([f"y^{j}" if j > 1 else "y"] if j else [])
            )
            terms.append(_term(c, mono))
        return "y = " + join_signed(terms)

    def to_json_obj(self) -> dict:
        return {
            "kind": "algebraic",
            "degree_y": self.degree_y(),
            "degree_z": self.degree_z(),
            "coefficients": [[[zd, yd], c] for (zd, yd), c in self.coeffs],
            "rendering": self.render(),
            "solved": self.render_solved(),
        }


def _powers(values: "Sequence", top: int) -> "list[list]":
    """y^0, ..., y^top for y = sum values[m] z^m, truncated to len(values) terms."""
    T = len(values)
    powers = [[1] + [0] * (T - 1)]
    for _ in range(top):
        prev = powers[-1]
        powers.append([sum(map(mul, prev[: m + 1], values[m::-1])) for m in range(T)])
    return powers


def guess_algebraic(
    values: "Sequence",
    max_deg_y: int = DEFAULT_MAX_DEG_Y,
    max_deg_z: int = DEFAULT_MAX_DEG_Z,
    holdout: int = DEFAULT_HOLDOUT,
) -> "AlgebraicEquation | None":
    """Smallest (deg_y, deg_z) polynomial equation satisfied by the series
    y(z) = sum values[m] z^m, or None.

    Row m holds the z^m coefficients of z^i y^j, so a candidate's row m is
    the z^m coefficient of Phi(z, y_T(z)), with y_T the data polynomial of
    the T terms; the last `holdout` of rows 0..T-1 only vote on candidates.

    Row r depends on a(m) through d/da(m) = [z^(r-m)] Phi_y(z, y_T), so with
    v the z-valuation of Phi_y(z, y_T), a(m) first enters row m + v: no row
    below T sees the last v terms, and a candidate must also annihilate rows
    T..T+v-1.  These are rows of Phi(z, y) for every y extending the data: a
    later a(j), j >= T, enters them through [z^(r-j)] Phi_y, r - j < v, which
    reads the data only and is 0, or in a product with another, which needs
    r >= 2T.  Row m + v sees a(m) through [z^v] Phi_y != 0, and an a(j) with
    j > m only squared, which needs 2j <= m + v; for the last v terms that is
    ruled out when T >= 2v, so a candidate with 2v >= T is refused."""
    values = _prepare(
        values, holdout, (("max_deg_y", max_deg_y, 1), ("max_deg_z", max_deg_z, 0)),
        need=(max_deg_y + 1) * (max_deg_z + 1) + holdout,
        fits=f"series terms for bounds (deg_y {max_deg_y}, deg_z {max_deg_z})",
    )
    powers = _powers(values, max_deg_y)
    T = len(values)
    nonzero = any(values)
    for dy, dz in _graded(max_deg_y, max_deg_z):
        cols = [(j, i) for j in range(dy + 1) for i in range(dz + 1)]
        if T - holdout < len(cols) + 1:
            continue

        def row(m):
            return [powers[j][m - i] if m >= i else 0 for j, i in cols]

        # every candidate has a y term: without one, its training row m would
        # be its z^m coefficient alone, for each m <= dz < T - holdout.  One
        # without a y^0 term is y*Psi, whose rows below z^T miss the last
        # terms.  Unless y = 0, y*Psi = 0 exactly when Psi = 0, and Psi has
        # the lower weight, so the search has already tried it
        for ints in _fits(row, T - holdout, T, len(cols)):
            if nonzero and not any(ints[: dz + 1]):
                continue
            if not _sees_every_term(ints, cols, values, powers):
                continue
            lead = max((t for t, c in zip(cols, ints) if c), key=lambda t: (t[0] + t[1], t))
            if ints[cols.index(lead)] < 0:
                ints = [-c for c in ints]
            return AlgebraicEquation(
                coeffs=tuple(sorted(((i, j), c) for (j, i), c in zip(cols, ints) if c)))
    return None


def _sees_every_term(ints: list, cols: list, values: list, powers: list) -> bool:
    """Whether the candidate `ints` over `cols` annihilates rows T..T+v-1 of
    Phi(z, y_T), v the z-valuation of Phi_y(z, y_T), with 2v < T (see
    `guess_algebraic`).  `powers` holds the powers of y_T to T terms."""
    T = len(values)
    phi_y = [(c * j, j - 1, i) for (j, i), c in zip(cols, ints) if c and j]
    v = next((m for m in range((T + 1) // 2)
              if sum(c * powers[j][m - i] for c, j, i in phi_y if m >= i)), T)
    if 2 * v >= T:
        return False
    powers = _powers([*values, *[0] * v], max(j for j, _ in cols))
    return not any(
        sum(c * powers[j][m - i] for (j, i), c in zip(cols, ints) if c) for m in range(T, T + v)
    )


# -- closed forms ----------------------------------------------------------

CLOSED_FORM_PARTS = ("4^n", "c(n)", "c(n-1)", "1")


class ClosedFormFit(NamedTuple):
    """a(n) = p1(n)*4^n + p2(n)*c(n) + p3(n)*c(n-1) + p4(n), rational p_i."""

    degree: int
    parts: "tuple[tuple[Fraction, ...], ...]"  # aligned with CLOSED_FORM_PARTS
    offset: int

    def render(self) -> str:
        bits = []
        for poly, label in zip(self.parts, CLOSED_FORM_PARTS):
            if not any(poly):
                continue
            ps = _poly_str(poly)
            if label == "1":
                bits.append(ps if "+" not in ps and "- " not in ps else f"({ps})")
            elif ps == "1":
                bits.append(label)
            elif "+" in ps or "- " in ps:
                bits.append(f"({ps})*{label}")
            else:
                bits.append(f"{ps}*{label}" if ps != "-1" else f"-{label}")
        return "a(n) = " + (" + ".join(bits) if bits else "0")

    def to_json_obj(self) -> dict:
        return {
            "kind": "closed-form",
            "degree": self.degree,
            "offset": self.offset,
            "parts": {
                part: [coeff_to_str(norm_coeff(c)) for c in poly]
                for part, poly in zip(CLOSED_FORM_PARTS, self.parts)
            },
            "rendering": self.render(),
        }


def fit_closed_form(
    values: "Sequence",
    offset: int = 1,
    degree: int = DEFAULT_DEGREE,
    holdout: int = DEFAULT_HOLDOUT,
) -> "ClosedFormFit | None":
    """Exact fit over the span of {n^i 4^n, n^i c(n), n^i c(n-1), n^i}, or None.

    `values[s]` is the term at n = offset + s; offset must be >= 1 because
    the basis involves c(n-1), and offset + len(values) - 1 must be at most
    MAX_CLOSED_FORM_N.  Row s is [A_n | a(n)] at n = offset + s, so a
    candidate x with x_b != 0 says A_n (-x_A / x_b) = a(n).  In the canonical
    basis only b's own vector, the last, can have x_b != 0: the fit is the
    solution of [A | b] with the free unknowns at 0.
    """
    if offset < 1:
        raise UsageError("closed-form fits need offset >= 1 (the basis uses c(n-1))")
    last = offset + len(values) - 1
    if last > MAX_CLOSED_FORM_N:
        raise UsageError(
            f"closed-form fits are capped at n = {MAX_CLOSED_FORM_N}; the terms reach n = {last}")
    ncols = 4 * (degree + 1)
    values = _prepare(values, holdout, (("degree", degree, 0),),
                      need=ncols + holdout, fits=f"terms for degree {degree}")

    def row(s):
        n = offset + s
        parts = (4**n, catalan(n), catalan(n - 1), 1)
        return [x for v in parts for x in _times_powers(v, n, degree + 1)] + [values[s]]

    for ints in _fits(row, len(values) - holdout, len(values), ncols + 1):
        if ints[ncols]:  # else b is a pivot column: the training system is inconsistent
            x = [Fraction(-c, ints[ncols]) for c in ints[:ncols]]
            parts = tuple(tuple(x[b * (degree + 1) : (b + 1) * (degree + 1)]) for b in range(4))
            return ClosedFormFit(degree=degree, parts=parts, offset=offset)
    return None
