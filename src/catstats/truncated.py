"""Truncated mode of the functional recurrences: the transposed walk.

`walk(spec, n_max, cap)` gives the Taylor expansions of Q_0 .. Q_n_max about
the all-ones point to total degree cap (see funcrec for the recurrence and
why truncation is exact).  It goes one n at a time and forms each term's
k-sum once over the whole k-window:

- every stored Q_m goes through each substitution once (`_Images`): a
  constant substitution is applied directly, a varying one as forward
  differences Delta_d, d <= cap, which per-(n, k) weights C(a(n, k), d)
  recombine into the substitution at exponents a;
- a coefficient factor (1 + z_v)^E is a binomial shift along v
  (`series.binomial_shift`); one whose exponent E depends on k alone is
  applied to each term's own copy of its left store once per stored index
  m, at k = m + 1, for the indices a window reads (`_TermWalk._fold`);
- a term's packed side is a side whose images do not depend on the
  window: the identity store or a constant-substitution store, with the
  k-only factors folded in on the left; the right side when both sides
  qualify.  Each of its values is packed once, as an integer with one
  W-bit slot per basis monomial, in basis order, and cut to each degree
  prefix (`_Packed`);
- for each n, the other side's factors are laid out as one column per
  basis monomial i, running over k; the coefficient factors that mix n and
  k act on them as binomial shifts along one variable at a time;
- the product summed over k is one C-level dot product per monomial i,
  sum(map(mul, column_i, packed values cut to the monomials j with
  deg i + deg j <= cap)).  Slot j of it is the k-sum of the pair (i, j),
  which is added into Q_n at the index of i*j.  That is |basis| dot
  products per window instead of one per in-cap pair (45 instead of 495
  for two variables at cap 8, 165 instead of 3,003 for three), with the
  same scalar products inside.

Two kinds of term form one dot product per in-cap pair instead, because
packing does not pay for them (times in process on a 2-vCPU VM, Python
3.11).  In one variable there are only
(cap + 2) / 2 pairs per monomial, while a slot holds a sum of products
and so is about twice as wide as the entries packed into it: packed,
av132:132 took 2.4-3.9x and av132:12 and 21 up to 1.45x as long.  A term
whose sides both vary (av132:321) would pack the parts Delta_d(Q_m) of
one side and recombine them in every window: that took 0.92-1.04x as
long at n = 80, cap 4 and n = 40 and 20, cap 8, and 1.16x at n = 200,
cap 4, where the integers are widest.  A window of one summand takes the
per-pair products too.

Why the slots are exact.  Packing is evaluation at 2^W, so it is linear:
a dot product of columns with packed values is the packed value of the
dot products, and reading it slot by slot gives them back as long as
every slot lies in [0, 2^W).  No slot is ever negative.  The values are
Taylor data at the all-ones point of polynomials with non-negative
coefficients.  Every entry of every Delta_d is >= 0: the image of a
deviation variable is a product of (1 + z)^e with e >= 0, minus 1;
(1 + z)^a = sum over d of C(a, d) z^d has non-negative Newton coefficients
in a, and products C(a, i) C(a, j) expand with non-negative coefficients
in C(a, .).  Weights C(a, d) with a >= 0 and binomial shifts are >= 0 too.
So a slot can go wrong only by reaching 2^W and carrying into the next.
Each packed cut has one slot more, its guard, which holds the largest
slot of the cut.  In a product, slot j = sum over k of c_k * slot_j(k) is
then at most the guard slot, sum over k of c_k * guard(k).  The product
is written out with `int.to_bytes` to its slots and its guard only, which
fits exactly when the guard is below 2^W, and then no slot carried.  When
it does not fit, the walk widens W past the guard, re-packs every stored
value and forms the window again.  A value is packed only into slots
wider than its largest entry (`int.to_bytes` refuses a negative one).
Slots grow about linearly with n, so a widening aims at the width the
slots would need at n_max if they kept growing as far, but at most
doubles it: av123:213 at cap 4 re-packs 4 times up to n = 80.

Every exponent is read from funcrec's `TermExponents.window`, once per term
and n, which refuses a negative one before anything is formed from it.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate, repeat
from operator import add, mul, rshift, sub
from struct import Struct
from typing import Callable

from .series import (
    SeriesBasis,
    TruncatedSeries,
    apply_operator,
    binomial_rows,
    binomial_shift,
    monomials_upto,
    substitution_operator,
)


def walk(spec, n_max: int, cap: int) -> "list[TruncatedSeries]":
    """Q_0 .. Q_n_max of a FuncRecSpec as series of total degree <= cap."""
    basis = SeriesBasis(spec.variables, cap)
    values = [[1] + [0] * (len(basis) - 1)]
    # one image store per distinct matrix of exponent rows, shared by both
    # sides of every term; the identity (None) has the values as its images
    images: dict = {None: _Images(basis, None, values)}

    def image(rows):
        if rows not in images:
            images[rows] = _Images(basis, rows, values)
        return images[rows]

    packs: dict = {}

    def pack(store):
        # in one variable nothing is packed (see the module docstring)
        if len(spec.variables) > 1 and store not in packs:
            packs[store] = _Packed(store, basis, n_max)
        return packs.get(store)

    terms = [_TermWalk(exps, basis, image, pack) for exps in spec.exponents]
    stores = [im for im in images.values() if im.ops]
    for n in range(1, n_max + 1):
        for im in stores:
            im.push(values[n - 1])
        out = [0] * len(basis)
        for term in terms:
            term.add_into(out, n)
        values.append(out)
    return [TruncatedSeries(basis, v) for v in values]


def _differences(ops: list, degrees: list, size: int) -> list:
    """The forward differences Delta_d at 0, for every d in `degrees`, of
    operators given at the integer points s = d (`ops[i]` at `degrees[i]`),
    all in `substitution_operator`'s sparse form."""
    table = {}
    for s, op in zip(degrees, ops):
        flat = table[s] = [0] * (size * size)
        for src, col in enumerate(op):
            for t, c in col:
                flat[src * size + t] = c
    # Newton differences in place, one variable at a time: at level l the
    # points with s_v >= l, highest first, become differences of the level below
    for v in range(len(degrees[0])):
        for level in range(1, max(d[v] for d in degrees) + 1):
            for s in sorted((s for s in degrees if s[v] >= level), key=lambda s: -s[v]):
                table[s] = list(map(sub, table[s], table[s[:v] + (s[v] - 1,) + s[v + 1:]]))
    return [
        [
            [(t, c) for t, c in enumerate(table[d][src * size:(src + 1) * size]) if c]
            for src in range(size)
        ]
        for d in degrees
    ]


class _Images:
    """The images of Q_0, Q_1, ... under one substitution matrix.

    `matrix` holds ints for constant entries and IndexPolys for varying ones
    (None is the identity, whose images are the values themselves).  Every
    entry of the operator Op_a of the substitution at varying exponents
    a = (a_1 .. a_V) is a polynomial of total degree <= cap in a, so

        Op_a = sum over |d| <= cap of C(a, d) * Delta_d,   C(a, d) = prod_v C(a_v, d_v),

    where Delta_d = sum over s <= d of prod_v (-1)^(d_v - s_v) C(d_v, s_v) * Op_s
    is the forward difference of Op at the integer points s.  `parts[i][m]`
    is Delta_(degrees[i])(Q_m), formed once per index m; a constant matrix has
    the single degree () and part Op(Q_m).
    """

    __slots__ = ("varying", "degrees", "ops", "targets", "parts")

    def __init__(self, basis: SeriesBasis, matrix, values: list):
        self.varying, self.degrees, self.ops, self.targets = [], [()], [], [None]
        self.parts = [values]
        if matrix is None:
            return
        slots = [
            (i, j) for i, row in enumerate(matrix) for j, e in enumerate(row) if type(e) is not int
        ]
        self.varying = [matrix[i][j] for i, j in slots]
        self.degrees = monomials_upto(len(slots), basis.cap)
        ops = []
        for s in self.degrees:
            rows = [list(row) for row in matrix]
            for (i, j), x in zip(slots, s):
                rows[i][j] = x
            ops.append(substitution_operator(basis, rows))
        self.ops = _differences(ops, self.degrees, len(basis)) if slots else ops
        self.targets = [sorted({t for col in op for t, _ in col}) for op in self.ops]
        self.parts = [[] for _ in self.degrees]

    def push(self, q: list) -> None:
        """Store the parts of the next value q."""
        for op, part in zip(self.ops, self.parts):
            part.append(apply_operator(op, q))

    def folded(self, lowerings: list) -> "_Images":
        """An empty store with this one's degrees, for the parts times a
        coefficient whose factors shift along the variables of `lowerings`
        (each a `SeriesBasis.lowerings` row); the caller fills its parts."""
        out = object.__new__(_Images)
        out.varying, out.degrees, out.ops = self.varying, self.degrees, []
        out.parts = [[] for _ in self.degrees]
        out.targets = []
        for targets in self.targets:
            # a shift along v moves support up along v: to every monomial
            # some of whose lowerings along v are in the support
            for chains in lowerings if targets is not None else ():
                support = set(targets)
                targets = [
                    i for i, chain in enumerate(chains)
                    if i in support or any(src in support for _, src in chain)
                ]
            out.targets.append(targets)
        return out

    def columns(self, lo: int, hi: int, reverse: bool, evals: dict, cap: int) -> list:
        """Per basis monomial, the image's coefficient over the window of
        stored indices lo .. hi - 1 (reversed when asked), each under the
        matrix at that window position's exponents `evals`."""
        weights = [binomial_rows(evals[p], cap) for p in self.varying]
        acc = None
        for d, part, targets in zip(self.degrees, self.parts, self.targets):
            block = part[lo:hi]
            if reverse:
                block.reverse()
            cols = list(zip(*block))
            if acc is None:  # the degree 0 part has weight 1 and every target
                acc = cols
                continue
            w = None
            for rows, dv in zip(weights, d):
                if dv:
                    w = rows[dv] if w is None else list(map(mul, w, rows[dv]))
            for i in targets:
                acc[i] = list(map(add, acc[i], map(mul, w, cols[i])))
        return acc


class _Packed:
    """A store's values, each packed into integers of W-bit slots, one slot
    per basis monomial in basis order, plus a guard slot: `cuts[d][m]` is
    Q_m's image cut to the monomials of degree <= cap - d, the side of the
    pairs of every monomial of degree d, with the largest of its slots in
    the slot after them."""

    __slots__ = (
        "store", "n_max", "degs", "lens", "groups", "targets", "width", "cuts", "shifts", "masks",
        "sizes", "chunks",
    )

    def __init__(self, store: _Images, basis: SeriesBasis, n_max: int):
        self.store, self.n_max, cap = store, n_max, basis.cap
        degs = self.degs = [sum(e) for e in basis.monomials]
        # lens[d]: the monomials j with deg j <= cap - d, a prefix of the
        # basis, which pair with every monomial of degree d; groups[d]: the
        # monomials of degree d; targets: the product index of every pair
        self.lens = [bisect_right(degs, cap - d) for d in range(cap + 1)]
        self.groups = [slice(bisect_left(degs, d), bisect_right(degs, d)) for d in range(cap + 1)]
        self.targets = [t for row in basis.pairs for _, t in row]
        self.cuts = [[] for _ in self.lens]
        self._widen(0, 1)

    def _widen(self, bits: int, n: int) -> None:
        """Drop the packed values, for re-packing with slots of more than
        `bits` bits at Q_n, plus the growth that scaling to n_max gives, but
        at most twice as wide (see the module docstring)."""
        bits += min(bits, bits * (self.n_max - n) // n)
        nb = self.width = bits // 8 + 1
        for cut in self.cuts:
            cut.clear()
        lens, degs = self.lens, self.degs
        self.shifts = [8 * nb * k for k in lens]
        self.masks = [(1 << shift) - 1 for shift in self.shifts]
        self.sizes = [nb * (lens[d] + 1) for d in degs]
        # every product's guard slot is read past, not out
        self.chunks = Struct("".join(f"{nb}s" * lens[d] + f"{nb}x" for d in degs))

    def _fill(self, n: int) -> None:
        """Pack the stored values not yet packed, first re-packing them all
        with wider slots if one of them has a slot that does not fit."""
        (values,), groups = self.store.parts, self.groups
        m = len(self.cuts[0])
        while m < len(values):
            q = values[m]
            if q is None:  # an index no window reads
                for cut in self.cuts:
                    cut.append(None)
                m += 1
                continue
            # tops[e]: the largest slot of degree <= e
            tops = list(accumulate(map(max, map(q.__getitem__, groups)), max))
            if tops[-1].bit_length() > 8 * self.width:
                self._widen(tops[-1].bit_length(), n)
                m = 0
                continue
            q = b"".join(map(int.to_bytes, q, repeat(self.width), repeat("little")))
            q = int.from_bytes(q, "little")
            tops.reverse()
            for cut, mask, shift, top in zip(self.cuts, self.masks, self.shifts, tops):
                cut.append((q & mask) + (top << shift))
            m += 1

    def add_into(self, out: list, n: int, cols: list, lo: int, hi: int, reverse: bool) -> None:
        """Add sum over the window of cols[i] * (slot j of the packed value)
        to out at the index of monomial i*j, for every in-cap pair (i, j):
        the window is stored indices lo .. hi - 1, reversed when asked, and
        cols the other side's columns over it."""
        self._fill(n)
        while True:
            levels = [cut[lo:hi] for cut in self.cuts]
            if reverse:
                for level in levels:
                    level.reverse()
            sums = [sum(map(mul, col, levels[d])) for col, d in zip(cols, self.degs)]
            try:
                buf = b"".join(map(int.to_bytes, sums, self.sizes, repeat("little")))
                break
            except OverflowError:  # a guard slot has outgrown the width
                tops = map(rshift, sums, map(self.shifts.__getitem__, self.degs))
                self._widen(max(map(int.bit_length, tops)), n)
                self._fill(n)
        slots = map(int.from_bytes, self.chunks.unpack(buf), repeat("little"))
        for t, x in zip(self.targets, slots):
            out[t] += x


class _TermWalk:
    """One term's contribution to each Q_n in truncated mode.

    The coefficient's factors (1 + z_v)^E whose exponent E has no n term are
    folded into the term's own copy of its left store, once per stored index
    m at k = m + 1 (`_fold`); `_coefficient` applies the rest per window, to
    the columns of the side that is not packed (the left one when neither
    is).  Every exponent comes from the term's `TermExponents` (`exps`)."""

    __slots__ = ("exps", "basis", "coef", "fold", "source", "left", "right", "packed", "pack_left")

    def __init__(self, exps, basis: SeriesBasis, image: Callable, pack: Callable):
        self.exps, self.basis = exps, basis
        # the coefficient's nonzero exponents as (variable, int or varying
        # IndexPoly), split into those that depend on k alone and the rest
        factors = [(v, e) for v, e in enumerate(exps.coef) if e != 0]
        self.fold = [
            (v, e) for v, e in factors if type(e) is int or all(dn == 0 for dn, _ in e.terms)
        ]
        self.coef = [f for f in factors if f not in self.fold]
        self.left, self.right = image(exps.left), image(exps.right)
        self.source = self.left if self.fold else None
        if self.fold:
            self.left = self.source.folded([basis.lowerings[v] for v, _ in self.fold])
        # the packed side: one independent of the window, the right one when
        # both are; none when both vary
        self.pack_left = bool(self.right.varying) and not self.left.varying
        both = self.left.varying and self.right.varying
        self.packed = None if both else pack(self.left if self.pack_left else self.right)

    def _fold(self, n: int, ks: range, evals: dict) -> None:
        """Store the folded left parts of index n - 1, which the windows read
        at k = n: a placeholder below k_low, nothing past k_high."""
        if not ks:
            for part in self.left.parts:
                part.append(None)
            return
        if ks[-1] < n:
            return
        factors = [
            (self.basis.lowerings[v],
             binomial_rows([e if type(e) is int else evals[e][-1]], self.basis.cap))
            for v, e in self.fold
        ]
        for src, part in zip(self.source.parts, self.left.parts):
            cols = [[x] for x in src[n - 1]]  # a window of one
            for lowering, rows in factors:
                cols = binomial_shift(cols, lowering, rows)
            part.append([x for x, in cols])

    def add_into(self, out: list, n: int) -> None:
        """Add sum over the window of coef * L(Q_(k-1)) * R(Q_(n-k)) to out,
        first folding index n - 1 into the left store."""
        ks, evals = self.exps.window(n)
        if self.source is not None:
            self._fold(n, ks, evals)
        if not ks:
            return
        lo, hi = ks.start, ks.stop
        # each side with its window; the side not packed comes first
        sides = (self.left, (lo - 1, hi - 1, False)), (self.right, (n - hi + 1, n - lo + 1, True))
        (side, window), (other, other_window) = sides[::-1] if self.pack_left else sides
        cols = self._coefficient(side.columns(*window, evals, self.basis.cap), evals)
        if self.packed is not None and len(ks) > 1:
            self.packed.add_into(out, n, cols, *other_window)
            return
        other = other.columns(*other_window, evals, self.basis.cap)
        for col, row in zip(cols, self.basis.pairs):  # a product per in-cap pair
            if any(col):
                for j, t in row:
                    out[t] += sum(map(mul, col, other[j]))

    def _coefficient(self, cols: list, evals: dict) -> list:
        """The columns of a window times the coefficient factors that mix n
        and k, each a binomial shift along its variable."""
        for v, e in self.coef:
            cols = binomial_shift(
                cols, self.basis.lowerings[v], binomial_rows(evals[e], self.basis.cap)
            )
        return cols
