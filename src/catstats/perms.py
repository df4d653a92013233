"""Permutations, pattern occurrence counting, and brute-force oracles.

Permutations are tuples of 1-based values in one-line notation; the empty
tuple is the length-0 permutation.  Everything here is exhaustive-by-design
reference code: the functional-recurrence engine is checked against these
enumerators on every build, so clarity beats speed, except where a loop is
genuinely hot (avoider generation, and patterns of length 2 and 3, which are
counted with integer arithmetic rather than by classifying subsets).  The
avoiders of both families are grown one length at a time from the shorter
ones, by where the maximum may go, and sorted once: no candidate is ever
built and then tested for the forbidden pattern.

The insertion map on 123-avoiders deserves a note.  It rebuilds a permutation
of length m+1 from one of length m by freeing a front slot, letting the
entries that are not right-to-left maxima slide forward along the chain of
freed positions (first such entry into the front slot, each later one into
the position the previous one vacated), bumping every value by 1 and writing
the new smallest value 1 into the last vacated position.  That this makes
(k, pi1, pi2) -> pi1-block + insert(pi2) a bijection onto the 123-avoiders of
each size is checked exhaustively, for every size up to 8, by the bijection
check in tests/reference.py.
"""
from __future__ import annotations

import math
from typing import Sequence

from .errors import UsageError
from .multipoly import MultiPoly

Perm = "tuple[int, ...]"

DEFAULT_ORACLE_LIMIT = 12

AV132 = (1, 3, 2)
AV123 = (1, 2, 3)


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def catalan_list(n_max: int) -> "list[int]":
    return [catalan(n) for n in range(n_max + 1)]


def parse_perm(text: str) -> Perm:
    """'213', '2 1 3' and '2,1,3' all denote the same permutation: one ASCII
    digit per entry, or ASCII-digit tokens separated by spaces or commas."""
    text = text.strip()
    if not text:
        return ()
    tokens = text.replace(",", " ").split() if any(ch in text for ch in " ,") else text
    if not all(tok.isascii() and tok.isdigit() for tok in tokens):
        raise UsageError(f"cannot parse permutation {text!r}")
    p = tuple(map(int, tokens))
    if sorted(p) != list(range(1, len(p) + 1)):
        raise UsageError(f"not a permutation of 1..{len(p)}: {text!r}")
    return p


def format_perm(p: Perm) -> str:
    if not p:
        return "e"
    if len(p) <= 9:
        return "".join(str(v) for v in p)
    return " ".join(str(v) for v in p)


def count_213(perm: Perm) -> int:
    """Occurrences of 213 in O(n^2): for each entry v taken as the '2', the
    later pairs made of an entry below v followed by an entry above v."""
    total = 0
    for i, v in enumerate(perm):
        below = 0
        for w in perm[i + 1 :]:
            if w < v:
                below += 1
            else:
                total += below
    return total


def short_pattern_counts(perm: Perm) -> "dict[Perm, int]":
    """Occurrences of every pattern of length at most 3, in O(n^2).

    The empty pattern occurs once and the pattern 1 n times.  For each middle
    entry, let ls and lg count the smaller and larger entries to its left, rs
    and rg those to its right.  Summed over the middle entry, ls gives 12,
    ls*rg gives 123, lg*rs gives 321, lg*rg gives 213 + 312 (the middle is
    smallest) and ls*rs gives 132 + 231 (the middle is largest).  213 is
    counted directly and 132 is the 213 count of the reverse-complement; 312
    and 231 follow by subtraction.
    """
    n = len(perm)
    c12 = c123 = c321 = lows = highs = 0
    for j, v in enumerate(perm):
        ls = 0
        for w in perm[:j]:
            if w < v:
                ls += 1
        lg = j - ls
        rs = v - 1 - ls
        rg = n - 1 - j - rs
        c12 += ls
        c123 += ls * rg
        c321 += lg * rs
        lows += lg * rg
        highs += ls * rs
    c213 = count_213(perm)
    c132 = count_213(tuple(n + 1 - v for v in reversed(perm)))
    return {
        (): 1,
        (1,): n,
        (1, 2): c12,
        (2, 1): n * (n - 1) // 2 - c12,
        (1, 2, 3): c123,
        (1, 3, 2): c132,
        (2, 1, 3): c213,
        (2, 3, 1): highs - c132,
        (3, 1, 2): lows - c213,
        (3, 2, 1): c321,
    }


def check_oracle_limit(n: int, limit: int) -> None:
    if n > limit:
        raise UsageError(
            f"n = {n} exceeds the brute-force oracle limit {limit}; "
            "raise the limit explicitly if you really want this"
        )


def enumerate_avoiders(forbidden: Perm, n: int, limit: int = DEFAULT_ORACLE_LIMIT):
    """All permutations of 1..n avoiding the forbidden pattern, lex order.

    Only the two length-3 patterns this package studies are supported.  The
    132-avoiders come from the split at the maximum: a 132-avoider of length
    m is L, m, R with every entry of L above every entry of R, where L and R
    are 132-avoiders on the top and the bottom values below m; they are
    built that way for every length up to n and then sorted.  A 123-avoider
    of length m is a 123-avoider of length m - 1 with m inserted where no
    increasing pair precedes it (m would end a 123): at any position up to
    and including the end of its longest decreasing prefix.  The
    123-avoiders are grown that way, one length at a time, and then sorted.
    """
    forbidden = tuple(forbidden)
    if forbidden not in (AV132, AV123):
        raise UsageError("avoider enumeration supports forbidden patterns 132 and 123 only")
    if n < 0:
        raise UsageError("n must be >= 0")
    check_oracle_limit(n, limit)
    if forbidden == AV132:
        levels: "list[list[Perm]]" = [[()]]
        for m in range(1, n + 1):
            level = []
            for size in range(m):  # size = len(L); R has the low m - 1 - size values
                low = m - 1 - size
                rights = levels[low]
                for left in levels[size]:
                    head = tuple([v + low for v in left]) + (m,)
                    level += [head + right for right in rights]
            levels.append(level)
        out = sorted(levels[n])
    else:
        level = [()]
        for m in range(1, n + 1):
            grown = []
            for p in level:
                end = min(1, len(p))  # the longest decreasing prefix is p[:end]
                while end < len(p) and p[end] < p[end - 1]:
                    end += 1
                grown += [p[:i] + (m,) + p[i:] for i in range(end + 1)]
            level = grown
        out = sorted(level)
    return tuple(out)


# -- the insertion map on 123-avoiders -------------------------------------


def _rl_maxima_mask(p: Perm) -> "list[bool]":
    mask = [False] * len(p)
    mx = 0
    for i in range(len(p) - 1, -1, -1):
        if p[i] > mx:
            mask[i] = True
            mx = p[i]
    return mask


def _slide_into_front(p: Perm, keep: "list[bool]"):
    """Cyclic forward slide of the non-kept entries; returns the new perm.

    Work in m+1 slots with slot 0 initially free.  The kept entry at index i
    stays in slot i+1; the sliding entries move forward along the chain of
    freed slots; the last slot freed receives the new value 1; every old
    value is bumped by 1.
    """
    m = len(p)
    out = [0] * (m + 1)
    for i in range(m):
        if keep[i]:
            out[i + 1] = p[i] + 1
    free = 0
    for i in range(m):
        if not keep[i]:
            out[free] = p[i] + 1
            free = i + 1
    out[free] = 1
    return tuple(out)


def insertion_map(p: Perm) -> Perm:
    """The insertion map of the module docstring.  Precondition: p avoids
    123; it is not checked, and the image of any other p means nothing."""
    return _slide_into_front(p, _rl_maxima_mask(p))


def _sigma_key(p: Perm) -> "tuple[int, int, int]":
    """(213-count, sigma1, sigma2) of a 123-avoider; avoidance is not checked."""
    u = insertion_map(p)
    a0, a1, a2 = (count_213(q) for q in (p, u, insertion_map(u)))
    return a0, a1 - a0, (a2 - a1) - (a1 - a0)


# -- brute-force weight enumerators ----------------------------------------


def brute_weight_enum(
    forbidden: Perm,
    stats: "Sequence[Perm]",
    n: int,
    variables: "Sequence[str]",
    limit: int = DEFAULT_ORACLE_LIMIT,
) -> MultiPoly:
    """Sum over avoiders of prod_i var_i ^ (occurrences of stats[i]).

    Every statistic has length at most 3, the lengths `verify_catalog`
    tracks, and all of them come from one `short_pattern_counts` call per
    avoider.
    """
    if len(stats) != len(variables):
        raise UsageError("one variable per statistic, in the same order")
    stats = [tuple(s) for s in stats]
    for s in stats:
        if len(s) > 3:
            raise UsageError(f"brute force counts patterns of length <= 3, got {format_perm(s)}")
    terms: "dict[tuple, int]" = {}
    for p in enumerate_avoiders(forbidden, n, limit):
        counts = short_pattern_counts(p)
        key = tuple(counts.get(s, 0) for s in stats)
        terms[key] = terms.get(key, 0) + 1
    return MultiPoly(tuple(variables), terms)


def brute_sigma_enum(n: int, limit: int = DEFAULT_ORACLE_LIMIT) -> MultiPoly:
    """Weight enumerator of (213-count, sigma1, sigma2) over the 123-avoiders."""
    terms: "dict[tuple, int]" = {}
    for p in enumerate_avoiders(AV123, n, limit):
        key = _sigma_key(p)
        terms[key] = terms.get(key, 0) + 1
    return MultiPoly(("t", "s1", "s2"), terms)
