"""Average occurrence counts of a fixed pattern over the 132-avoiders.

Splitting a 132-avoider at its maximum splits every occurrence of a pattern
p as well: the occurrence uses some prefix of p inside the high left block,
optionally routes one entry of p through the maximum itself (only possible
for an entry equal to max(p)), and puts the rest in the low right block.
Validity only needs every prefix-part value to exceed every suffix-part
value, because the blocks are value-separated.  Summing over avoiders turns
this into a closed system of Catalan-convolution recurrences

    A_p(n) = sum_k sum_(splits of p) A_prefix(k-1) * A_suffix(n-k)

over the (standardized) split parts of p, grounded at A_empty = the Catalan
numbers.  The system is linear, so totals over the family come out directly;
dividing by c_n gives averages.  Patterns containing 132 never occur and
their sequences are identically zero; the same recurrence reproduces that,
so they are allowed anywhere in the system.

In generating functions, with B the sum of z*A_prefix*A_suffix over the
splits of p other than the two that reproduce p itself ((p, empty) and
(empty, p)), those two add 2zC*A, so A = B + 2zC*A.  Since
1 - 2zC = sqrt(1-4z), A = B / sqrt(1-4z) = B * sum_n C(2n, n) z^n.
`AverageEngine` computes each sequence from this on packed integers, with
one bigint product per split and one by the central binomials (see its
docstring).

The class census groups all length-k patterns by their value sequences.
Equality is tested on a finite prefix (default length 30), so the census is
an equality-of-prefix census: classes that first differ beyond the prefix
would be merged silently, and the report says so.
"""
from __future__ import annotations

from math import comb, factorial
from typing import NamedTuple

from .errors import UsageError
from .perms import (
    AV123,
    AV132,
    DEFAULT_ORACLE_LIMIT,
    catalan,
    catalan_list,
    check_oracle_limit,
    enumerate_avoiders,
    format_perm,
)

Perm = "tuple[int, ...]"

# Largest n_max an AverageEngine accepts.  A packed sequence takes
# (n_max + 1) * w bits, w = (2^n_max * c(n_max)).bit_length() + 1 (about
# 3 * n_max): 365 KiB at 1000, where one length-4 pattern takes about 8 s.
MAX_ENGINE_N = 1000

# Largest size, in bits, of the packed sequences one census may keep: 2^31
# bits is 256 MiB.  A census of the length-k patterns keeps one packed
# sequence per 132-avoider of length k, c(k) of them, and more for the
# shorter parts of its closure.
MAX_CENSUS_BITS = 2**31


class SplitTerm(NamedTuple):
    prefix: tuple
    suffix: tuple
    uses_max: bool


def _split_terms(p: tuple) -> "list[tuple[tuple, tuple, bool]]":
    """(prefix, suffix, uses_max) for every valid split of the standardized
    pattern p, in `split_decompose`'s order.

    A split is valid when every prefix value exceeds every suffix value, that
    is, when the prefix holds the top values of what the split keeps.  Then the
    suffix is already standardized and the prefix standardizes by subtracting
    the suffix length, and `low`, the running minimum of the prefix, decides
    validity: p[:i] holds the top i values of 1..size when low > size - i, and
    the top i values of 1..size-1 (size itself routed through the maximum) when
    low >= size - i.  The empty prefix has low = size + 1.
    """
    size = len(p)
    terms = []
    low = size + 1
    for i in range(size + 1):
        rest = size - i
        if low > rest:
            terms.append((tuple([v - rest for v in p[:i]]), p[i:], False))
        if i < size:
            v = p[i]
            if v == size and low >= rest:
                terms.append((tuple([w - rest + 1 for w in p[:i]]), p[i + 1 :], True))
            if v < low:
                low = v
    return terms


def split_decompose(p) -> "tuple[SplitTerm, ...]":
    """All ways an occurrence of p distributes over (left block, max, right block)."""
    p = tuple(p)
    if sorted(p) != list(range(1, len(p) + 1)):
        raise UsageError(f"pattern must be standardized, got {p}")
    return tuple(SplitTerm(*t) for t in _split_terms(p))


def _slot_width(n_max: int) -> int:
    """Bits per slot w of a packed sequence A(0..n_max), after checking n_max
    against the engine's bound."""
    if n_max < 0:
        raise UsageError("n_max must be >= 0")
    if n_max > MAX_ENGINE_N:
        raise UsageError(
            f"sequences are capped at n = {MAX_ENGINE_N}, got {n_max}: a packed "
            f"sequence takes about 3n^2 bits, {3 * MAX_ENGINE_N**2 // 8192} KiB at "
            f"n = {MAX_ENGINE_N}, and a census keeps one per closure member"
        )
    return (catalan(n_max) << n_max).bit_length() + 1


class AverageEngine:
    """Shared memo of total-occurrence sequences A_p(0..n_max).

    One engine instance amortizes the whole closure of sub-patterns across
    any number of queries (the census asks for thousands of patterns whose
    split parts overlap heavily).

    `memo[p]` packs A_p(0..N), N = n_max, into one integer
    sum_n A_p(n) * 2^(w*n) (Kronecker substitution z = 2^w), so a convolution
    of two sequences is one bigint product.  Every A_p(n) counts
    occurrences in c(n) permutations, at most C(n, |p|) in each, so
    0 <= A_p(n) <= 2^n*c(n) <= 2^N*c(N) < 2^(w-1) for
    w = (2^N*c(N)).bit_length() + 1.  Every value the engine forms in a slot
    n <= N is a sum of nonnegative terms of some A_q(n), so no slot at or
    below N carries; carries out of the slots above N only move upward, so
    masking to the N + 1 low slots is exact.  Masking is reduction modulo
    2^(w*(N+1)), which commutes with sums and products, so where the masks
    go decides only how large the operands get.

    A pattern's sequence is A = B / sqrt(1-4z) (see the module docstring):
    B is the sum of memo[prefix] * memo[suffix] over its other splits (a pair
    that occurs twice is added twice), shifted up one slot for the factor z
    and masked, and A is B times the packed central binomials C(2n, n),
    masked.
    """

    def __init__(self, n_max: int):
        self.n_max = n_max
        self.width = _slot_width(n_max)
        self._mask = (1 << (self.width * (n_max + 1))) - 1
        self._central = self._pack([comb(2 * n, n) for n in range(n_max + 1)])
        self.memo: "dict[tuple, int]" = {(): self._pack(catalan_list(n_max))}

    def _pack(self, values) -> int:
        packed = 0
        for v in reversed(values):
            packed = (packed << self.width) | v
        return packed

    def sequence(self, pattern) -> "tuple[int, ...]":
        """A_pattern(0..n_max), unpacked from the memo."""
        pattern = tuple(pattern)
        packed = self.memo.get(pattern)
        if packed is None:
            if sorted(pattern) != list(range(1, len(pattern) + 1)):
                raise UsageError(f"pattern must be standardized, got {pattern}")
            self._resolve(pattern)
            packed = self.memo[pattern]
        width = self.width
        slot = (1 << width) - 1
        return tuple((packed >> (width * n)) & slot for n in range(self.n_max + 1))

    def _resolve(self, pattern: tuple) -> None:
        """Decompose every pattern of the closure once, then compute them
        shortest first, so that every strictly shorter part is already done."""
        memo = self.memo
        pairs: "dict[tuple, list]" = {}
        todo = [pattern]
        while todo:
            q = todo.pop()
            if q in pairs:
                continue
            size = len(q)
            own = pairs[q] = []
            for pre, suf, _ in _split_terms(q):
                if len(pre) == size or len(suf) == size:
                    continue  # (q, empty) and (empty, q): the 1/sqrt(1-4z) factor
                own.append((pre, suf))
                for part in (pre, suf):
                    if part not in memo and part not in pairs:
                        todo.append(part)
        width, mask, central = self.width, self._mask, self._central
        for q in sorted(pairs, key=len):
            B = sum(memo[pre] * memo[suf] for pre, suf in pairs[q])
            memo[q] = ((B << width) & mask) * central & mask


# -- the class censuses ----------------------------------------------------


class CensusClass(NamedTuple):
    representative: tuple  # lexicographically least member
    size: int
    patterns: "tuple[tuple, ...]"
    prefix: "tuple[int, ...]"  # shared value sequence on the tested range


class CensusResult(NamedTuple):
    family: str
    k: int
    prefix_len: int
    classes: "tuple[CensusClass, ...]"
    caveat: str

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def to_json_obj(self) -> dict:
        return {
            "family": self.family,
            "k": self.k,
            "prefix_len": self.prefix_len,
            "class_count": self.class_count,
            "caveat": self.caveat,
            "classes": [
                {
                    "representative": format_perm(c.representative),
                    "size": c.size,
                    "prefix_first_12": [str(v) for v in c.prefix[:12]],
                }
                for c in self.classes
            ],
        }


_EQUALITY_CAVEAT = (
    "classes are by equality of the first {m} values; "
    "sequences that first differ beyond that range would be merged"
)


def _census(family: str, k: int, prefix_len: int, sequences) -> CensusResult:
    """Group (pattern, value sequence on sizes 0..prefix_len) pairs into
    classes of equal sequences."""
    groups: "dict[tuple, list]" = {}
    for p, seq in sequences:
        groups.setdefault(tuple(seq), []).append(p)
    classes = []
    for seq, members in groups.items():
        members.sort()
        classes.append(
            CensusClass(
                representative=members[0],
                size=len(members),
                patterns=tuple(members),
                prefix=seq,
            )
        )
    classes.sort(key=lambda c: c.representative)
    return CensusResult(
        family=family,
        k=k,
        prefix_len=prefix_len,
        classes=tuple(classes),
        caveat=_EQUALITY_CAVEAT.format(m=prefix_len + 1),
    )


def bona_census_132(k: int, prefix_len: int = 30, engine: "AverageEngine | None" = None) -> CensusResult:
    """Group the 132-avoiding length-k patterns by their total-occurrence
    sequences on sizes 0..prefix_len."""
    if k < 1:
        raise UsageError("k must be >= 1")
    if prefix_len < 2 * k:
        raise UsageError(f"prefix_len must be >= 2k = {2 * k} to separate length-{k} patterns sensibly")
    n_max = prefix_len if engine is None else engine.n_max
    bits = (n_max + 1) * _slot_width(n_max) * catalan(k)
    if bits > MAX_CENSUS_BITS:
        raise UsageError(
            f"a census of the {catalan(k)} length-{k} patterns at n <= {n_max} keeps at "
            f"least {bits >> 23} MiB of packed sequences, over its bound of "
            f"{MAX_CENSUS_BITS >> 23} MiB; lower k or prefix_len"
        )
    if engine is None:
        engine = AverageEngine(prefix_len)
    elif engine.n_max < prefix_len:
        raise UsageError(f"engine only covers n <= {engine.n_max}")
    patterns = enumerate_avoiders(AV132, k, limit=max(k, DEFAULT_ORACLE_LIMIT))
    return _census(
        "av132", k, prefix_len, ((p, engine.sequence(p)[: prefix_len + 1]) for p in patterns)
    )


def bona_census_123(k: int, n_max: int = 9, limit: int = DEFAULT_ORACLE_LIMIT) -> CensusResult:
    """Brute-force analog on the 123-avoiders: group length-k patterns that
    avoid 123 by their total-occurrence sequences on sizes 0..n_max.

    The totals come from deletion chains: delete one entry at a time and
    standardize after each step.  A permutation pi of length n reaches q of
    length k along exactly (n-k)!*occ(q, pi) chains, one per occurrence of q
    and order of deleting the other n-k entries.  Every deletion of a
    123-avoider avoids 123, and every avoider shorter than n_max is a
    deletion of a longer one (prepend the maximum), so one pass down from the
    avoiders of length n_max visits every avoider of every length.  Each
    carries its chain counts N_n indexed by the starting length n, and at
    length k, A_q(n) = N_n(q) / (n-k)!.
    """
    if k < 1:
        raise UsageError("k must be >= 1")
    if n_max < k:
        raise UsageError(f"length-{k} patterns never occur below n = {k}; raise n_max")
    check_oracle_limit(n_max, limit)
    level = {p: [0] * (n_max + 1) for p in enumerate_avoiders(AV123, n_max, limit)}
    for m in range(n_max, k - 1, -1):
        if len(level) != catalan(m):
            raise AssertionError(f"deletion pass reached {len(level)} avoiders of length {m}")
        for chains in level.values():
            chains[m] += 1  # the avoider itself starts a chain of length m
        if m == k:
            break
        below: "dict[tuple, list]" = {}
        for p, chains in level.items():
            for v in p:
                q = tuple(w - (w > v) for w in p if w != v)
                acc = below.get(q)
                if acc is None:
                    below[q] = chains[:]
                else:
                    for n in range(m, n_max + 1):
                        acc[n] += chains[n]
        level = below
    for chains in level.values():
        for n in range(k, n_max + 1):
            total, rest = divmod(chains[n], factorial(n - k))
            if rest:
                raise AssertionError(f"{chains[n]} chains from length {n} is not a multiple of {n - k}!")
            chains[n] = total
    return _census("av123", k, n_max, level.items())

