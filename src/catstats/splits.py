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
`AverageEngine` computes each sequence from this on packed integers (see
its docstring), once per pair {q, q^-1}: inversion maps the 132-avoiders
onto themselves and occurrences of q onto occurrences of q^-1, so the two
share one sequence.  Its cost is its bigint products: per pattern q, one
for each distinct suffix among q's splits, on operands cut to the N + 1 - |q|
sizes q can occur at, and one by the central binomials for each pattern it
keeps.  The census of the 4,862 length-9 avoiders at N = 30 resolves a
closure of 3,596 patterns (2,494 of them the length-9 inverse pairs) with
6,217 suffix products, where a product per split would take 8,710, and
1,131 central ones: 1,101 for the shorter patterns, 30 for the classes.
7,348 products in all, where one central product per closure member would
make 9,812.

The class census groups all length-k patterns by their value sequences,
keyed by their packed sums before the central binomials, which are equal
exactly when the sequences are, and multiplies out and unpacks one
sequence per class.
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
# key per inverse pair of 132-avoiders of length k, `inverse_class_count(k)`
# of them, of n_max + 1 - k slots each (the k slots below size k are
# dropped), and more for the shorter parts of its closure.
MAX_CENSUS_BITS = 2**31

# the largest size on which a census compares the sequences, by default
DEFAULT_PREFIX_LEN = 30
DEFAULT_CENSUS_MAX_N = 9

# Longest pattern the engine resolves: it keys patterns by byte strings, one
# byte per value.  A longer pattern is refused unless it is longer than
# n_max, where it never occurs.
MAX_PATTERN_LEN = 255

_IDENT = bytes(range(256))
# _LOWER[d] is the `bytes.translate` table that lowers every value v >= d by
# d; filled on first use, up to the longest pattern split so far
_LOWER: "list[bytes]" = []


def split_terms(p: bytes) -> "list[tuple[bytes, bytes, bool]]":
    """(prefix, suffix, uses_max) for every way an occurrence of the
    standardized pattern p (one byte per value) distributes over (left
    block, max, right block), by increasing prefix length.

    A split is valid when every prefix value exceeds every suffix value, that
    is, when the prefix holds the top values of what the split keeps.  Then the
    suffix is already standardized and the prefix standardizes by subtracting
    the suffix length, one `translate`, and `low`, the running minimum of the
    prefix, decides validity: p[:i] holds the top i values of 1..size when
    low > size - i, and the top i values of 1..size-1 (size itself routed
    through the maximum) when low >= size - i.  The empty prefix has
    low = size + 1.
    """
    size = len(p)
    while len(_LOWER) <= size:
        _LOWER.append(bytes(len(_LOWER)) + _IDENT[: 256 - len(_LOWER)])
    terms = []
    low = size + 1
    for i in range(size + 1):
        rest = size - i
        if low > rest:
            terms.append((p[:i].translate(_LOWER[rest]), p[i:], False))
        if i < size:
            v = p[i]
            if v == size and low >= rest:
                terms.append((p[:i].translate(_LOWER[rest - 1]), p[i + 1 :], True))
            if v < low:
                low = v
    return terms


def inverse_class_count(k: int) -> int:
    """Number of classes {p, p^-1} of the 132-avoiders of length k:
    (c(k) + C(k, floor(k/2)))/2, since C(k, floor(k/2)) of them are
    involutions (Simion and Schmidt, 1985) and the rest pair up."""
    return (catalan(k) + comb(k, k // 2)) // 2


def _canonical(q: bytes) -> bytes:
    """The lexicographically smaller of q and its inverse q^-1, which has
    the same total sequence over the 132-avoiders (see `AverageEngine`).
    The table that maps q[i] to i + 1 turns the values 1..|q| into their
    positions."""
    ident = _IDENT[1 : len(q) + 1]
    inv = ident.translate(bytes.maketrans(q, ident))
    return inv if inv < q else q


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

    Inverse pairs.  132 is its own inverse, so pi -> pi^-1 maps the
    132-avoiders of each size onto themselves, and it maps each occurrence
    of p in pi to an occurrence of p^-1 in pi^-1 (the same entries, read as
    (value, position) pairs).  So A_p = A_(p^-1) for every pattern p,
    132-avoiding or not, and the memo is keyed by one canonical pattern per
    pair {p, p^-1}, the lexicographically smaller, as a byte string: queries
    and the prefix and suffix parts of every split are canonicalized before
    they are looked up, and each pair is computed once.

    A pattern p never occurs below size |p|, so `memo[p]` stores
    A_p / z^|p|: it packs A_p(|p|..N), N = n_max, into one integer
    sum_i A_p(|p| + i) * 2^(w*i) over its N + 1 - |p| slots (Kronecker
    substitution z = 2^w), and a convolution of two sequences is one bigint
    product.  Dividing the recurrence of the module docstring by z^|q|, a
    split into (prefix, suffix) contributes z^e * memo[prefix] * memo[suffix],
    e = 1 + |prefix| + |suffix| - |q|: e = 1 (one slot up) when the split
    keeps every entry of q in the blocks, and e = 0 when it routes one
    through the maximum.  So, with the splits other than (q, empty) and
    (empty, q) grouped by suffix,

        B_q = sum_suf memo[suf] * sum_pre z^e * memo[pre],
        A_q / z^|q| = B_q * central,

    central = sum_n C(2n, n) z^n: one product per distinct suffix, then one
    by the central binomials for each pattern the memo keeps.  Only the
    s = N + 1 - |q| low slots of A_q / z^|q| are kept, so every operand is
    first cut to s slots, and so is each result.

    Exactness.  Packing is evaluation at z = 2^w, and cutting to s slots is
    reduction modulo 2^(w*s), the image of z^s; both are ring homomorphisms
    (Z[z] -> Z -> Z/2^(w*s)), so sums, products and slot shifts computed
    modulo 2^(w*s) give the image of the true truncated series.  An
    intermediate value (a sum over prefixes, a product) may exceed a slot
    and carry into the next; only what is stored needs every slot below 2^w
    to be read back.  The stored values are A_q(n) for n <= N, which count
    occurrences in c(n) permutations, at most C(n, |q|) in each, so
    0 <= A_q(n) <= 2^n*c(n) <= 2^N*c(N) < 2^(w-1) with
    w = (2^N*c(N)).bit_length() + 1, and the canonical residue modulo
    2^(w*s) is exactly their packing.

    Keys before the central binomials.  The census compares patterns by
    B_q, cut to s slots, and multiplies by the central binomials once per
    class.  Central has constant term 1, so it is a unit modulo z^s, and
    B_q = A_q / central there: equal B means equal A on every slot.  B_q
    packs exactly under the same w, since its coefficients are sums of
    products of non-negative values, and A_q(n) = sum_j B_q(j) C(2(n-j), n-j)
    >= B_q(n).  The length-k patterns stay out of the memo: at k = 9,
    N = 30 the census takes 30 central products for the 2,494 length-9
    pairs, and the memo ends with 1,102 entries, the empty pattern and the
    1,101 shorter pairs.  `sequence` stores A, as its queries may be parts
    of later ones.
    """

    def __init__(self, n_max: int):
        self.n_max = n_max
        self.width = _slot_width(n_max)
        self._central = self._pack([comb(2 * n, n) for n in range(n_max + 1)])
        self.memo: "dict[bytes, int]" = {b"": self._pack(catalan_list(n_max))}

    def _pack(self, values) -> int:
        packed = 0
        for v in reversed(values):
            packed = (packed << self.width) | v
        return packed

    def _unpack(self, packed: int, size: int, count: int) -> "tuple[int, ...]":
        """A(0..count-1) of a length-`size` pattern whose memo value is
        `packed`: the `size` zeros it strips, then its slots."""
        width = self.width
        slot = (1 << width) - 1
        return (0,) * min(size, count) + tuple(
            (packed >> (width * i)) & slot for i in range(count - size)
        )

    def _times_central(self, B: int, size: int) -> int:
        """A_q / z^|q| from B_q, both packed, for a length-`size` pattern q."""
        mask = (1 << self.width * (self.n_max + 1 - size)) - 1
        return B * (self._central & mask) & mask

    def sequence(self, pattern) -> "tuple[int, ...]":
        """A_pattern(0..n_max), unpacked from the memo."""
        pattern = tuple(pattern)
        size = len(pattern)
        if sorted(pattern) != list(range(1, size + 1)):
            raise UsageError(f"pattern must be standardized, got {pattern}")
        if size > self.n_max:
            return (0,) * (self.n_max + 1)
        if size > MAX_PATTERN_LEN:
            raise UsageError(
                f"patterns are capped at {MAX_PATTERN_LEN} entries, unless longer than "
                f"n_max (they never occur there), got {size} at n_max = {self.n_max}"
            )
        q = _canonical(bytes(pattern))
        packed = self.memo.get(q)
        if packed is None:
            packed = self.memo[q] = self._times_central(self._pre_central(q), size)
        return self._unpack(packed, size, self.n_max + 1)

    def _pre_central(self, pattern: bytes) -> int:
        """B of the canonical `pattern`, packed and cut to its slots.  Every
        part of its closure that the memo misses is decomposed once, then
        computed into the memo shortest first, so that every strictly
        shorter part is already done; `pattern` itself, the longest, comes
        last and stays out of the memo."""
        memo = self.memo
        # q -> {suffix: [(prefix, one slot up?)]}, without the first split,
        # (empty, q), and the last, (q, empty): those two are the
        # 1/sqrt(1-4z) factor; every pattern here is canonical, and a part
        # found in the memo already is
        groups: "dict[bytes, dict[bytes, list]]" = {}
        todo = [pattern]
        while todo:
            q = todo.pop()
            if q in groups:
                continue
            own = groups[q] = {}
            for pre, suf, uses_max in split_terms(q)[1:-1]:
                if pre not in memo:
                    pre = _canonical(pre)
                    if pre not in memo and pre not in groups:
                        todo.append(pre)
                if suf not in memo:
                    suf = _canonical(suf)
                    if suf not in memo and suf not in groups:
                        todo.append(suf)
                own.setdefault(suf, []).append((pre, not uses_max))
        width, top = self.width, self.n_max + 1
        for q in sorted(groups, key=len):
            mask = (1 << width * (top - len(q))) - 1
            B = 0
            for suf, pres in groups[q].items():
                inner = 0
                for pre, up in pres:
                    inner += memo[pre] << width if up else memo[pre]
                B += (memo[suf] & mask) * (inner & mask)
            B &= mask
            if q != pattern:
                memo[q] = self._times_central(B, len(q))
        return B


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


def _census(family: str, k: int, prefix_len: int, keyed, prefix=tuple) -> CensusResult:
    """Group (pattern, key) pairs into classes of equal keys; a key stands
    for the value sequence on sizes 0..prefix_len, which `prefix` reads
    back once per class."""
    groups: "dict[object, list]" = {}
    for p, key in keyed:
        groups.setdefault(key, []).append(p)
    classes = []
    for key, members in groups.items():
        members.sort()
        classes.append(
            CensusClass(
                representative=members[0],
                size=len(members),
                patterns=tuple(members),
                prefix=prefix(key),
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


def bona_census_132(k: int, prefix_len: int = DEFAULT_PREFIX_LEN) -> CensusResult:
    """Group the 132-avoiding length-k patterns by their total-occurrence
    sequences on sizes 0..prefix_len.

    The key of a pattern is B_q of its canonical representative q, the
    packed sum of its splits before the central binomials: equal keys are
    equal sequences on sizes k..prefix_len (see `AverageEngine`), and one
    sequence per class is multiplied out and unpacked."""
    if k < 1:
        raise UsageError("k must be >= 1")
    if prefix_len < 2 * k:
        raise UsageError(f"prefix_len must be >= 2k = {2 * k} to separate length-{k} patterns sensibly")
    bits = (prefix_len + 1 - k) * _slot_width(prefix_len) * inverse_class_count(k)
    if bits > MAX_CENSUS_BITS:
        raise UsageError(
            f"a census of the {catalan(k)} length-{k} patterns at n <= {prefix_len} keeps at "
            f"least {bits >> 23} MiB of packed sequences, over its bound of "
            f"{MAX_CENSUS_BITS >> 23} MiB; lower k or prefix_len"
        )
    engine = AverageEngine(prefix_len)
    patterns = enumerate_avoiders(AV132, k, limit=max(k, DEFAULT_ORACLE_LIMIT))
    keys: "dict[bytes, int]" = {}  # canonical pattern -> its B

    def key(p: tuple) -> int:
        q = _canonical(bytes(p))
        B = keys.get(q)
        if B is None:
            B = keys[q] = engine._pre_central(q)
        return B

    return _census(
        "av132",
        k,
        prefix_len,
        ((p, key(p)) for p in patterns),
        lambda B: engine._unpack(engine._times_central(B, k), k, prefix_len + 1),
    )


def _insertions_123(q: bytes) -> int:
    """The number of ways to insert one entry into the 123-avoider q so that
    the result still avoids 123.

    An insertion (i, j) puts a new entry x of value j after the first i
    entries and raises every value >= j by one.  q avoids 123, so a 123 of
    the result uses x, and x may play none of the three roles:

    - x is not the 3: j <= T(i), the least top of an increasing pair in
      q[:i] (m + 1 if there is none);
    - x is not the 1: j > B(i), the greatest bottom of an increasing pair in
      q[i:] (0 if there is none);
    - x is not the 2: j is not in (L(i), H(i)], L(i) = min q[:i] (m + 1 if
      i = 0) and H(i) = max q[i:] (0 if i = m).

    Since q avoids 123, B(i) < T(i), B(i) <= L(i) and H(i) <= T(i): else
    T's pair and B's larger entry, L and B's pair, or T's pair and H would
    make a 123.  So (L(i), H(i)] lies inside (B(i), T(i)], position i admits
    T(i) - B(i) - max(0, H(i) - L(i)) values, and one scan from each end
    sums them in O(m)."""
    m = len(q)
    count = 0
    bottom = high = 0  # B(i) and H(i)
    highs = [0] * m
    for i in range(m - 1, -1, -1):
        v = q[i]
        if v > high:
            high = v
        elif v > bottom:
            bottom = v
        highs[i] = high
        count -= bottom
    top = low = m + 1  # T(i) and L(i)
    for v, high in zip(q, highs):
        count += top
        if high > low:
            count -= high - low
        if v < low:
            low = v
        elif v < top:
            top = v
    return count + top


def bona_census_123(k: int, n_max: int = DEFAULT_CENSUS_MAX_N) -> CensusResult:
    """Brute-force analog on the 123-avoiders: group length-k patterns that
    avoid 123 by their total-occurrence sequences on sizes 0..n_max.

    The totals come from deletion chains: delete one entry at a time and
    standardize after each step.  A permutation pi of length n reaches q of
    length k along exactly (n-k)!*occ(q, pi) chains, one per occurrence of q
    and order of deleting the other n-k entries.  Every deletion of a
    123-avoider avoids 123, and every avoider shorter than n_max is a
    deletion of a longer one (prepend the maximum), so one pass down from
    length n_max visits every avoider of every length.  Each carries its
    chain counts N_n indexed by the starting length n, and at length k,
    A_q(n) = N_n(q) / (n-k)!.

    The top length is counted, not built.  Each avoider p of length n_max
    starts one chain, and deleting its value v sends it to some q of length
    n_max - 1.  (p, v) -> (position of v in p, v) is a bijection from these
    pairs onto the insertions into q whose result avoids 123, so the top
    level sends `_insertions_123(q)` chains into q, and the pass starts from
    the avoiders of length n_max - 1.  Every avoider of length n_max has
    n_max deletions, so these counts must sum to n_max * c(n_max), which is
    checked.  At k == n_max the top level holds the patterns themselves and
    is enumerated.

    An avoider is a byte string, one byte per value, so a deletion is one
    `bytes.translate` that drops the entry with value v and lowers every
    value above v.  Bytes hold values up to 255; n_max is held to the oracle
    limit (`DEFAULT_ORACLE_LIMIT`, 12, which the census never raises), far
    below that.
    An avoider's chain counts are packed into one integer, N_n in the w-bit
    slot n, so a level adds 1 << w*m to every avoider of length m and a
    deletion adds its source's integer to the target's.  No slot carries:
    every slot holds a sum of non-negative chain counts, and for q of
    length m

        N_n(q) <= c(n) * C(n, m) * (n-m)! = c(n) * n!/m! <= n_max! * c(n_max),

    which is below 2^w for w = (n_max! * c(n_max)).bit_length(); so, by
    induction from the lowest slot up, no slot ever passes into the next.
    The bound is reached: at k = 1, N_n_max(1) = (n_max-1)! * n_max * c(n_max).
    """
    if k < 1:
        raise UsageError("k must be >= 1")
    if n_max < k:
        raise UsageError(f"length-{k} patterns never occur below n = {k}; raise n_max")
    check_oracle_limit(n_max, DEFAULT_ORACLE_LIMIT)
    width = (factorial(n_max) * catalan(n_max)).bit_length()
    # drop[v] deletes the byte v, down[v] lowers every value above v by one
    drop = [bytes([v]) for v in range(n_max + 1)]
    down = [bytes.maketrans(bytes(range(v + 1, n_max + 1)), bytes(range(v, n_max)))
            for v in range(n_max + 1)]
    top = n_max if k == n_max else n_max - 1
    level = dict.fromkeys(map(bytes, enumerate_avoiders(AV123, top, DEFAULT_ORACLE_LIMIT)), 0)
    if top < n_max:
        inserts = {q: _insertions_123(q) for q in level}
        total = sum(inserts.values())
        if total != n_max * catalan(n_max):
            raise AssertionError(f"{total} insertions into length {top}, not {n_max} * c({n_max})")
        level = {q: chains << width * n_max for q, chains in inserts.items()}
    for m in range(top, k - 1, -1):
        if len(level) != catalan(m):
            raise AssertionError(f"deletion pass reached {len(level)} avoiders of length {m}")
        start = 1 << width * m
        for p in level:
            level[p] += start  # the avoider itself starts a chain of length m
        if m == k:
            break
        below: "dict[bytes, int]" = {}
        get = below.get
        for p, chains in level.items():
            for v in p:
                q = p.translate(down[v], drop[v])
                below[q] = get(q, 0) + chains
        level = below
    slot = (1 << width) - 1
    keyed = []
    for p, chains in level.items():
        seq = [0] * (n_max + 1)
        for n in range(k, n_max + 1):
            count = (chains >> width * n) & slot
            seq[n], rest = divmod(count, factorial(n - k))
            if rest:
                raise AssertionError(f"{count} chains from length {n} is not a multiple of {n - k}!")
        keyed.append((tuple(p), tuple(seq)))
    return _census("av123", k, n_max, keyed)
