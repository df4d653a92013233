import random
from collections import Counter
from itertools import combinations, permutations
from math import comb

import pytest

from catstats import splits
from catstats.errors import UsageError
from catstats.funcrec import builtin_families, builtin_spec, eval_truncated
from catstats.moments import factorial_from_truncated
from catstats.perms import AV123, AV132, catalan_list, enumerate_avoiders
from catstats.splits import (
    DEFAULT_PREFIX_LEN,
    MAX_PATTERN_LEN,
    AverageEngine,
    _insertions_123,
    bona_census_123,
    bona_census_132,
    inverse_class_count,
    split_terms,
)
from reference import classify_all_subsets, count_occurrences, deletion_totals_123, standardize


def _terms(p):
    """split_terms of the tuple p, with tuple parts."""
    return [(tuple(pre), tuple(suf), uses_max) for pre, suf, uses_max in split_terms(bytes(p))]


def test_split_decompose_frozen_example():
    assert _terms((2, 1, 3)) == [
        ((), (2, 1, 3), False),
        ((2, 1), (), True),
        ((2, 1, 3), (), False),
    ]


def test_split_decompose_requires_standardized():
    # split_terms trusts its caller; the engine's public entry checks
    with pytest.raises(UsageError, match="must be standardized"):
        AverageEngine(4).sequence((2, 4, 1))


def _reference_decompose(p):
    """split_terms by its definition: every cut, min/max and standardize."""
    size = len(p)
    terms = []
    for i in range(size + 1):
        cuts = [(p[:i], p[i:], False)]
        if i < size and p[i] == size:
            cuts.append((p[:i], p[i + 1 :], True))
        for prefix, suffix, uses_max in cuts:
            if not prefix or not suffix or min(prefix) > max(suffix):
                terms.append((standardize(prefix), standardize(suffix), uses_max))
    return terms


def test_split_decompose_matches_its_definition():
    # every permutation of length <= 7, 132-avoiders or not
    for k in range(8):
        for p in permutations(range(1, k + 1)):
            assert _terms(p) == _reference_decompose(p), p


def _reference_totals(p, n_max, memo):
    """A_p(0..n_max) from the split recurrence, one coefficient at a time:
    A_p(n) = sum over the splits (prefix, suffix) of p of
    sum_(k=1..n) A_prefix(k-1) * A_suffix(n-k), where the two splits that
    contain p itself read the values of A_p already computed."""
    if p in memo:
        return memo[p]
    cats = catalan_list(n_max)
    if not p:
        memo[p] = cats
        return cats
    parts = [
        (_reference_totals(pre, n_max, memo), _reference_totals(suf, n_max, memo))
        for pre, suf, _ in _reference_decompose(p)
        if p not in (pre, suf)
    ]
    A = [0] * (n_max + 1)
    for n in range(1, n_max + 1):
        total = 2 * sum(A[k - 1] * cats[n - k] for k in range(1, n + 1))
        for left, right in parts:
            total += sum(left[k - 1] * right[n - k] for k in range(1, n + 1))
        A[n] = total
    memo[p] = A
    return A


def test_packed_engine_matches_the_coefficient_recurrence():
    # four random patterns and four random 132-avoiders of each length <= 6
    rng = random.Random(2014)
    pats = []
    for k in range(1, 7):
        pats += [tuple(rng.sample(range(1, k + 1), k)) for _ in range(4)]
        avoiders = enumerate_avoiders(AV132, k)
        pats += rng.sample(avoiders, min(4, len(avoiders)))
    for n_max in (0, 1, 2, 80):
        eng = AverageEngine(n_max)
        memo = {}
        for p in pats:
            assert eng.sequence(p) == tuple(_reference_totals(p, n_max, memo)), (n_max, p)
        # every packed sequence is reduced to its n_max + 1 - |p| slots
        assert all(
            0 <= v < 1 << eng.width * max(n_max + 1 - len(q), 0) for q, v in eng.memo.items()
        )


def _inverse(p):
    """p^-1 by its definition: the position of each value."""
    return tuple(p.index(v) + 1 for v in range(1, len(p) + 1))


def test_engine_matches_the_coefficient_recurrence_on_every_pattern():
    # every permutation of length <= 7, 132-avoiders or not: the engine
    # computes one of p and p^-1, the reference computes both
    eng = AverageEngine(14)
    memo = {}
    for k in range(8):
        for p in permutations(range(1, k + 1)):
            assert eng.sequence(p) == tuple(_reference_totals(p, 14, memo)), p


def test_inverse_patterns_have_equal_brute_force_totals():
    # A_p(n) = A_(p^-1)(n) for every p of length <= 4 at n <= 8, counted
    # over the avoiders without the engine, 132-avoiding or not
    for n in range(9):
        totals = Counter()
        for w in enumerate_avoiders(AV132, n):
            for k in range(1, 5):
                totals.update(classify_all_subsets(w, k))
        for k in range(1, 5):
            for p in permutations(range(1, k + 1)):
                assert totals[p] == totals[_inverse(p)], (p, n)


def test_inverse_class_count_counts_the_inverse_pairs_of_avoiders():
    for k in range(1, 11):
        classes = {min(p, _inverse(p)) for p in enumerate_avoiders(AV132, k)}
        assert inverse_class_count(k) == len(classes), k


def test_census_closure_holds_one_entry_per_inverse_pair():
    # the closure of the length-k avoiders is every avoider of length <= k,
    # and the memo keeps one of each pair {p, p^-1}, and the empty pattern
    cats = catalan_list(9)
    for k in range(1, 10):
        eng = AverageEngine(30)
        for p in enumerate_avoiders(AV132, k):
            eng.sequence(p)
        pairs = sum((cats[m] + comb(m, m // 2)) // 2 for m in range(1, k + 1))
        assert len(eng.memo) == 1 + pairs, k
    assert len(eng.memo) == 3596


def test_engine_matches_the_truncated_walk_at_n_200():
    # f_1 of an av132 spec is the total of its pattern; 231 and 312 are
    # inverses, with separate specs of the walk
    specs = [builtin_spec(f, s) for f, s in builtin_families() if f == "av132"]
    assert len(specs) == 8
    eng = AverageEngine(200)
    for spec in specs:
        walk = [factorial_from_truncated(q)[1] for q in eval_truncated(spec, 200, 1).values]
        pattern = tuple(int(c) for c in spec.statistic)
        assert eng.sequence(pattern) == tuple(walk), spec.label


def test_tiling_identity_at_n_120():
    # all k! patterns together tile every length-k subsequence, at the
    # sizes where the packed totals are largest
    cats = catalan_list(120)
    eng = AverageEngine(120)
    for k in range(1, 5):
        seqs = [eng.sequence(p) for p in permutations(range(1, k + 1))]
        totals = [sum(col) for col in zip(*seqs)]
        assert totals == [comb(n, k) * cats[n] for n in range(121)], k


def test_split_identity_pointwise():
    # splitting an avoider at its maximum splits each occurrence uniquely
    pats = [q for k in (1, 2, 3) for q in permutations(range(1, k + 1))]
    decomps = {p: _terms(p) for p in pats}
    for n in range(1, 8):
        for w in enumerate_avoiders(AV132, n):
            j = w.index(n)
            left = standardize(w[:j])
            right = standardize(w[j + 1 :])
            for p, terms in decomps.items():
                rhs = sum(
                    count_occurrences(pre, left) * count_occurrences(suf, right)
                    for pre, suf, _ in terms
                )
                assert rhs == count_occurrences(p, w), (p, w)


def test_engine_totals_match_brute_force():
    eng = AverageEngine(8)
    for p in ((1,), (2, 1), (1, 2), (2, 1, 3), (3, 2, 1), (1, 3, 2), (2, 1, 4, 3)):
        got = eng.sequence(p)
        for n in range(9):
            brute = sum(
                count_occurrences(p, w) for w in enumerate_avoiders(AV132, n)
            )
            assert got[n] == brute, (p, n)


def test_forbidden_pattern_total_is_zero():
    eng = AverageEngine(12)
    assert eng.sequence((1, 3, 2)) == (0,) * 13
    assert eng.sequence((1, 4, 3, 2)) == (0,) * 13


def test_average_sequence_frozen_values():
    eng = AverageEngine(9)
    assert eng.sequence((2, 1)) == (0, 0, 1, 8, 47, 244, 1186, 5536, 25147, 112028)
    assert eng.sequence((2, 1, 3)) == (0, 0, 0, 1, 11, 81, 500, 2794, 14649, 73489)


def test_three_singleton_classes_share_one_sequence():
    eng = AverageEngine(20)
    a213 = eng.sequence((2, 1, 3))
    assert eng.sequence((2, 3, 1)) == a213
    assert eng.sequence((3, 1, 2)) == a213


def test_mass_identity_over_all_patterns():
    # all k! patterns together tile every length-k subsequence of every avoider
    cats = catalan_list(10)
    eng = AverageEngine(10)
    for k in (1, 2, 3):
        seqs = [eng.sequence(p) for p in permutations(range(1, k + 1))]
        for n in range(11):
            assert sum(s[n] for s in seqs) == comb(n, k) * cats[n]


def partition_numbers(k_max: int) -> "list[int]":
    """p(0..k_max) by the coin-style DP over part sizes."""
    p = [1] + [0] * k_max
    for part in range(1, k_max + 1):
        for s in range(part, k_max + 1):
            p[s] += p[s - part]
    return p


def test_census_132_class_counts_are_partition_numbers():
    expected = partition_numbers(7)[1:]
    got = [bona_census_132(k, prefix_len=18).class_count for k in range(1, 8)]
    assert got == expected


def test_census_132_matches_grouping_by_the_coefficient_recurrence():
    # classes and prefixes from the definitional recurrence, not the packed engine
    memo = {}
    for k in range(1, 7):
        groups = {}
        for p in enumerate_avoiders(AV132, k):
            groups.setdefault(tuple(_reference_totals(p, 18, memo)), []).append(p)
        expected = sorted((tuple(sorted(members)), seq) for seq, members in groups.items())
        got = [(c.patterns, c.prefix) for c in bona_census_132(k, prefix_len=18).classes]
        assert got == expected, k


def test_census_132_keys_match_grouping_by_the_engine_sequences():
    # the census keys length-k patterns before the central binomials; its
    # classes and prefixes must be those of the full sequences A_p that
    # `sequence` keeps, at the default prefix length, from k = 1 (whose one
    # split routes through the maximum) to k = 8
    eng = AverageEngine(DEFAULT_PREFIX_LEN)
    for k in range(1, 9):
        groups = {}
        for p in enumerate_avoiders(AV132, k):
            groups.setdefault(eng.sequence(p), []).append(p)
        expected = sorted((tuple(sorted(members)), seq) for seq, members in groups.items())
        got = [(c.patterns, c.prefix) for c in bona_census_132(k).classes]
        assert got == expected, k


def test_long_patterns_are_zero_above_n_max_and_capped_below():
    # one byte per value: a pattern longer than MAX_PATTERN_LEN is refused
    # unless it never occurs at all
    for n_max in (0, 5, 255):
        long = tuple(range(MAX_PATTERN_LEN + 45, 0, -1))
        assert AverageEngine(n_max).sequence(long) == (0,) * (n_max + 1)
    for size, n_max in ((260, 262), (MAX_PATTERN_LEN + 1, MAX_PATTERN_LEN + 1)):
        with pytest.raises(UsageError, match=f"capped at {MAX_PATTERN_LEN} entries.*got {size} at n_max = {n_max}$"):
            AverageEngine(n_max).sequence(range(size, 0, -1))


def test_census_132_k3_frozen():
    r = bona_census_132(3, prefix_len=12)
    assert r.family == "av132"
    assert [(c.representative, c.size) for c in r.classes] == [
        ((1, 2, 3), 1),
        ((2, 1, 3), 3),
        ((3, 2, 1), 1),
    ]
    assert r.classes[1].patterns == ((2, 1, 3), (2, 3, 1), (3, 1, 2))
    assert r.classes[0].prefix[:8] == (0, 0, 0, 1, 10, 68, 392, 2063)
    assert r.classes[2].prefix[:8] == (0, 0, 0, 1, 13, 109, 748, 4570)
    assert "merged" in r.caveat


def test_census_123_small_counts():
    assert [bona_census_123(k, n_max=8).class_count for k in (1, 2, 3, 4)] == [1, 2, 3, 6]


def test_census_123_k3_frozen():
    r = bona_census_123(3, n_max=8)
    assert [(c.representative, c.size) for c in r.classes] == [
        ((1, 3, 2), 2),
        ((2, 3, 1), 2),
        ((3, 2, 1), 1),
    ]
    assert r.classes[1].prefix == (0, 0, 0, 1, 11, 81, 500, 2794, 14649)


def test_census_123_prefixes_are_occurrence_sums():
    # the deletion-chain totals against the definitional per-permutation count:
    # one pass over the length-k subsequences of each avoider counts them all;
    # at k = 7 the counted top level is the only one above the patterns, and
    # at k = 8 the patterns are the top level itself
    avoiders = [enumerate_avoiders(AV123, n) for n in range(9)]
    for k in (1, 2, 3, 4, 7, 8):
        totals = []
        for ws in avoiders:
            counts = Counter()
            for w in ws:
                counts.update(classify_all_subsets(w, k))
            totals.append(counts)
        for cls in bona_census_123(k, n_max=8).classes:
            for p in cls.patterns:
                assert cls.prefix == tuple(counts[p] for counts in totals), p


def test_census_123_at_k1_reaches_its_slot_bound():
    # every entry is an occurrence of 1, so A_1(n) = n * c(n); the top slot
    # then holds n_max! * c(n_max) chains, the bound the slot width is cut to
    for n_max in range(1, 10):
        (cls,) = bona_census_123(1, n_max=n_max).classes
        assert cls.patterns == ((1,),)
        assert cls.prefix == tuple(n * c for n, c in enumerate(catalan_list(n_max)))


def test_insertions_123_match_brute_force_insertion():
    for m in range(8):
        for q in enumerate_avoiders(AV123, m):
            inserted = (
                tuple(v + (v >= j) for v in q[:i]) + (j,) + tuple(v + (v >= j) for v in q[i:])
                for i in range(m + 1)
                for j in range(1, m + 2)
            )
            avoiding = sum(not any(a < b < c for a, b, c in combinations(p, 3)) for p in inserted)
            assert _insertions_123(bytes(q)) == avoiding, q


def test_census_123_matches_the_deletion_pass_over_every_avoider():
    totals = deletion_totals_123(9)
    for k in range(1, 7):
        classes = bona_census_123(k, n_max=9).classes
        got = {p: cls.prefix for cls in classes for p in cls.patterns}
        assert got == {p: seq for p, seq in totals.items() if len(p) == k}
        assert len({cls.prefix for cls in classes}) == len(classes)


@pytest.mark.parametrize("k, n_max, built", [(4, 7, 6), (6, 7, 6), (7, 7, 7), (1, 1, 1)])
def test_census_123_enumerates_the_top_length_only_at_k_equal_n_max(monkeypatch, k, n_max, built):
    asked = []

    def spy(forbidden, n):
        asked.append((forbidden, n))
        return enumerate_avoiders(forbidden, n)

    monkeypatch.setattr(splits, "enumerate_avoiders", spy)
    bona_census_123(k, n_max=n_max)
    assert asked == [(AV123, built)]


def test_census_guards():
    for fn in (bona_census_132, bona_census_123):
        with pytest.raises(UsageError):
            fn(0)
    with pytest.raises(UsageError):
        bona_census_123(5, n_max=4)


def test_census_result_json_shape():
    obj = bona_census_132(2, prefix_len=8).to_json_obj()
    assert obj["family"] == "av132"
    assert obj["k"] == 2
    assert obj["class_count"] == 2
    assert len(obj["classes"]) == 2
    assert all({"representative", "size", "prefix_first_12"} <= set(c) for c in obj["classes"])
    assert obj["classes"][0]["prefix_first_12"][:5] == ["0", "0", "1", "7", "37"]
