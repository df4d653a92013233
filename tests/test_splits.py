from itertools import permutations
from math import comb

import pytest

from catstats.errors import UsageError
from catstats.perms import (
    AV123,
    AV132,
    catalan_list,
    count_occurrences,
    enumerate_avoiders,
    standardize,
)
from catstats.splits import (
    AverageEngine,
    SplitTerm,
    average_sequence,
    bona_census_123,
    bona_census_132,
    partition_numbers,
    split_decompose,
)


def test_split_decompose_frozen_example():
    d = split_decompose((2, 1, 3))
    assert d.pattern == (2, 1, 3)
    assert d.terms == (
        SplitTerm((), (2, 1, 3), False),
        SplitTerm((2, 1), (), True),
        SplitTerm((2, 1, 3), (), False),
    )


def test_split_decompose_requires_standardized():
    with pytest.raises(UsageError):
        split_decompose((2, 4, 1))


def test_split_identity_pointwise():
    # splitting an avoider at its maximum splits each occurrence uniquely
    pats = [q for k in (1, 2, 3) for q in permutations(range(1, k + 1))]
    decomps = {p: split_decompose(p).terms for p in pats}
    for n in range(1, 8):
        for w in enumerate_avoiders(AV132, n):
            j = w.index(n)
            left = standardize(w[:j])
            right = standardize(w[j + 1 :])
            for p, terms in decomps.items():
                rhs = sum(
                    count_occurrences(t.prefix, left)
                    * count_occurrences(t.suffix, right)
                    for t in terms
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
    assert average_sequence((2, 1), 9, eng) == [0, 0, 1, 8, 47, 244, 1186, 5536, 25147, 112028]
    assert average_sequence((2, 1, 3), 9, eng) == [0, 0, 0, 1, 11, 81, 500, 2794, 14649, 73489]


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


def test_census_132_class_counts_are_partition_numbers():
    expected = partition_numbers(7)[1:]
    got = [bona_census_132(k, prefix_len=18).class_count for k in range(1, 8)]
    assert got == expected


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
    # the deletion-chain totals against the definitional per-permutation count
    avoiders = [enumerate_avoiders(AV123, n) for n in range(9)]
    for k in range(1, 5):
        for cls in bona_census_123(k, n_max=8).classes:
            for p in cls.patterns:
                sums = tuple(sum(count_occurrences(p, w) for w in ws) for ws in avoiders)
                assert cls.prefix == sums, p


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
