from itertools import permutations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catstats.errors import UsageError
from catstats.perms import (
    AV123,
    AV132,
    brute_sigma_enum,
    brute_weight_enum,
    catalan,
    catalan_list,
    enumerate_avoiders,
    format_perm,
    insertion_map,
    parse_perm,
    short_pattern_counts,
)
from reference import (
    classify_all_subsets,
    count_occurrences,
    standardize,
    validate_insertion_reading,
)

CATALAN_PREFIX = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012]

PAT_213 = (2, 1, 3)


def test_catalan_values():
    assert catalan_list(12) == CATALAN_PREFIX
    assert [catalan(n) for n in range(13)] == CATALAN_PREFIX
    assert catalan(60) == comb(120, 60) // 61


def test_parse_and_format_roundtrip():
    assert parse_perm("132") == (1, 3, 2)
    assert parse_perm("3 1 4 2") == (3, 1, 4, 2)
    assert parse_perm("10,2,1,3,4,5,6,7,8,9") == (10, 2, 1, 3, 4, 5, 6, 7, 8, 9)
    assert format_perm((1, 3, 2)) == "132"
    assert parse_perm(format_perm((3, 1, 4, 2))) == (3, 1, 4, 2)


def test_parse_rejects_non_permutations():
    for bad in ("122", "13", "0 1"):
        with pytest.raises(UsageError):
            parse_perm(bad)
    assert parse_perm("") == ()


def test_standardize():
    assert standardize((5, 9, 2)) == (2, 3, 1)
    assert standardize("cab") == (3, 1, 2)
    assert standardize(()) == ()
    with pytest.raises(UsageError):
        standardize((1, 1))


def test_count_occurrences_hand_values():
    assert count_occurrences((1, 2), (1, 2, 3)) == 3
    assert count_occurrences((2, 1), (3, 2, 1)) == 3
    assert count_occurrences((1, 2, 3), (1, 2, 3, 4)) == 4
    assert count_occurrences(PAT_213, (2, 1, 4, 3)) == 2
    assert count_occurrences((1, 3, 2), (1, 3, 2)) == 1
    assert count_occurrences((), (3, 1, 2)) == 1
    assert count_occurrences((2, 1), (1, 2, 3)) == 0


def test_occurrences_respect_inversion_symmetry():
    # occ(p, w) == occ(p^-1, w^-1), a reindexing of the occurrence sets
    def inv(p):
        out = [0] * len(p)
        for i, v in enumerate(p):
            out[v - 1] = i + 1
        return tuple(out)

    pats = [q for k in (2, 3, 4) for q in permutations(range(1, k + 1))]
    for n in range(1, 6):
        for w in permutations(range(1, n + 1)):
            wi = inv(w)
            for p in pats:
                assert count_occurrences(p, w) == count_occurrences(inv(p), wi)


def test_avoider_counts_are_catalan():
    for n in range(10):
        assert sum(1 for _ in enumerate_avoiders(AV132, n)) == catalan(n)
        assert sum(1 for _ in enumerate_avoiders(AV123, n)) == catalan(n)


def test_avoiders_match_naive_filter():
    # both in lex order: the 132-avoiders are built by the max split and sorted
    for n in range(9):
        for forbidden in (AV132, AV123):
            lex = [
                p for p in permutations(range(1, n + 1)) if short_pattern_counts(p)[forbidden] == 0
            ]
            assert list(enumerate_avoiders(forbidden, n)) == lex, (forbidden, n)


def test_insertion_map_passes_validation():
    assert validate_insertion_reading(insertion_map, 8) == (True, "ok")


def test_insertion_map_frozen_images():
    expected = {
        (): (1,),
        (1,): (1, 2),
        (1, 2): (2, 1, 3),
        (2, 1): (1, 3, 2),
        (1, 3, 2): (2, 1, 4, 3),
        (2, 1, 3): (3, 2, 1, 4),
        (3, 1, 2): (2, 4, 1, 3),
    }
    for p, u in expected.items():
        assert insertion_map(p) == u


def test_insertion_map_is_a_bijection_per_size():
    for n in range(8):
        images = {insertion_map(p) for p in enumerate_avoiders(AV123, n)}
        assert len(images) == catalan(n)
        for u in images:
            assert len(u) == n + 1
            assert count_occurrences(AV123, u) == 0


def test_broken_insertion_maps_fail_validation():
    # prepending a new minimum creates 123 from any ascent
    ok, diag = validate_insertion_reading(lambda p: (1,) + tuple(v + 1 for v in p), 6)
    assert not ok and "contains 123" in diag
    # the decreasing permutation of the right length ignores its input
    ok, diag = validate_insertion_reading(lambda p: tuple(range(len(p) + 1, 0, -1)), 6)
    assert not ok and "collision" in diag


def test_brute_weight_enum_frozen_example():
    m = brute_weight_enum(AV132, [(2, 1)], 3, ["t"])
    assert {e[0]: c for e, c in m.terms.items()} == {0: 1, 1: 1, 2: 2, 3: 1}


def test_brute_weight_enum_matches_per_statistic_counts():
    # lengths 0, 2 and 3, all from one short_pattern_counts call per avoider
    stats = [(), (2, 1), (1, 3, 2), (1, 2), (2, 1, 3), (2, 1)]
    variables = ["e", "a", "b", "c", "d", "g"]
    for forbidden in (AV132, AV123):
        for n in range(8):
            expected: dict = {}
            for p in enumerate_avoiders(forbidden, n):
                key = tuple(count_occurrences(s, p) for s in stats)
                expected[key] = expected.get(key, 0) + 1
            got = brute_weight_enum(forbidden, stats, n, variables)
            assert got.variables == tuple(variables)
            assert dict(got.terms) == expected, (forbidden, n)


def test_brute_weight_enum_refuses_a_statistic_longer_than_three():
    with pytest.raises(UsageError, match="length <= 3, got 3142"):
        brute_weight_enum(AV132, [(2, 1), (3, 1, 4, 2)], 4, ["t", "q"])


def test_brute_sigma_enum_matches_per_perm_stats():
    # sigma1 and sigma2 are the first and second forward differences of the
    # 213 count along the orbit p, insertion_map(p), insertion_map(insertion_map(p))
    for n in range(1, 7):
        m = brute_sigma_enum(n)
        assert m.variables == ("t", "s1", "s2")
        expected: dict = {}
        for p in enumerate_avoiders(AV123, n):
            u = insertion_map(p)
            a0, a1, a2 = (count_occurrences(PAT_213, q) for q in (p, u, insertion_map(u)))
            key = (a0, a1 - a0, (a2 - a1) - (a1 - a0))
            expected[key] = expected.get(key, 0) + 1
        assert dict(m.terms) == expected


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_short_pattern_counts_match_count_occurrences(perm):
    perm = tuple(perm)
    patterns = [q for k in range(4) for q in permutations(range(1, k + 1))]
    expected = {q: count_occurrences(q, perm) for q in patterns}
    assert short_pattern_counts(perm) == expected


def test_classify_all_subsets_totals(rng):
    for n in range(1, 8):
        vals = list(range(1, n + 1))
        rng.shuffle(vals)
        p = tuple(vals)
        for k in range(1, min(4, n) + 1):
            table = classify_all_subsets(p, k)
            assert sum(table.values()) == comb(n, k)
            assert all(len(q) == k for q in table)


def test_classify_all_subsets_agrees_with_count():
    p = (3, 1, 4, 2, 5)
    table = classify_all_subsets(p, 3)
    for q in permutations((1, 2, 3)):
        assert table.get(q, 0) == count_occurrences(q, p)
