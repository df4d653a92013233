"""End-to-end acceptance checks.

One test per advertised guarantee, in the order the guarantees are stated;
`pytest -v tests/test_acceptance.py` prints one pass/fail line for each.
Expected values are either computed here from brute force or frozen from
brute-force runs recorded in the test body.
"""
import time
from fractions import Fraction
from itertools import permutations
from math import comb

import pytest

from catstats.abnormality import analyze, analyze_table, binomial_control_table
from catstats.funcrec import (
    builtin_families,
    builtin_spec,
    eval_full,
    eval_truncated,
    verify_catalog,
)
from catstats.guessing import guess_algebraic, guess_p_recursive
from catstats.moments import moments_from_full, moments_from_truncated
from catstats import perms
from catstats.perms import AV132, catalan_list, insertion_map
from catstats.splits import AverageEngine, bona_census_123, bona_census_132, split_terms
from reference import (
    algebraic_residual,
    classify_all_subsets,
    standardize,
    validate_insertion_reading,
    verify_recurrence,
)


def test_criterion_01_masses_to_60_under_one_second():
    start = time.monotonic()
    m132 = [s.coeffs[0] for s in eval_truncated(builtin_spec("av132", "21"), 60, 1).values]
    m123 = [s.coeffs[0] for s in eval_truncated(builtin_spec("av123", "213"), 60, 1).values]
    elapsed = time.monotonic() - start
    expected = catalan_list(60)
    assert m132 == expected
    assert m123 == expected
    assert elapsed < 1.0, f"mass computation took {elapsed:.2f}s"


def test_criterion_02_full_enumerators_match_brute_force_to_10():
    start = time.monotonic()
    assert verify_catalog(10) == {f"{f}:{s}": None for f, s in builtin_families()}
    assert time.monotonic() - start < 600


def test_criterion_03_census_132_class_counts_to_k10():
    got = [bona_census_132(k, prefix_len=30).class_count for k in range(1, 11)]
    assert got == [1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_criterion_04_census_123_class_counts_to_k6():
    expected = [1, 2, 3, 6, 12, 32]
    results = [bona_census_123(k, n_max=9) for k in range(1, 7)]
    got = [r.class_count for r in results]
    if got != expected:
        bad_k = next(k for k, (g, e) in enumerate(zip(got, expected), start=1) if g != e)
        r = results[bad_k - 1]
        # name the most suspicious pair: distinct classes with the longest
        # shared prefix are the ones a longer range might merge or split
        best = None
        for i in range(len(r.classes)):
            for j in range(i + 1, len(r.classes)):
                a, b = r.classes[i].prefix, r.classes[j].prefix
                common = sum(1 for x, y in zip(a, b) if x == y)
                if best is None or common > best[0]:
                    best = (common, r.classes[i], r.classes[j])
        _, ca, cb = best
        pytest.fail(
            f"k={bad_k}: found {got[bad_k - 1]} classes, expected {expected[bad_k - 1]} "
            f"(a conjectured count); conflicting class pair: "
            f"{ca.representative} with prefix {ca.prefix} vs "
            f"{cb.representative} with prefix {cb.prefix}"
        )


def test_criterion_05_first_two_moment_closed_forms_to_30():
    tab = moments_from_truncated(eval_truncated(builtin_spec("av123", "213"), 30, 2))
    cats = catalan_list(30)
    for n in range(1, 31):
        row = tab.row(n)
        tot1 = row.f[1]
        tot2 = row.f[2] + row.f[1]
        c1 = cats[n - 1]
        want1 = Fraction(-3, 8) * 4**n + Fraction((n + 2) * (2 * n - 1), 2) * c1
        want2 = (
            Fraction(-9, 128) * (3 * n**2 + 7 * n + 6) * 4**n
            + (
                Fraction(19, 60) * n**4
                + Fraction(57, 20) * n**3
                + Fraction(67, 30) * n**2
                + Fraction(1, 10) * n
                - 1
            )
            * c1
        )
        assert want1.denominator == 1 and tot1 == want1, f"n={n}"
        assert want2.denominator == 1 and tot2 == want2, f"n={n}"


def test_criterion_06_third_moment_sequence_is_p_recursive():
    # first 9 terms frozen from a direct sum over the avoiders
    brute_prefix = [0, 0, 0, 1, 39, 747, 9972, 106098, 965643]
    tab = moments_from_truncated(eval_truncated(builtin_spec("av123", "213"), 35, 3))
    tot3 = [
        tab.row(n).f[3] + 3 * tab.row(n).f[2] + tab.row(n).f[1] for n in range(36)
    ]
    assert tot3[:9] == brute_prefix
    rec = guess_p_recursive(
        tot3[1:], offset=1, max_order=4, max_degree=4, holdout=6
    )
    assert rec is not None, "no recurrence of order <= 4, degree <= 4 found"
    assert (rec.order, rec.degree) == (4, 4)
    assert verify_recurrence(rec, tot3[1:], offset=1) == (True, None)


def test_criterion_07_algebraic_equations():
    eq = guess_algebraic(catalan_list(80))
    assert eq is not None
    assert eq.coeffs == (((0, 0), 1), ((0, 1), -1), ((1, 2), 1))
    assert eq.render_solved() == "y = 1 + z*y^2"

    tab = moments_from_truncated(eval_truncated(builtin_spec("av132", "21"), 60, 1))
    f1 = [tab.row(n).f[1] for n in range(61)]
    eq2 = guess_algebraic(f1[:41], max_deg_y=3, max_deg_z=4, holdout=10)
    assert eq2 is not None
    assert eq2.degree_y() == 2
    # 61 supplied terms check the fit 20 terms past its fitting window
    assert not any(algebraic_residual(eq2, f1))


def test_criterion_08_abnormality_verdicts_at_200():
    start = time.monotonic()
    for statistic in ("12", "21", "123", "213", "231", "312", "321"):
        rep = analyze("av132", statistic, n_max=200, r_max=4)
        assert rep.verdict == "abnormal", f"av132:{statistic} -> {rep.verdict}"
        m3, m4 = (ev.metric for ev in rep.evidence)
        assert min(m3, m4) < 1e-2, f"av132:{statistic} metrics {m3}, {m4}"
    control = analyze_table(binomial_control_table(200))
    assert control.verdict == "inconclusive"
    e3, e4 = control.evidence
    assert abs(e3.limit) < 1e-6
    assert abs(e4.limit - 3) < 1e-6
    assert time.monotonic() - start < 600


def test_criterion_09_split_system_identities():
    engine = AverageEngine(20)
    a213 = engine.sequence((2, 1, 3))
    assert engine.sequence((2, 3, 1)) == a213
    assert engine.sequence((3, 1, 2)) == a213

    # pointwise: splitting at the maximum splits every occurrence, checked
    # for every pattern of length <= 4 inside every avoider of length <= 9
    pats = [q for k in (1, 2, 3, 4) for q in permutations(range(1, k + 1))]
    decomps = {p: [(tuple(pre), tuple(suf)) for pre, suf, _ in split_terms(bytes(p))] for p in pats}

    def occ(table, part):
        if not part:
            return 1
        return table.get(len(part), {}).get(part, 0)

    for n in range(1, 10):
        for w in perms.enumerate_avoiders(AV132, n):
            j = w.index(n)
            left = standardize(w[:j])
            right = standardize(w[j + 1 :])
            tw = {k: classify_all_subsets(w, k) for k in range(1, min(4, n) + 1)}
            tl = {k: classify_all_subsets(left, k) for k in range(1, min(4, len(left)) + 1)}
            tr = {k: classify_all_subsets(right, k) for k in range(1, min(4, len(right)) + 1)}
            for p, terms in decomps.items():
                lhs = occ(tw, p)
                rhs = sum(occ(tl, pre) * occ(tr, suf) for pre, suf in terms)
                assert lhs == rhs, (p, w)

    # all k! patterns together account for every length-k subsequence
    cats = catalan_list(10)
    eng10 = AverageEngine(10)
    for k in (1, 2, 3, 4):
        seqs = [eng10.sequence(p) for p in permutations(range(1, k + 1))]
        for n in range(11):
            assert sum(s[n] for s in seqs) == comb(n, k) * cats[n]


def test_criterion_10_moment_pipeline_invariants():
    for family, statistic in builtin_families():
        spec = builtin_spec(family, statistic)
        full = moments_from_full(eval_full(spec, 12), r_max=6)
        trunc = moments_from_truncated(eval_truncated(spec, 12, 6))
        for n in range(13):
            a, b = full.row(n), trunc.row(n)
            assert a.f == b.f, f"{spec.label} n={n}"
            assert a.M == b.M, f"{spec.label} n={n}"
            assert a.M[1] == 0
            if a.alpha is None:
                assert b.alpha is None
                continue
            ss = a.alpha.signed_square
            assert ss == b.alpha.signed_square
            assert ss[2] == 1
            assert ss[4] >= (abs(ss[3]) + 1) ** 2, f"{spec.label} n={n}"


def test_criterion_11_insertion_map_validation():
    assert validate_insertion_reading(insertion_map, 8) == (True, "ok")

    # a map that is not a bijection onto the 123-avoiders is rejected:
    # prepending a new minimum turns any ascent into a 123
    ok, diag = validate_insertion_reading(lambda p: (1,) + tuple(v + 1 for v in p), 6)
    assert not ok and diag
