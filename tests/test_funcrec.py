import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catstats.errors import UsageError
from catstats.funcrec import (
    CoefAtom,
    FuncRecSpec,
    RecTerm,
    builtin_families,
    builtin_spec,
    eval_full,
    eval_truncated,
    subst_matrix,
    verify_catalog,
)
from catstats import funcrec
from catstats.cli import EXIT_INTERNAL, main
from catstats.multipoly import IndexPoly, index_poly
from catstats.perms import catalan_list
from catstats.series import SeriesBasis, poly_to_series

CATALOG = [
    ("av123", "213"),
    ("av132", "12"),
    ("av132", "123"),
    ("av132", "132"),
    ("av132", "21"),
    ("av132", "213"),
    ("av132", "231"),
    ("av132", "312"),
    ("av132", "321"),
]


def test_catalog_contents():
    assert builtin_families() == CATALOG
    for family, statistic in CATALOG:
        spec = builtin_spec(family, statistic)
        assert spec.family == family
        assert spec.statistic == statistic
        assert spec.label == f"{family}:{statistic}"
        assert len(spec.variables) == len(spec.tracked) or spec.tracked


def test_unknown_spec_raises():
    with pytest.raises(UsageError):
        builtin_spec("av132", "999")
    with pytest.raises(UsageError):
        builtin_spec("av321", "21")


def test_masses_are_catalan_truncated():
    expected = catalan_list(30)
    for family, statistic in CATALOG:
        seq = eval_truncated(builtin_spec(family, statistic), 30, 1)
        assert seq.masses() == expected, f"{family}:{statistic}"
    with pytest.raises(UsageError):
        eval_truncated(builtin_spec("av132", "21"), 5, 0)


def test_masses_are_catalan_full():
    expected = catalan_list(8)
    for family, statistic in CATALOG:
        seq = eval_full(builtin_spec(family, statistic), 8)
        assert seq.masses() == expected, f"{family}:{statistic}"


def test_full_matches_brute_force_oracle():
    assert verify_catalog(7) == {f"{f}:{s}": None for f, s in CATALOG}


def test_verify_catalog_reports_first_mismatch(monkeypatch, capsys):
    honest = funcrec.brute_sigma_enum

    def perturbed(n, limit):
        poly = honest(n, limit)
        return poly + 1 if n == 3 else poly

    monkeypatch.setattr(funcrec, "brute_sigma_enum", perturbed)
    checks = verify_catalog(5)
    n, engine, brute = checks["av123:213"]
    assert n == 3
    assert engine == eval_full(builtin_spec("av123", "213"), 3).values[3]
    assert brute == engine + 1
    assert [label for label, bad in checks.items() if bad] == ["av123:213"]

    assert main(["oracle", "verify", "--max-n", "5"]) == EXIT_INTERNAL
    out, err = capsys.readouterr()
    assert "av123:213    MISMATCH at n = 3" in out
    assert "all 9 catalog specs" not in out
    assert "oracle mismatch" in err


def test_truncated_is_the_series_of_full():
    cap = 4
    for family, statistic in CATALOG:
        spec = builtin_spec(family, statistic)
        full = eval_full(spec, 7)
        trunc = eval_truncated(spec, 7, cap)
        basis = SeriesBasis(spec.variables, cap)
        for n in range(8):
            want = poly_to_series(full.values[n], basis)
            assert trunc.values[n] == want, f"{family}:{statistic} n={n}"


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CATALOG), st.integers(0, 9), st.integers(1, 8))
def test_truncated_is_the_series_of_full_at_every_cap(family_stat, n, cap):
    # up to cap 8, the width of the three-variable basis moment tables run at
    spec = builtin_spec(*family_stat)
    want = poly_to_series(eval_full(spec, n).values[n], SeriesBasis(spec.variables, cap))
    assert eval_truncated(spec, n, cap).values[n] == want


def test_negative_substitution_exponent_is_a_usage_error():
    # t^(20 - n), once in the right substitution t -> t^(20 - n) and once as
    # the coefficient, passes the mass check (n <= 12) and first goes
    # negative at n = 21, k = 1
    e = index_poly({(0, 0): 20, (1, 0): -1})
    terms = [
        RecTerm(
            atoms=(CoefAtom(var_exps=(IndexPoly.ZERO,)),),
            right=subst_matrix(("t",), {"t": {"t": e}}),
        ),
        RecTerm(atoms=(CoefAtom(var_exps=(e,)),)),
    ]
    for term in terms:
        spec = FuncRecSpec("av132", "synthetic", ("t",), [term])
        assert eval_truncated(spec, 20, 2).masses() == catalan_list(20)
        with pytest.raises(UsageError, match=r"\(n=21, k=1\)"):
            eval_truncated(spec, 25, 2)
        with pytest.raises(UsageError, match=r"\(n=21, k=1\)"):
            eval_full(spec, 25)


def test_mass_check_rejects_a_wrong_recurrence():
    # Q_n = 2 * sum_k Q_(k-1) Q_(n-k) counts 2^n C_n objects, not C_n
    atom = CoefAtom(var_exps=(IndexPoly.ZERO,), factor=2)
    with pytest.raises(UsageError, match=r"av132:synthetic: mass check failed at n = 1: 2 != 1"):
        FuncRecSpec("av132", "synthetic", ("t",), [RecTerm(atoms=(atom,))])


def test_frozen_small_enumerators():
    seq21 = eval_full(builtin_spec("av132", "21"), 3)
    assert [str(p) for p in seq21.values] == ["1", "1", "1 + t", "1 + t + 2t^2 + t^3"]

    seq231 = eval_full(builtin_spec("av132", "231"), 3)
    assert str(seq231.values[3]) == "1 + q + q^2 + t*q + q^3"

    proj = eval_full(builtin_spec("av123", "213"), 4).specialize({"s1": 1, "s2": 1})
    assert [str(p) for p in proj.values] == ["1", "1", "2", "4 + t", "8 + 4t + t^2 + t^3"]


def test_pattern_equal_to_forbidden_is_trivial():
    # no 132-avoider contains a 132, so the enumerator collapses to the count
    seq = eval_full(builtin_spec("av132", "132"), 9)
    cats = catalan_list(9)
    for n, p in enumerate(seq.values):
        assert p.total_degree() == 0
        assert p.mass() == cats[n]


def test_full_specialize_all_ones_gives_masses():
    seq = eval_full(builtin_spec("av132", "213"), 6)
    ones = seq.specialize({v: 1 for v in seq.spec.variables})
    assert [p.mass() for p in ones.values] == catalan_list(6)


def test_truncated_specialize_rules():
    tr = eval_truncated(builtin_spec("av123", "213"), 4, 2)
    kept = tr.specialize({"s1": 1, "s2": 1})
    assert [s.constant_term() for s in kept.values] == catalan_list(4)
    with pytest.raises(UsageError):
        tr.specialize({"s1": 2})
