from fractions import Fraction

import pytest

from catstats.abnormality import (
    DEFAULT_EPSILON,
    DEFAULT_ORDER,
    VERDICT_ABNORMAL,
    VERDICT_INCONCLUSIVE,
    analyze,
    analyze_table,
    binomial_control_table,
    checkpoints,
    limit_estimate,
)
from catstats.errors import DegenerateStatisticError, UsageError
from catstats.funcrec import builtin_spec, eval_truncated
from catstats.moments import moments_from_truncated


def test_checkpoints_frozen():
    assert checkpoints(200) == (100, 150, 190, 200)
    assert checkpoints(100) == (50, 75, 90, 100)
    assert checkpoints(60) == (30, 45, 50, 60)
    assert checkpoints(50) == (25, 37, 40, 50)
    with pytest.raises(UsageError):
        checkpoints(49)


def test_limit_estimate_constant_is_exact():
    est, metric = limit_estimate([7.5] * 5, ns=[10, 20, 30, 40, 50])
    assert est == 7.5
    assert metric == 0.0


def test_limit_estimate_kills_first_order_correction():
    ns = [10, 20, 40, 80]
    vals = [2.0 + 3.0 / n for n in ns]
    est, metric = limit_estimate(vals, ns=ns, order=1)
    assert est == pytest.approx(2.0, abs=1e-12)
    assert metric < 1e-12


def test_limit_estimate_order_two_kills_quadratic():
    # exact rationals chosen so the float inputs are exact binary fractions
    ns = [4, 8, 16, 32, 64]
    vals = [float(5 + Fraction(3, n) + Fraction(7, n * n)) for n in ns]
    est1, _ = limit_estimate(vals, ns=ns, order=1)
    est2, metric2 = limit_estimate(vals, ns=ns, order=2)
    assert abs(est2 - 5.0) < abs(est1 - 5.0)
    assert est2 == pytest.approx(5.0, abs=1e-12)
    assert metric2 < 1e-10


def test_limit_estimate_input_validation():
    with pytest.raises(UsageError):
        limit_estimate([1.0, 2.0, 3.0])
    with pytest.raises(UsageError):
        limit_estimate([1.0] * 4, ns=[10, 20, 20, 30])
    with pytest.raises(UsageError):
        limit_estimate([1.0] * 4, ns=[10, 20, 30, 40], order=0)
    with pytest.raises(UsageError):
        limit_estimate([1.0] * 4, ns=[10, 20, 30, 40], order=3)


@pytest.mark.parametrize(
    "setting,message",
    [({"epsilon": float("nan")}, "epsilon must be a finite number > 0"),
     ({"order": 7}, "extrapolation order must be in 1..2, got 7")],
)
def test_analyze_checks_its_settings_before_evaluating(monkeypatch, setting, message):
    def refuse(*args, **kwargs):
        raise AssertionError("evaluated before the settings were checked")

    monkeypatch.setattr("catstats.abnormality.eval_truncated", refuse)
    with pytest.raises(UsageError, match=message):
        analyze("av132", "321", 200, **setting)


def test_analyze_refuses_a_synthetic_statistic_before_its_settings():
    with pytest.raises(UsageError, match="only offers the binomial control"):
        analyze("synthetic", "21", 10, epsilon=float("nan"))
    assert analyze("synthetic", "binomial", 60) == analyze_table(binomial_control_table(60))


def test_binomial_control_is_inconclusive_with_exact_moments():
    tab = binomial_control_table(60)
    assert [row.n for row in tab.rows] == list(checkpoints(60))
    rep = analyze_table(tab)
    assert rep.verdict == VERDICT_INCONCLUSIVE
    e3, e4 = rep.evidence
    assert e3.limit == 0.0
    assert e3.metric == 0.0
    assert abs(e4.limit - 3.0) < 1e-9
    for s in e4.samples:
        n = s.n
        assert s.signed_square == (Fraction(3) - Fraction(2, n)) ** 2


def test_inversion_statistic_is_abnormal():
    rep = analyze("av132", "12", n_max=100)
    assert rep.verdict == VERDICT_ABNORMAL
    e3 = rep.evidence[0]
    assert e3.metric < DEFAULT_EPSILON
    assert abs(e3.limit) > 0.5
    assert rep.order == DEFAULT_ORDER
    assert rep.checkpoints == (50, 75, 90, 100)


def test_verdict_is_a_function_of_the_reported_evidence():
    # re-derive the verdict from nothing but the serialized report
    for rep in (
        analyze("av132", "21", n_max=100),
        analyze_table(binomial_control_table(60)),
    ):
        obj = rep.to_json_obj()
        cfg = obj["config"]
        by_r = {e["r"]: e for e in obj["evidence"]}
        dev3 = abs(by_r[3]["limit_estimate"] - by_r[3]["normal_reference"])
        dev4 = abs(by_r[4]["limit_estimate"] - by_r[4]["normal_reference"])
        abnormal = (
            dev3 > cfg["tau_skew"] and by_r[3]["convergence_metric"] < cfg["epsilon"]
        ) or (
            dev4 > cfg["tau_kurt"] and by_r[4]["convergence_metric"] < cfg["epsilon"]
        )
        assert obj["verdict"] == ("abnormal" if abnormal else "inconclusive")
        assert obj["verdict"] == rep.verdict


def test_overlapping_checkpoints_share_exact_values():
    a = analyze("av132", "21", n_max=50)
    b = analyze("av132", "21", n_max=100)
    sa = {s.n: s.signed_square for s in a.evidence[0].samples}
    sb = {s.n: s.signed_square for s in b.evidence[0].samples}
    assert sa[50] == sb[50]


def test_degenerate_statistic_refuses_to_extrapolate():
    with pytest.raises(DegenerateStatisticError):
        analyze("av132", "132", n_max=60)


def test_analyze_table_needs_fourth_moments():
    spec = builtin_spec("av132", "21")
    tab = moments_from_truncated(eval_truncated(spec, 60, 3))
    with pytest.raises(UsageError):
        analyze_table(tab)


def test_report_json_shape():
    obj = analyze("av132", "12", n_max=60).to_json_obj()
    assert obj["report"] == "abnormality"
    assert {"config", "evidence", "verdict", "criterion", "notes"} <= set(obj)
    assert obj["config"]["correction_model"] == "1/n"
    for e in obj["evidence"]:
        for s in e["samples"]:
            assert set(s) == {"n", "alpha", "alpha_signed_square"}
            num, den = s["alpha_signed_square"].split("/")
            assert int(num) or num == "0"
            assert int(den)
