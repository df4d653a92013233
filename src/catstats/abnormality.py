"""Asymptotic-abnormality verdicts for pattern statistics.

The pipeline samples the standardized moments alpha^(r)_n of a catalog
statistic at a few checkpoints near the top of a computed range, extrapolates
their limits beta^(r) under a 1/n correction model, and compares against the
moments of the standard normal (0 for odd r, (r-1)!! for even r).

A verdict is "abnormal" when the skewness or kurtosis limit estimate sits
clearly away from its normal value AND the extrapolation has visibly settled.
Everything else is "inconclusive": this tool never claims normality, since a
limit agreeing with the normal moments to some tolerance is absence of
evidence, not evidence of absence.

Every alpha sample is computed exactly (the stored datum is the signed square
alpha*|alpha|, a rational number) and rendered to float only at the very end,
so reports at two different ranges agree exactly on overlapping n.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, isfinite
from typing import NamedTuple

from .errors import DegenerateStatisticError, UsageError
from .funcrec import builtin_spec, eval_truncated
from .moments import (
    MomentTable,
    factorial_from_full,
    moment_table_from_rows,
    moments_from_truncated,
    normal_reference,
)
from .multipoly import coeff_to_str

DEFAULT_N = 200
DEFAULT_R = 4
DEFAULT_TAU_SKEW = 0.02
DEFAULT_TAU_KURT = 0.02
DEFAULT_EPSILON = 1e-2
# Depth of the 1/n-power elimination used by analyze().  The four checkpoints
# support depth 2, which is what it takes for the skew metric to settle below
# epsilon at n_max = 200 on every nondegenerate catalog statistic.
DEFAULT_ORDER = 2

VERDICT_ABNORMAL = "abnormal"
VERDICT_INCONCLUSIVE = "inconclusive"

MIN_N = 50


def checkpoints(n_max: int) -> "tuple[int, ...]":
    """Sampling points {N//2, 3N//4, N-10, N}, sorted and deduplicated."""
    if n_max < MIN_N:
        raise UsageError(f"abnormality analysis needs n_max >= {MIN_N}, got {n_max}")
    return tuple(sorted({n_max // 2, (3 * n_max) // 4, n_max - 10, n_max}))


def limit_estimate(samples, ns=None, order: int = 1) -> "tuple[float, float]":
    """Extrapolate the limit of a sequence sampled at increasing indices.

    Assumes corrections in powers of 1/n and eliminates the leading `order`
    of them by Neville extrapolation of the samples, viewed as a function of
    1/n, to the point 1/n = 0.  The default order 1 is plain Richardson:
    consecutive samples combine as (n2*a2 - n1*a1) / (n2 - n1).

    ns gives the index of each sample; when omitted the samples are taken to
    sit at n = 1, 2, ..., len(samples).

    Returns (estimate, metric).  The metric is the largest jump between the
    last three accelerated values; a small metric means the accelerated
    sequence has settled and the estimate can be trusted at that scale.

    The table arithmetic is exact (floats convert to rationals losslessly),
    so constant samples give the constant back with metric exactly 0.
    """
    vals = [Fraction(v) for v in samples]
    m = len(vals)
    if m < 4:
        raise UsageError(f"limit_estimate needs at least 4 samples, got {m}")
    if ns is None:
        ns = range(1, m + 1)
    ns = [Fraction(n) for n in ns]
    if len(ns) != m:
        raise UsageError(f"got {m} samples but {len(ns)} indices")
    if any(n <= 0 for n in ns) or any(b <= a for a, b in zip(ns, ns[1:])):
        raise UsageError("sample indices must be positive and strictly increasing")
    _check_order(order, m)

    # Neville table at x = 1/n, evaluated at x = 0.  After depth j the column
    # entry p belongs to the sample window p .. p+j; depth 1 combines
    # consecutive samples as (n2*a2 - n1*a1) / (n2 - n1).
    xs = [1 / n for n in ns]
    col = vals
    for j in range(1, order + 1):
        col = [
            (xs[i - j] * col[i - (j - 1)] - xs[i] * col[i - j]) / (xs[i - j] - xs[i])
            for i in range(j, m)
        ]
    window = col[-3:]
    metric = max(abs(b - a) for a, b in zip(window, window[1:]))
    return float(col[-1]), float(metric)


def _check_order(order: int, samples: int) -> None:
    if not 1 <= order <= samples - 2:
        raise UsageError(f"extrapolation order must be in 1..{samples - 2}, got {order}")


def _check_settings(
    n_max: int, r_max: int, tau_skew, tau_kurt, epsilon, order: int
) -> "tuple[int, ...]":
    """Refuse verdict settings for a table of rows 0..n_max before anything is
    evaluated, and return the checkpoints of n_max.  Moments must reach
    r = 4, thresholds must be finite and > 0, and the order must fit the
    checkpoints."""
    if r_max < 4:
        raise UsageError(f"verdicts need moments through r = 4, got r_max = {r_max}")
    cps = checkpoints(n_max)
    for name, value in (("tau_skew", tau_skew), ("tau_kurt", tau_kurt), ("epsilon", epsilon)):
        if not (isfinite(value) and value > 0):
            raise UsageError(f"{name} must be a finite number > 0, got {value}")
    _check_order(order, len(cps))
    return cps


class AlphaSample(NamedTuple):
    """One exact standardized-moment sample, float-rendered for display."""

    n: int
    signed_square: Fraction
    value: float


class MomentEvidence(NamedTuple):
    """Checkpoint samples and extrapolated limit for one moment order r."""

    r: int
    reference: int
    samples: "tuple[AlphaSample, ...]"
    limit: float
    metric: float

    @property
    def deviation(self) -> float:
        return abs(self.limit - self.reference)

    def to_json_obj(self) -> dict:
        return {
            "r": self.r,
            "normal_reference": self.reference,
            "limit_estimate": self.limit,
            "deviation": self.deviation,
            "convergence_metric": self.metric,
            "samples": [
                {
                    "n": s.n,
                    "alpha_signed_square": coeff_to_str(s.signed_square),
                    "alpha": s.value,
                }
                for s in self.samples
            ],
        }


class AbnormalityReport(NamedTuple):
    family: str
    statistic: str
    mode: str
    n_max: int
    r_max: int
    checkpoints: "tuple[int, ...]"
    tau_skew: float
    tau_kurt: float
    epsilon: float
    order: int
    evidence: "tuple[MomentEvidence, ...]"
    verdict: str
    criterion: str

    def to_json_obj(self) -> dict:
        return {
            "report": "abnormality",
            "verdict": self.verdict,
            "criterion": self.criterion,
            "config": {
                "family": self.family,
                "statistic": self.statistic,
                "mode": self.mode,
                "n_max": self.n_max,
                "r_max": self.r_max,
                "checkpoints": list(self.checkpoints),
                "tau_skew": self.tau_skew,
                "tau_kurt": self.tau_kurt,
                "epsilon": self.epsilon,
                "extrapolation_order": self.order,
                "correction_model": "1/n",
            },
            "evidence": [ev.to_json_obj() for ev in self.evidence],
            "notes": [
                "alpha_signed_square is the exact rational alpha*|alpha|; "
                "alpha itself is its signed square root",
                "the verdict is a pure function of the evidence block: abnormal "
                "iff skewness or kurtosis deviates from its normal value by more "
                "than its tolerance while its convergence metric is below epsilon",
                "a verdict of normality is never issued",
            ],
        }


def _verdict(e3: MomentEvidence, e4: MomentEvidence, tau_skew, tau_kurt, epsilon):
    skew_dev = e3.deviation > tau_skew
    kurt_dev = e4.deviation > tau_kurt
    if skew_dev and e3.metric < epsilon:
        return VERDICT_ABNORMAL, (
            f"skewness limit estimate {e3.limit:.6g} is more than {tau_skew:g} "
            f"away from 0 and its convergence metric {e3.metric:.3g} is below "
            f"{epsilon:g}"
        )
    if kurt_dev and e4.metric < epsilon:
        return VERDICT_ABNORMAL, (
            f"kurtosis limit estimate {e4.limit:.6g} is more than {tau_kurt:g} "
            f"away from 3 and its convergence metric {e4.metric:.3g} is below "
            f"{epsilon:g}"
        )
    parts = []
    if skew_dev or kurt_dev:
        which = "skewness" if skew_dev else "kurtosis"
        parts.append(f"{which} deviates but its extrapolation has not settled")
    else:
        parts.append(
            f"skewness estimate {e3.limit:.6g} is within {tau_skew:g} of 0 and "
            f"kurtosis estimate {e4.limit:.6g} is within {tau_kurt:g} of 3"
        )
    parts.append("no claim of normality is made")
    return VERDICT_INCONCLUSIVE, "; ".join(parts)


def analyze_table(
    table: MomentTable,
    *,
    tau_skew: float = DEFAULT_TAU_SKEW,
    tau_kurt: float = DEFAULT_TAU_KURT,
    epsilon: float = DEFAULT_EPSILON,
    order: int = DEFAULT_ORDER,
) -> AbnormalityReport:
    """Issue a verdict from an already-computed moment table.

    This is the single verdict path: analyze() feeds catalog statistics and
    the synthetic control through it.
    """
    n_top = table.rows[-1].n
    cps = _check_settings(n_top, table.r_max, tau_skew, tau_kurt, epsilon, order)
    evidence = []
    for r in range(3, table.r_max + 1):
        samples = []
        for n in cps:
            row = table.row(n)
            if row.alpha is None:
                raise DegenerateStatisticError(
                    f"variance of {table.family}:{table.statistic} is 0 at n = {n}; "
                    "standardized moments are undefined on the sampled range"
                )
            samples.append(
                AlphaSample(
                    n=n,
                    signed_square=row.alpha.signed_square[r],
                    value=row.alpha.float_value[r],
                )
            )
        limit, metric = limit_estimate([s.value for s in samples], ns=cps, order=order)
        evidence.append(
            MomentEvidence(
                r=r,
                reference=normal_reference(r),
                samples=tuple(samples),
                limit=limit,
                metric=metric,
            )
        )
    by_r = {ev.r: ev for ev in evidence}
    verdict, criterion = _verdict(by_r[3], by_r[4], tau_skew, tau_kurt, epsilon)
    return AbnormalityReport(
        family=table.family,
        statistic=table.statistic,
        mode=table.mode,
        n_max=n_top,
        r_max=table.r_max,
        checkpoints=cps,
        tau_skew=tau_skew,
        tau_kurt=tau_kurt,
        epsilon=epsilon,
        order=order,
        evidence=tuple(evidence),
        verdict=verdict,
        criterion=criterion,
    )


def analyze(
    family: str,
    statistic: str,
    n_max: int = DEFAULT_N,
    r_max: int = DEFAULT_R,
    *,
    tau_skew: float = DEFAULT_TAU_SKEW,
    tau_kurt: float = DEFAULT_TAU_KURT,
    epsilon: float = DEFAULT_EPSILON,
    order: int = DEFAULT_ORDER,
) -> AbnormalityReport:
    """Run the truncated pipeline to n_max and judge statistic's limit shape.

    The family "synthetic" has one statistic, "binomial": the control of
    `binomial_control_table`, judged by the same verdict path."""
    if family == "synthetic" and statistic != "binomial":
        raise UsageError("the synthetic family only offers the binomial control")
    cps = _check_settings(n_max, r_max, tau_skew, tau_kurt, epsilon, order)
    if family == "synthetic":
        table = binomial_control_table(n_max, r_max)
    else:
        spec = builtin_spec(family, statistic)
        seq = eval_truncated(spec, n_max, cap=r_max)
        table = moments_from_truncated(seq, ns=cps)
    return analyze_table(
        table,
        tau_skew=tau_skew,
        tau_kurt=tau_kurt,
        epsilon=epsilon,
        order=order,
    )


def binomial_control_table(n_max: int, r_max: int = DEFAULT_R) -> MomentTable:
    """Exact moment table of the synthetic coin-flip family (1+t)^n, with
    rows at the checkpoints of n_max, which are all the verdict reads.

    The de Moivre-Laplace control: its standardized moments tend to the
    normal values, so the verdict path must come back inconclusive on it.
    Rows are computed through the same factorial-moment extraction as the
    real enumerators, nothing is transcribed.
    """
    ns = checkpoints(n_max)
    f_rows = [factorial_from_full([comb(n, j) for j in range(n + 1)], r_max) for n in ns]
    return moment_table_from_rows("synthetic", "binomial", "full", None, r_max, f_rows, ns)
