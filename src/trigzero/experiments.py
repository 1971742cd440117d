"""Monte Carlo campaigns over zero counts and their statistical verdicts.

A campaign draws replicates, counts zeros with the scan method, and reduces
the counts with mergeable one-pass moment accumulators.  Its result holds
one int64 array of counts and one of tangency warnings per degree, in
replicate order.  One engine counts every campaign and the window-chop
check: replicates are processed in fixed-size chunks whose contents do not
depend on the worker count, so counts and summaries are bit-identical
however the work is scheduled.  Parallelism is capped by the
TRIGZERO_THREADS environment variable (0 or unset means automatic).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import CampaignError, UsageError
from .rice import window_bounds
from .sampling import draw_coefficient_batch
from .zeros import scan_count_batch

_CHUNK = 256
_Z_995 = 2.575829303548901  # 99% two-sided normal quantile


def worker_count() -> int:
    """Campaign threads: TRIGZERO_THREADS if positive, else automatic.

    0, blank or unset means automatic; anything but a non-negative integer
    is a UsageError.
    """
    env = os.environ.get("TRIGZERO_THREADS", "").strip() or "0"
    if not env.isdecimal():
        raise UsageError(f"TRIGZERO_THREADS must be a non-negative integer, got {env!r}")
    n = int(env)
    return n if n > 0 else min(os.cpu_count() or 1, 8)


@dataclass(frozen=True)
class IntervalSpec:
    """Counting interval: explicit bounds on one axis, or the alpha-window."""

    kind: str  # "original" | "window"
    lo: float | None = None
    hi: float | None = None

    def bounds_original(self, K: int, alpha: float):
        """Bounds on the original [0, 2*pi) axis for degree K."""
        if self.kind == "original":
            return float(self.lo), float(self.hi)
        if self.kind == "window":
            w0, w1 = window_bounds(K, alpha)
            return w0 / K, w1 / K
        raise UsageError(f"unknown interval kind {self.kind!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    K_list: tuple
    replicates: int = 1000
    interval: IntervalSpec = IntervalSpec("original", 0.0, math.pi)
    alpha: float = 0.25
    seed: int = 0
    ensemble: str = "cosine"
    oversample: int = 8

    def validate(self):
        if self.replicates < 2:
            raise UsageError("need at least 2 replicates")
        if not (0.0 < self.alpha < 0.5):
            raise UsageError("alpha must lie in (0, 1/2)")
        if not self.K_list:
            raise UsageError("empty K list")
        if min(self.K_list) < 1:
            raise UsageError("degrees must be at least 1")
        if len(set(self.K_list)) < len(self.K_list):
            raise UsageError("each degree may be given only once")


class RunningMoments:
    """Mergeable one-pass accumulator of count, mean and central moments 2-4."""

    __slots__ = ("n", "mean", "m2", "m3", "m4")

    def __init__(self):
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0
        self.m3 = 0.0
        self.m4 = 0.0

    def push_batch(self, values):
        other = RunningMoments()
        x = np.asarray(values, dtype=float)
        other.n = x.size
        if other.n:
            other.mean = float(x.mean())
            d = x - other.mean
            other.m2 = float(np.sum(d * d))
            other.m3 = float(np.sum(d ** 3))
            other.m4 = float(np.sum(d ** 4))
        self.merge(other)

    def merge(self, other):
        if other.n == 0:
            return self
        if self.n == 0:
            self.n, self.mean = other.n, other.mean
            self.m2, self.m3, self.m4 = other.m2, other.m3, other.m4
            return self
        na, nb = self.n, other.n
        n = na + nb
        d = other.mean - self.mean
        d2 = d * d
        m2 = self.m2 + other.m2 + d2 * na * nb / n
        m3 = (
            self.m3
            + other.m3
            + d ** 3 * na * nb * (na - nb) / (n * n)
            + 3.0 * d * (na * other.m2 - nb * self.m2) / n
        )
        m4 = (
            self.m4
            + other.m4
            + d2 * d2 * na * nb * (na * na - na * nb + nb * nb) / (n ** 3)
            + 6.0 * d2 * (na * na * other.m2 + nb * nb * self.m2) / (n * n)
            + 4.0 * d * (na * other.m3 - nb * self.m3) / n
        )
        self.mean += d * nb / n
        self.n, self.m2, self.m3, self.m4 = n, m2, m3, m4
        return self

    @property
    def variance(self):
        return self.m2 / (self.n - 1) if self.n > 1 else 0.0

    @property
    def skewness(self):
        if self.n < 2 or self.m2 <= 0.0:
            return 0.0
        return (self.m3 / self.n) / (self.m2 / self.n) ** 1.5

    @property
    def excess_kurtosis(self):
        if self.n < 2 or self.m2 <= 0.0:
            return 0.0
        return (self.m4 / self.n) / (self.m2 / self.n) ** 2 - 3.0


@dataclass(frozen=True)
class NormalityReport:
    n: int
    variance_source: str
    variance_used: float
    ks_statistic: float
    p_value: float
    skewness: float
    excess_kurtosis: float
    ad_statistic: float


@dataclass(frozen=True)
class KSummary:
    K: int
    n_total: int
    n_used: int
    n_excluded: int
    mean: float
    variance: float
    var_per_kpi: float
    se_mean: float
    se_var: float
    ci99_var_per_kpi: tuple
    normality: NormalityReport | None


@dataclass
class CampaignResult:
    """Per-degree summaries, counts and tangency-warning counts.

    ``counts[i]`` and ``warnings[i]`` are int64 arrays over the replicates
    of degree ``config.K_list[i]``, aligned with ``summaries[i]``.
    """

    config: ExperimentConfig
    summaries: list
    counts: list
    warnings: list

    @property
    def exclusion_fraction(self):
        total = sum(w.size for w in self.warnings)
        bad = sum(np.count_nonzero(w) for w in self.warnings)
        return bad / total if total else 0.0


def _se_of_variance(moments: RunningMoments) -> float:
    # moment-based standard error of the sample variance
    n = moments.n
    if n < 4 or moments.m2 <= 0.0:
        return float("inf")
    mu4 = moments.m4 / n
    s2 = moments.variance
    inner = mu4 - s2 * s2 * (n - 3.0) / (n - 1.0)
    return math.sqrt(max(inner, 0.0) / n)


def standardize_counts(counts, K, center=None):
    """Counts centered (sample mean by default) and scaled by sqrt(pi K)."""
    x = np.asarray(counts, dtype=float)
    c = float(x.mean()) if center is None else float(center)
    return (x - c) / math.sqrt(math.pi * K)


def _anderson_darling(z, scale):
    from scipy import stats  # deferred: the import costs most of start-up

    z = np.sort(z) / scale
    n = z.size
    cdf = stats.norm.cdf(z)
    cdf = np.clip(cdf, 1e-300, 1.0 - 1e-16)
    i = np.arange(1, n + 1)
    return float(-n - np.mean((2 * i - 1) * (np.log(cdf) + np.log(1.0 - cdf[::-1]))))


def clt_test(counts, K, variance_source="empirical", chaos_value=None, center=None) -> NormalityReport:
    """Normality verdict for standardized zero counts.

    Standardizes by (x - center)/sqrt(pi K) (sample-mean centering unless an
    explicit center, e.g. a Rice mean, is supplied), then runs a
    Kolmogorov-Smirnov test against N(0, v) with v either the empirical
    variance of the standardized sample or a supplied chaos constant.
    """
    from scipy import stats  # deferred: the import costs most of start-up

    x = np.asarray(counts, dtype=float)
    if x.size < 500:
        raise UsageError("normality verdict needs at least 500 replicates")
    z = standardize_counts(x, K, center=center)
    if variance_source == "empirical":
        v = float(z.var(ddof=1))
        if v <= 0.0:
            raise UsageError("sample is degenerate; no normality verdict")
    elif variance_source == "chaos_constant":
        if chaos_value is None or chaos_value <= 0.0:
            raise UsageError("chaos_constant source needs a positive chaos_value")
        v = float(chaos_value)
    else:
        raise UsageError(f"unknown variance source {variance_source!r}")
    scale = math.sqrt(v)
    ks = stats.kstest(z, "norm", args=(0.0, scale))
    mom = RunningMoments()
    mom.push_batch(z)
    return NormalityReport(
        n=x.size,
        variance_source=variance_source,
        variance_used=v,
        ks_statistic=float(ks.statistic),
        p_value=float(ks.pvalue),
        skewness=mom.skewness,
        excess_kurtosis=mom.excess_kurtosis,
        ad_statistic=_anderson_darling(z, scale),
    )


def _count_chunks(K, ensemble, seed, replicates, intervals, oversample):
    """Counts and warning counts of every replicate, summed over ``intervals``.

    Replicates go in chunks of ``_CHUNK``; returns one (counts, warnings)
    pair of int64 arrays per chunk, in replicate order whatever the worker
    count.
    """

    def work(start):
        stop = min(start + _CHUNK, replicates)
        a, b = draw_coefficient_batch(K, ensemble, seed, range(start, stop))
        counts = warns = 0
        for bounds in intervals:
            c, w = scan_count_batch(a, b, K, bounds, oversample=oversample, rescaled=False)
            counts, warns = counts + c, warns + w
        return counts, warns

    starts = range(0, replicates, _CHUNK)
    nworkers = worker_count()
    if nworkers > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=nworkers) as pool:
            return list(pool.map(work, starts))
    return [work(start) for start in starts]


def _clean_counts(chunks, K):
    """All counts, all warnings and the warning-free counts of ``chunks``.

    Replicates with a tangency warning are left out of the moments; more
    than 0.1% of them raises CampaignError.
    """
    counts = np.concatenate([c for c, _ in chunks])
    warns = np.concatenate([w for _, w in chunks])
    clean = counts[warns == 0]
    excluded = counts.size - clean.size
    if excluded > 0.001 * counts.size:
        raise CampaignError(f"{excluded} of {counts.size} replicates excluded at K={K}")
    return counts, warns, clean


def run_campaign(config: ExperimentConfig) -> CampaignResult:
    """Execute a campaign; deterministic in ``config`` whatever the worker count."""
    config.validate()
    summaries, all_counts, all_warnings = [], [], []
    for K in config.K_list:
        chunks = _count_chunks(
            K,
            config.ensemble,
            config.seed,
            config.replicates,
            [config.interval.bounds_original(K, config.alpha)],
            config.oversample,
        )
        counts, warns, clean = _clean_counts(chunks, K)
        excluded = int(config.replicates - clean.size)
        moments = RunningMoments()
        # chunk-wise accumulation in fixed chunk order
        for c, w in chunks:
            moments.push_batch(c[w == 0])
        mean = moments.mean
        var = moments.variance
        kpi = K * math.pi
        se_var = _se_of_variance(moments)
        normality = None
        if clean.size >= 500 and var > 0.0:
            normality = clt_test(clean, K)
        summaries.append(
            KSummary(
                K=K,
                n_total=config.replicates,
                n_used=int(clean.size),
                n_excluded=excluded,
                mean=mean,
                variance=var,
                var_per_kpi=var / kpi,
                se_mean=math.sqrt(var / clean.size) if clean.size else float("inf"),
                se_var=se_var,
                ci99_var_per_kpi=(
                    (var - _Z_995 * se_var) / kpi,
                    (var + _Z_995 * se_var) / kpi,
                ),
                normality=normality,
            )
        )
        all_counts.append(counts)
        all_warnings.append(warns)
    return CampaignResult(config, summaries, all_counts, all_warnings)


@dataclass(frozen=True)
class WindowChopReport:
    K: int
    alpha: float
    replicates: int
    mean_complement: float
    var_complement: float
    ratio: float  # mean / sqrt(K pi)
    se_ratio: float


def window_chop_check(K, alpha, replicates, seed=0) -> WindowChopReport:
    """Monte Carlo moments of the zero count on the window's complement.

    Counts zeros of cosine-ensemble replicates on [0, edge] and
    [K*pi - edge, K*pi] (rescaled axis, oversample 16) and reports the mean
    divided by sqrt(K pi); the ratio shrinks as K grows.  Replicates with a
    tangency warning on either side are left out of the moments, and more
    than 0.1% of them raises CampaignError, as in a campaign.
    """
    if K < 1:
        raise UsageError(f"degree K must be >= 1, got {K}")
    if replicates < 2:
        raise UsageError("need at least 2 replicates")
    w0, w1 = window_bounds(K, alpha)
    chunks = _count_chunks(K, "cosine", seed, replicates, [(0.0, w0 / K), (w1 / K, math.pi)], 16)
    _, _, clean = _clean_counts(chunks, K)
    mom = RunningMoments()
    mom.push_batch(clean)
    root = math.sqrt(K * math.pi)
    return WindowChopReport(
        K=K,
        alpha=alpha,
        replicates=replicates,
        mean_complement=mom.mean,
        var_complement=mom.variance,
        ratio=mom.mean / root,
        se_ratio=math.sqrt(mom.variance / clean.size) / root,
    )
