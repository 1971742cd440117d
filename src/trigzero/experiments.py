"""Monte Carlo campaigns over zero counts and their statistical verdicts.

A campaign draws replicates, counts zeros with the scan method, and reduces
the counts to their moments.  Its result holds one int64 array of counts and
one of tangency warnings per degree, in replicate order.  One engine counts
and one tally reduces every campaign and the window-chop check: replicates
are processed in fixed-size chunks whose contents do not depend on the worker
count, and ``_tally`` folds ``_moments`` of each chunk's warning-free counts
in replicate order by ``_merge``, so counts and summaries are bit-identical
however the work is scheduled.  Parallelism is capped by the TRIGZERO_THREADS environment
variable (0 or unset means automatic; never more than the core count).

Every rule on a request lives in ``ExperimentConfig.validate``, which puts each field through its
rule in ``errors`` and returns each degree's bounds: both ``run_campaign`` and
``window_chop_check`` scan them, so they refuse alike before any draw.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import CampaignError, UsageError, require_choice, require_degrees, require_int
from .errors import require_interval, require_real
from .rice import window_bounds
from .sampling import ENSEMBLES, REPLICATE_LIMIT, draw_coefficient_batch
from .zeros import OVERSAMPLE, scan_count_batch

_CHUNK = 256
_Z_995 = 2.575829303548901  # 99% two-sided normal quantile
NORMALITY_MIN_REPLICATES = 500  # fewest replicates a normality verdict is made on
# a 256-row chunk's scan holds about 29 KiB per unit of K, ~470 MiB per worker at this cap
MAX_DEGREE = 1 << 14


def worker_count() -> int:
    """Campaign threads: TRIGZERO_THREADS if positive, else automatic.

    0, blank or unset means automatic; a positive value is clamped to the
    core count; anything but a non-negative integer is a UsageError.
    """
    env = os.environ.get("TRIGZERO_THREADS", "").strip() or "0"
    if not env.isdecimal():
        raise UsageError(f"TRIGZERO_THREADS must be a non-negative integer, got {env!r}")
    n, cores = int(env), os.cpu_count() or 1
    return min(n, cores) if n > 0 else min(cores, 8)


@dataclass(frozen=True)
class IntervalSpec:
    """Counting interval: explicit bounds on one axis, or the alpha-window."""

    kind: str  # "original" | "window"
    lo: float | None = None
    hi: float | None = None

    def bounds_original(self, K: int, alpha: float):
        """Bounds on the original [0, 2*pi) axis for degree K."""
        require_choice("kind", self.kind, ("original", "window"))
        if self.kind == "original":
            return require_interval((self.lo, self.hi))
        w0, w1 = window_bounds(K, alpha)
        return w0 / K, w1 / K


@dataclass(frozen=True)
class ExperimentConfig:
    K_list: tuple
    replicates: int = 1000
    interval: IntervalSpec = IntervalSpec("original", 0.0, math.pi)
    alpha: float = 0.25
    seed: int = 0
    ensemble: str = "cosine"

    def validate(self):
        """Refuse a malformed request; return each degree's bounds on the original axis."""
        require_int("replicates (56-bit indices)", self.replicates, 2, REPLICATE_LIMIT)
        require_int("seed", self.seed, 0, (1 << 64) - 1)
        require_choice("ensemble", self.ensemble, ENSEMBLES)
        alpha = require_real("alpha", self.alpha, 0.0, 0.5, open=True)
        require_degrees("degree K", self.K_list, MAX_DEGREE)
        if not isinstance(self.interval, IntervalSpec):
            raise UsageError(f"interval must be an IntervalSpec, got {self.interval!r}")
        if len(set(self.K_list)) < len(self.K_list):
            raise UsageError("each degree may be given only once")
        return [self.interval.bounds_original(K, alpha) for K in self.K_list]


def _moments(x):
    """(n, mean, m2, m3, m4) of one batch: its size, mean and central power sums."""
    x = np.asarray(x, dtype=float)
    if not x.size:
        return 0, 0.0, 0.0, 0.0, 0.0
    mean = float(x.mean())
    d = x - mean
    return x.size, mean, float(np.sum(d * d)), float(np.sum(d ** 3)), float(np.sum(d ** 4))


def _merge(p, q):
    """``_moments`` of two batches together (Chan, Golub and LeVeque's pairwise update)."""
    na, mean_a, m2a, m3a, m4a = p
    nb, mean_b, m2b, m3b, m4b = q
    if nb == 0:
        return p
    if na == 0:
        return q
    n = na + nb
    d = mean_b - mean_a
    d2 = d * d
    m3 = (
        m3a
        + m3b
        + d ** 3 * na * nb * (na - nb) / (n * n)
        + 3.0 * d * (na * m2b - nb * m2a) / n
    )
    m4 = (
        m4a
        + m4b
        + d2 * d2 * na * nb * (na * na - na * nb + nb * nb) / (n ** 3)
        + 6.0 * d2 * (na * na * m2b + nb * nb * m2a) / (n * n)
        + 4.0 * d * (na * m3b - nb * m3a) / n
    )
    return n, mean_a + d * nb / n, m2a + m2b + d2 * na * nb / n, m3, m4


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


def standardize_counts(counts, K, center=None):
    """Counts centered (sample mean by default) and scaled by sqrt(pi K)."""
    require_int("degree K", K, 1)
    x = np.asarray(counts, dtype=float)
    c = float(x.mean()) if center is None else require_real("center", center)
    return (x - c) / math.sqrt(math.pi * K)


def _anderson_darling(z, scale):
    from scipy import stats  # deferred: the import costs most of start-up

    z = np.sort(z) / scale
    n = z.size
    cdf = stats.norm.cdf(z)
    cdf = np.clip(cdf, 1e-300, 1.0 - 1e-16)
    i = np.arange(1, n + 1)
    return float(-n - np.mean((2 * i - 1) * (np.log(cdf) + np.log(1.0 - cdf[::-1]))))


def clt_test(counts, K, variance=None, center=None) -> NormalityReport:
    """Normality verdict for standardized zero counts.

    Standardizes by (x - center)/sqrt(pi K), centering on the sample mean
    unless ``center`` (e.g. a Rice mean) is given, then runs a
    Kolmogorov-Smirnov test against N(0, v).  ``variance=None`` takes v as the
    empirical variance of the standardized sample (reported as
    ``"empirical"``); a number is a fixed null variance, e.g. a chaos
    constant, which must be finite and positive (``"chaos_constant"``).
    """
    from scipy import stats  # deferred: the import costs most of start-up

    x = np.asarray(counts, dtype=float)
    if x.size < NORMALITY_MIN_REPLICATES:
        raise UsageError(f"normality verdict needs at least {NORMALITY_MIN_REPLICATES} replicates")
    z = standardize_counts(x, K, center=center)
    n, _, m2, m3, m4 = _moments(z)
    if variance is not None:
        v = require_real("null variance", variance, 0.0, math.inf, open=True)
    elif not 0.0 < (v := m2 / (n - 1)) < math.inf:  # also rejects nan
        raise UsageError("sample is degenerate; no normality verdict")
    scale = math.sqrt(v)
    ks = stats.kstest(z, "norm", args=(0.0, scale))
    return NormalityReport(
        n=n,
        variance_source="empirical" if variance is None else "chaos_constant",
        variance_used=v,
        ks_statistic=float(ks.statistic),
        p_value=float(ks.pvalue),
        skewness=(m3 / n) / (m2 / n) ** 1.5 if m2 > 0.0 else 0.0,
        excess_kurtosis=(m4 / n) / (m2 / n) ** 2 - 3.0 if m2 > 0.0 else 0.0,
        ad_statistic=_anderson_darling(z, scale),
    )


def _count_chunks(K, ensemble, seed, replicates, intervals):
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
            c, w = scan_count_batch(a, b, K, bounds, oversample=OVERSAMPLE, rescaled=False)
            counts, warns = counts + c, warns + w
        return counts, warns

    starts = range(0, replicates, _CHUNK)
    nworkers = worker_count()
    if nworkers > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=nworkers) as pool:
            return list(pool.map(work, starts))
    return [work(start) for start in starts]


def _tally(chunks, K):
    """All counts and warnings of ``chunks``, and the moments of the warning-free counts.

    The moments are ``_moments`` of each chunk's warning-free counts, folded in
    replicate order by ``_merge``, so they do not depend on the worker count.
    Replicates with a tangency warning are left out of them; more than 0.1%
    of them raises CampaignError.
    """
    counts = np.concatenate([c for c, _ in chunks])
    warns = np.concatenate([w for _, w in chunks])
    moments = reduce(_merge, (_moments(c[w == 0]) for c, w in chunks))
    excluded = counts.size - moments[0]
    if excluded > 0.001 * counts.size:
        raise CampaignError(f"{excluded} of {counts.size} replicates excluded at K={K}")
    return counts, warns, moments


def run_campaign(config: ExperimentConfig) -> CampaignResult:
    """Execute a campaign; deterministic in ``config`` whatever the worker count."""
    summaries, all_counts, all_warnings = [], [], []
    for K, bounds in zip(config.K_list, config.validate()):
        chunks = _count_chunks(K, config.ensemble, config.seed, config.replicates, [bounds])
        counts, warns, (n, mean, m2, _, m4) = _tally(chunks, K)  # the cap leaves n >= 2
        var = m2 / (n - 1)
        kpi = K * math.pi
        se_var = float("inf")  # moment-based standard error of the sample variance
        if n >= 4 and m2 > 0.0:
            se_var = math.sqrt(max(m4 / n - var * var * (n - 3.0) / (n - 1.0), 0.0) / n)
        normality = None
        if n >= NORMALITY_MIN_REPLICATES and var > 0.0:
            normality = clt_test(counts[warns == 0], K)
        summaries.append(
            KSummary(
                K=K,
                n_total=config.replicates,
                n_used=n,
                n_excluded=config.replicates - n,
                mean=mean,
                variance=var,
                var_per_kpi=var / kpi,
                se_mean=math.sqrt(var / n),
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
    [K*pi - edge, K*pi] on the rescaled axis (scanned on the original axis
    at OVERSAMPLE, like every count) and reports the mean divided by
    sqrt(K pi); the ratio shrinks as K grows.  Its moments are the
    campaign's tally: the replicate-order fold of each chunk's moments, with
    replicates that carry a tangency warning on either side left out, and
    more than 0.1% of them raising CampaignError.  The request is
    validated as the campaign config of the alpha-window, whose ends the
    tails stop at.
    """
    config = ExperimentConfig((K,), replicates, IntervalSpec("window"), alpha=alpha, seed=seed)
    ((lo, hi),) = config.validate()
    chunks = _count_chunks(K, config.ensemble, seed, replicates, [(0.0, lo), (hi, math.pi)])
    _, _, (n, mean, m2, _, _) = _tally(chunks, K)
    var = m2 / (n - 1)
    root = math.sqrt(K * math.pi)
    return WindowChopReport(
        K=K,
        alpha=alpha,
        replicates=replicates,
        mean_complement=mean,
        var_complement=var,
        ratio=mean / root,
        se_ratio=math.sqrt(var / n) / root,
    )
