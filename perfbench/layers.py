"""Per-layer metrics: which trigzero functions the traced run wraps, and what
it derives from their spans.

Every workload reports every metric; a layer the workload does not reach
reads 0.  ``METRICS`` is the list ``BENCHMARK.json`` declares as ``per_layer``.
Counts (``calls``, ``normals``, ``replicates``, ``lags``, ``points``, ...)
depend only on the inputs and must repeat exactly between traced runs;
times (``*_s``) and ratios do not.
"""

from __future__ import annotations

import inspect
import math

import numpy as np

from spans import self_times

CHAOS_ORDERS = (2, 4, 6, 8)  # the even orders chaos_var computes; odd ones vanish

# (name, unit, better).  "computed" counts come from argument sizes, not from
# the program.
METRICS = [
    ("sampling.draw.calls", "count", "lower"),
    ("sampling.draw.busy_s", "s", "lower"),
    ("sampling.draw.normals", "count", "lower"),
    ("zeros.scan.calls", "count", "lower"),
    ("zeros.scan.busy_s", "s", "lower"),
    ("zeros.scan.replicates", "count", "lower"),
    ("zeros.scan.tangencies", "count", "lower"),
    ("zeros.scan.chunk_p50_s", "s", "lower"),
    ("zeros.scan.chunk_p75_s", "s", "lower"),
    ("zeros.scan.grid_points", "count", "lower"),
    ("zeros.scan.eval_flops", "flop", "lower"),
    ("experiments.campaign.busy_s", "s", "lower"),
    ("experiments.campaign.self_s", "s", "lower"),
    ("experiments.campaign.parallelism", "ratio", "higher"),
    ("experiments.campaign.speedup", "ratio", "higher"),
    ("experiments.clt.busy_s", "s", "lower"),
    ("experiments.exclusion_frac", "ratio", "lower"),
    ("cli.simulate.self_s", "s", "lower"),
    ("cli.simulate.bytes_written", "B", "lower"),
    ("covariance.c_k_derivs.calls", "count", "lower"),
    ("covariance.c_k_derivs.busy_s", "s", "lower"),
    ("covariance.c_k_derivs.lags", "count", "lower"),
    ("covariance.c_k_derivs.lag_terms", "count", "lower"),
    ("rice.mean.busy_s", "s", "lower"),
    ("rice.mean.self_s", "s", "lower"),
    ("rice.mean.integrand_calls", "count", "lower"),
    ("rice.second.busy_s", "s", "lower"),
    ("rice.second.self_s", "s", "lower"),
    ("hermite.mehler_grid.calls", "count", "lower"),
    ("hermite.mehler_grid.busy_s", "s", "lower"),
    ("hermite.mehler_grid.points", "count", "lower"),
    *[(f"chaos_variance.sigma_q.q{q:02d}.busy_s", "s", "lower") for q in CHAOS_ORDERS],
    ("chaos_variance.total.self_s", "s", "lower"),
    ("chaos_variance.series_tail_share", "ratio", "lower"),
    ("trace_overhead_s", "s", "lower"),
]

# Metrics that must repeat exactly between two traced runs of one seed.
COUNTS = [
    name
    for name, unit, _ in METRICS
    if unit in ("count", "flop", "B")
]


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def install(tracer, tz):
    """Wrap the module-boundary functions of the trigzero package ``tz``.

    Each name is rebound in the module that looks it up at call time.
    """
    cli, experiments, rice = tz.cli, tz.experiments, tz.rice
    chaos_variance = tz.chaos_variance
    scan_fn = experiments.scan_count_batch

    def draw_batch(args, kwargs, result):
        a, b = result
        return {"normals": a.size + (b.size if b is not None else 0)}

    def scan(args, kwargs, result):
        p = _bound(scan_fn, args, kwargs)
        a, b, K = p["a"], p["b"], int(p["K"])
        lo, hi = (float(x) for x in p["interval"])
        period = 2.0 * math.pi * (K if p["rescaled"] else 1.0)
        # grid size as _grid_cells computes it: oversample * 2K cells per period
        cells = max(int(math.ceil(p["oversample"] * 2.0 * K * (hi - lo) / period)), 16)
        B = a.shape[0]
        terms = 2 if b is not None else 1
        return {
            "replicates": B,
            "tangencies": int(np.sum(result[1])),
            "grid_points": B * (cells + 1),
            "eval_flops": 2 * terms * B * (cells + 1) * K,
        }

    def campaign(args, kwargs, result):
        return {"exclusion_frac": result.exclusion_fraction}

    def lags(args, kwargs, result):
        n = int(np.size(args[1] if len(args) > 1 else kwargs["tau"]))
        K = int(args[0] if args else kwargs["K"])
        return {"lags": n, "lag_terms": n * K}

    def points(args, kwargs, result):
        return {"points": int(np.size(result))}

    def order(args, kwargs, result):
        return {"q": int(args[0] if args else kwargs["q"])}

    def total(args, kwargs, result):
        return {"series_tail_share": result.series_tail / result.total}

    tracer.wrap(experiments, "draw_coefficient_batch", "sampling.draw", draw_batch)
    tracer.wrap(experiments, "scan_count_batch", "zeros.scan", scan)
    tracer.wrap(cli, "run_campaign", "experiments.campaign", campaign)
    tracer.wrap(experiments, "clt_test", "experiments.clt")
    tracer.wrap(rice, "c_k_derivs", "covariance.c_k_derivs", lags)
    tracer.wrap(cli, "rice_mean", "rice.mean")
    tracer.wrap(rice, "zero_intensity", "rice.integrand")
    tracer.wrap(cli, "rice_second_moment", "rice.second")
    tracer.wrap(chaos_variance, "mehler_product_grid", "hermite.mehler_grid", points)
    tracer.wrap(chaos_variance, "sigma_q_squared", "chaos_variance.sigma_q", order)
    tracer.wrap(cli, "total_variance_constant", "chaos_variance.total", total)


def derive(spans, bytes_written=0):
    """Per-layer metrics of one traced operation (without the cross-run ones).

    ``speedup`` and ``trace_overhead_s`` need two operations; the caller
    fills them in.
    """
    selfs = self_times(spans)
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def group(name):
        return by_name.get(name, [])

    def busy(name):
        return float(sum(s.duration for s in group(name)))

    def own(name):
        return float(sum(selfs[s.sid] for s in group(name)))

    def total(name, key):
        return sum(s.attrs.get(key, 0) for s in group(name))

    m = {}
    for layer in ("sampling.draw", "zeros.scan", "covariance.c_k_derivs", "hermite.mehler_grid"):
        m[f"{layer}.calls"] = len(group(layer))
        m[f"{layer}.busy_s"] = busy(layer)
    m["sampling.draw.normals"] = total("sampling.draw", "normals")
    for key in ("replicates", "tangencies", "grid_points", "eval_flops"):
        m[f"zeros.scan.{key}"] = total("zeros.scan", key)
    chunk = [s.duration for s in group("zeros.scan")] or [0.0]
    m["zeros.scan.chunk_p50_s"] = float(np.percentile(chunk, 50))
    m["zeros.scan.chunk_p75_s"] = float(np.percentile(chunk, 75))

    campaigns = group("experiments.campaign")
    m["experiments.campaign.busy_s"] = busy("experiments.campaign")
    m["experiments.campaign.self_s"] = own("experiments.campaign")
    child_busy = sum(
        s.duration for s in spans if s.parent in {c.sid for c in campaigns}
    )
    wall = m["experiments.campaign.busy_s"]
    m["experiments.campaign.parallelism"] = child_busy / wall if wall > 0 else 0.0
    m["experiments.clt.busy_s"] = busy("experiments.clt")
    m["experiments.exclusion_frac"] = max(
        [s.attrs.get("exclusion_frac", 0.0) for s in campaigns], default=0.0
    )
    m["cli.simulate.self_s"] = own("cli.simulate")
    m["cli.simulate.bytes_written"] = bytes_written

    m["covariance.c_k_derivs.lags"] = total("covariance.c_k_derivs", "lags")
    m["covariance.c_k_derivs.lag_terms"] = total("covariance.c_k_derivs", "lag_terms")
    for short, name in (("mean", "rice.mean"), ("second", "rice.second")):
        m[f"rice.{short}.busy_s"] = busy(name)
        m[f"rice.{short}.self_s"] = own(name)
    m["rice.mean.integrand_calls"] = len(group("rice.integrand"))

    m["hermite.mehler_grid.points"] = total("hermite.mehler_grid", "points")
    for q in CHAOS_ORDERS:
        m[f"chaos_variance.sigma_q.q{q:02d}.busy_s"] = float(
            sum(s.duration for s in group("chaos_variance.sigma_q") if s.attrs.get("q") == q)
        )
    m["chaos_variance.total.self_s"] = own("chaos_variance.total")
    m["chaos_variance.series_tail_share"] = max(
        [s.attrs.get("series_tail_share", 0.0) for s in group("chaos_variance.total")], default=0.0
    )
    return m
