"""Command-line front end: campaigns, moment integrals and verdict suites.

Outputs are bit-stable: CSV floats carry 17 significant digits, JSON keys are
sorted, and every simulate run writes a manifest that reproduces the records
exactly when re-fed through --config.

Exit codes: 0 success, 2 usage error, 3 numeric failure, 4 IO failure.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from .chaos_variance import total_variance_constant
from .covariance import kernel_bounds_check
from .errors import CampaignError, NumericError, UsageError
from .experiments import (
    ExperimentConfig,
    IntervalSpec,
    run_campaign,
    standardize_counts,
)
from .rice import RiceResult, rice_mean, rice_second_moment
from .zeros import oracle_agreement

_EXIT_NUMERIC = 3
_EXIT_IO = 4


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _parse_pi_token(tok: str) -> float:
    tok = tok.strip().lower()
    if tok.endswith("pi"):
        head = tok[:-2]
        mult = 1.0 if head in ("", "+") else float(head)
        return mult * math.pi
    return float(tok)


def parse_interval(text: str) -> IntervalSpec:
    """Parse '0:pi', '0:2pi', general 'a:b' (units of pi allowed), or 'window'."""
    text = text.strip().lower()
    if text == "window":
        return IntervalSpec("window")
    if ":" not in text:
        raise UsageError(f"bad interval {text!r}; expected 'lo:hi' or 'window'")
    lo_s, hi_s = text.split(":", 1)
    try:
        lo, hi = _parse_pi_token(lo_s), _parse_pi_token(hi_s)
    except ValueError as exc:
        raise UsageError(f"bad interval {text!r}: {exc}") from None
    if not 0.0 <= lo < hi <= 2.0 * math.pi + 1e-12:
        raise UsageError("interval must satisfy 0 <= lo < hi <= 2pi")
    return IntervalSpec("original", lo, hi)


def _interval_text(spec: IntervalSpec) -> str:
    """Text that parse_interval turns back into the same floats: the short pi form where it does."""
    if spec.kind == "window":
        return "window"

    def token(x):
        short = f"{x / math.pi:g}pi"
        return short if _parse_pi_token(short) == x else repr(float(x))

    return f"{token(spec.lo)}:{token(spec.hi)}"


def _finite(obj):
    """``obj`` with every non-finite float replaced by None, which JSON writes as null."""
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _dump_json(obj, path=None):
    text = json.dumps(_finite(obj), indent=2, sort_keys=True)
    if path is None:
        click.echo(text)
    else:
        Path(path).write_text(text + "\n", encoding="utf-8")


@contextlib.contextmanager
def _bundle(outdir):
    """Yield ``path(name)`` for files under ``outdir``; an IO failure inside
    the block removes every file it named, so it leaves no partial output."""
    outdir = Path(outdir)
    written = []

    def path(name):
        outdir.mkdir(parents=True, exist_ok=True)
        written.append(outdir / name)
        return written[-1]

    try:
        yield path
    except OSError:
        for p in written:
            try:
                p.unlink(missing_ok=True)
            except OSError:
                pass
        raise


def _guarded(fn):
    @functools.wraps(fn)
    def runner(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (UsageError,) as exc:
            raise click.UsageError(str(exc))
        except (NumericError, CampaignError) as exc:
            click.echo(f"numeric failure: {exc}", err=True)
            sys.exit(_EXIT_NUMERIC)
        except OSError as exc:
            click.echo(f"io failure: {exc}", err=True)
            sys.exit(_EXIT_IO)

    return runner


@click.group()
@click.version_option(__version__)
def main():
    """Zero statistics of random cosine polynomials."""


def _write_csv(path, header, lines):
    """Write ``header`` and then ``lines``, each line already ending in a newline."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        fh.writelines(lines)


def _write_records_csv(path, result):
    """One row per replicate and degree, from the campaign's count arrays."""
    seed = result.config.seed
    _write_csv(path, "replicate,K,seed,count,method,warnings", (
        f"{i},{K},{seed},{c},scan_bisect,{w}\n"
        for K, counts, warns in zip(result.config.K_list, result.counts, result.warnings)
        for i, (c, w) in enumerate(zip(counts.tolist(), warns.tolist()))
    ))


def _summary_payload(result):
    return {
        "version": __version__,
        "per_K": [dataclasses.asdict(row) for row in result.summaries],
        "exclusion_fraction": result.exclusion_fraction,
    }


def _manifest_payload(cfg: ExperimentConfig):
    return {
        "command": "simulate",
        "version": __version__,
        "config": {
            "K": list(cfg.K_list),
            "reps": cfg.replicates,
            "seed": cfg.seed,
            "interval": _interval_text(cfg.interval),
            "alpha": cfg.alpha,
            "ensemble": cfg.ensemble,
            "oversample": cfg.oversample,
        },
    }


def config_from_manifest(doc) -> ExperimentConfig:
    c = doc["config"]
    # int() would read "12" as the degrees 1 and 2, 7.9 as 7, true as 1 and "40" as 40
    if not (isinstance(c["K"], list) and all(type(k) is int for k in c["K"])):
        raise TypeError(f"K must be a list of integers, not {c['K']!r}")
    kinds = {"reps": (int,), "seed": (int,), "oversample": (int,), "interval": (str,), "alpha": (int, float)}
    for key, allowed in kinds.items():
        if key in c and type(c[key]) not in allowed:  # type(), not isinstance: true is not 1
            raise TypeError(f"{key} has the wrong type: {c[key]!r}")
    return ExperimentConfig(
        K_list=tuple(c["K"]),
        replicates=c["reps"],
        interval=parse_interval(c["interval"]),
        alpha=float(c["alpha"]),
        seed=c["seed"],
        # manifests written before these fields existed take the defaults
        **{k: cast(c[k]) for k, cast in (("ensemble", str), ("oversample", int)) if k in c},
    )


@main.command()
@click.option("--K", "k_values", type=int, multiple=True, help="degree (repeatable)")
@click.option("--reps", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--interval", "interval_text", default=None, help="0:pi | 0:2pi | a:b | window")
@click.option("--alpha", type=float, default=None, help="window exponent in (0, 1/2)")
@click.option("--ensemble", type=click.Choice(["cosine", "stationary"]), default=None)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None,
              help="manifest JSON; explicit flags override its fields")
@click.option("--out", "outdir", type=click.Path(), required=True)
@_guarded
def simulate(k_values, reps, seed, interval_text, alpha, ensemble, config_path, outdir):
    """Run a zero-count campaign; write records CSV, summary and manifest."""
    if config_path is not None:
        try:
            base = config_from_manifest(json.loads(Path(config_path).read_text(encoding="utf-8")))
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"malformed manifest {config_path}: {type(exc).__name__}: {exc}") from None
    elif k_values:
        base = ExperimentConfig(K_list=tuple(k_values))
    else:
        raise UsageError("at least one --K is required")
    given = {
        "K_list": tuple(k_values) or None,
        "replicates": reps,
        "interval": parse_interval(interval_text) if interval_text else None,
        "alpha": alpha,
        "seed": seed,
        "ensemble": ensemble,
    }
    cfg = dataclasses.replace(base, **{k: v for k, v in given.items() if v is not None})
    with _bundle(outdir) as path:
        result = run_campaign(cfg)
        _write_records_csv(path("records.csv"), result)
        _dump_json(_summary_payload(result), path("summary.json"))
        _dump_json(_manifest_payload(cfg), path("manifest.json"))
    click.echo(f"wrote {sum(c.size for c in result.counts)} records to {Path(outdir)}")


def _mean_original_axis(K, lo, hi):
    """Zero-count mean over an original-axis interval within [0, 2*pi], on the rescaled axis.

    Intervals reaching past pi are folded through the cosine symmetry
    t <-> 2*pi - t, under which the zero set is invariant.
    """
    value = err = 0.0
    # the part on [0, pi] and the mirror of the part past pi; either may be empty
    for a, b in ((lo, min(hi, math.pi)), (2.0 * math.pi - hi, min(2.0 * math.pi - lo, math.pi))):
        if a < b:
            res = rice_mean(K, interval=(a * K, b * K))
            value += res.value
            err += res.quadrature_error_estimate
    return RiceResult(value, (lo * K, hi * K), err, K)


@main.command()
@click.option("--K", "k_value", type=int, required=True)
@click.option("--moment", type=int, default=1)
@click.option("--interval", "interval_text", default=None,
              help="0:pi | 0:2pi | a:b | window [default: 0:pi for --moment 1, window for 2]")
@click.option("--alpha", type=float, default=0.25)
@_guarded
def rice(k_value, moment, interval_text, alpha):
    """Print a Rice moment integral as JSON."""
    if moment not in (1, 2):
        raise UsageError("--moment must be 1 or 2")
    if interval_text is None:
        interval_text = "0:pi" if moment == 1 else "window"
    spec = parse_interval(interval_text)
    if moment == 2:
        interval = None if spec.kind == "window" else (spec.lo * k_value, spec.hi * k_value)
        res = rice_second_moment(k_value, alpha=alpha, interval=interval)
    elif spec.kind == "window":
        res = rice_mean(k_value, alpha=alpha)
    else:
        res = _mean_original_axis(k_value, spec.lo, spec.hi)
    _dump_json(
        {
            "K": res.K,
            "moment": moment,
            "interval_rescaled": res.interval,
            "value": res.value,
            "error_estimate": res.quadrature_error_estimate,
        }
    )


@main.command("chaos-var")
@click.option("--qmax", type=int, default=20)
@click.option("--tail", type=float, default=1e4)
@click.option("--out", "outdir", type=click.Path(), default=None)
@_guarded
def chaos_var(qmax, tail, outdir):
    """Per-order variance constants and their total, as JSON (and CSV)."""
    vc = total_variance_constant(q_max=qmax, tail=tail)
    if outdir is not None:
        with _bundle(outdir) as path:
            _write_csv(path("chaos_terms.csv"), "q,sigma_sq,quadrature_error", (
                f"{t.q},{_fmt(t.sigma_sq)},{_fmt(t.quadrature_error)}\n" for t in vc.terms
            ))
    _dump_json(dataclasses.asdict(vc) | {"qmax": qmax, "tail": tail})


@main.command()
@click.option("--K", "k_value", type=int, required=True)
@click.option("--reps", type=int, required=True)
@click.option("--seed", type=int, default=0)
@click.option("--out", "outdir", type=click.Path(), required=True)
@_guarded
def clt(k_value, reps, seed, outdir):
    """Normality report for standardized zero counts, plus plot data."""
    if reps < 500:
        raise UsageError("--reps must be at least 500")
    result = run_campaign(ExperimentConfig(K_list=(k_value,), replicates=reps, seed=seed))
    report = result.summaries[0].normality
    if report is None:
        raise UsageError("sample is degenerate; no normality verdict")
    counts = result.counts[0][result.warnings[0] == 0]
    z = standardize_counts(counts, k_value)
    with _bundle(outdir) as path:
        _dump_json(dataclasses.asdict(report), path("report.json"))
        _write_csv(path("standardized.csv"), "standardized", (_fmt(val) + "\n" for val in z))
        edges = np.linspace(-5.0, 5.0, 52)
        clipped = np.clip(z, -5.0 + 1e-12, 5.0 - 1e-12)
        hist, _ = np.histogram(clipped, bins=edges)
        _write_csv(path("histogram.csv"), "bin_lo,bin_hi,count", (
            f"{_fmt(edges[i])},{_fmt(edges[i + 1])},{int(hist[i])}\n" for i in range(51)
        ))
    _dump_json(dataclasses.asdict(report))


@main.command("oracle-check")
@click.option("--K", "k_values", type=int, multiple=True, default=(5, 10, 20))
@click.option("--reps", type=int, default=200)
@click.option("--seed", type=int, default=0)
@_guarded
def oracle_check(k_values, reps, seed):
    """Cross-validate the scan counter against the eigenvalue oracle."""
    report = oracle_agreement(k_values, reps, seed)
    _dump_json(report)
    if not report["passed"]:
        sys.exit(_EXIT_NUMERIC)


@main.command("bounds-check")
@click.option("--K", "k_values", type=int, multiple=True, default=(10, 50, 500))
@click.option("--points", type=int, default=400)
@_guarded
def bounds_check(k_values, points):
    """Check the lag-covariance decay inequalities on log-spaced grids."""
    if points < 1 or min(k_values) < 1:
        raise UsageError("--K and --points must be at least 1")
    reports = [kernel_bounds_check(K, np.geomspace(0.05, K * math.pi, points)) for K in k_values]
    _dump_json([dataclasses.asdict(rep) for rep in reports])
    if not all(rep.passed for rep in reports):
        sys.exit(_EXIT_NUMERIC)


if __name__ == "__main__":
    main()
