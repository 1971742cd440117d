"""The benchmark's workloads, how one operation runs, and its output checks.

One operation runs a workload's CLI command(s) in-process through
``trigzero.cli.main(args, standalone_mode=False)``.  Its output is the bytes
the commands produce: the files ``simulate`` writes, or the JSON the other
commands print.  The checks below hold for any seed; the stored values they
compare against live in ``reference.json`` (see ``make_reference.py``).

Sizes are scaled from the paper-scale commands so that one operation takes
about 0.5 to 2.5 s on one thread and a run can report a median of
several.  Each workload keeps the degrees K and the layer mix of the
command it stands for.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

ORACLE_SAMPLE = 16  # replicates of mc_small_k re-counted by the eigen oracle
MEAN_SE_BOUND = 4.0  # criterion 1's bound on |MC mean - Rice mean| in SE units
CHAOS_BAND = (0.084, 0.094)  # criterion 4


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple  # argument lists; "{seed}" is replaced by the run's seed
    warmup: tuple  # tiny commands that finish lazy imports and caches
    replicates: int  # units behind replicates_per_s; 0 where there are none


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mc_small_k",
            "K=100 campaign: per-replicate overhead (Philox draws, per-row scan loop) dominates, grid evaluation is cheap",
            (("simulate", "--K", "100", "--reps", "2048", "--interval", "0:pi", "--seed", "{seed}"),),
            (("simulate", "--K", "8", "--reps", "4", "--interval", "0:pi"),),
            2048,
        ),
        Workload(
            "mc_large_k",
            "K=1600 campaign: grid evaluation and region refinement dominate, draws are ~3%; mirror of mc_small_k",
            (("simulate", "--K", "1600", "--reps", "512", "--interval", "0:0.5pi", "--seed", "{seed}"),),
            (("simulate", "--K", "8", "--reps", "4", "--interval", "0:pi"),),
            512,
        ),
        Workload(
            "rice_moments",
            "Rice mean at K=1600 (few lags, long sums) and second moment at K=30 (many lags, short sums); only user of c_k_derivs",
            (
                ("rice", "--K", "1600", "--moment", "1", "--interval", "0:0.25pi"),
                ("rice", "--K", "30", "--moment", "2", "--interval", "0.2pi:0.75pi"),
            ),
            (
                ("rice", "--K", "4", "--moment", "1"),
                ("rice", "--K", "4", "--moment", "2", "--interval", "window"),
            ),
            0,
        ),
        Workload(
            "chaos_var",
            "chaos sum to order 8: mehler_product_grid is ~98% of the time; only user of hermite and chaos_variance",
            (("chaos-var", "--qmax", "8", "--tail", "10000"),),
            (("chaos-var", "--qmax", "2", "--tail", "100"),),
            0,
        ),
    )
}


def command_args(args, seed, outdir):
    """Concrete argument list for one command of an operation."""
    out = [a.replace("{seed}", str(seed)) for a in args]
    if out[0] == "simulate":
        out += ["--out", str(outdir)]
    return out


def run_command(cli, args):
    """Run one CLI command in-process; returns what it printed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(list(args), standalone_mode=False)
    return buf.getvalue()


def failure_types():
    """Exceptions that make an operation count as failed, not crash the run.

    ``_guarded`` turns trigzero's UsageError into click's, and exits on
    numeric and campaign errors; the package's own types are listed too in
    case a command raises them unguarded.
    """
    import click
    from trigzero.errors import CampaignError, NumericError, UsageError

    return (click.ClickException, UsageError, NumericError, CampaignError, SystemExit)


def collect_output(args, printed, outdir):
    """The bytes one command produced, as (name, bytes) pairs."""
    if args[0] == "simulate":
        return [
            (name, (Path(outdir) / name).read_bytes())
            for name in ("records.csv", "summary.json", "manifest.json")
        ]
    return [(args[0], printed.encode("utf-8"))]


def digest(output) -> str:
    h = hashlib.sha256()
    for name, blob in output:
        h.update(name.encode() + b"\0" + hashlib.sha256(blob).digest())
    return h.hexdigest()


# --- checks: each returns a list of failure messages, empty when correct ---


def _records(blob):
    return list(csv.DictReader(io.StringIO(blob.decode("utf-8"))))


def _check_campaign_shape(name, files, seed, ref):
    problems = []
    reps = WORKLOADS[name].replicates
    records = _records(files["records.csv"])
    if len(records) != reps:
        problems.append(f"{name}: {len(records)} records, expected {reps}")
    if seed == 0:
        for fname, want in ref["seed0_sha256"].items():
            got = hashlib.sha256(files[fname]).hexdigest()
            if got != want:
                problems.append(f"{name}: {fname} sha256 {got[:12]} != stored {want[:12]} at seed 0")
    return problems, records


def check_mc_small_k(output, seed, ref):
    from trigzero.sampling import draw_coefficients
    from trigzero.zeros import count_zeros_eigen

    files = dict(output)
    problems, records = _check_campaign_shape("mc_small_k", files, seed, ref)
    step = max(len(records) // ORACLE_SAMPLE, 1)
    for row in records[::step][:ORACLE_SAMPLE]:
        if int(row["warnings"]):
            continue  # a tangency bracket is counted by policy, not by the oracle
        idx, K = int(row["replicate"]), int(row["K"])
        eig = count_zeros_eigen(draw_coefficients(K, "cosine", seed, idx), (0.0, math.pi))
        if eig.count != int(row["count"]):
            problems.append(f"mc_small_k: replicate {idx} scan {row['count']} != eigen {eig.count}")
    return problems


def check_mc_large_k(output, seed, ref):
    files = dict(output)
    problems, _ = _check_campaign_shape("mc_large_k", files, seed, ref)
    row = json.loads(files["summary.json"])["per_K"][0]
    gap = abs(row["mean"] - ref["rice_mean"]) / row["se_mean"]
    if not gap < MEAN_SE_BOUND:
        problems.append(f"mc_large_k: mean {row['mean']:.4f} is {gap:.2f} SE from Rice {ref['rice_mean']:.4f}")
    return problems


def check_rice_moments(output, seed, ref):
    problems = []
    if len(output) != len(ref["results"]):
        return [f"rice_moments: {len(output)} results, expected {len(ref['results'])}"]
    for (_, blob), want in zip(output, ref["results"]):
        got = json.loads(blob)
        allowed = got["error_estimate"] + want["error_estimate"]
        if not abs(got["value"] - want["value"]) <= allowed:
            problems.append(
                f"rice_moments: K={got['K']} moment {got['moment']} value {got['value']!r} "
                f"differs from reference {want['value']!r} by more than {allowed:.3g}"
            )
    return problems


def check_chaos_var(output, seed, ref):
    got = json.loads(output[0][1])
    problems = []
    lo, hi = CHAOS_BAND
    if not lo <= got["total"] <= hi:
        problems.append(f"chaos_var: total {got['total']!r} outside [{lo}, {hi}]")
    terms = {str(t["q"]): t for t in got["terms"]}
    if sorted(terms) != sorted(ref["sigma_sq"]):
        problems.append(f"chaos_var: orders {sorted(terms)} != reference {sorted(ref['sigma_sq'])}")
    for q, want in ref["sigma_sq"].items():
        t = terms.get(q)
        if t is not None and not abs(t["sigma_sq"] - want) <= t["quadrature_error"]:
            problems.append(f"chaos_var: sigma_{q}^2 {t['sigma_sq']!r} off reference {want!r}")
    return problems


CHECKS = {
    "mc_small_k": check_mc_small_k,
    "mc_large_k": check_mc_large_k,
    "rice_moments": check_rice_moments,
    "chaos_var": check_chaos_var,
}
