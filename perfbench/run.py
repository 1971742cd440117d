"""trigzero benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload mc_small_k --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  Each workload runs in its own fresh
interpreter (``worker.py``).  With ``--trace 0`` the run reports the
end-to-end metrics with tracing off; with ``--trace 1`` it reports the
per-layer metrics of a traced run.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  A full
record (machine, thread layout, samples, messages) goes to
``perfbench/out/result-<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
from layers import METRICS as LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = [
    ("setup_s", "s"),
    ("wall_1w_norm_s", "s"),
    ("peak_rss_mib", "MiB"),
]
SETUP_SAMPLES = 3  # fresh interpreters whose set-up time gives setup_s
DEADLINE_S = 170.0  # a run must end within 180 s


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env():
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    env.pop("TRIGZERO_THREADS", None)  # the worker sets it per operation
    return env


def run_worker(workload, seed, seconds, mode, deadline):
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--mode", mode,
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {mode} for {workload} exceeded the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} for {workload} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {mode} for {workload} printed nothing:\n{proc.stderr}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_workload(name, seed, seconds, trace, deadline):
    """Returns (result JSON object, printable report lines, full record)."""
    wl = WORKLOADS[name]
    if trace:
        rec = run_worker(name, seed, seconds, "trace", deadline)
        metrics = {
            m: {"value": rec["layers"][m], "unit": unit} for m, unit, _ in LAYER_METRICS
        }
    else:
        setups = [
            run_worker(name, seed, seconds, "setup", deadline)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)
        ]
        rec = run_worker(name, seed, seconds, "plain", deadline)
        setups.append(rec["setup_s"])
        rec["setup_samples"] = setups
        wall = rec["samples"]
        cal = statistics.median(rec["calibration_s"])
        # each operation against the calibration timed right after it, so
        # that a slow phase of the machine cancels out
        ratios = [w / c for w, c in zip(wall, rec["calibration_s"])]
        values = {
            "setup_s": statistics.median(setups),
            "wall_1w_norm_s": statistics.median(ratios) * calibrate.REFERENCE_S,
            "peak_rss_mib": rec["peak_rss_mib"],
        }
        metrics = {m: {"value": values[m], "unit": unit} for m, unit in END_TO_END}

    attempted, failed = rec["attempted"], rec["failed"]
    correct = failed == 0 and rec["trace_consistent"] and all(
        math.isfinite(v["value"]) for v in metrics.values()
    )
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}

    lines = [f"== {name} seed={seed} trace={int(trace)}: {wl.why}"]
    if trace:
        for m, unit, _ in LAYER_METRICS:
            lines.append(f"  {m:<40} {rec['layers'][m]:>14.6g} {unit}")
    else:
        lo, hi = quartiles(wall)
        raw = statistics.median(wall)
        lines.append(f"  {'setup_s':<18} {values['setup_s']:>12.4f} s     median of {len(setups)}")
        lines.append(
            f"  {'wall_1w_norm_s':<18} {values['wall_1w_norm_s']:>12.4f} s     median of wall_s / calibration_s "
            f"over {len(ratios)} operations, x {calibrate.REFERENCE_S} s"
        )
        lines.append(
            f"  {'wall_s':<18} {raw:>12.4f} s     median of {len(wall)}, "
            f"quartiles {lo:.4f}..{hi:.4f}, TRIGZERO_THREADS=1"
        )
        lines.append(f"  {'calibration_s':<18} {cal:>12.4f} s     median of {len(rec['calibration_s'])}")
        if wl.replicates:
            rate = f"{wl.replicates / raw:>12.1f} 1/s   {wl.replicates} per operation"
        else:
            rate = f"{'n/a':>12}         no replicates in this workload"
        lines.append(f"  {'replicates_per_s':<18} {rate}")
        lines.append(f"  {'peak_rss_mib':<18} {values['peak_rss_mib']:>12.1f} MiB")
    lines.append(f"  {'failed_frac':<18} {failed / attempted:>12.4f}       {failed} of {attempted} operations")
    lines.extend(f"  ! {msg}" for msg in rec["messages"])
    m = rec["machine"]
    lines.append(
        f"  machine: nproc={m['nproc']} cpu={m['cpu_model']!r} python={m['python']} "
        f"numpy={m['numpy']} scipy={m['scipy']} blas={m['blas']} threads={m['env']}"
    )
    return result, lines, rec


def main(argv=None):
    p = argparse.ArgumentParser(description="trigzero benchmark")
    p.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "trigzero" / "__init__.py").is_file():
        print(f"benchmark: no trigzero sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    compileall.compile_dir(ROOT / "src" / "trigzero", quiet=1)
    (HERE / "out").mkdir(exist_ok=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    start = time.monotonic()
    results = {}
    for name in names:
        deadline = time.monotonic() + DEADLINE_S if args.workload == "all" else start + DEADLINE_S
        try:
            result, lines, rec = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
        except BenchError as exc:
            print(f"benchmark: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines), flush=True)
        rec["result"] = result
        out = HERE / "out" / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(rec, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        results[name] = result

    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
