"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/steadiness.py --runs 10 [--workload NAME ...] [--baseline]

For every workload and end-to-end metric it prints the median of the runs
and the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound in BENCHMARK.json, and the same for the raw operation
time and the calibration time, which are not gated.  Seeds are 1..runs; the runs cycle
through the workloads so that slow drift of the machine spreads over all of
them.  ``--baseline`` also makes one traced run per workload at seed 0 and
writes everything, with the machine record, to ``perfbench/baseline.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench_run(workload, seed, seconds, trace):
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "out" / f"result-{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workload", action="append", choices=names)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--baseline", action="store_true")
    args = p.parse_args(argv)
    workloads = args.workload or names
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    # printed for comparison, not gated: raw operation and calibration times
    extra = {"wall_s": None, "calibration_s": None}

    values = {w: {m: [] for m in {**bounds, **extra}} for w in workloads}
    failed = {w: 0 for w in workloads}
    machine = None
    for seed in range(1, args.runs + 1):
        for w in workloads:
            result, record = bench_run(w, seed, args.seconds, 0)
            machine = record["machine"]
            failed[w] += result["failed"]
            for m in bounds:
                values[w][m].append(result["metrics"][m]["value"])
            values[w]["wall_s"].append(statistics.median(record["samples"]))
            values[w]["calibration_s"].append(statistics.median(record["calibration_s"]))
            print(f"seed {seed} {w}: " + " ".join(
                f"{m}={result['metrics'][m]['value']:.4f}" for m in bounds
            ) + f" failed={result['failed']}", flush=True)

    summary = {}
    worst = 0.0
    print(f"\n{'workload':<14} {'metric':<14} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>8} {'bound':>6}")
    for w in workloads:
        summary[w] = {"failed": failed[w]}
        for m, bound in {**bounds, **extra}.items():
            xs = values[w][m]
            q1, _, q3 = statistics.quantiles(xs, n=4)
            med = statistics.median(xs)
            spread = (q3 - q1) / med
            if bound is None:
                print(f"{w:<14} {m:<14} {med:>10.4f} {q1:>10.4f} {q3:>10.4f} {spread:>8.4f}   info")
                summary[w][m] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": xs}
                continue
            if m != "setup_s":
                worst = max(worst, spread / bound)
            flag = "" if spread < bound / 3 else "  > bound/3" if spread <= bound else "  > BOUND"
            print(f"{w:<14} {m:<14} {med:>10.4f} {q1:>10.4f} {q3:>10.4f} {spread:>8.4f} {bound:>6}{flag}")
            summary[w][m] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": xs}
    print(f"\nworst spread / bound (setup_s excluded): {worst:.3f}")

    if args.baseline:
        for w in workloads:
            result, _ = bench_run(w, 0, args.seconds, 1)
            summary[w]["per_layer_seed0"] = {k: v["value"] for k, v in result["metrics"].items()}
        doc = {
            "machine": machine,
            "run_seconds": args.seconds,
            "seeds": list(range(1, args.runs + 1)),
            "workloads": summary,
        }
        (HERE / "baseline.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
