"""One workload in one fresh interpreter: set up, measure, check, report.

Started by ``run.py`` with PYTHONPATH pointing at the checkout's ``src``.
Prints one JSON object on its last line of standard output.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode MODE

MODE is ``setup`` (import and warm up only), ``plain`` (end-to-end metrics,
tracing off) or ``trace`` (per-layer metrics from wrapped functions).
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from importlib.metadata import version
from pathlib import Path

# Only the standard library may be imported before setup() is timed.
from spans import Tracer, write_spans
from workloads import (
    CHECKS,
    WORKLOADS,
    collect_output,
    command_args,
    digest,
    failure_types,
    run_command,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def setup(workload):
    """Import the CLI from the checkout and run the warm-up commands.

    Returns (cli module, seconds taken).  Nothing from numpy, scipy or
    trigzero may be imported before this runs, or setup_s would miss it.
    """
    start = time.perf_counter()
    import trigzero.cli as cli

    src = (ROOT / "src").resolve()
    if Path(cli.__file__).resolve().parent.parent != src:
        raise SystemExit(f"trigzero imported from {cli.__file__}, not from {src}")
    with workdir() as outdir:
        for args in workload.warmup:
            try:
                run_command(cli, command_args(args, 0, outdir))
            except failure_types():
                pass  # the measured operations fail the same way and count it
    return cli, time.perf_counter() - start


def workdir():
    """A scratch directory under perfbench/out for the files simulate writes."""
    (HERE / "out").mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(prefix="work-", dir=HERE / "out")


def run_op(cli, workload, seed, threads, outdir, tracer=None):
    """One timed operation.  Returns a dict with wall time, output or error."""
    os.environ["TRIGZERO_THREADS"] = str(threads)
    errors = failure_types()
    argv = [command_args(args, seed, outdir) for args in workload.commands]
    printed = []
    start = time.perf_counter()
    try:
        for args in argv:
            if tracer is None:
                printed.append(run_command(cli, args))
            else:
                printed.append(tracer.span(f"cli.{args[0]}", run_command, cli, args))
    except errors as exc:
        return {"threads": threads, "wall_s": time.perf_counter() - start,
                "error": f"{type(exc).__name__}: {exc}"}
    wall = time.perf_counter() - start
    output = []
    for args, text in zip(argv, printed):
        output.extend(collect_output(args, text, outdir))
    return {"threads": threads, "wall_s": wall, "output": output}


def tally(ops, workload, seed, reference):
    """Check every operation's output; returns (failed count, messages).

    Each distinct output is checked in full once.  Operations of one seed
    must all produce the same bytes, whatever the thread count, so an output
    that differs from the first one fails too.
    """
    verdicts = {}
    first = None
    failed = 0
    messages = []
    for op in ops:
        if "error" in op:
            failed += 1
            messages.append(op["error"])
            continue
        key = digest(op["output"])
        first = first or key
        if key not in verdicts:
            verdicts[key] = CHECKS[workload.name](op["output"], seed, reference[workload.name])
            messages.extend(verdicts[key])
            if key != first:
                messages.append(f"{workload.name}: output differs between operations of one seed")
        if verdicts[key] or key != first:
            failed += 1
    return failed, messages


def median(values):
    return statistics.median(values) if values else float("nan")


def warm_up(cli, workload, seed, threads, outdir):
    """One untimed operation, so that caches sized by the real inputs are built."""
    op = run_op(cli, workload, seed, threads, outdir)
    op["warmup"] = True
    return op


def measure_plain(cli, workload, seed, seconds, min_ops=3):
    """Operations with ``TRIGZERO_THREADS=1`` for ``seconds``.

    Each operation is followed by one timing of the calibration kernel, so
    that the machine's speed is sampled as often as the operation's.
    Returns (operations, peak RSS in MiB after set-up and the warm-up).
    """
    with workdir() as outdir:
        ops = [warm_up(cli, workload, seed, 1, outdir)]
        rss = peak_rss_mib()
        import calibrate  # imports numpy, so not before setup()

        calibrate.kernel()
        start = time.perf_counter()
        done = 0
        # start another operation only if it should end by the deadline
        while done < min_ops or (time.perf_counter() - start) * (done + 1) / done < seconds:
            op = run_op(cli, workload, seed, 1, outdir)
            op["calibration_s"] = calibrate.timed()
            ops.append(op)
            done += 1
    return ops, rss


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_trace(cli, workload, seed, seconds, nproc):
    """Rounds of an untraced and a traced operation for ``seconds``.

    Campaign workloads add a traced 1-thread operation for the speedup.
    Returns (ops, per-layer metrics, traced runs, count mismatch messages).
    """
    import layers  # imports numpy, so not before setup()
    import trigzero

    campaign = workload.commands[0][0] == "simulate"
    plain, traced, solo, tracers = [], [], [], []
    with workdir() as outdir:
        ops = [warm_up(cli, workload, seed, nproc, outdir)]
        start = time.perf_counter()
        rounds = 0
        # start another round only if it should end by the deadline
        while not rounds or (time.perf_counter() - start) * (rounds + 1) / rounds < seconds:
            rounds += 1
            op = run_op(cli, workload, seed, nproc, outdir)
            ops.append(op)
            plain.append(op["wall_s"])
            for threads in (nproc, 1) if campaign else (nproc,):
                with Tracer() as tracer:
                    layers.install(tracer, trigzero)
                    op = run_op(cli, workload, seed, threads, outdir, tracer)
                ops.append(op)
                written = sum(len(blob) for _, blob in op.get("output", ()))
                metrics = layers.derive(tracer.spans, written if campaign else 0)
                label = f"op{len(ops) - 1}-threads{threads}"
                tracers.append((label, tracer))
                (traced if threads == nproc else solo).append((op["wall_s"], metrics))

    # counts are checked to repeat below, so the first run's stand for all
    result = {name: 0.0 for name, _, _ in layers.METRICS}
    for name in traced[0][1]:
        values = [m[name] for _, m in traced]
        result[name] = values[0] if name in layers.COUNTS else median(values)
    if campaign and result["experiments.campaign.busy_s"] > 0:
        solo_wall = median([m["experiments.campaign.busy_s"] for _, m in solo])
        result["experiments.campaign.speedup"] = solo_wall / result["experiments.campaign.busy_s"]
    result["trace_overhead_s"] = median([w for w, _ in traced]) - median(plain)

    problems = []
    for _, m in traced + solo:
        for name in layers.COUNTS:
            if m[name] != traced[0][1][name]:
                problems.append(f"trace: {name} {m[name]!r} != {traced[0][1][name]!r} in another traced run")
    return ops, result, tracers, problems


def machine_record(nproc):
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "click": version("click"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "TRIGZERO_THREADS": {"wall_1w_norm_s": 1, "experiments.campaign.speedup": [1, nproc]},
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--mode", choices=("setup", "plain", "trace"), required=True)
    p.add_argument("--reference", default=str(HERE / "reference.json"))
    args = p.parse_args(argv)

    workload = WORKLOADS[args.workload]
    cli, setup_s = setup(workload)
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    nproc = len(os.sched_getaffinity(0))
    reference = json.loads(Path(args.reference).read_text(encoding="utf-8"))
    out = {"setup_s": setup_s, "machine": machine_record(nproc)}
    if args.mode == "plain":
        ops, out["peak_rss_mib"] = measure_plain(cli, workload, args.seed, args.seconds)
        problems = []
        # successful operations only, unless none succeeded (then correct is false)
        measured = [op for op in ops if "warmup" not in op]
        timed = [op for op in measured if "output" in op] or measured
        out["samples"] = [op["wall_s"] for op in timed]
        out["calibration_s"] = [op["calibration_s"] for op in timed]
    else:
        ops, out["layers"], tracers, problems = measure_trace(
            cli, workload, args.seed, args.seconds, nproc
        )
        spans_path = HERE / "out" / f"spans-{workload.name}-seed{args.seed}.jsonl"
        write_spans(spans_path, tracers)
        out["spans_file"] = str(spans_path.relative_to(ROOT))
    failed, messages = tally(ops, workload, args.seed, reference)
    out.update(
        attempted=len(ops),
        failed=failed,
        messages=messages + problems,
        trace_consistent=not problems,
    )
    out.setdefault("peak_rss_mib", peak_rss_mib())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
