"""Self-test of the benchmark: its checks can fail, its tracer leaves no trace.

    python3 -m pytest -q perfbench/test_perfbench.py

Uses the package under ``src/``; takes about half a minute.
"""

import json
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
import trigzero  # noqa: E402
import trigzero.cli  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, run_command  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_code():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert SPEC["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b in layers.METRICS
    ]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def _worker(workload, reference):
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", "0",
        "--seconds", "0", "--mode", "plain", "--reference", str(reference),
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=run.child_env(), capture_output=True, text=True, timeout=170
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_wrong_reference_value_makes_operations_fail(tmp_path):
    good = json.loads((HERE / "reference.json").read_text())
    bad = json.loads(json.dumps(good))
    bad["chaos_var"]["sigma_sq"]["4"] *= 1.01
    (tmp_path / "good.json").write_text(json.dumps(good))
    (tmp_path / "bad.json").write_text(json.dumps(bad))

    ok = _worker("chaos_var", tmp_path / "good.json")
    assert ok["attempted"] >= 2 and ok["failed"] == 0, ok["messages"]
    wrong = _worker("chaos_var", tmp_path / "bad.json")
    assert wrong["failed"] / wrong["attempted"] > 0
    assert any("sigma_4" in m for m in wrong["messages"])


def _wrapped_attrs():
    tracer = Tracer()
    layers.install(tracer, trigzero)
    names = [(module, attr) for module, attr, _ in tracer._saved]
    tracer.restore()
    return names


def _traced_counts(args):
    with Tracer() as tracer:
        layers.install(tracer, trigzero)
        tracer.span(f"cli.{args[0]}", run_command, trigzero.cli, args)
    m = layers.derive(tracer.spans)
    return {name: m[name] for name in layers.COUNTS}


def test_tracer_restores_functions_and_counts_repeat(tmp_path):
    originals = {(mod, attr): getattr(mod, attr) for mod, attr in _wrapped_attrs()}
    assert len(originals) == 11
    args = ["simulate", "--K", "8", "--reps", "300", "--interval", "0:pi", "--seed", "3",
            "--out", str(tmp_path)]
    first = _traced_counts(args)
    second = _traced_counts(args)
    for (mod, attr), fn in originals.items():
        assert getattr(mod, attr) is fn, f"{mod.__name__}.{attr} left wrapped"
    assert first == second
    # 300 replicates make two campaign chunks, 256 + 44
    assert first["zeros.scan.calls"] == first["sampling.draw.calls"] == 2
    assert first["zeros.scan.replicates"] == 300
    assert first["sampling.draw.normals"] == 300 * 8


def test_tracer_restores_functions_when_the_call_raises():
    original = trigzero.cli.rice_mean
    with pytest.raises(trigzero.errors.UsageError):
        with Tracer() as tracer:
            layers.install(tracer, trigzero)
            trigzero.cli.rice_mean(0)
    assert trigzero.cli.rice_mean is original
    assert [(s.name, s.attrs) for s in tracer.spans] == [("rice.mean", {})]


def test_pool_threads_are_children_of_the_span_that_fans_out():
    tracer = Tracer()

    def leaf(x):
        return x

    def fan_out():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(lambda x: tracer.span("leaf", leaf, x), range(4)))

    tracer.span("root", fan_out)
    root = next(s for s in tracer.spans if s.name == "root")
    leaves = [s for s in tracer.spans if s.name == "leaf"]
    assert len(leaves) == 4
    assert all(s.parent == root.sid for s in leaves)
    assert {s.thread for s in leaves} != {threading.get_ident()}


def test_self_time_counts_concurrent_children_once():
    spans = [
        Span(1, "parent", 0.0, 10.0, None, 1),
        Span(2, "a", 1.0, 5.0, 1, 2),  # pool thread 2
        Span(3, "b", 2.0, 6.0, 1, 3),  # pool thread 3, overlaps a
        Span(4, "a.child", 1.0, 2.0, 2, 2),
        Span(5, "c", 8.0, 12.0, 1, 1),  # runs past the parent's end
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(4.0)
