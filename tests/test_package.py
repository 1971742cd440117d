"""Package namespace: the public names exported by ``trigzero``."""

import ast
import inspect
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import trigzero


def test_all_names_resolve_and_none_is_a_module():
    assert len(set(trigzero.__all__)) == len(trigzero.__all__)
    for name in trigzero.__all__:
        assert not isinstance(getattr(trigzero, name), types.ModuleType), name


def _unused_imports(path):
    """Module-level import names that ``path`` never loads, as "file:line name"."""
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    if path.name == "__init__.py":
        loaded |= set(trigzero.__all__)
    unused = []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in loaded and "# noqa" not in lines[alias.lineno - 1]:
                    unused.append(f"{path.name}:{alias.lineno} {name}")
    return unused


def test_no_unused_imports():
    # the project runs no linter, and moving code tends to leave an import behind
    files = sorted(Path(trigzero.__file__).parent.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    unused = [entry for path in files for entry in _unused_imports(path)]
    assert not unused, unused


def _private_names(tree):
    """(name, node) of each module-level private function, class or constant in ``tree``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                yield name, node


def test_no_dead_private_helpers():
    # a helper left behind by a refactor is referenced by nothing but its own definition
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(Path(trigzero.__file__).parent.glob("*.py"))}
    readers = {}  # name -> ids of the top-level statements that read it, as a name or an attribute
    for tree in trees.values():
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    readers.setdefault(node.id, set()).add(id(top))
                elif isinstance(node, ast.Attribute):
                    readers.setdefault(node.attr, set()).add(id(top))
    dead = [
        f"{file}:{node.lineno} {name}"
        for file, tree in trees.items()
        for name, node in _private_names(tree)
        if not readers.get(name, set()) - {id(node)}
    ]
    assert not dead, dead


def test_no_private_names_imported_across_modules():
    # a private helper lives with its caller; importing it elsewhere splits one job over two modules
    allowed = {"chaos_variance.py: rice._gl_panels"}  # the sampling-theorem lag rule in ROADMAP.md deletes it
    crossing = {
        f"{path.name}: {node.module}.{alias.name}"
        for path in sorted(Path(trigzero.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    }
    assert not crossing - allowed, sorted(crossing - allowed)


_STARTUP_PROBE = """
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
from click.testing import CliRunner

import trigzero.cli


def run(*args):
    res = CliRunner().invoke(trigzero.cli.main, list(args))
    assert res.exit_code == 0, (args, res.output, res.exception)


run("rice", "--K", "4", "--moment", "1")
run("rice", "--K", "4", "--moment", "2", "--interval", "window")
run("chaos-var", "--qmax", "2", "--tail", "100")
run("bounds-check", "--K", "10", "--points", "20")
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, f"the analytic commands loaded {loaded[:4]}"

# two chunks under two threads: the first scipy imports happen in pool threads
records = {}
with tempfile.TemporaryDirectory() as tmp:
    for threads in ("2", "1"):
        os.environ["TRIGZERO_THREADS"] = threads
        run("simulate", "--K", "8", "--reps", "300", "--seed", "3", "--out", f"{tmp}/t{threads}")
        records[threads] = (Path(tmp) / f"t{threads}" / "records.csv").read_bytes()
assert records["2"] == records["1"]
assert records["1"].count(b"\\n") == 301

assert "scipy.stats" not in sys.modules, "a campaign loaded scipy.stats"
from trigzero.experiments import clt_test
counts = 200 + np.arange(500) % 17
report = clt_test(counts, 100)
assert report.n == 500 and 0.0 <= report.p_value <= 1.0
print("ok")
"""


def test_analytic_commands_never_load_scipy():
    # a fresh interpreter: the test session itself has imported scipy
    src = str(Path(trigzero.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", _STARTUP_PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


@pytest.fixture(scope="module")
def bench_modules():
    """perfbench's ``layers`` and ``spans``, imported read-only from the repo."""
    import trigzero.cli  # noqa: F401  layers.install wraps names in it

    bench = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, bench)
    try:
        import layers
        import spans
    finally:
        sys.path.remove(bench)
    return layers, spans


def test_benchmark_wraps_names_that_exist(bench_modules):
    # the benchmark rebinds these names by attribute; deleting one breaks it
    layers, spans = bench_modules
    with spans.Tracer() as tracer:
        layers.install(tracer, trigzero)
        saved = list(tracer._saved)
        assert len(saved) == 11
        for module, attr, original in saved:
            assert getattr(module, attr).__wrapped__ is original, attr
        bound = inspect.signature(trigzero.experiments.scan_count_batch).bind(
            np.ones((1, 3)), None, 3, (0.0, 1.0)
        )
        bound.apply_defaults()
        assert bound.arguments["oversample"] == trigzero.zeros.OVERSAMPLE
        assert bound.arguments["rescaled"] is False
    # the calls the benchmark's reference and correctness checks make untraced
    inspect.signature(trigzero.rice.rice_mean).bind(30, interval=(0.0, 1.0), rel_tol=1e-12)
    inspect.signature(trigzero.rice.rice_second_moment).bind(30, interval=(0.5, 1.0), nodes=32)
    coeffs = trigzero.sampling.draw_coefficients(4, "cosine", 0, 3)
    assert isinstance(trigzero.zeros.count_zeros_eigen(coeffs, (0.0, np.pi)).count, int)
    for module, attr, original in saved:
        assert getattr(module, attr) is original, attr
