"""Package namespace: the public names exported by ``trigzero``."""

import ast
import dataclasses
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


_COUNTS = 200 + np.arange(500) % 17
_CV = trigzero.CoefficientVector(3, np.array([0.3, -1.0, 0.5]), None)
# (public callable, integer parameter) -> (the call with that parameter set to v, a valid v)
_INTEGER_PARAMETERS = {
    ("abs_coeff", "ell"): (lambda v: trigzero.abs_coeff(v), 3),
    ("dirac_coeff", "k"): (lambda v: trigzero.dirac_coeff(v), 4),
    ("dirac_coeff_normalized", "k"): (lambda v: trigzero.dirac_coeff_normalized(v), 4),
    ("chaos_lag_correlation", "q"): (lambda v: trigzero.chaos_lag_correlation(v, [0.0, 1.0]), 4),
    ("sigma_q_squared", "q"): (lambda v: trigzero.sigma_q_squared(v, tail=100.0), 2),
    ("total_variance_constant", "q_max"): (lambda v: trigzero.total_variance_constant(v, tail=100.0), 2),
    ("c_k", "K"): (lambda v: trigzero.c_k(v, [0.5, 3.0]), 5),
    ("c_k_dd0", "K"): (lambda v: trigzero.c_k_dd0(v), 5),
    ("c_k_derivs", "K"): (lambda v: trigzero.c_k_derivs(v, [0.5, 3.0]), 5),
    ("kernel_bounds_check", "K"): (lambda v: trigzero.kernel_bounds_check(v, [0.5, 3.0]), 5),
    ("ExperimentConfig", "K_list"): (lambda v: trigzero.ExperimentConfig(K_list=(v,)).validate(), 5),
    ("ExperimentConfig", "replicates"): (lambda v: trigzero.ExperimentConfig((5,), replicates=v).validate(), 10),
    ("ExperimentConfig", "seed"): (lambda v: trigzero.ExperimentConfig((5,), seed=v).validate(), 3),
    ("clt_test", "K"): (lambda v: trigzero.clt_test(_COUNTS, v), 100),
    ("standardize_counts", "K"): (lambda v: trigzero.standardize_counts(_COUNTS, v), 100),
    ("window_chop_check", "K"): (lambda v: trigzero.window_chop_check(v, 0.25, 10), 30),
    ("window_chop_check", "replicates"): (lambda v: trigzero.window_chop_check(30, 0.25, v), 10),
    ("window_chop_check", "seed"): (lambda v: trigzero.window_chop_check(30, 0.25, 10, seed=v), 3),
    ("rice_mean", "K"): (lambda v: trigzero.rice_mean(v, interval=(0.0, 1.0)), 5),
    ("rice_second_moment", "K"): (lambda v: trigzero.rice_second_moment(v, interval=(0.5, 1.0)), 5),
    ("rice_second_moment", "nodes"): (lambda v: trigzero.rice_second_moment(5, interval=(0.5, 1.0), nodes=v), 4),
    ("rice_variance", "K"): (lambda v: trigzero.rice_variance(v), 5),
    ("wilkins_mean", "K"): (lambda v: trigzero.wilkins_mean(v), 5),
    ("window_bounds", "K"): (lambda v: trigzero.window_bounds(v, 0.25), 5),
    ("zero_intensity", "K"): (lambda v: trigzero.zero_intensity(v, [0.5, 1.0]), 5),
    ("CoefficientVector", "K"): (lambda v: trigzero.CoefficientVector(v, np.ones(3), None), 3),
    ("draw_coefficient_batch", "K"): (lambda v: trigzero.draw_coefficient_batch(v, "cosine", 0, [0]), 3),
    ("draw_coefficient_batch", "seed"): (lambda v: trigzero.draw_coefficient_batch(3, "cosine", v, [0]), 3),
    ("draw_coefficients", "K"): (lambda v: trigzero.draw_coefficients(v), 3),
    ("draw_coefficients", "seed"): (lambda v: trigzero.draw_coefficients(3, seed=v), 3),
    ("draw_coefficients", "index"): (lambda v: trigzero.draw_coefficients(3, index=v), 3),
    ("count_zeros_scan", "oversample"): (lambda v: trigzero.count_zeros_scan(_CV, (0.0, 3.0), oversample=v), 8),
    ("oracle_agreement", "K_list"): (lambda v: trigzero.oracle_agreement([v], 1, 0), 3),
    ("oracle_agreement", "reps"): (lambda v: trigzero.oracle_agreement([3], v, 0), 2),
    ("oracle_agreement", "seed"): (lambda v: trigzero.oracle_agreement([3], 1, v), 3),
    ("scan_count_batch", "K"): (lambda v: trigzero.scan_count_batch(_CV.a[None, :], None, v, (0.0, 3.0)), 3),
    ("scan_count_batch", "oversample"): (
        lambda v: trigzero.scan_count_batch(_CV.a[None, :], None, 3, (0.0, 3.0), oversample=v),
        8,
    ),
}
_INTEGER_NAMES = {"K", "q", "q_max", "nodes", "reps", "replicates", "seed", "index", "ell", "k", "K_list", "oversample"}
# result records: they hold what a checked call returns and check nothing themselves
_RESULT_RECORDS = {"ChaosTerm", "BoundsReport", "KSummary", "WindowChopReport", "RiceResult"}


def _plain(result):
    """``result`` with its dataclasses as dicts, for ``np.testing.assert_equal``."""
    return dataclasses.asdict(result) if dataclasses.is_dataclass(result) else result


def test_integer_table_covers_every_public_parameter():
    # a new public callable with a degree, order, count, seed or index parameter
    # must join the table below, and so pass its integer rule
    found = set()
    for name in trigzero.__all__:
        obj = getattr(trigzero, name)
        if name in _RESULT_RECORDS or (isinstance(obj, type) and issubclass(obj, Exception)):
            continue
        params = inspect.signature(obj).parameters
        found |= {(name, p) for p in params if p in _INTEGER_NAMES}
    assert found == set(_INTEGER_PARAMETERS)


@pytest.mark.parametrize("key", sorted(_INTEGER_PARAMETERS), ids="-".join)
def test_integer_parameters_refuse_non_integers(key):
    call, valid = _INTEGER_PARAMETERS[key]
    named = key[1].removesuffix("_list")  # K_list names each of its degrees K
    for bad in (2.5, True, "3"):
        with pytest.raises(trigzero.UsageError, match=rf"\b{named}\b.* must be an integer"):
            call(bad)
    # a numpy integer is an integer, and gives what the Python int gives
    np.testing.assert_equal(_plain(call(np.int64(valid))), _plain(call(valid)))


def _campaign_on(v):
    """``validate()`` of a campaign on ``v`` as its explicit interval: at most two
    ends go in as the spec's ends, anything else as its lower end alone."""
    ends = v if isinstance(v, (tuple, list, np.ndarray)) and len(v) <= 2 else (v,)
    return trigzero.ExperimentConfig((5,), replicates=10, interval=trigzero.IntervalSpec("original", *ends)).validate()


# (public callable, interval parameter) -> (the call with that interval set to v, a valid v)
_INTERVAL_PARAMETERS = {
    ("rice_mean", "interval"): (lambda v: trigzero.rice_mean(5, interval=v), (0.5, 2.0)),
    ("rice_second_moment", "interval"): (lambda v: trigzero.rice_second_moment(5, interval=v), (0.5, 1.0)),
    ("count_zeros_scan", "interval"): (lambda v: trigzero.count_zeros_scan(_CV, v), (0.0, 3.0)),
    ("count_zeros_eigen", "interval"): (lambda v: trigzero.count_zeros_eigen(_CV, v), (0.0, 3.0)),
    ("scan_count_batch", "interval"): (lambda v: trigzero.scan_count_batch(_CV.a[None, :], None, 3, v), (0.0, 3.0)),
    ("ExperimentConfig", "interval"): (_campaign_on, (0.0, 3.0)),
}


def test_interval_table_covers_every_public_parameter():
    # a new public callable that takes an interval must join the table below,
    # and so pass the interval rule
    found = set()
    for name in trigzero.__all__:
        obj = getattr(trigzero, name)
        if name in _RESULT_RECORDS or (isinstance(obj, type) and issubclass(obj, Exception)):
            continue
        found |= {(name, p) for p in inspect.signature(obj).parameters if p == "interval"}
    assert found == set(_INTERVAL_PARAMETERS)


@pytest.mark.parametrize("key", sorted(_INTERVAL_PARAMETERS), ids="-".join)
def test_interval_parameters_refuse_malformed_intervals(key):
    call, valid = _INTERVAL_PARAMETERS[key]
    for bad in (("a", 1.0), (0.0,), 5.0, (0.0, 1.0, 7.0), (1.0, 0.5), (np.nan, 1.0), (0.0, None), (True, 2.0)):
        with pytest.raises(trigzero.UsageError, match=r"\binterval\b"):
            call(bad)
    # a list or an array of the two ends gives what the tuple gives
    want = _plain(call(valid))
    np.testing.assert_equal(_plain(call(list(valid))), want)
    np.testing.assert_equal(_plain(call(np.array(valid))), want)


# (public callable, real parameter) -> (the call with that parameter set to v,
# a valid float v, an out-of-range v or None if the domain is every finite number,
# an int in the domain or None if there is none)
_REAL_PARAMETERS = {
    ("ExperimentConfig", "alpha"): (
        lambda v: trigzero.ExperimentConfig((5,), replicates=10, alpha=v).validate(), 0.25, 0.5, None
    ),
    ("window_chop_check", "alpha"): (lambda v: trigzero.window_chop_check(30, v, 10), 0.25, 0.0, None),
    ("rice_mean", "alpha"): (lambda v: trigzero.rice_mean(5, alpha=v), 0.25, 0.7, None),
    ("rice_second_moment", "alpha"): (lambda v: trigzero.rice_second_moment(5, alpha=v), 0.25, -0.1, None),
    ("rice_variance", "alpha"): (lambda v: trigzero.rice_variance(5, alpha=v), 0.25, 0.5, None),
    ("window_bounds", "alpha"): (lambda v: trigzero.window_bounds(5, v), 0.25, 0.5, None),
    ("sigma_q_squared", "tail"): (lambda v: trigzero.sigma_q_squared(2, tail=v), 100.0, 99.0, 100),
    ("total_variance_constant", "tail"): (lambda v: trigzero.total_variance_constant(2, tail=v), 100.0, 1.5e6, 100),
    ("rice_mean", "rel_tol"): (lambda v: trigzero.rice_mean(5, interval=(0.0, 1.0), rel_tol=v), 1e-6, 0.0, None),
    ("clt_test", "variance"): (lambda v: trigzero.clt_test(_COUNTS, 100, variance=v), 0.5, 0.0, 1),
    ("clt_test", "center"): (lambda v: trigzero.clt_test(_COUNTS, 100, center=v), 207.0, None, 207),
    ("standardize_counts", "center"): (lambda v: trigzero.standardize_counts(_COUNTS, 100, center=v), 207.0, None, 207),
}
_REAL_NAMES = {"alpha", "tail", "rel_tol", "variance", "center"}
# (public callable, degree-list parameter) -> (the call with that list set to v, a valid tuple v of consecutive degrees)
_DEGREE_LIST_PARAMETERS = {
    ("ExperimentConfig", "K_list"): (lambda v: trigzero.ExperimentConfig(v, replicates=10).validate(), (5, 6)),
    ("oracle_agreement", "K_list"): (lambda v: trigzero.oracle_agreement(v, 1, 0), (3, 4)),
}
# (public callable, choice parameter) -> (the call with that choice set to v, a valid v)
_CHOICE_PARAMETERS = {
    ("ExperimentConfig", "ensemble"): (
        lambda v: trigzero.ExperimentConfig((5,), replicates=10, ensemble=v).validate(), "stationary"
    ),
    ("draw_coefficient_batch", "ensemble"): (lambda v: trigzero.draw_coefficient_batch(3, v, 0, [0, 1]), "stationary"),
    ("draw_coefficients", "ensemble"): (lambda v: trigzero.draw_coefficients(3, v), "stationary"),
    ("IntervalSpec", "kind"): (lambda v: trigzero.IntervalSpec(v, 0.5, 1.0).bounds_original(30, 0.25), "window"),
}
# parameters that take no scalar rule, by name
_OTHER_PARAMETERS = {
    # arrays
    "tau", "x", "t", "counts", "a", "b", "indices", "tau_grid", "sigma_u", "sigma_v", "rho",
    # objects, checked where they are made
    "coeffs", "config",
    # flags
    "rescaled", "locate_roots",
    # an IntervalSpec's ends, which ExperimentConfig's interval entry above puts through the interval rule
    "lo", "hi",
}


# every result record, including those whose fields match none of the names above
_ALL_RESULT_RECORDS = _RESULT_RECORDS | {
    "CampaignResult", "NormalityReport", "RiceVariance", "VarianceConstant", "ZeroCountResult",
}


def _public_parameters():
    """(callable name, parameter) of every public callable but the result records and exceptions."""
    for name in trigzero.__all__:
        obj = getattr(trigzero, name)
        if name in _ALL_RESULT_RECORDS or (isinstance(obj, type) and issubclass(obj, Exception)):
            continue
        yield from ((name, p) for p in inspect.signature(obj).parameters)


def test_real_table_covers_every_public_parameter():
    # a new public callable with a window exponent, tail, tolerance, variance or
    # center must join the table below, and so pass the real-number rule
    assert {(name, p) for name, p in _public_parameters() if p in _REAL_NAMES} == set(_REAL_PARAMETERS)


def test_degree_list_and_choice_tables_cover_every_public_parameter():
    # a new public callable with a degree list, ensemble or interval kind must
    # join the tables below, and so pass the degree-list or the choice rule
    found = {(name, p) for name, p in _public_parameters()}
    assert {key for key in found if key[1] == "K_list"} == set(_DEGREE_LIST_PARAMETERS)
    assert {key for key in found if key[1] in ("ensemble", "kind")} == set(_CHOICE_PARAMETERS)


def test_every_public_parameter_has_a_rule():
    # a new scalar parameter cannot arrive without joining one of the tables
    tables = set(_INTEGER_PARAMETERS) | set(_INTERVAL_PARAMETERS) | set(_REAL_PARAMETERS)
    tables |= set(_DEGREE_LIST_PARAMETERS) | set(_CHOICE_PARAMETERS)
    loose = [key for key in _public_parameters() if key not in tables and key[1] not in _OTHER_PARAMETERS]
    assert not loose, loose


@pytest.mark.parametrize("key", sorted(_REAL_PARAMETERS), ids="-".join)
def test_real_parameters_refuse_non_reals(key):
    call, valid, out_of_range, valid_int = _REAL_PARAMETERS[key]
    name, param = key
    bad = ["0.25", True, np.nan, np.inf, 10**400]
    if out_of_range is not None:
        bad.append(out_of_range)
    if inspect.signature(getattr(trigzero, name)).parameters[param].default is not None:
        bad.append(None)
    for v in bad:
        with pytest.raises(trigzero.UsageError, match=rf"\b{param}\b.* must be finite"):
            call(v)
    # a numpy float, and an int in the domain, give what the float gives
    want = _plain(call(valid))
    np.testing.assert_equal(_plain(call(np.float64(valid))), want)
    if valid_int is not None:
        np.testing.assert_equal(_plain(call(valid_int)), _plain(call(float(valid_int))))


@pytest.mark.parametrize("key", sorted(_DEGREE_LIST_PARAMETERS), ids="-".join)
def test_degree_list_parameters_refuse_non_lists(key):
    call, valid = _DEGREE_LIST_PARAMETERS[key]
    for bad in (np.array(valid[0]), set(valid), dict.fromkeys(valid), str(valid[0]), (K for K in valid), ()):
        with pytest.raises(trigzero.UsageError, match=r"\bK_list\b.* must be a tuple, list, range or 1-d array"):
            call(bad)
    # a list, a range, a 1-d integer array and numpy integer entries give what the tuple gives
    want = _plain(call(valid))
    for same in (list(valid), range(valid[0], valid[-1] + 1), np.array(valid)):
        np.testing.assert_equal(_plain(call(same)), want)
    np.testing.assert_equal(_plain(call(tuple(map(np.int64, valid)))), want)


@pytest.mark.parametrize("key", sorted(_CHOICE_PARAMETERS), ids="-".join)
def test_choice_parameters_refuse_non_choices(key):
    call, valid = _CHOICE_PARAMETERS[key]
    for bad in (valid.capitalize(), valid.encode(), None, 1):
        with pytest.raises(trigzero.UsageError, match=rf"\b{key[1]}\b must be one of \(.*\), got {bad!r}"):
            call(bad)
    # a numpy string is a string, and gives what the Python str gives
    np.testing.assert_equal(_plain(call(np.str_(valid))), _plain(call(valid)))
