"""Package namespace: the public names exported by ``trigzero``."""

import os
import subprocess
import sys
import types
from pathlib import Path

import trigzero


def test_all_names_resolve_and_none_is_a_module():
    assert len(set(trigzero.__all__)) == len(trigzero.__all__)
    for name in trigzero.__all__:
        assert not isinstance(getattr(trigzero, name), types.ModuleType), name


_STARTUP_PROBE = """
import sys
import numpy as np
import trigzero.cli
assert "scipy.stats" not in sys.modules, "import trigzero.cli loaded scipy.stats"
from trigzero.experiments import clt_test
counts = 200 + np.arange(500) % 17
report = clt_test(counts, 100)
assert report.n == 500 and 0.0 <= report.p_value <= 1.0
print("ok")
"""


def test_cli_import_leaves_scipy_stats_for_the_normality_verdict():
    # a fresh interpreter: the test session itself has imported scipy.stats
    src = str(Path(trigzero.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", _STARTUP_PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"
