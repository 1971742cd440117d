"""Command-line surface: outputs, reproducibility, exit codes."""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import trigzero
from trigzero import covariance, experiments, rice, zeros
from trigzero.cli import _interval_text, main, parse_interval
from trigzero.errors import NumericError, UsageError
from trigzero.experiments import MAX_DEGREE
from trigzero.rice import rice_mean


@pytest.fixture()
def runner():
    return CliRunner()


class TestIntervalParsing:
    def test_standard_forms(self):
        spec = parse_interval("0:pi")
        assert (spec.lo, spec.hi) == (0.0, math.pi)
        spec = parse_interval("0:2pi")
        assert spec.hi == pytest.approx(2 * math.pi)
        spec = parse_interval("0.5pi:pi")
        assert spec.lo == pytest.approx(0.5 * math.pi)
        assert parse_interval("window").kind == "window"

    def test_rejects_garbage(self):
        for text in ("pi", "1:0", "0:7", "a:b"):
            with pytest.raises(UsageError):
                parse_interval(text)

    @pytest.mark.parametrize("text", ["0.3:5.9", "1:2", "0.123456789:1", "0:pi", "0.5pi:pi"])
    def test_manifest_text_parses_back_to_the_same_floats(self, text):
        spec = parse_interval(text)
        again = parse_interval(_interval_text(spec))
        assert (again.lo, again.hi) == (spec.lo, spec.hi)

    def test_manifest_text_keeps_the_short_pi_form(self):
        assert _interval_text(parse_interval("0:pi")) == "0pi:1pi"
        assert _interval_text(parse_interval("0:0.5pi")) == "0pi:0.5pi"
        assert _interval_text(parse_interval("0.3:5.9")) == "0.3:5.9"


class TestSimulate:
    def test_degree_one_counts(self, runner, tmp_path):
        out = tmp_path / "run"
        res = runner.invoke(
            main, ["simulate", "--K", "1", "--reps", "10", "--seed", "3", "--out", str(out)]
        )
        assert res.exit_code == 0, res.output
        rows = list(csv.DictReader((out / "records.csv").read_text(encoding="utf-8").splitlines()))
        assert len(rows) == 10
        assert all(r["count"] == "1" for r in rows)
        assert rows[0]["method"] == "scan_bisect"

    def test_rerun_byte_identical(self, runner, tmp_path):
        args = ["simulate", "--K", "40", "--reps", "200", "--seed", "7"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert runner.invoke(main, args + ["--out", str(a)]).exit_code == 0
        assert runner.invoke(main, args + ["--out", str(b)]).exit_code == 0
        assert (a / "records.csv").read_bytes() == (b / "records.csv").read_bytes()
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()

    def test_multiple_degrees_summary_rows(self, runner, tmp_path):
        out = tmp_path / "multi"
        res = runner.invoke(
            main,
            ["simulate", "--K", "20", "--K", "30", "--reps", "50", "--seed", "1", "--out", str(out)],
        )
        assert res.exit_code == 0
        doc = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert [row["K"] for row in doc["per_K"]] == [20, 30]

    def test_manifest_round_trip(self, runner, tmp_path):
        first = tmp_path / "first"
        again = tmp_path / "again"
        args = ["simulate", "--K", "25", "--reps", "120", "--seed", "9", "--interval", "0:pi"]
        assert runner.invoke(main, args + ["--out", str(first)]).exit_code == 0
        res = runner.invoke(
            main, ["simulate", "--config", str(first / "manifest.json"), "--out", str(again)]
        )
        assert res.exit_code == 0, res.output
        assert (first / "records.csv").read_bytes() == (again / "records.csv").read_bytes()

    def test_manifest_at_another_density_is_usage_error(self, runner, tmp_path):
        # every count scans at the one lattice density: a manifest that asks
        # for another is refused, and one written before the field replays
        first = tmp_path / "first"
        args = ["simulate", "--K", "25", "--reps", "120", "--seed", "9", "--out", str(first)]
        assert runner.invoke(main, args).exit_code == 0
        config = json.loads((first / "manifest.json").read_text(encoding="utf-8"))["config"]
        assert config.pop("oversample") == 8
        manifest = tmp_path / "manifest.json"
        for extra, code in (({"oversample": 16}, 2), ({}, 0)):
            manifest.write_text(json.dumps({"config": {**config, **extra}}), encoding="utf-8")
            out = tmp_path / f"exit{code}"
            res = runner.invoke(main, ["simulate", "--config", str(manifest), "--out", str(out)])
            assert res.exit_code == code, res.output
            if code:
                assert "malformed manifest" in res.output and not out.exists()
            else:
                assert _digests(out) == _digests(first)

    @pytest.mark.parametrize(
        "text",
        [
            "{}",
            "not json",
            json.dumps({"config": {"K": [5], "reps": "many", "seed": 1, "interval": "0pi:1pi", "alpha": 0.25}}),
            json.dumps({"config": {"K": "12", "reps": 10, "seed": 1, "interval": "0pi:1pi", "alpha": 0.25}}),
            json.dumps({"config": {"K": [12.5], "reps": 10, "seed": 1, "interval": "0pi:1pi", "alpha": 0.25}}),
            json.dumps({"config": {"K": [5], "reps": 10, "seed": 7.9, "interval": "0pi:1pi", "alpha": 0.25}}),
            json.dumps({"config": {"K": [5], "reps": 10, "seed": True, "interval": "0pi:1pi", "alpha": 0.25}}),
            json.dumps({"config": {"K": [5], "reps": "40", "seed": 1, "interval": "0pi:1pi", "alpha": 0.25}}),
            json.dumps(
                {"config": {"K": [5], "reps": 10, "seed": 1, "interval": "0pi:1pi", "alpha": 0.25, "oversample": 8.0}}
            ),
            json.dumps({"config": {"K": [5], "reps": 10, "seed": 1, "interval": 5, "alpha": 0.25}}),
            json.dumps({"config": {"K": [5], "reps": 10, "seed": 1, "interval": "0pi:1pi", "alpha": "0.25"}}),
            json.dumps({"config": {"K": [5], "reps": 10, "seed": 1, "interval": "window", "alpha": False}}),
        ],
        ids=[
            "empty",
            "not-json",
            "reps-not-a-number",
            "K-a-string",
            "K-not-integers",
            "seed-a-float",
            "seed-a-bool",
            "reps-a-string",
            "oversample-a-float",
            "interval-a-number",
            "alpha-a-string",
            "alpha-a-bool",
        ],
    )
    def test_malformed_manifest_is_usage_error(self, runner, tmp_path, text):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        res = runner.invoke(main, ["simulate", "--config", str(manifest), "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert "malformed manifest" in res.output
        assert not out.exists()

    def test_undefined_moments_are_json_null(self, runner, tmp_path):
        # K = 1 counts are constant: the variance's standard error is undefined
        res = runner.invoke(main, ["simulate", "--K", "1", "--reps", "10", "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        doc = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"), parse_constant=reject)
        row = doc["per_K"][0]
        assert row["se_var"] is None
        assert row["ci99_var_per_kpi"] == [None, None]
        assert row["mean"] == 1.0

    def test_missing_degree_is_usage_error(self, runner, tmp_path):
        res = runner.invoke(main, ["simulate", "--reps", "10", "--out", str(tmp_path / "x")])
        assert res.exit_code == 2

    @pytest.mark.parametrize("threads", ["abc", "-2", "1.5"])
    def test_bad_thread_count_is_usage_error(self, runner, tmp_path, monkeypatch, threads):
        # 0 or unset means automatic; any other value must be a positive integer
        monkeypatch.setenv("TRIGZERO_THREADS", threads)
        res = runner.invoke(main, ["simulate", "--K", "5", "--reps", "10", "--out", str(tmp_path)])
        assert res.exit_code == 2, res.output
        assert "TRIGZERO_THREADS" in res.output
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("degree", ["0", "-3"])
    def test_degree_below_one_is_usage_error(self, runner, tmp_path, degree):
        res = runner.invoke(
            main, ["simulate", "--K", "20", "--K", degree, "--reps", "10", "--out", str(tmp_path)]
        )
        assert res.exit_code == 2, res.output
        assert not any(tmp_path.iterdir())

    def test_empty_window_of_a_later_degree_is_refused_before_the_first(self, runner, tmp_path, monkeypatch):
        # every degree's window is resolved up front: K = 200 is not counted
        # before the K = 1 window is found empty
        drawn = []
        monkeypatch.setattr(experiments, "draw_coefficient_batch", lambda *args: drawn.append(args))
        args = ["--K", "200", "--K", "1", "--reps", "2000", "--interval", "window", "--alpha", "0.49"]
        res = runner.invoke(main, ["simulate", *args, "--out", str(tmp_path / "x")])
        assert res.exit_code == 2, res.output
        assert "window is empty" in res.output
        assert drawn == []
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
    def test_seed_outside_key_word_is_usage_error(self, runner, tmp_path, seed):
        # -3 and 2**64 - 3 would otherwise key the same streams
        res = runner.invoke(main, ["simulate", "--K", "5", "--reps", "10", "--seed", seed, "--out", str(tmp_path / "x")])
        assert res.exit_code == 2, res.output
        assert "seed" in res.output
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["simulate", "oracle-check"])
    def test_reps_beyond_the_index_range_is_usage_error(self, runner, tmp_path, command):
        # replicate indices are 56 bits of the Philox key
        out = ["--out", str(tmp_path / "x")] if command == "simulate" else []
        res = runner.invoke(main, [command, "--K", "5", "--reps", str((1 << 56) + 1)] + out)
        assert res.exit_code == 2, res.output
        assert "56-bit" in res.output and "passed" not in res.output
        assert not (tmp_path / "x").exists()

    def test_repeated_degree_is_usage_error(self, runner, tmp_path):
        res = runner.invoke(
            main, ["simulate", "--K", "10", "--K", "10", "--reps", "10", "--out", str(tmp_path / "x")]
        )
        assert res.exit_code == 2, res.output
        assert not (tmp_path / "x").exists()
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps({"config": {"K": [10, 20, 10], "reps": 10, "seed": 1, "interval": "0pi:1pi", "alpha": 0.25}}),
            encoding="utf-8",
        )
        res = runner.invoke(main, ["simulate", "--config", str(manifest), "--out", str(tmp_path / "y")])
        assert res.exit_code == 2, res.output
        assert not (tmp_path / "y").exists()


class TestRice:
    def test_full_period_mean(self, runner):
        res = runner.invoke(main, ["rice", "--K", "100", "--moment", "1", "--interval", "0:2pi"])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["value"] == pytest.approx(116.18, abs=0.05)

    def test_half_period_mean(self, runner):
        res = runner.invoke(main, ["rice", "--K", "300", "--moment", "1", "--interval", "0:pi"])
        doc = json.loads(res.output)
        assert doc["value"] == pytest.approx(300 / math.sqrt(3.0) + 0.355, abs=0.3)

    def test_second_moment_window(self, runner):
        res = runner.invoke(main, ["rice", "--K", "10", "--moment", "2", "--interval", "window"])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["value"] > 0.0

    def test_second_moment_defaults_to_window(self, runner):
        # 0:pi reaches the ends of (0, K*pi), where the second moment is undefined
        default = runner.invoke(main, ["rice", "--K", "10", "--moment", "2"])
        window = runner.invoke(main, ["rice", "--K", "10", "--moment", "2", "--interval", "window"])
        assert default.exit_code == 0, default.output
        assert default.output == window.output

    def test_second_moment_bytes_do_not_depend_on_blas_threads(self):
        # fresh interpreters: the BLAS thread count is read when numpy loads
        src = str(Path(trigzero.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
            out = subprocess.run(
                [sys.executable, "-c", "from trigzero.cli import main; main()", "rice", "--K", "10", "--moment", "2"],
                env=env, capture_output=True, timeout=120,
            )
            assert out.returncode == 0, out.stderr
            outputs.append(out.stdout)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["value"] > 0.0

    def test_campaign_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # K = 100 on 0:pi takes the lattice-table route, one BLAS matrix
        # product per chunk; fresh interpreters, as above
        src = str(Path(trigzero.__file__).resolve().parents[1])
        records = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
            out = tmp_path / threads
            args = ["simulate", "--K", "100", "--reps", "300", "--out", str(out)]
            res = subprocess.run(
                [sys.executable, "-c", "from trigzero.cli import main; main()", *args],
                env=env, capture_output=True, timeout=120,
            )
            assert res.returncode == 0, res.stderr
            records.append((out / "records.csv").read_bytes())
        assert records[0] == records[1]
        assert records[0].count(b"\n") == 301

    def test_window_mean(self, runner):
        args = ["rice", "--K", "400", "--moment", "1", "--interval", "window", "--alpha", "0.3"]
        res = runner.invoke(main, args)
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        want = rice_mean(400, alpha=0.3)
        assert doc["value"] == want.value
        assert doc["error_estimate"] == want.quadrature_error_estimate
        assert doc["interval_rescaled"] == list(want.interval)

    def test_folded_mean_is_one_rice_mean_call(self, runner):
        res = runner.invoke(main, ["rice", "--K", "50", "--moment", "1", "--interval", "0.3:5.9"])
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        want = rice_mean(50, interval=(0.3 * 50, 5.9 * 50))
        assert doc["value"] == want.value
        assert doc["error_estimate"] == want.quadrature_error_estimate
        assert doc["interval_rescaled"] == list(want.interval)

    @pytest.mark.parametrize("interval, count", [("0:1.5pi", 1.0), ("0.5pi:1.5pi", 1.0), ("0:2pi", 2.0)])
    def test_single_mode_counts_each_root_once(self, runner, interval, count):
        # K = 1: cos(t) has roots pi/2 and 3 pi/2 on [0, 2 pi), counted on [lo, hi)
        res = runner.invoke(main, ["rice", "--K", "1", "--moment", "1", "--interval", interval])
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["value"] == count

    def test_unsupported_moment(self, runner):
        res = runner.invoke(main, ["rice", "--K", "10", "--moment", "3", "--interval", "0:pi"])
        assert res.exit_code == 2


class TestChaosVar:
    @pytest.mark.parametrize("qmax", ["1", "0", "-3"])
    def test_qmax_below_two_is_usage_error(self, runner, qmax):
        # a total without the order-2 term would drop the whole series
        res = runner.invoke(main, ["chaos-var", "--qmax", qmax])
        assert res.exit_code == 2, res.output
        assert "total" not in res.output

    @pytest.mark.parametrize("qmax", ["101", "172"])
    def test_qmax_above_limit_is_usage_error(self, runner, tmp_path, qmax):
        # 172 used to overflow a factorial; orders above 100 are float64 noise
        res = runner.invoke(main, ["chaos-var", "--qmax", qmax, "--out", str(tmp_path)])
        assert res.exit_code == 2, res.output
        assert "2..100" in res.output
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("tail", ["nan", "inf", "-inf", "1e300", "1.5e6"])
    def test_non_finite_tail_is_usage_error(self, runner, tmp_path, tail):
        res = runner.invoke(main, ["chaos-var", "--qmax", "4", "--tail", tail, "--out", str(tmp_path)])
        assert res.exit_code == 2, res.output
        assert not any(tmp_path.iterdir())

    def test_small_run_shape(self, runner, tmp_path):
        res = runner.invoke(
            main, ["chaos-var", "--qmax", "4", "--tail", "500", "--out", str(tmp_path)]
        )
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert [t["q"] for t in doc["terms"]] == [2, 3, 4]
        assert doc["total"] > 0.0
        lines = (tmp_path / "chaos_terms.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "q,sigma_sq,quadrature_error"
        # serialized floats round-trip exactly
        sigma = float(lines[1].split(",")[1])
        assert sigma == doc["terms"][0]["sigma_sq"]


class TestClt:
    def test_report_and_histogram(self, runner, tmp_path):
        out = tmp_path / "clt"
        res = runner.invoke(
            main, ["clt", "--K", "40", "--reps", "600", "--seed", "2", "--out", str(out)]
        )
        assert res.exit_code == 0
        doc = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert "p_value" in doc and doc["n"] == 600
        rows = list(csv.DictReader((out / "histogram.csv").read_text(encoding="utf-8").splitlines()))
        assert len(rows) == 51
        assert sum(int(r["count"]) for r in rows) == 600
        std = [float(x) for x in (out / "standardized.csv").read_text().splitlines()[1:]]
        assert len(std) == 600

    def test_degree_below_one_is_usage_error(self, runner, tmp_path):
        res = runner.invoke(
            main, ["clt", "--K", "0", "--reps", "600", "--out", str(tmp_path / "x")]
        )
        assert res.exit_code == 2, res.output

    def test_degenerate_degree_writes_nothing(self, runner, tmp_path):
        out = tmp_path / "x"
        res = runner.invoke(main, ["clt", "--K", "1", "--reps", "500", "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert "degenerate" in res.output
        assert not out.exists()

    def test_too_few_reps(self, runner, tmp_path):
        res = runner.invoke(
            main, ["clt", "--K", "40", "--reps", "100", "--seed", "2", "--out", str(tmp_path / "x")]
        )
        assert res.exit_code == 2


class _Reached(Exception):
    """Raised by a sentinel in place of the routine that would do the work."""


class TestRequestBounds:
    """Single-option ranges are declared on the options, and a degree or a
    Rice panel count above its bound is refused before the work starts."""

    @pytest.mark.parametrize(
        "command, ranges",
        [
            ("rice", ["[1<=x<=2]", "[0<x<0.5]"]),
            ("clt", ["x>=500"]),
            ("bounds-check", [f"[1<=x<={MAX_DEGREE}]", "[1<=x<=1000000]"]),
        ],
    )
    def test_help_prints_the_ranges(self, runner, command, ranges):
        res = runner.invoke(main, [command, "--help"])
        assert res.exit_code == 0, res.output
        for text in ranges:
            assert text in res.output

    @pytest.mark.parametrize(
        "args, module, name, largest",
        [
            (["simulate", "--reps", "2"], experiments, "_count_chunks", MAX_DEGREE),
            (["clt", "--reps", "500"], experiments, "_count_chunks", MAX_DEGREE),
            # 2K half-period panels on the default 0:pi, at most 2**22
            (["rice", "--moment", "1"], rice, "_panel_edges", 1 << 21),
            # the default window at K = 2053 spans 4,095 panels, at 2054 4,097 (at most 2**12)
            (["rice", "--moment", "2"], rice, "_pair_integral", 2053),
            (["bounds-check"], covariance, "c_k_derivs", MAX_DEGREE),
            # a short interval passes both panel caps; the degree cap holds there
            (["rice", "--moment", "1", "--interval", "0:1e-6"], rice, "_panel_edges", 1 << 21),
            (["rice", "--moment", "2", "--interval", "1e-3:1.001e-3"], rice, "_pair_integral", 1 << 21),
        ],
        ids=["simulate", "clt", "rice-mean", "rice-second", "bounds-check", "rice-mean-short", "rice-second-short"],
    )
    def test_size_bound(self, runner, tmp_path, monkeypatch, args, module, name, largest):
        calls = []

        def sentinel(*a, **kw):
            calls.append(a)
            raise _Reached

        monkeypatch.setattr(module, name, sentinel)
        out = ["--out", str(tmp_path / "x")] if args[0] in ("simulate", "clt") else []
        res = runner.invoke(main, args + ["--K", str(largest + 1)] + out)
        assert res.exit_code == 2, res.output
        assert not calls and not (tmp_path / "x").exists()
        assert "{" not in res.output  # no JSON printed
        # the largest allowed value passes every check and reaches the work
        res = runner.invoke(main, args + ["--K", str(largest)] + out)
        assert isinstance(res.exception, _Reached), res.output
        assert len(calls) == 1

    def test_alpha_outside_its_range(self, runner):
        # the window exponent is refused whether or not the interval is the window
        res = runner.invoke(main, ["rice", "--K", "5", "--moment", "1", "--interval", "0:2pi", "--alpha", "0.7"])
        assert res.exit_code == 2, res.output
        assert "0<x<0.5" in res.output and "{" not in res.output


def _flag_every_row(a, b, K, interval, **kw):
    counts, warns = zeros.scan_count_batch(a, b, K, interval, **kw)
    return counts, warns + 1


def _stalled(*args, **kwargs):
    raise NumericError("quadrature stalled: estimate 1 on value 1")


def _one_mismatch(K_list, reps, seed):
    mismatch = {"K": 5, "index": 0, "scan": 4, "eigen": 6}
    return {"runs": 1, "mismatches": [mismatch], "max_root_gap": 0.0, "passed": False}


class TestNumericFailure:
    """A numeric failure exits 3, says why and writes no file."""

    @pytest.mark.parametrize(
        "args, target, replacement, stream, why",
        [
            (["simulate", "--K", "10", "--reps", "20", "--out", "x"], "trigzero.experiments.scan_count_batch",
             _flag_every_row, "stderr", "numeric failure: 20 of 20 replicates excluded at K=10"),
            (["rice", "--K", "10", "--moment", "1"], "trigzero.rice._adaptive_gl",
             _stalled, "stderr", "numeric failure: quadrature stalled"),
            (["oracle-check", "--K", "5", "--reps", "1"], "trigzero.cli.oracle_agreement",
             _one_mismatch, "stdout", '"eigen": 6'),
        ],
        ids=["simulate", "rice", "oracle-check"],
    )
    def test_exits_3(self, runner, tmp_path, monkeypatch, args, target, replacement, stream, why):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(target, replacement)
        res = runner.invoke(main, args)
        assert res.exit_code == 3, res.output
        assert why in getattr(res, stream)
        assert not list(tmp_path.iterdir())


class TestIoFailure:
    """A file that cannot be written exits 4 and leaves no partial output."""

    def test_simulate_removes_written_files(self, runner, tmp_path):
        (tmp_path / "summary.json").mkdir()
        res = runner.invoke(
            main, ["simulate", "--K", "5", "--reps", "10", "--seed", "1", "--out", str(tmp_path)]
        )
        assert res.exit_code == 4, res.output
        assert not (tmp_path / "records.csv").exists()
        assert not (tmp_path / "manifest.json").exists()

    def test_chaos_var_csv_unwritable(self, runner, tmp_path):
        (tmp_path / "chaos_terms.csv").mkdir()
        res = runner.invoke(
            main, ["chaos-var", "--qmax", "2", "--tail", "100", "--out", str(tmp_path)]
        )
        assert res.exit_code == 4, res.output
        assert '"total"' not in res.stdout

    def test_clt_out_is_a_file(self, runner, tmp_path):
        out = tmp_path / "taken"
        out.write_text("x", encoding="utf-8")
        res = runner.invoke(
            main, ["clt", "--K", "10", "--reps", "500", "--seed", "1", "--out", str(out)]
        )
        assert res.exit_code == 4, res.output
        assert out.read_text(encoding="utf-8") == "x"


def _digests(outdir):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in outdir.iterdir()}


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestOutputBytes:
    """SHA-256 of every file a command writes, pinned to the released bytes."""

    def test_window_two_degrees(self, runner, tmp_path):
        args = ["simulate", "--K", "20", "--K", "40", "--reps", "700", "--interval", "window"]
        res = runner.invoke(main, args + ["--seed", "3", "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        assert _digests(tmp_path) == {
            "records.csv": "125054166650a193927f7fd8008b975ce4b70136a72d61dcf0f95dd4464ccc98",
            "summary.json": "24cf0df40a948cfe5831cdcffea9357d1e62a68b06da5388ac30c9308fd7377d",
            "manifest.json": "ea31677619932d2746e3efcf159ff2e44d8e17f312672f881c8bdd44302fab60",
        }

    def test_stationary_off_lattice(self, runner, tmp_path):
        args = ["simulate", "--K", "30", "--reps", "600", "--ensemble", "stationary"]
        args += ["--interval", "0.3:5.9", "--seed", "9", "--out", str(tmp_path)]
        res = runner.invoke(main, args)
        assert res.exit_code == 0, res.output
        assert _digests(tmp_path) == {
            "records.csv": "746fe8c3760d99806b56f51e587b5bcc60a3e785ce3d84df016f9678700ac722",
            "summary.json": "1c550dc7dadd144bfc3deb762798d7fd1c45b7502f901f4022103faef570d43f",
            "manifest.json": "4815b48af3b642aae172e6ba662772d776c62fb760c72b06b1175409ead8343e",
        }

    def test_clt(self, runner, tmp_path):
        res = runner.invoke(
            main, ["clt", "--K", "60", "--reps", "1000", "--seed", "2", "--out", str(tmp_path)]
        )
        assert res.exit_code == 0, res.output
        assert _digests(tmp_path) == {
            "report.json": "cdbd6e3466b426a320ee413cff52c7bba900e8aa6d57e7e8322206226a208d16",
            "standardized.csv": "e9222b862a8c5d179700b7e1896198a7ac5e8c1d17175b4f6ffc2ff3671a9ef7",
            "histogram.csv": "8049332b6207c460d7b3b4b732758811a00f3185904f39fd97893bf049d4ae88",
        }

    def test_chaos_var(self, runner, tmp_path):
        res = runner.invoke(main, ["chaos-var", "--qmax", "8", "--tail", "10000", "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        assert _sha256(res.stdout) == "f6699033f391c91514af59108192930dc1b0b62bf93c18d19cbb67f4b5b13b60"
        assert _digests(tmp_path) == {
            "chaos_terms.csv": "519f942181919fda27a1d25c5a896ab1549d082ded003ac80d3504b22ee4ac55",
        }

    @pytest.mark.parametrize(
        "args, digest",
        [
            (["bounds-check"], "80af92f006a673ac33a766aa0b1764190c88b4e1b262417f2f65bb0f3f12ac06"),
            (
                ["rice", "--K", "50", "--moment", "1", "--interval", "0.3:5.9"],
                "e435c904bce9933f2f31eae21b96cf33fc73b189d4ea1171aa9708135456e502",
            ),
            (
                ["rice", "--K", "30", "--moment", "2", "--interval", "0.2pi:0.75pi"],
                "a4fb89814d01bff41b3e7bca0178249b421c25dd8bb9b006fe3160a7ba4e0004",
            ),
        ],
        ids=["bounds-check", "rice-mean-folded", "rice-second"],
    )
    def test_printed_json(self, runner, args, digest):
        res = runner.invoke(main, args)
        assert res.exit_code == 0, res.output
        assert _sha256(res.stdout) == digest


class TestSuites:
    def test_oracle_check(self, runner):
        res = runner.invoke(main, ["oracle-check", "--K", "5", "--K", "10", "--reps", "25"])
        assert res.exit_code == 0
        assert json.loads(res.output)["passed"] is True

    def test_bounds_check(self, runner):
        res = runner.invoke(main, ["bounds-check", "--K", "10", "--K", "50", "--points", "100"])
        assert res.exit_code == 0
        assert all(entry["passed"] for entry in json.loads(res.output))

    def test_bounds_check_violation(self, runner, monkeypatch):
        # c shifted by 10 from lag 4 on breaks |c| <= pi/tau; the report lists the first failure
        from trigzero import covariance

        real = covariance.c_k_derivs

        def shifted(K, lags):
            c, c1, c2 = real(K, lags)
            return c + np.where(lags >= 4.0, 10.0, 0.0), c1, c2

        monkeypatch.setattr(covariance, "c_k_derivs", shifted)
        res = runner.invoke(main, ["bounds-check", "--K", "10", "--points", "20"])
        assert res.exit_code == 3, res.output
        (entry,) = json.loads(res.output)
        assert (entry["K"], entry["checked"], entry["passed"]) == (10, 20, False)
        assert entry["violation"][1] == "value" and entry["violation"][0] >= 4.0
        assert len(entry["violation"]) == 4

    @pytest.mark.parametrize(
        "args",
        [
            ["bounds-check", "--K", "0"],
            ["bounds-check", "--points", "-3"],
            ["oracle-check", "--reps", "0"],
            ["oracle-check", "--reps", "-5"],
            ["oracle-check", "--K", "0"],
            ["oracle-check", "--K", "300", "--reps", "1"],
            ["bounds-check", "--points", "1000000000000000"],
        ],
    )
    def test_rejects_empty_requests(self, runner, args):
        res = runner.invoke(main, args)
        assert res.exit_code == 2, res.output
        assert "passed" not in res.output
