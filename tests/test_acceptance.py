"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line through the terminal-summary hook in
conftest.py, then asserts.  The shared 10^4-replicate campaign at
K in {100, 200, 400} and the q_max = 20 chaos sum come from session fixtures.
"""

import math

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import record_acceptance
from reference import mehler_product_expectation
from trigzero.cli import main as cli_main
from trigzero.covariance import Kernel, c_k, c_k_derivs, kernel_bounds_check
from trigzero.experiments import (
    ExperimentConfig,
    IntervalSpec,
    run_campaign,
    window_chop_check,
)
from trigzero.hermite import hermite_eval, hermite_table
from trigzero.rice import rice_mean, wilkins_mean
from trigzero.sampling import draw_coefficients
from trigzero.zeros import count_zeros_scan, oracle_agreement

SQRT3 = math.sqrt(3.0)


class TestCriterion1MeanScaling:
    def test_mean_scaling(self):
        res = rice_mean(300)
        ratio = res.value / (300.0 / SQRT3)
        cfg = ExperimentConfig(
            K_list=(300,),
            replicates=4000,
            interval=IntervalSpec("original", 0.0, np.pi),
            alpha=0.25,
            seed=0,
        )
        row = run_campaign(cfg).summaries[0]
        gap_se = abs(row.mean - res.value) / row.se_mean
        ok = 0.999 <= ratio <= 1.003 and gap_se < 4.0
        record_acceptance(
            "criterion 1: mean scaling",
            ok,
            f"ratio={ratio:.5f} in [0.999, 1.003]; MC gap {gap_se:.2f} SE (4000 reps)",
        )
        assert 0.999 <= ratio <= 1.003
        assert gap_se < 4.0


class TestCriterion2Wilkins:
    def test_full_period_vs_expansion(self):
        value = 2.0 * rice_mean(100).value  # [0, 2*pi] by the doubling identity
        target = 201.23 / SQRT3
        ok = abs(value - target) < 0.5
        record_acceptance(
            "criterion 2: asymptotic mean expansion",
            ok,
            f"|{value:.4f} - {target:.4f}| = {abs(value - target):.4f} < 0.5",
        )
        assert ok


class TestCriterion3VarianceConstant:
    def test_variance_band_and_discrimination(self, variance_campaign):
        rows = {row.K: row for row in variance_campaign.summaries}
        in_band = {K: 0.07 <= rows[K].var_per_kpi <= 0.11 for K in (100, 200, 400)}
        lo, hi = rows[400].ci99_var_per_kpi
        excludes = hi < 0.257
        detail = ", ".join(f"K={K}: {rows[K].var_per_kpi:.4f}" for K in (100, 200, 400))
        record_acceptance(
            "criterion 3: variance constant",
            all(in_band.values()) and excludes,
            f"{detail}; CI99(400)=({lo:.4f}, {hi:.4f}) excludes 0.257",
        )
        assert all(in_band.values()), detail
        assert excludes


class TestCriterion4ChaosSum:
    def test_chaos_total_band_and_mc_agreement(self, chaos_total, variance_campaign):
        total = chaos_total.total
        row = {r.K: r for r in variance_campaign.summaries}[400]
        lo, hi = row.ci99_var_per_kpi
        ok = 0.084 <= total <= 0.094 and lo <= total <= hi
        record_acceptance(
            "criterion 4: chaos-sum constant",
            ok,
            f"total={total:.5f} in [0.084, 0.094] and inside MC CI99 ({lo:.4f}, {hi:.4f})",
        )
        assert 0.084 <= total <= 0.094
        assert lo <= total <= hi


class TestCriterion5CLT:
    def test_normality_at_k500(self):
        cfg = ExperimentConfig(
            K_list=(500,),
            replicates=2000,
            interval=IntervalSpec("original", 0.0, np.pi),
            alpha=0.25,
            seed=0,
        )
        rep = run_campaign(cfg).summaries[0].normality
        ok = rep.p_value > 0.01 and abs(rep.skewness) < 0.15 and abs(rep.excess_kurtosis) < 0.3
        record_acceptance(
            "criterion 5: CLT at K=500",
            ok,
            f"KS p={rep.p_value:.4f} > 0.01, |skew|={abs(rep.skewness):.4f} < 0.15, "
            f"|ex.kurt|={abs(rep.excess_kurtosis):.4f} < 0.3",
        )
        assert rep.p_value > 0.01
        assert abs(rep.skewness) < 0.15
        assert abs(rep.excess_kurtosis) < 0.3


class TestCriterion6OracleEquivalence:
    def test_scan_equals_eigen(self):
        report = oracle_agreement([5, 10, 20], 1000, seed=424242)
        ok = report["passed"] and report["max_root_gap"] < 1e-8
        record_acceptance(
            "criterion 6: oracle equivalence",
            ok,
            f"{report['runs']} runs, {len(report['mismatches'])} mismatches, "
            f"max root gap {report['max_root_gap']:.2e} < 1e-8",
        )
        assert report["passed"], report["mismatches"]
        assert report["max_root_gap"] < 1e-8


class TestCriterion7InvariantSuites:
    def test_invariant_bundle(self):
        failures = []

        # Hermite orthogonality (orthonormalized, 64-node quadrature)
        x, w = np.polynomial.hermite.hermgauss(64)
        x = x * math.sqrt(2.0)
        w = w / math.sqrt(math.pi)
        table = hermite_table(12, x)
        for p in range(13):
            for q in range(13):
                inner = float(np.sum(w * table[p] * table[q]))
                expected = math.factorial(q) if p == q else 0.0
                norm = max(math.sqrt(math.factorial(p) * math.factorial(q)), 1.0)
                if abs(inner - expected) / norm >= 1e-8:
                    failures.append(f"orthogonality p={p} q={q}")

        # diagram sum vs 2-D quadrature special case and known values
        if abs(mehler_product_expectation((2, 0, 2, 0), (0.5, 0, 0, 0)) - 0.5) >= 1e-4:
            failures.append("mehler (2,0,2,0)")
        if abs(mehler_product_expectation((1, 0, 1, 0), (0.3, 0, 0, 0)) - 0.3) >= 1e-4:
            failures.append("mehler (1,0,1,0)")
        rng = np.random.default_rng(99)
        xg, wg = np.polynomial.hermite.hermgauss(12)
        xg = xg * math.sqrt(2.0)
        wg = wg / math.sqrt(math.pi)
        grids = np.meshgrid(xg, xg, xg, xg, indexing="ij")
        pts = np.stack([g.ravel() for g in grids])
        wmesh = np.meshgrid(wg, wg, wg, wg, indexing="ij")
        weights = (wmesh[0] * wmesh[1] * wmesh[2] * wmesh[3]).ravel()
        checked = 0
        while checked < 5:
            rho = rng.uniform(-0.8, 0.8, size=4)
            gram = np.array(
                [
                    [1, 0, rho[0], rho[1]],
                    [0, 1, rho[2], rho[3]],
                    [rho[0], rho[2], 1, 0],
                    [rho[1], rho[3], 0, 1],
                ]
            )
            if np.linalg.eigvalsh(gram)[0] <= 1e-6:
                continue
            checked += 1
            chol = np.linalg.cholesky(gram + 1e-12 * np.eye(4))
            corr = chol @ pts
            orders = tuple(rng.integers(0, 5, size=4))
            vals = np.ones(pts.shape[1])
            for row, order in zip(corr, orders):
                vals = vals * hermite_eval(order, row)
            quad_val = float(weights @ vals)
            if abs(quad_val - mehler_product_expectation(orders, tuple(rho))) >= 1e-4:
                failures.append(f"mehler random {orders}")

        # kernel partials vs finite differences
        kern = Kernel(50)
        s = rng.uniform(1.0, 40.0, size=100)
        t = s + rng.uniform(0.5, 15.0, size=100)
        h = 1e-5

        def r(a, b):
            return kern.partials(a, b)[0]

        fd_s = (r(s + h, t) - r(s - h, t)) / (2 * h)
        fd_st = (
            r(s + h, t + h) - r(s + h, t - h)
            - r(s - h, t + h) + r(s - h, t - h)
        ) / (4 * h * h)
        _, r_s, _, _, r_st, _ = kern.partials(s, t)
        if np.max(np.abs(r_s - fd_s) / np.maximum(np.abs(fd_s), 1e-3)) >= 1e-4:
            failures.append("kernel d/ds")
        if np.max(np.abs(r_st - fd_st) / np.maximum(np.abs(fd_st), 1.0)) >= 1e-4:
            failures.append("kernel d2/dsdt")

        # lag-covariance inequality grids
        for K in (50, 500):
            rep = kernel_bounds_check(K, np.geomspace(0.05, K * np.pi, 400))
            if not rep.passed:
                failures.append(f"bounds K={K}")

        # doubling identity on every replicate
        for idx in range(200):
            cv = draw_coefficients(15, "cosine", 31, idx)
            n_half = count_zeros_scan(cv, (0.0, np.pi), locate_roots=False).count
            n_full = count_zeros_scan(cv, (0.0, 2 * np.pi), locate_roots=False).count
            if n_full != 2 * n_half:
                failures.append(f"doubling idx={idx}")

        record_acceptance(
            "criterion 7: invariant suites",
            not failures,
            "orthogonality, diagram-vs-quadrature, kernel derivatives, "
            "covariance bounds, doubling" + (f"; FAILED: {failures}" if failures else ""),
        )
        assert not failures, failures


class TestCriterion8WindowChop:
    def test_ratio_strictly_decreasing(self):
        ratios = []
        for K in (100, 400, 1600):
            rep = window_chop_check(K, 0.25, 1500, seed=5)
            ratios.append(rep.ratio)
        ok = ratios[0] > ratios[1] > ratios[2]
        record_acceptance(
            "criterion 8: window-chop trend",
            ok,
            "ratios " + " > ".join(f"{r:.4f}" for r in ratios) + " over K=100,400,1600",
        )
        assert ok, ratios


class TestCriterion9Determinism:
    def test_byte_identical_records_across_workers(self, tmp_path):
        runner = CliRunner()
        blobs = {}
        for workers in (1, 4, 16):
            out = tmp_path / f"w{workers}"
            res = runner.invoke(
                cli_main,
                ["simulate", "--K", "60", "--reps", "800", "--seed", "7", "--out", str(out)],
                env={"TRIGZERO_THREADS": str(workers)},
            )
            assert res.exit_code == 0, res.output
            blobs[workers] = (out / "records.csv").read_bytes()
        ok = blobs[1] == blobs[4] == blobs[16]
        record_acceptance(
            "criterion 9: determinism",
            ok,
            f"records.csv byte-identical under 1, 4, 16 workers ({len(blobs[1])} bytes)",
        )
        assert ok
