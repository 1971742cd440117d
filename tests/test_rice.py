"""Rice moment integrals: means, second moments, and their Monte Carlo ties."""

import math

import numpy as np
import pytest

from trigzero import rice
from trigzero.errors import UsageError
from trigzero.experiments import ExperimentConfig, IntervalSpec, run_campaign
from trigzero.rice import (
    _BLOCK,
    _adaptive_gl,
    _gl_panels,
    conditional_abs_moment,
    rice_mean,
    rice_second_moment,
    rice_variance,
    wilkins_mean,
    window_bounds,
    zero_intensity,
)

SQRT3 = np.sqrt(3.0)


class TestMean:
    def test_degenerate_single_mode(self):
        # K = 1 is a random amplitude times cos, one deterministic root
        assert rice_mean(1).value == 1.0
        assert rice_mean(1, interval=(0.0, 1.0)).value == 0.0

    def test_leading_order_ratio(self):
        res = rice_mean(300)
        assert 0.999 <= res.value / (300.0 / SQRT3) <= 1.003

    def test_against_asymptotic_expansion(self):
        # doubling the half-period mean gives the full-period mean
        full_period = 2.0 * rice_mean(100).value
        assert abs(full_period - wilkins_mean(100)) < 0.5
        assert abs(2.0 * rice_mean(300).value - wilkins_mean(300)) < 0.05

    def test_wilkins_values(self):
        assert wilkins_mean(100) == pytest.approx(201.23 / SQRT3, rel=1e-12)
        assert wilkins_mean(10 ** 6) / (2.0 * 10 ** 6 / SQRT3) == pytest.approx(1.0, abs=1e-5)

    def test_monotone_in_right_endpoint(self):
        K = 40
        xs = np.linspace(1.0, K * np.pi, 12)
        vals = [rice_mean(K, interval=(0.0, x)).value for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_scale_consistency(self):
        # the rescaled-axis integral covers the original [0, pi] exactly
        K = 25
        full = rice_mean(K, interval=(0.0, K * np.pi)).value
        # sum of window and its two edges
        w0, w1 = window_bounds(K, 0.25)
        parts = (
            rice_mean(K, interval=(0.0, w0)).value
            + rice_mean(K, interval=(w0, w1)).value
            + rice_mean(K, interval=(w1, K * np.pi)).value
        )
        assert parts == pytest.approx(full, rel=1e-7)

    def test_intensity_vanishes_at_edges(self):
        K = 30
        assert zero_intensity(K, 0.0) == pytest.approx(0.0, abs=1e-8)
        assert zero_intensity(K, K * np.pi) == pytest.approx(0.0, abs=1e-8)

    def test_bad_interval(self):
        with pytest.raises(UsageError):
            rice_mean(10, interval=(0.0, 11 * np.pi))
        with pytest.raises(UsageError):
            rice_mean(0)


class TestPanelRule:
    def test_mean_is_one_integrand_call(self, monkeypatch):
        calls = []
        inner = rice.zero_intensity

        def counted(K, t):
            calls.append(t.size)
            return inner(K, t)

        monkeypatch.setattr(rice, "zero_intensity", counted)
        rice_mean(1600, interval=(0.0, 400.0 * np.pi))
        assert calls == [800 * 24]  # all 800 half-period panels, 16 + 8 nodes each

    def test_narrow_bump_is_refined(self):
        width = 0.02
        sizes = []

        def bump(t):
            sizes.append(t.size)
            return np.exp(-0.5 * ((t - 2.0) / width) ** 2)

        val, err = _adaptive_gl(bump, 0.0, 5.0)
        scale = width * math.sqrt(2.0)
        exact = width * math.sqrt(0.5 * math.pi) * (math.erf(3.0 / scale) + math.erf(2.0 / scale))
        assert abs(val - exact) <= err
        assert err <= 1e-8 * val
        assert len(sizes) > 1  # the first round's 4 panels could not resolve it

    def test_integrand_calls_are_bounded(self):
        sizes = []

        def cheap(t):
            sizes.append(t.size)
            return np.ones_like(t)

        assert _BLOCK < 6000
        val, _ = _adaptive_gl(cheap, 0.0, 3000.0 * np.pi)  # 6000 panels of 24 nodes
        assert val == pytest.approx(3000.0 * np.pi, rel=1e-13)
        assert max(sizes) <= _BLOCK * 24
        assert sum(sizes) == 6000 * 24

    def test_ragged_panels_match_scalar_tilings(self):
        lo, his = 0.3, np.array([0.31, 2.0, np.pi, 40.0, 17.0 * np.pi / 2.0])
        nodes, weights, owner = _gl_panels(lo, his, 16)
        assert np.all(np.diff(owner) >= 0)
        per_node = np.repeat(owner, 16)
        for i, hi in enumerate(his):
            want_nodes, want_weights, want_owner = _gl_panels(lo, hi, 16)
            assert np.array_equal(nodes[per_node == i], want_nodes)
            assert np.array_equal(weights[per_node == i], want_weights)
            assert np.all(want_owner == 0)
            assert weights[per_node == i].sum() == pytest.approx(hi - lo, rel=1e-14)

    def test_scalar_tiling_matches_linspace(self):
        lo, hi = 1.1, 123.456  # where the last edge k * step + lo misses hi
        nodes, weights, _ = _gl_panels(lo, hi, 8)
        x, w = np.polynomial.legendre.leggauss(8)
        edges = np.linspace(lo, hi, int(np.ceil((hi - lo) / (0.5 * np.pi))) + 1)
        half = 0.5 * np.diff(edges)
        mid = 0.5 * (edges[:-1] + edges[1:])
        assert np.array_equal(nodes, (mid[:, None] + half[:, None] * x).ravel())
        assert np.array_equal(weights, (half[:, None] * w).ravel())


class TestBenchmarkPins:
    """Values of the term-wise lag kernel at the benchmark's sizes."""

    def test_mean_k1600(self):
        res = rice_mean(1600, interval=(0.0, 400.0 * np.pi))
        assert abs(res.value - 230.97369977238412) <= res.quadrature_error_estimate + 3.03e-11

    def test_second_moment_k30(self):
        res = rice_second_moment(30, interval=(6.0 * np.pi, 22.5 * np.pi))
        assert abs(res.value - 91.46163662710454) <= res.quadrature_error_estimate + 3.29e-8


class TestWindowChop:
    def test_ratio_decreases_in_K(self):
        ratios = []
        for K in (100, 400, 1600):
            full = rice_mean(K).value
            win = rice_mean(K, alpha=0.25).value
            ratios.append((full - win) / np.sqrt(K * np.pi))
        assert ratios[0] > ratios[1] > ratios[2]

    def test_mean_bound_at_k400_spec_constant(self):
        """Chopped mass below 0.05 at K=400: the stated bound is unattainable.

        The exact value of (mean[0, K*pi] - mean[window]) / sqrt(K*pi) at
        K=400, alpha=1/4 is 0.0567 (adaptive quadrature with 1e-8 error
        estimate; Monte Carlo with 3000 replicates reproduces 0.0565 +/-
        0.0005), so no correct implementation can land under 0.05.  The test
        is kept faithful to its stated constant and is expected to fail; the
        decreasing-trend criterion in the acceptance suite is the operative
        check of the underlying vanishing property.
        """
        K = 400
        full = rice_mean(K).value
        win = rice_mean(K, alpha=0.25).value
        ratio = (full - win) / np.sqrt(K * np.pi)
        assert ratio < 0.05, f"exact chopped-mass ratio is {ratio:.4f}"


class TestConditionalMoment:
    def test_independent(self):
        assert conditional_abs_moment(1.0, 1.0, 0.0) == pytest.approx(2.0 / np.pi, rel=1e-14)

    def test_perfectly_correlated(self):
        assert conditional_abs_moment(1.0, 1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
        assert conditional_abs_moment(1.0, 1.0, -1.0) == pytest.approx(1.0, rel=1e-14)

    def test_against_monte_carlo(self):
        rng = np.random.default_rng(3)
        rho = 0.6
        z = rng.multivariate_normal([0, 0], [[1, rho], [rho, 1]], size=10 ** 6)
        mc = np.abs(z[:, 0] * z[:, 1]).mean()
        assert conditional_abs_moment(1.0, 1.0, rho) == pytest.approx(mc, abs=4e-3)


class TestSecondMoment:
    def _conditional_covariance_via_kernel(self, K, s, t):
        # independent assembly of the conditioned derivative-pair covariance
        # through the standardized-kernel object
        from trigzero.covariance import Kernel, StandardizedKernel

        sk = StandardizedKernel(Kernel(K))
        rho, gs, gt, r11 = sk.parts(s, t)
        vs2 = sk.v(s) ** 2
        vt2 = sk.v(t) ** 2
        det = 1.0 - rho * rho
        s00 = vs2 - gs * gs / det
        s11 = vt2 - gt * gt / det
        s01 = r11 + rho * gs * gt / det
        return rho, s00, s11, s01

    def test_conditioned_covariance_positive_off_diagonal(self):
        K = 50
        rng = np.random.default_rng(17)
        w0, w1 = window_bounds(K, 0.25)
        s = rng.uniform(w0, w1 - 1.0, size=200)
        t = s + rng.uniform(0.05, w1 - s)
        _, s00, s11, s01 = self._conditional_covariance_via_kernel(K, s, t)
        assert np.all(s00 >= -1e-10)
        assert np.all(s11 >= -1e-10)
        # PSD: nonnegative determinant up to rounding
        assert np.all(s00 * s11 - s01 * s01 >= -1e-10)

    def test_integrand_matches_kernel_route(self):
        # the fused integrand used by the quadrature vs the generic
        # standardized-kernel assembly
        from trigzero.rice import _pair_intensity

        K = 30
        rng = np.random.default_rng(23)
        w0, w1 = window_bounds(K, 0.25)
        s = rng.uniform(w0, w1 - 2.0, size=100)
        t = s + rng.uniform(0.1, 2.0, size=100)
        rho, s00, s11, s01 = self._conditional_covariance_via_kernel(K, s, t)
        det = 1.0 - rho * rho
        su, sv = np.sqrt(np.maximum(s00, 0)), np.sqrt(np.maximum(s11, 0))
        rc = np.clip(s01 / np.maximum(su * sv, 1e-300), -1, 1)
        want = conditional_abs_moment(su, sv, rc) / (2.0 * np.pi * np.sqrt(det))
        got = _pair_intensity(K, s, t)
        assert np.allclose(got, want, rtol=1e-9, atol=1e-13)

    def test_requires_valid_inputs(self):
        with pytest.raises(UsageError):
            rice_second_moment(1)
        with pytest.raises(UsageError):
            rice_second_moment(20, interval=(0.0, 20 * np.pi))

    def test_positive_and_bounded(self):
        res = rice_second_moment(10)
        m1 = rice_mean(10, alpha=0.25).value
        assert 0.0 < res.value < (m1 + 3.0) ** 2

    def test_variance_against_monte_carlo(self):
        # full-scale cross-check: windowed zero-count variance at K = 50
        K, reps = 50, 10 ** 5
        rv = rice_variance(K)
        cfg = ExperimentConfig(
            K_list=(K,),
            replicates=reps,
            interval=IntervalSpec("window"),
            alpha=0.25,
            seed=600,
        )
        row = run_campaign(cfg).summaries[0]
        assert abs(row.mean - rv.mean.value) < 4.0 * row.se_mean
        assert abs(row.variance - rv.variance) < 4.0 * row.se_var
