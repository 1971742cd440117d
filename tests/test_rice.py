"""Rice moment integrals: means, second moments, and their Monte Carlo ties."""

import math

import numpy as np
import pytest
from reference import ragged_pair_integral

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

    def test_scalar_tiling_matches_linspace(self):
        lo, hi = 1.1, 123.456  # where the last edge k * step + lo misses hi
        nodes, weights = _gl_panels(lo, hi, 8)
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
        from reference import StandardizedKernel
        from trigzero.covariance import Kernel

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
        # the fused integrand (_pair_core, which the quadrature feeds from
        # its lag tables) vs the generic standardized-kernel assembly
        from reference import _pair_intensity

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
        with pytest.raises(UsageError):
            rice_second_moment(20, interval=(1.0, 1.005))

    def test_integrand_at_first_lag_node_matches_mpmath(self):
        # the lag integral starts at the diagonal u = 0; that is sound while
        # float64 keeps the integrand accurate at the smallest lag node
        mp = pytest.importorskip("mpmath")
        from reference import _pair_intensity

        K, w0, w1 = 30, 6.0 * np.pi, 22.5 * np.pi
        u = _gl_panels(0.0, w1 - w0, 16)[0][0]
        s = np.linspace(w0, w1 - u, 20)
        got = _pair_intensity(K, s, s + u)
        with mp.workdps(40):
            K_ = mp.mpf(K)

            def lag(tau):
                terms = [(n / K_, mp.cos(n * tau / K_), mp.sin(n * tau / K_)) for n in range(1, K + 1)]
                return (
                    mp.fsum(c for _, c, _ in terms) / K_,
                    -mp.fsum(m * sn for m, _, sn in terms) / K_,
                    -mp.fsum(m * m * c for m, c, _ in terms) / K_,
                )

            c2_0 = -(K_ + 1) * (2 * K_ + 1) / (6 * K_ * K_)
            for si, fi in zip(s, got):
                ss = mp.mpf(float(si))
                tt = ss + mp.mpf(float(u))
                cm, c1m, c2m = lag(tt - ss)
                cp, c1p, c2p = lag(tt + ss)
                (cs, c1s, c2s), (ct, c1t, c2t) = lag(2 * ss), lag(2 * tt)
                r, r_s, r_t, r_st = (cm + cp) / 2, (c1p - c1m) / 2, (c1m + c1p) / 2, (c2p - c2m) / 2
                Vs, Vt = mp.sqrt((1 + cs) / 2), mp.sqrt((1 + ct) / 2)
                Ps, Pt = c1s / (2 * Vs * Vs), c1t / (2 * Vt * Vt)
                rho = r / (Vs * Vt)
                g_s = (r_s - r * Ps) / (Vs * Vt)
                g_t = (r_t - r * Pt) / (Vs * Vt)
                r11 = (r_st - r_t * Ps - r_s * Pt + r * Ps * Pt) / (Vs * Vt)
                det = 1 - rho * rho
                su2 = (c2s - c2_0 - c1s * c1s / (1 + cs)) / (1 + cs) - g_s * g_s / det
                sv2 = (c2t - c2_0 - c1t * c1t / (1 + ct)) / (1 + ct) - g_t * g_t / det
                c12 = r11 + rho * g_s * g_t / det
                euv = 2 / mp.pi * (mp.sqrt(su2 * sv2 - c12 * c12) + c12 * mp.asin(c12 / mp.sqrt(su2 * sv2)))
                want = euv / (2 * mp.pi * mp.sqrt(det))
                assert abs(fi / want - 1) < 1e-4, (si, fi, want)

    def test_small_node_counts(self):
        # the estimate compares nodes with nodes // 2, never a rule with itself
        exact = rice_second_moment(10).value
        res = rice_second_moment(10, nodes=4)
        assert 0.0 < abs(res.value - exact) <= res.quadrature_error_estimate
        for nodes in (1, 0, -3):
            with pytest.raises(UsageError):
                rice_second_moment(10, nodes=nodes)

    @pytest.mark.parametrize(
        "K, interval",
        [
            (4, None),
            (10, None),
            (30, (6.0 * np.pi, 22.5 * np.pi)),
            (10, (2.0, 3.0)),  # one panel: the diagonal triangle alone
            (20, (0.05, 20.0 * np.pi - 0.05)),  # folded lags below _SMALL_LAG at both ends
        ],
    )
    def test_panel_grid_matches_ragged_rule(self, K, interval):
        res = rice_second_moment(K, interval=interval)
        w0, w1 = res.interval
        ref = ragged_pair_integral(K, w0, w1, 16)
        ref_err = abs(ref - ragged_pair_integral(K, w0, w1, 8))
        assert abs(res.value - ref) <= res.quadrature_error_estimate + ref_err

    def test_lag_work_smallest_lag_and_call_size(self, monkeypatch):
        sizes, smallest = [], []
        inner = rice.c_k_derivs

        def spy(K, tau):
            tau = np.asarray(tau)
            sizes.append(tau.size)
            smallest.append(tau.min(initial=np.inf))
            return inner(K, tau)

        monkeypatch.setattr(rice, "c_k_derivs", spy)
        w0, w1 = 6.0 * np.pi, 22.5 * np.pi
        rice_second_moment(30, interval=(w0, w1))
        m = 33  # half-period panels of [w0, w1]
        assert sum(sizes) <= 100_000  # four lags per point would be 718,080
        # the smallest of all lags passed bounds the t - s lags from below
        assert min(smallest) >= _gl_panels(0.0, w1 - w0, 16)[0][0]
        assert max(sizes) <= m * 16 * 16

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
