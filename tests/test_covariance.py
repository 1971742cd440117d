"""Covariance kernels: closed forms, derivatives, bounds and limits."""

import tracemalloc
from functools import partial

import numpy as np
import pytest

from reference import DegeneracyError, Kernel, StandardizedKernel
from trigzero import covariance
from trigzero.covariance import (
    _SINC_SERIES,
    _SMALL_LAG,
    _c_k_closed,
    _c_k_series,
    _even_series,
    _sinc_closed,
    c_k,
    c_k_dd0,
    c_k_derivs,
    kernel_bounds_check,
    sinc,
    sinc_derivs,
)
from trigzero.errors import UsageError
from trigzero.rice import zero_intensity

ALL_KERNELS = [
    pytest.param(Kernel(17), id="cosine_ensemble0"),
    pytest.param(Kernel(120), id="cosine_ensemble1"),
    pytest.param(Kernel(60, cosine=False), id="stationary_finite"),
    pytest.param(Kernel(None, cosine=False), id="stationary_sinc"),
    pytest.param(Kernel(), id="limit_nonstationary"),
]


class TestLagCovariance:
    def test_zero_lag(self):
        for K in (1, 2, 7, 500):
            assert c_k(K, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_single_term_is_cosine(self):
        taus = np.linspace(0.0, 3.0, 17)
        assert np.allclose(c_k(1, taus), np.cos(taus), atol=1e-15)

    def test_closed_form_matches_direct_sum(self):
        K = 200
        n = np.arange(1, K + 1) / K
        direct = float(np.cos(5.0 * n).mean())
        assert abs(c_k(K, 5.0) - direct) < 1e-12

    @pytest.mark.parametrize("K", [37, 1601])
    def test_numpy_degree_equals_int_degree(self, K, monkeypatch):
        # the small-lag moments are exact integer sums: a numpy K overflowed
        # them (NaN at 1601) and left its table cached for the int K as well
        monkeypatch.setattr(covariance, "_C_K_SERIES", {})
        lags = np.array([0.0, 0.5, 1.9, 3.0])
        numpy_first = c_k_derivs(np.int64(K), lags)
        monkeypatch.setattr(covariance, "_C_K_SERIES", {})
        for got, want in zip(numpy_first, c_k_derivs(K, lags)):
            assert np.array_equal(got, want)

    def test_resonance_fallback(self):
        # tau = 2*pi*K sits exactly on the Dirichlet singularity
        K = 31
        assert c_k(K, 2.0 * np.pi * K) == pytest.approx(1.0, abs=1e-12)

    def test_second_derivative_at_zero(self):
        assert c_k_dd0(2) == pytest.approx(-15.0 / 24.0, abs=0)
        for K in (1, 2, 3, 10, 400, 1600, 2**21):
            assert c_k_derivs(K, 0.0) == (1.0, 0.0, c_k_dd0(K))

    def test_first_derivative_against_finite_difference(self):
        K, t, h = 100, 3.0, 1e-6
        _, c1, _ = c_k_derivs(K, t)
        fd = (c_k(K, t + h) - c_k(K, t - h)) / (2.0 * h)
        assert abs(c1 - fd) < 1e-6

    def test_derivs_consistent_with_value(self):
        K = 77
        taus = np.linspace(0.3, K * np.pi, 101)
        c, _, _ = c_k_derivs(K, taus)
        assert np.allclose(c, c_k(K, taus), atol=1e-12)


def _direct_sums(K, tau):
    """(c, c', c'') by float64 sums over n = 1..K, term by term."""
    n = np.arange(1, K + 1) / K
    ang = np.multiply.outer(np.asarray(tau, dtype=float), n)
    return np.cos(ang).mean(axis=-1), -(np.sin(ang) @ n) / K, -(np.cos(ang) @ (n * n)) / K


def _lag_grid(K):
    """Lags around 0, the small-lag cut, mid-range and the resonances 2 pi K m."""
    period = 2.0 * np.pi * K
    taus = [0.0, 1e-3, 0.5, _SMALL_LAG - 1e-9, _SMALL_LAG + 1e-9, 3.0, 10.0,
            0.37 * K, 0.5 * np.pi * K, np.pi * K - 0.5, np.pi * K]
    for m in (1, 2):
        taus += [m * period + d for d in (-1.5, -1e-9, 1e-9, 1.5)]
    return np.array(taus)


class TestLagKernelForms:
    """Closed form plus small-lag series against the term-wise sums."""

    @pytest.mark.parametrize("K", [1, 2, 3, 30, 100, 1600])
    def test_matches_direct_sum(self, K):
        taus = _lag_grid(K)
        taus = np.concatenate((taus, -taus))
        for got, want in zip(c_k_derivs(K, taus), _direct_sums(K, taus)):
            assert np.max(np.abs(got - want)) <= 2e-13
        assert np.max(np.abs(c_k(K, taus) - _direct_sums(K, taus)[0])) <= 2e-13

    @pytest.mark.parametrize("K", [1, 3, 100, 1600])
    def test_parity(self, K):
        taus = _lag_grid(K)
        c, c1, c2 = c_k_derivs(K, taus)
        cn, c1n, c2n = c_k_derivs(K, -taus)
        assert np.array_equal(cn, c)
        assert np.array_equal(c1n, -c1)
        assert np.array_equal(c2n, c2)

    def test_scalar_and_array_shapes(self):
        K = 30
        taus = np.linspace(-200.0, 200.0, 12).reshape(3, 4)
        parts = c_k_derivs(K, taus)
        flat = c_k_derivs(K, taus.ravel())
        for p, f in zip(parts, flat):
            assert p.shape == (3, 4)
            assert np.array_equal(p.ravel(), f)
        assert c_k(K, taus).shape == (3, 4)
        one = c_k_derivs(K, 7.5)
        assert all(type(v) is float for v in one)
        assert one == tuple(float(f[0]) for f in c_k_derivs(K, np.array([7.5])))
        assert type(c_k(K, 7.5)) is float

    def test_mpmath_spot_check(self):
        mp = pytest.importorskip("mpmath")
        K = 1600
        taus = (1.25, 3.0, 1234.5, 2.0 * np.pi * K + 1.5)
        with mp.workdps(30):
            for tau in taus:
                for got, exact in zip(c_k_derivs(K, tau), _mp_sums(mp, K, tau)):
                    assert abs(got - float(exact)) <= 1e-13

    @pytest.mark.parametrize("K", [1, 2, 3, 30, 1600, 2**21])
    def test_mpmath_small_lags(self, K):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(60):
            for tau in (0.0, 1e-6, 1e-3, 0.5, 1.999):
                want = _mp_sums(mp, K, tau) if K <= 1600 else _mp_closed(mp, K, tau)
                for got, exact in zip(c_k_derivs(K, tau), want):
                    assert abs(got - float(exact)) <= 1e-15, (tau, got, exact)

    def test_memory_does_not_grow_with_degree(self):
        lags = np.linspace(0.0, 1.9, 10_000)
        c_k_derivs(1600, lags)
        tracemalloc.start()
        try:
            c_k_derivs(1600, lags)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20 * lags.nbytes


def _mp_sums(mp, K, tau):
    """(c, c', c'') by the K-term sums at the working precision."""
    x = mp.mpf(tau) / K
    return (
        mp.fsum(mp.cos(n * x) for n in range(1, K + 1)) / K,
        -mp.fsum(n * mp.sin(n * x) for n in range(1, K + 1)) / K ** 2,
        -mp.fsum(n * n * mp.cos(n * x) for n in range(1, K + 1)) / K ** 3,
    )


def _mp_closed(mp, K, tau):
    """(c, c', c'') by differentiating (sin(M x)/sin(x/2) - 1)/(2K), x = tau/K, M = K + 1/2."""
    if tau == 0.0:
        return mp.mpf(1), mp.mpf(0), -mp.mpf((K + 1) * (2 * K + 1)) / (6 * K * K)
    M = mp.mpf(K) + mp.mpf(1) / 2

    def c(t):
        return (mp.sin(M * t / K) / mp.sin(t / (2 * K)) - 1) / (2 * K)

    return tuple(mp.diff(c, mp.mpf(tau), n) for n in range(3))


class TestSinc:
    def test_basics(self):
        assert sinc(0.0) == 1.0
        assert sinc(np.pi) == pytest.approx(0.0, abs=1e-16)
        s0, s1, s2 = sinc_derivs(0.0)
        assert (s0, s1) == (1.0, 0.0)
        assert s2 == pytest.approx(-1.0 / 3.0, abs=1e-15)

    def test_series_matches_direct_at_cut(self):
        # the series and the closed form on both sides of _SMALL_LAG, for sinc
        # and for c_K; the kernel takes the series below the cut only
        forms = [(sinc_derivs, _sinc_closed, _SINC_SERIES)]
        for K in (1, 3, 30, 1600, 2**21):
            forms.append((partial(c_k_derivs, K), partial(_c_k_closed, K), _c_k_series(K)))
        for kernel, closed, table in forms:
            for x in (_SMALL_LAG - 1e-9, _SMALL_LAG + 1e-9):
                u = np.array([x])
                for got, series, exact in zip(kernel(u), _even_series(table, u), closed(u)):
                    assert abs(series[0] - exact[0]) <= 1e-15
                    assert got[0] == (series[0] if x < _SMALL_LAG else exact[0])

    def test_mpmath_spot_check(self):
        mp = pytest.importorskip("mpmath")
        xs = (1e-3, 2e-3, 8.3e-3, 0.03, 0.1, 1.0, 1.999)
        with mp.workdps(40):
            for x in xs:
                want = [mp.diff(lambda t: mp.sin(t) / t, mp.mpf(x), n) for n in range(3)]
                for got, exact in zip(sinc_derivs(x), want):
                    assert abs(got - float(exact)) <= 1e-15, (x, got, exact)

    def test_parity(self):
        xs = np.linspace(0.0, 40.0, 4001)
        s0, s1, s2 = sinc_derivs(xs)
        n0, n1, n2 = sinc_derivs(-xs)
        assert np.array_equal(n0, s0)
        assert np.array_equal(n1, -s1)
        assert np.array_equal(n2, s2)

    def test_derivatives_by_finite_difference(self):
        xs = np.array([0.5, 2.0, 7.7, 30.0])
        h = 1e-5
        s0, s1, s2 = sinc_derivs(xs)
        fd1 = (sinc(xs + h) - sinc(xs - h)) / (2 * h)
        fd2 = (sinc(xs + h) - 2 * s0 + sinc(xs - h)) / h ** 2
        assert np.allclose(s1, fd1, atol=1e-9)
        assert np.allclose(s2, fd2, atol=1e-5)


class TestBounds:
    def test_grid_k50(self):
        rep = kernel_bounds_check(50, np.arange(0.5, 150.5, 0.5))
        assert rep.passed, rep.violation

    def test_boundary_case_k1(self):
        # |cos(pi)| = 1 == pi/pi
        rep = kernel_bounds_check(1, [np.pi])
        assert rep.passed

    def test_log_grid_k500(self):
        rep = kernel_bounds_check(500, np.geomspace(0.01, 500 * np.pi, 600))
        assert rep.passed, rep.violation

    @pytest.mark.parametrize(
        "value_from, deriv_from, which, tau",
        [
            (4.0, None, "value", 4.0),
            (None, 4.0, "derivative", 4.0),
            (8.0, 2.0, "value", 8.0),  # the value inequality is reported first
        ],
    )
    def test_reports_first_violation(self, monkeypatch, value_from, deriv_from, which, tau):
        # shift c (or c') by 10 at every lag from value_from (deriv_from) on
        real = covariance.c_k_derivs

        def shifted(K, lags):
            parts = list(real(K, lags))
            for i, start in enumerate((value_from, deriv_from)):
                if start is not None:
                    parts[i] = parts[i] + np.where(lags >= start, 10.0, 0.0)
            return tuple(parts)

        monkeypatch.setattr(covariance, "c_k_derivs", shifted)
        rep = kernel_bounds_check(10, [1.0, 2.0, 4.0, 8.0])
        i = 0 if which == "value" else 1
        bound = np.pi / tau + (np.pi ** 2 / (2.0 * tau * tau) if i else 0.0)
        assert (rep.passed, rep.checked) == (False, 4)
        assert rep.violation[:2] == (tau, which)
        assert rep.violation[2] == pytest.approx(abs(real(10, tau)[i] + 10.0), rel=1e-14)
        assert rep.violation[3] == pytest.approx(bound, rel=1e-15)

    def test_out_of_domain(self):
        with pytest.raises(UsageError):
            kernel_bounds_check(10, [0.0, 1.0])
        with pytest.raises(UsageError):
            kernel_bounds_check(10, [40.0 * np.pi])
        with pytest.raises(UsageError):
            kernel_bounds_check(10, [1.0, np.nan])

    def test_empty_grid_is_refused(self):
        # an empty grid would otherwise pass vacuously with checked = 0
        with pytest.raises(UsageError, match="empty tau grid"):
            kernel_bounds_check(10, [])


class TestLimitKernel:
    def test_origin(self):
        assert Kernel().partials(0.0, 0.0)[0] == 1.0

    def test_diagonal_half(self):
        t = np.pi / 2.0
        assert Kernel().partials(t, t)[0] == pytest.approx(0.5, abs=1e-15)

    def test_large_K_convergence(self):
        K = 2000
        kern = Kernel(K)
        rng = np.random.default_rng(5)
        s = rng.uniform(1.0, 40.0, size=12)
        t = s + rng.uniform(0.5, 20.0, size=12)
        assert np.allclose(kern.partials(s, t)[0], Kernel().partials(s, t)[0], atol=1e-3)

    def test_uniform_offdiagonal_convergence(self):
        taus = np.linspace(1.0, 20.0, 400)
        sup = []
        for K in (50, 100, 200, 400):
            sup.append(float(np.max(np.abs(c_k(K, taus) - sinc(taus)))))
        assert sup == sorted(sup, reverse=True)
        assert sup[-1] < 0.01


class TestKernelSurface:
    @pytest.mark.parametrize("kern", ALL_KERNELS)
    def test_symmetry(self, kern):
        rng = np.random.default_rng(2)
        s = rng.uniform(0.3, 30.0, size=64)
        t = rng.uniform(0.3, 30.0, size=64)
        assert np.allclose(kern.partials(s, t)[0], kern.partials(t, s)[0], atol=1e-13)

    def test_cosine_diagonal_identity(self):
        K = 35
        kern = Kernel(K)
        t = np.linspace(0.0, K * np.pi, 97)
        assert np.allclose(kern.partials(t, t)[0], 0.5 * (1.0 + c_k(K, 2.0 * t)), atol=1e-12)

    @pytest.mark.parametrize("kern", ALL_KERNELS)
    def test_gram_positive_semidefinite(self, kern):
        rng = np.random.default_rng(8)
        grid = np.sort(rng.uniform(0.0, 25.0, size=64))
        eig = np.linalg.eigvalsh(kern.gram(grid))
        assert eig[0] >= -1e-8

    @pytest.mark.parametrize("kern", ALL_KERNELS)
    def test_partials_match_finite_differences(self, kern):
        rng = np.random.default_rng(31)
        s = rng.uniform(1.0, 25.0, size=100)
        t = s + rng.uniform(0.5, 10.0, size=100)
        h = 1e-5

        def r(a, b):
            return kern.partials(a, b)[0]

        def fd(f, which):
            if which == "s":
                return (r(s + h, t) - r(s - h, t)) / (2 * h)
            if which == "t":
                return (r(s, t + h) - r(s, t - h)) / (2 * h)
            if which == "ss":
                return (r(s + h, t) - 2 * r(s, t) + r(s - h, t)) / h ** 2
            if which == "tt":
                return (r(s, t + h) - 2 * r(s, t) + r(s, t - h)) / h ** 2
            return (
                r(s + h, t + h) - r(s + h, t - h)
                - r(s - h, t + h) + r(s - h, t - h)
            ) / (4 * h * h)

        # second differences at step 1e-5 carry ~1e-5 absolute roundoff, so
        # their comparison scale is the kernels' O(1) curvature scale
        _, r_s, r_t, r_ss, r_st, r_tt = kern.partials(s, t)
        pairs = [
            (r_s, fd(None, "s"), 1e-3),
            (r_t, fd(None, "t"), 1e-3),
            (r_ss, fd(None, "ss"), 1.0),
            (r_tt, fd(None, "tt"), 1.0),
            (r_st, fd(None, "st"), 1.0),
        ]
        for got, want, floor in pairs:
            scale = np.maximum(np.abs(want), floor)
            assert np.max(np.abs(got - want) / scale) < 1e-4


class TestStandardized:
    def test_unit_diagonal(self):
        sk = StandardizedKernel(Kernel(40))
        t = np.linspace(0.5, 40 * np.pi - 0.5, 50)
        assert np.allclose(sk.parts(t, t)[0], 1.0, atol=1e-12)

    def test_deriv_sd_limit(self):
        sk = StandardizedKernel(Kernel(500))
        v = float(sk.v(np.array([300.0]))[0])
        assert abs(v - 1.0 / np.sqrt(3.0)) < 0.02

    def test_dual_route_assembly(self):
        # chain-rule partials versus the direct lag-covariance formula
        for K in (10, 100, 500):
            sk = StandardizedKernel(Kernel(K))
            s = np.linspace(1.0, K * np.pi - 1.0, 41)
            assert np.allclose(sk.v(s) ** 2, (np.pi * zero_intensity(K, s)) ** 2, atol=1e-10)

    def test_deriv_sd_positive_inside(self):
        for K in (10, 100, 500):
            s = np.linspace(2.0, K * np.pi - 2.0, 301)
            assert np.all(np.pi * zero_intensity(K, s) > 0.0)

    def test_variance_upper_bound(self):
        # V^2(t) <= (1 + pi/(2t)) / 2; the underlying lag bound needs
        # 2t <= K*pi, so the inequality's domain is [0.5, K*pi/2] (past the
        # midpoint the lag wraps around the period and V^2 returns to 1)
        for K in (10, 100, 500):
            kern = Kernel(K)
            t = np.linspace(0.5, K * np.pi / 2.0, 400)
            v2 = kern.partials(t, t)[0]
            assert np.all(v2 <= 0.5 * (1.0 + np.pi / (2.0 * t)) + 1e-12)

    def test_degenerate_base_raises(self):
        sk = StandardizedKernel(Kernel(1))
        with pytest.raises(DegeneracyError):
            sk.parts(np.pi / 2.0, 1.0)

    @pytest.mark.parametrize("kern", ALL_KERNELS)
    def test_parts_match_finite_differences(self, kern):
        sk = StandardizedKernel(kern)
        rng = np.random.default_rng(37)
        s = rng.uniform(1.0, 25.0, size=100)
        t = s + rng.uniform(0.5, 10.0, size=100)
        h = 1e-5

        def rbar(a, b):
            return sk.parts(a, b)[0]

        fd_s = (rbar(s + h, t) - rbar(s - h, t)) / (2 * h)
        fd_t = (rbar(s, t + h) - rbar(s, t - h)) / (2 * h)
        fd_st = (
            rbar(s + h, t + h) - rbar(s + h, t - h)
            - rbar(s - h, t + h) + rbar(s - h, t - h)
        ) / (4 * h * h)
        _, g_s, g_t, g_st = sk.parts(s, t)
        for got, want, floor in ((g_s, fd_s, 1e-3), (g_t, fd_t, 1e-3), (g_st, fd_st, 1.0)):
            scale = np.maximum(np.abs(want), floor)
            assert np.max(np.abs(got - want) / scale) < 1e-4
