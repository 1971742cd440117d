"""Chaos variance constants: analytic oracle, decay, and Monte Carlo tie."""

import math

import numpy as np
import pytest

from reference import _lag_correlations_raw, exact_sigma_q_squared, lag_correlations
from trigzero import chaos_variance
from trigzero.chaos_variance import (
    _order_pairs,
    chaos_lag_correlation,
    sigma_q_squared,
    total_variance_constant,
)
from trigzero.covariance import sinc_derivs
from trigzero.errors import UsageError
from trigzero.experiments import ExperimentConfig, IntervalSpec, run_campaign
from trigzero.hermite import hermite_eval, mehler_product_grid

# sigma_q^2 of total_variance_constant(20, 1e4) as the pairs x pairs diagram
# sum computed them, one whole-grid dot product per order
PAIRS_ENGINE_SIGMA_SQ = {
    2: 0.042441318377138645,
    4: 0.010839990353531205,
    6: 0.005537145646389027,
    8: 0.0035283861129874463,
    10: 0.002505238758657031,
    12: 0.0018987120646740939,
    14: 0.0015038773551575503,
    16: 0.0012297432994652349,
    18: 0.0010301821098338414,
    20: 0.0008795281781028599,
}


def _pairs_sum(q, tau):
    """G_q as the pairs x pairs diagram sum, and the sum of its terms' |values|."""
    rho = _lag_correlations_raw(tau)
    abs_rho = [np.abs(r) for r in rho]
    total = np.zeros(tau.shape)
    scale = np.zeros(tau.shape)
    pairs = _order_pairs(q)
    for kx, ky, cx in pairs:
        for kx2, ky2, cx2 in pairs:
            orders = (kx, ky, kx2, ky2)
            total += cx * cx2 * mehler_product_grid(orders, *rho)
            # every diagram weight is positive, so this sums |term| over all terms
            scale += abs(cx * cx2) * mehler_product_grid(orders, *abs_rho)
    return total, scale


class TestLagCorrelations:
    def test_value_correlation_vanishes_at_pi(self):
        rzz, _, _, _ = lag_correlations(np.pi)
        assert rzz == pytest.approx(0.0, abs=1e-16)

    def test_decay(self):
        taus = np.geomspace(10.0, 1e5, 40)
        for rho in lag_correlations(taus):
            assert np.all(np.abs(rho) <= 3.2 / taus)

    def test_gram_positive_semidefinite(self):
        rng = np.random.default_rng(4)
        for tau in rng.uniform(0.05, 50.0, size=50):
            rzz, rzw, rwz, rww = lag_correlations(tau)
            gram = np.array(
                [
                    [1, 0, rzz, rzw],
                    [0, 1, rwz, rww],
                    [rzz, rwz, 1, 0],
                    [rzw, rww, 0, 1],
                ]
            )
            assert np.linalg.eigvalsh(gram)[0] >= -1e-10

    def test_positive_lag_required(self):
        with pytest.raises(UsageError):
            lag_correlations(0.0)


class TestChaosLagCorrelation:
    def test_even_in_lag(self):
        taus = np.array([0.3, 1.1, 4.0, 9.7])
        for q in (2, 4, 6):
            assert np.allclose(
                chaos_lag_correlation(q, taus),
                chaos_lag_correlation(q, -taus),
                atol=1e-12,
            )

    def test_regular_at_zero(self):
        for q in (2, 4):
            val0 = chaos_lag_correlation(q, np.array([0.0]))[0]
            val_eps = chaos_lag_correlation(q, np.array([1e-6]))[0]
            assert np.isfinite(val0)
            assert val0 == pytest.approx(val_eps, rel=1e-6)

    def test_q2_closed_form(self):
        # G_2 = (sinc^2 + 9 sinc''^2 - 6 sinc'^2) / (2 pi^2)
        taus = np.linspace(0.1, 30.0, 200)
        s0, s1, s2 = sinc_derivs(taus)
        want = (s0 ** 2 + 9.0 * s2 ** 2 - 6.0 * s1 ** 2) / (2.0 * np.pi ** 2)
        assert np.allclose(chaos_lag_correlation(2, taus), want, atol=1e-14)

    def test_inverse_square_envelope(self):
        # |G_q(tau)| <= C / tau^2 on [10, 1e4] with C fitted on the first
        # decade; the per-decade envelope never grows (orders above 2 decay
        # even faster, so their envelopes shrink)
        for q in (2, 3, 4, 5, 6):
            envelopes = []
            for dec in range(3):
                taus = np.geomspace(10.0 ** (dec + 1), 10.0 ** (dec + 2), 2000)
                envelopes.append(float(np.max(np.abs(chaos_lag_correlation(q, taus)) * taus ** 2)))
            if all(e == 0.0 for e in envelopes):  # odd orders vanish
                continue
            c_fit = envelopes[0]
            assert all(e <= 1.05 * c_fit for e in envelopes)
            assert all(b <= 1.05 * a for a, b in zip(envelopes, envelopes[1:]))
        # the order-2 envelope is the exact 1/tau^2 carrier: stable per decade
        env2 = []
        for dec in range(3):
            taus = np.geomspace(10.0 ** (dec + 1), 10.0 ** (dec + 2), 2000)
            env2.append(float(np.max(np.abs(chaos_lag_correlation(2, taus)) * taus ** 2)))
        assert max(env2) / min(env2) < 1.01

    def test_against_quadrature_at_fixed_lags(self):
        # sign conventions of the derivative pairing: diagram sum vs a 4-D
        # Gauss-Hermite expectation of the actual integrand product
        x, w = np.polynomial.hermite.hermgauss(20)
        x = x * math.sqrt(2.0)
        w = w / math.sqrt(math.pi)
        grids = np.meshgrid(x, x, x, x, indexing="ij")
        pts = np.stack([g.ravel() for g in grids])
        wg = np.meshgrid(w, w, w, w, indexing="ij")
        weights = (wg[0] * wg[1] * wg[2] * wg[3]).ravel()
        for tau in (0.7, 2.2):
            rzz, rzw, rwz, rww = lag_correlations(tau)
            gram = np.array(
                [
                    [1, 0, rzz, rzw],
                    [0, 1, rwz, rww],
                    [rzz, rwz, 1, 0],
                    [rzw, rww, 0, 1],
                ]
            )
            chol = np.linalg.cholesky(gram + 1e-13 * np.eye(4))
            z1, w1, z2, w2 = chol @ pts
            for q in (2, 4):
                integrand = np.zeros(z1.shape)
                integrand2 = np.zeros(z1.shape)
                # normalized weights as used by the variance assembly
                for kx, ky, cnorm in _order_pairs(q):
                    integrand += cnorm * hermite_eval(kx, z1) * hermite_eval(ky, w1)
                    integrand2 += cnorm * hermite_eval(kx, z2) * hermite_eval(ky, w2)
                quad_val = float(weights @ (integrand * integrand2))
                diagram = float(chaos_lag_correlation(q, np.array([tau]))[0])
                assert abs(quad_val - diagram) < 1e-4


class TestMergedEngine:
    def test_merged_table_matches_pairs_sum(self):
        taus = np.array([0.0, 1e-3, -1e-3, 0.7, 2.2, 50.0, 5e3])
        for q in range(2, 21, 2):
            want, scale = _pairs_sum(q, taus)
            got = chaos_lag_correlation(q, taus)
            assert np.all(np.abs(got - want) <= 1e-12 * scale), q

    def test_odd_orders_vanish(self):
        taus = np.array([0.0, 0.7, 2.2])
        for q in (1, 3, 9):
            assert np.all(chaos_lag_correlation(q, taus) == 0.0)

    def test_shape_kept(self):
        taus = np.linspace(0.1, 5.0, 12).reshape(3, 4)
        got = chaos_lag_correlation(4, taus)
        assert got.shape == (3, 4)
        assert np.array_equal(got.ravel(), chaos_lag_correlation(4, taus.ravel()))
        assert chaos_lag_correlation(4, 0.7).shape == ()

    def test_block_size_does_not_change_integrals(self, monkeypatch):
        taus = np.linspace(0.0, 40.0, 1001)
        ref = total_variance_constant(q_max=8, tail=1000.0)
        ref_g = chaos_lag_correlation(6, taus)
        monkeypatch.setattr(chaos_variance, "_BLOCK", 7)
        tiny = total_variance_constant(q_max=8, tail=1000.0)
        for a, b in zip(ref.terms, tiny.terms):
            assert abs(b.sigma_sq - a.sigma_sq) <= 1e-14 * abs(a.sigma_sq), a.q
        got_g = chaos_lag_correlation(6, taus)
        assert np.max(np.abs(got_g - ref_g)) <= 1e-14 * np.max(np.abs(ref_g))

    def test_single_order_matches_one_pass(self):
        vc = total_variance_constant(q_max=8, tail=1e4)
        for term in vc.terms:
            assert sigma_q_squared(term.q, tail=1e4) == term

    def test_pinned_to_pairs_engine(self, chaos_total):
        for term in chaos_total.terms:
            want = PAIRS_ENGINE_SIGMA_SQ.get(term.q, 0.0)
            assert abs(term.sigma_sq - want) <= 1e-13 * abs(want), term.q


class TestSigmaQ:
    def test_order_one_exactly_zero(self):
        term = sigma_q_squared(1)
        assert term.sigma_sq == 0.0

    def test_odd_orders_zero(self):
        for q in (3, 5, 7, 11):
            assert sigma_q_squared(q).sigma_sq == 0.0

    def test_q2_analytic_value(self):
        # Parseval on the q = 2 lag correlation gives exactly 2/(15 pi)
        term = sigma_q_squared(2, tail=1e4)
        assert term.sigma_sq == pytest.approx(2.0 / (15.0 * np.pi), abs=1e-6)

    def test_nonnegative(self):
        for q in range(1, 13):
            assert sigma_q_squared(q, tail=300.0).sigma_sq >= -1e-10

    def test_validation(self):
        with pytest.raises(UsageError):
            sigma_q_squared(0)
        with pytest.raises(UsageError):
            sigma_q_squared(2, tail=50.0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: sigma_q_squared(102),
            lambda: total_variance_constant(q_max=101),
            lambda: chaos_lag_correlation(102, [0.0, 1.0]),
        ],
        ids=["sigma-102", "total-101", "lag-correlation-102"],
    )
    def test_orders_above_limit(self, call):
        with pytest.raises(UsageError, match="100"):
            call()

    @pytest.mark.parametrize("tail", [math.nan, math.inf, -math.inf])
    def test_non_finite_tail(self, tail):
        with pytest.raises(UsageError):
            sigma_q_squared(2, tail=tail)
        with pytest.raises(UsageError):
            total_variance_constant(q_max=4, tail=tail)


class TestBandLimitedOracle:
    def test_q2_closed_form(self):
        assert exact_sigma_q_squared(2) == pytest.approx(2.0 / (15.0 * math.pi), rel=1e-15)

    def test_engine_against_exact_values(self, chaos_total):
        for term in chaos_total.terms:
            if term.q % 2:
                continue
            error = abs(term.sigma_sq - exact_sigma_q_squared(term.q))
            if term.q == 2:
                # the C/tau^2 tail fit leaves 2.2e-10, inside the 3.4e-6 estimate
                assert error <= term.quadrature_error
            else:
                # not within the estimate: at q = 4 it is 7.9e-13 for an error of 1.5e-12
                assert error <= 1e-11, term.q


class TestSeriesTail:
    def test_hurwitz_zeta_matches_scipy(self):
        from scipy.special import zeta

        for m in range(1, 201):
            ref = float(zeta(1.5, m))
            assert abs(chaos_variance._hurwitz_zeta(1.5, m) - ref) <= 1e-15 * ref, m

    @pytest.mark.parametrize("m", [2, 11, 200])
    def test_hurwitz_zeta_against_30_digits(self, m):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            ref = mpmath.zeta(mpmath.mpf(3) / 2, m)
            rel = abs(mpmath.mpf(chaos_variance._hurwitz_zeta(1.5, m)) / ref - 1)
        assert rel <= 1e-15

    def test_tail_is_the_zeta_envelope(self, chaos_total):
        from scipy.special import zeta

        # C of sigma_q^2 ~ C q^(-3/2) from the last two nonzero orders;
        # orders 22, 24, ... are 2 * (11, 12, ...)
        anchors = [t for t in chaos_total.terms if t.sigma_sq != 0.0][-2:]
        envelope = float(np.mean([t.sigma_sq * t.q**1.5 for t in anchors]))
        tail = envelope * 2.0**-1.5 * float(zeta(1.5, 11))
        assert abs(chaos_total.series_tail - tail) <= 1e-15 * tail
        partial = sum(t.sigma_sq for t in chaos_total.terms)
        assert chaos_total.total == partial + chaos_total.series_tail


class TestTotal:
    def test_band_and_stability(self, chaos_total):
        assert 0.084 <= chaos_total.total <= 0.094
        vc10 = total_variance_constant(q_max=10, tail=1e4)
        assert abs(chaos_total.total - vc10.total) < 1e-3

    def test_leading_partial_sum_positive(self):
        vc = total_variance_constant(q_max=2, tail=500.0)
        assert vc.total > 0.0

    def test_monte_carlo_cross_validation(self, chaos_total):
        # the assembled constant must predict the simulated variance slope of
        # the finite-degree stationary ensemble
        K, reps = 500, 4000
        cfg = ExperimentConfig(
            K_list=(K,),
            replicates=reps,
            interval=IntervalSpec("original", 0.0, np.pi),
            alpha=0.25,
            seed=1900,
            ensemble="stationary",
        )
        row = run_campaign(cfg).summaries[0]
        kpi = K * np.pi
        assert abs(row.variance / kpi - chaos_total.total) < 4.0 * row.se_var / kpi, (
            row.variance / kpi,
            chaos_total.total,
        )

    def test_validation(self):
        with pytest.raises(UsageError):
            total_variance_constant(q_max=1)
