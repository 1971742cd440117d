"""Hermite polynomials, expansion tables, and the diagram expectation."""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from reference import hermite_eval, hermite_table, mehler_product_expectation
from trigzero.chaos_variance import (
    abs_coeff,
    dirac_coeff,
    dirac_coeff_normalized,
)
from trigzero.errors import UsageError

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def gauss_hermite_probabilist(n):
    """Nodes/weights so that sum w_i f(x_i) ~ int f(x) phi(x) dx."""
    x, w = np.polynomial.hermite.hermgauss(n)
    return x * math.sqrt(2.0), w / math.sqrt(math.pi)


class TestHermiteEval:
    def test_order_zero_is_one(self):
        assert hermite_eval(0, 3.7) == 1.0

    def test_order_two(self):
        # H_2(x) = x^2 - 1
        assert hermite_eval(2, 2.0) == pytest.approx(3.0, abs=0)

    def test_order_six_against_rodrigues_oracle(self):
        # (-1)^q e^{x^2/2} d^q/dx^q e^{-x^2/2}, differentiated numerically
        # in high precision
        x0 = 1.5
        oracle = float(
            (-1) ** 6
            * mpmath.exp(x0 ** 2 / 2)
            * mpmath.diff(lambda u: mpmath.exp(-(u ** 2) / 2), x0, 6)
        )
        assert hermite_eval(6, x0) == pytest.approx(oracle, abs=1e-9)
        # frozen analytic value of x^6 - 15x^4 + 45x^2 - 15 at 1.5
        assert hermite_eval(6, 1.5) == pytest.approx(21.703125, abs=1e-12)

    def test_recurrence_exact_in_integer_coefficients(self):
        # run H_{q+1} = x H_q - q H_{q-1} on exact integer coefficient lists
        polys = [[1], [0, 1]]
        for q in range(1, 13):
            shifted = [0] + polys[q]
            scaled = [q * c for c in polys[q - 1]] + [0] * (len(shifted) - len(polys[q - 1]))
            polys.append([a - b for a, b in zip(shifted, scaled)])
        rng = np.random.default_rng(1)
        xs = rng.normal(size=20)
        for q in range(13):
            direct = sum(c * xs ** i for i, c in enumerate(polys[q]))
            assert np.allclose(hermite_eval(q, xs), direct, rtol=1e-12, atol=1e-9)

    def test_negative_order_errors(self):
        with pytest.raises(UsageError):
            hermite_eval(-1, 0.0)
        with pytest.raises(UsageError):
            hermite_table(-1, np.zeros(3))

    def test_orthogonality_by_quadrature(self):
        # 64-node quadrature is exact for degree <= 24; the 1e-8 check is on
        # the orthonormalized inner product (q! itself reaches 4.8e8 at q=12,
        # whose float64 ulp already exceeds an absolute 1e-8)
        x, w = gauss_hermite_probabilist(64)
        table = hermite_table(12, x)
        for p in range(13):
            for q in range(13):
                inner = float(np.sum(w * table[p] * table[q]))
                expected = math.factorial(q) if p == q else 0.0
                norm = math.sqrt(math.factorial(p) * math.factorial(q))
                assert abs(inner - expected) / max(norm, 1.0) < 1e-8


class TestChaosCoefficients:
    def test_a0(self):
        assert abs_coeff(0) == pytest.approx(SQRT_2_OVER_PI, rel=1e-14)

    def test_b_odd_zero(self):
        assert dirac_coeff(1) == 0.0
        assert all(dirac_coeff(k) == 0.0 for k in range(1, 10, 2))

    def test_b2_b4(self):
        assert dirac_coeff(2) == -1.0
        assert dirac_coeff(4) == 3.0

    @pytest.mark.parametrize("ell", range(9))
    def test_abs_coeff_against_quadrature(self, ell):
        # (1/(2l)!) int |x| H_{2l}(x) phi(x) dx, adaptive quadrature oracle
        q = 2 * ell

        def integrand(x):
            return x * hermite_eval(q, x) * math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi)

        val, _ = quad(integrand, 0.0, np.inf, epsabs=1e-13, limit=200)
        oracle = 2.0 * val / math.factorial(q)
        assert abs(oracle - abs_coeff(ell)) < 1e-10

    def test_normalized_dirac_weight_order_zero_gives_mean_density(self):
        # the order-0 weight times E|x| must equal the 1/pi zero-count density
        assert dirac_coeff_normalized(0) * abs_coeff(0) == pytest.approx(1.0 / math.pi, rel=1e-14)


def _random_valid_correlations(rng):
    while True:
        rho = rng.uniform(-0.9, 0.9, size=4)
        gram = np.array(
            [
                [1, 0, rho[0], rho[1]],
                [0, 1, rho[2], rho[3]],
                [rho[0], rho[2], 1, 0],
                [rho[1], rho[3], 0, 1],
            ]
        )
        if np.linalg.eigvalsh(gram)[0] > 1e-6:
            return tuple(rho), gram


class _QuadratureOracle:
    """Tensor Gauss-Hermite expectations over a 4-D Gaussian Gram matrix.

    Hermite values of every order up to ``top_order`` are tabulated on the
    transformed node cloud once, so each order tuple costs a weighted product.
    """

    def __init__(self, gram, top_order=4, nodes=12):
        x, w = gauss_hermite_probabilist(nodes)
        grids = np.meshgrid(x, x, x, x, indexing="ij")
        pts = np.stack([g.ravel() for g in grids])  # (4, nodes^4)
        wg = np.meshgrid(w, w, w, w, indexing="ij")
        self.weights = (wg[0] * wg[1] * wg[2] * wg[3]).ravel()
        chol = np.linalg.cholesky(gram + 1e-12 * np.eye(4))
        corr = chol @ pts  # rows: Z1, W1, Z2, W2
        self.tables = [hermite_table(top_order, row) for row in corr]

    def expect(self, orders):
        vals = (
            self.tables[0][orders[0]]
            * self.tables[1][orders[1]]
            * self.tables[2][orders[2]]
            * self.tables[3][orders[3]]
        )
        return float(self.weights @ vals)


def _mehler_quadrature_oracle(orders, gram, nodes=12):
    return _QuadratureOracle(gram, top_order=max(orders), nodes=nodes).expect(orders)


class TestMehler:
    def test_constant_product(self):
        assert mehler_product_expectation((0, 0, 0, 0), (0.5, 0.1, -0.2, 0.3)) == 1.0

    def test_single_pair(self):
        assert mehler_product_expectation((1, 0, 1, 0), (0.3, 0.0, 0.0, 0.0)) == pytest.approx(0.3)

    def test_order_two_pair(self):
        assert mehler_product_expectation((2, 0, 2, 0), (0.5, 0.0, 0.0, 0.0)) == pytest.approx(0.5)
        gram = np.array(
            [[1, 0, 0.5, 0], [0, 1, 0, 0], [0.5, 0, 1, 0], [0, 0, 0, 1.0]]
        )
        oracle = _mehler_quadrature_oracle((2, 0, 2, 0), gram)
        assert oracle == pytest.approx(0.5, abs=1e-8)

    def test_parity_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            orders = tuple(rng.integers(0, 4, size=4))
            if sum(orders) % 2 == 1:
                rho, _ = _random_valid_correlations(rng)
                assert mehler_product_expectation(orders, rho) == 0.0

    def test_against_quadrature_oracle(self):
        rng = np.random.default_rng(11)
        cases = [_random_valid_correlations(rng) for _ in range(20)]
        oracles = [_QuadratureOracle(gram) for _, gram in cases]
        for n1 in range(5):
            for n2 in range(5):
                for n3 in range(5):
                    for n4 in range(5):
                        orders = (n1, n2, n3, n4)
                        for (rho, _), oracle in zip(cases, oracles):
                            got = mehler_product_expectation(orders, rho)
                            want = oracle.expect(orders)
                            assert abs(got - want) < 1e-4, (orders, rho)

    def test_non_psd_rejected(self):
        with pytest.raises(UsageError):
            mehler_product_expectation((1, 1, 1, 1), (0.99, 0.99, -0.99, 0.99))

    def test_bad_inputs(self):
        with pytest.raises(UsageError):
            mehler_product_expectation((1, 1, 1), (0, 0, 0, 0))
        with pytest.raises(UsageError):
            mehler_product_expectation((1, 1, 1, 1), (1.5, 0, 0, 0))
