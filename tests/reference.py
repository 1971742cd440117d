"""Independent references for the tests: routes the package does not ship."""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from trigzero.chaos_variance import _order_table, mehler_product_grid
from trigzero.covariance import c_k_derivs, sinc_derivs
from trigzero.errors import NumericError, UsageError
from trigzero.rice import _gl_panels, _node_factors, _pair_core
from trigzero.sampling import CoefficientVector

_SQRT3 = np.sqrt(3.0)


class DegeneracyError(NumericError):
    """A covariance became (numerically) singular where positivity was required."""


@dataclass(frozen=True)
class Kernel:
    """Covariance surface built from one lag function and its derivatives.

    The lag function f is ``c_k(K, .)`` for a degree K, or ``sinc`` for
    K = None.  The surface is (f(t-s) + f(t+s))/2 when ``cosine`` is set and
    f(t-s) otherwise.  Vectorized over (s, t) arrays on the rescaled axis;
    instances are immutable and all evaluations are pure.
    """

    K: int | None = None
    cosine: bool = True

    def _lag(self, tau):
        return sinc_derivs(tau) if self.K is None else c_k_derivs(self.K, tau)

    def partials(self, s, t):
        """(r, r_s, r_t, r_ss, r_st, r_tt) at (s, t); r_tt equals r_ss."""
        t = np.asarray(t, float)
        d, d1, d2 = self._lag(t - s)
        if not self.cosine:
            return d, -d1, d1, d2, -d2, d2
        e, e1, e2 = self._lag(t + s)
        r_ss = 0.5 * (d2 + e2)
        return 0.5 * (d + e), 0.5 * (e1 - d1), 0.5 * (d1 + e1), r_ss, 0.5 * (e2 - d2), r_ss

    def gram(self, grid):
        """Covariance matrix of the process sampled on ``grid``."""
        g = np.asarray(grid, dtype=float)
        return self.partials(g[:, None], g[None, :])[0]


class StandardizedKernel:
    """Unit-variance normalization of a base kernel.

    ``parts`` gives the correlation surface rbar(s,t) = r(s,t)/(V(s)V(t))
    together with its first and mixed partials, and ``v(s)`` the standard
    deviation of the standardized process's derivative.  Evaluation raises
    DegeneracyError wherever the base standard deviation falls below ``tol``.
    """

    def __init__(self, base: Kernel, tol: float = 1e-7):
        self.base = base
        self.tol = float(tol)

    def _v_and_slope(self, t):
        r, r_s, r_t = self.base.partials(t, t)[:3]
        V = np.sqrt(np.maximum(r, 0.0))
        if np.any(V <= self.tol):
            raise DegeneracyError(
                f"base kernel variance below {self.tol ** 2:g} inside the domain"
            )
        # d/dt sqrt(r(t,t)) via the diagonal derivative of r
        return V, (r_s + r_t) / (2.0 * V)

    def parts(self, s, t):
        """(rbar, rbar_s, rbar_t, rbar_st) at (s, t)."""
        s = np.asarray(s, float)
        t = np.asarray(t, float)
        Vs, Vps = self._v_and_slope(s)
        Vt, Vpt = self._v_and_slope(t)
        r, r_s, r_t, _, r_st, _ = self.base.partials(s, t)
        denom = Vs * Vt
        return (
            r / denom,
            (r_s - r * Vps / Vs) / denom,
            (r_t - r * Vpt / Vt) / denom,
            (r_st - r_t * Vps / Vs - r_s * Vpt / Vt + r * Vps * Vpt / denom) / denom,
        )

    def v(self, s):
        """Standard deviation of the standardized derivative at s."""
        return np.sqrt(np.maximum(self.parts(s, s)[3], 0.0))


def hermite_table(q: int, x):
    """Stack of H_0(x) .. H_q(x), shape (q+1,) + x.shape.

    The three-term recurrence runs in floating point rather than through
    stored monomial coefficients, which avoids catastrophic cancellation at
    moderately high order.
    """
    if q < 0:
        raise UsageError(f"order {q} must be >= 0")
    x = np.asarray(x, dtype=float)
    out = np.empty((q + 1,) + x.shape)
    out[0] = 1.0
    if q >= 1:
        out[1] = x
    for k in range(1, q):
        out[k + 1] = x * out[k] - k * out[k - 1]
    return out


def hermite_eval(q: int, x):
    """Value of H_q at x: row q of ``hermite_table``, a float for scalar x."""
    row = hermite_table(q, x)[q]
    return float(row) if row.ndim == 0 else row


def correlation_gram(correlations):
    """4x4 correlation matrix of (Z1, W1, Z2, W2) for the given cross terms."""
    rzz, rzw, rwz, rww = (float(c) for c in correlations)
    return np.array(
        [
            [1.0, 0.0, rzz, rzw],
            [0.0, 1.0, rwz, rww],
            [rzz, rwz, 1.0, 0.0],
            [rzw, rww, 0.0, 1.0],
        ]
    )


def mehler_product_expectation(orders, correlations) -> float:
    """E[H_{n1}(Z1) H_{n2}(W1) H_{n3}(Z2) H_{n4}(W2)] via the diagram sum.

    ``orders`` are four nonnegative integers; ``correlations`` are the four
    cross-correlations (rho_zz, rho_zw, rho_wz, rho_ww) between the pairs,
    each pair being internally uncorrelated standard Gaussian.  The joint
    correlation matrix must be positive semidefinite; returns 0 whenever no
    pairing solves the multiplicity system.
    """
    orders = tuple(int(n) for n in orders)
    if len(orders) != 4 or any(n < 0 for n in orders):
        raise UsageError("orders must be four nonnegative integers")
    if len(correlations) != 4:
        raise UsageError("need four cross-correlations")
    if any(abs(c) > 1.0 + 1e-12 for c in correlations):
        raise UsageError("correlations must lie in [-1, 1]")
    gram = correlation_gram(correlations)
    if np.linalg.eigvalsh(gram)[0] < -1e-9:
        raise UsageError("correlation matrix is not positive semidefinite")
    return float(mehler_product_grid(orders, *map(float, correlations)))


def eval_path(coeffs: CoefficientVector, t, rescaled: bool = True):
    """Evaluate a replicate's path and derivative at ``t``.

    Rescaled axis: K^{-1/2} sum a_n cos(n t / K) (+ sine part), frequencies
    n/K; original axis: frequencies n on [0, 2*pi).
    """
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    pts = np.atleast_1d(t)
    K = coeffs.K
    freqs = np.arange(1, K + 1, dtype=float)
    if rescaled:
        freqs = freqs / K
    ang = np.multiply.outer(pts, freqs)
    cos_m = np.cos(ang)
    sin_m = np.sin(ang)
    scale = 1.0 / np.sqrt(K)
    val = scale * (cos_m @ coeffs.a)
    der = -scale * (sin_m * freqs) @ coeffs.a
    if coeffs.b is not None:
        val = val + scale * (sin_m @ coeffs.b)
        der = der + scale * ((cos_m * freqs) @ coeffs.b)
    if scalar:
        return float(val[0]), float(der[0])
    return val, der


def lag_correlations(tau):
    """Cross-correlations of (value, unit-variance derivative) at lag tau.

    For the unit-variance sinc-covariance process X with derivative scaled by
    1/sqrt(1/3):

        rho_zz = sinc(tau)        rho_zw = -sqrt(3) sinc'(tau)
        rho_wz = +sqrt(3) sinc'(tau)   rho_ww = -3 sinc''(tau)
    """
    t = np.asarray(tau, dtype=float)
    if np.any(t <= 0.0):
        raise UsageError("lag must be positive")
    return _lag_correlations_raw(t)


def _lag_correlations_raw(tau):
    s0, s1, s2 = sinc_derivs(np.asarray(tau, dtype=float))
    return s0, -_SQRT3 * s1, _SQRT3 * s1, -3.0 * s2


def _pair_intensity(K, s, t):
    """Second-moment Rice integrand at (s, t), vectorized: four lag evaluations per point."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    return _pair_core(
        c_k_derivs(K, t - s), c_k_derivs(K, t + s), _node_factors(K, 2.0 * s), _node_factors(K, 2.0 * t)
    )


def ragged_pair_integral(K, w0, w1, n_nodes):
    """2 * int_{u=0}^{L} int_{s=w0}^{w1-u} F(s, s+u) ds du on ragged half-period tilings.

    The lag u = t - s runs over the half-period panels of [0, w1 - w0]; each
    u node tiles its own s range [w0, w1 - u] with ``_gl_panels``, and every
    point takes four lag-kernel calls through ``_pair_intensity``.  One
    integrand call per u panel covers the s-tilings of all its u nodes.
    """
    u_nodes, u_weights = _gl_panels(0.0, w1 - w0, n_nodes)
    total = 0.0
    for u, wu in zip(u_nodes.reshape(-1, n_nodes), u_weights.reshape(-1, n_nodes)):
        tilings = [_gl_panels(w0, w1 - uk, n_nodes) for uk in u]
        s = np.concatenate([nodes for nodes, _ in tilings])
        t = np.concatenate([nodes + uk for (nodes, _), uk in zip(tilings, u)])
        weights = np.concatenate([ws * wk for (_, ws), wk in zip(tilings, wu)])
        total += float((weights * _pair_intensity(K, s, t)).sum())
    return 2.0 * total


# Band-limited route to sigma_q^2.  sinc, sqrt(3) sinc' and -3 sinc'' are
# the Fourier transforms of 1/2, sqrt(3) i w / 2 and 3 w^2 / 2 on [-1, 1], so
# each monomial of G_q integrates over R to 2 pi 2^-q times a q-fold
# convolution of w_k(w) = w^k 1[-1, 1] at 0.  In truncated powers,
# w_k = sum_m C(k, m) (-1)^(k-m) (w + 1)_+^m - sum_m C(k, m) (w - 1)_+^m, whose
# Laplace transforms are m! e^(+p) / p^(m+1) and m! e^(-p) / p^(m+1).  A
# product of q of them is kept as {(L, M): integer coefficient} of
# e^((2L - q) p) / p^M, L counting the factors at -1; its inverse transform
# at 0 is (2L - q)_+^(M-1) / (M-1)!.


def _box_factor(k):
    """Laplace transform of w_k as {(at -1, p power): integer coefficient}."""
    out = {}
    for m in range(k + 1):
        weight = math.comb(k, m) * math.factorial(m)
        out[1, m + 1] = (-1) ** (k - m) * weight
        out[0, m + 1] = -weight
    return out


def _times(poly, factor):
    out = {}
    for (l1, m1), c1 in poly.items():
        for (l2, m2), c2 in factor.items():
            out[l1 + l2, m1 + m2] = out.get((l1 + l2, m1 + m2), 0) + c1 * c2
    return out


@lru_cache(maxsize=None)
def _box_product(a, b, c):
    """Transform of w_0^{*a} * w_1^{*b} * w_2^{*c}, built from the next smaller product."""
    if c:
        return _times(_box_product(a, b, c - 1), _box_factor(2))
    if b:
        return _times(_box_product(a, b - 1, 0), _box_factor(1))
    if a:
        return _times(_box_product(a - 1, 0, 0), _box_factor(0))
    return {(0, 0): 1}


def box_convolution_at_zero(a, b, c):
    """(w_0^{*a} * w_1^{*b} * w_2^{*c})(0) exactly, for a + b + c >= 2."""
    q = a + b + c
    return sum(
        Fraction(coef * (2 * left - q) ** (m - 1), math.factorial(m - 1))
        for (left, m), coef in _box_product(a, b, c).items()
        if 2 * left > q
    )


def exact_sigma_q_squared(q):
    """sigma_q^2 from the merged table of G_q and exact box-spline values.

    sigma_q^2 = (2 pi / 3) 2^-q sum_{a, j} C_q[a, j] (-1)^j 3^(j+c) J(a, 2j, c)
    with c = q - a - 2j; the sum is exact in the (float) table entries.
    """
    total = Fraction(0)
    for a, row in _order_table(q):
        for j, coef in enumerate(row):
            c = q - a - 2 * j
            weight = Fraction(float(coef)) * (-1) ** j * 3 ** (j + c)
            total += weight * box_convolution_at_zero(a, 2 * j, c)
    return 2.0 * math.pi / 3.0 * 2.0**-q * float(total)
