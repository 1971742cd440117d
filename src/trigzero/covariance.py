"""Covariance kernels of random cosine polynomials and their large-degree limits.

Everything lives on the rescaled time axis [0, K*pi], where the degree-K
ensembles oscillate on an O(1) scale.  Every kernel is one lag function f,
taken with its first two derivatives:

* ``c_k(K, tau)`` -- the lag covariance (1/K) * sum_{n=1..K} cos(n*tau/K) of
  the stationary (cosine+sine) ensemble.  ``c_k_derivs`` folds the lag into
  [-pi K, pi K] by the period 2 pi K and evaluates c, c', c'' through the
  Dirichlet-kernel closed form, or through the direct sums at folded lags
  below _SMALL_LAG = 2,
* ``sinc(x) = sin(x)/x`` -- its pointwise limit as K grows.

``Kernel(K, cosine)`` composes f = c_k(K, .), or f = sinc for K = None, as
the cosine-type surface (f(t-s) + f(t+s))/2 or the stationary f(t-s):

=======================  =============================  ===========================
``Kernel(K)``            cosine ensemble, degree K      (c_k(t-s) + c_k(t+s)) / 2
``Kernel(K, False)``     stationary ensemble, degree K  c_k(t-s)
``Kernel(None, False)``  stationary sinc limit          sinc(t-s)
``Kernel()``             cosine-type limit              (sinc(t-s) + sinc(t+s)) / 2
=======================  =============================  ===========================
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError

# Switch to Taylor series below this argument to avoid 0/0 in sinc and its
# derivatives; 6th-order truncation keeps ~1e-12 accuracy at the boundary.
_SINC_TAYLOR_CUT = 1e-3

# Folded lags with |tau| below this use the direct sums: the closed-form
# derivatives lose about eps/tau^2 to cancellation as tau -> 0.
_SMALL_LAG = 2.0

# Lags-times-degree workspace cap for the direct sums.
_CHUNK_BUDGET = 4_000_000


def _as_array(x):
    a = np.asarray(x, dtype=float)
    return a, (a.ndim == 0)


def sinc(x):
    """sin(x)/x with the removable singularity handled by series expansion."""
    return sinc_derivs(x)[0]


def sinc_derivs(x):
    """Return (sinc, sinc', sinc'') evaluated elementwise.

    sinc'(x)  = (x cos x - sin x) / x^2
    sinc''(x) = ((2 - x^2) sin x - 2x cos x) / x^3
    """
    a, scalar = _as_array(x)
    a = np.atleast_1d(a)
    small = np.abs(a) < _SINC_TAYLOR_CUT
    s0, s1, s2 = (np.empty_like(a) for _ in range(3))

    xl = a[~small]
    sx, cx = np.sin(xl), np.cos(xl)
    s0[~small] = sx / xl
    s1[~small] = (xl * cx - sx) / (xl * xl)
    s2[~small] = ((2.0 - xl * xl) * sx - 2.0 * xl * cx) / (xl ** 3)

    xs = a[small]
    x2 = xs * xs
    s0[small] = 1.0 - x2 / 6.0 + x2 * x2 / 120.0 - x2 * x2 * x2 / 5040.0
    s1[small] = xs * (-1.0 / 3.0 + x2 / 30.0 - x2 * x2 / 840.0)
    s2[small] = -1.0 / 3.0 + x2 / 10.0 - x2 * x2 / 168.0

    if scalar:
        return float(s0[0]), float(s1[0]), float(s2[0])
    return s0, s1, s2


def _c_k_direct(K, tau):
    """(c, c', c'') at 1-D lags by the direct sums over n, chunked over lags."""
    n = np.arange(1, K + 1, dtype=float) / K
    c, c1, c2 = (np.empty_like(tau) for _ in range(3))
    step = max(1, _CHUNK_BUDGET // K)
    for lo in range(0, tau.size, step):
        sl = slice(lo, lo + step)
        ang = np.multiply.outer(tau[sl], n)
        cs = np.cos(ang)
        c[sl] = cs.mean(axis=-1)
        c1[sl] = -(np.sin(ang) @ n) / K
        c2[sl] = -(cs @ (n * n)) / K
    return c, c1, c2


def _c_k_closed(K, tau):
    """(c, c', c'') from the Dirichlet kernel, at lags off the multiples of 2 pi K.

    With x = tau/K and M = K + 1/2, F(x) = sin(Mx)/sin(x/2) = 1 + 2 sum cos(nx),
    so c = (F - 1)/(2K), c' = F'/(2K^2) and c'' = F''/(2K^3).
    """
    x = tau / K
    M = K + 0.5
    A, A1 = np.sin(M * x), M * np.cos(M * x)
    h, q = np.sin(0.5 * x), np.cos(0.5 * x)
    F = A / h
    F1 = (A1 * h - 0.5 * A * q) / (h * h)
    F2 = -M * M * F - A1 * q / (h * h) + 0.25 * F + 0.5 * A * q * q / h ** 3
    return (F - 1.0) / (2.0 * K), F1 / (2.0 * K * K), F2 / (2.0 * K ** 3)


def c_k(K, tau):
    """Lag covariance (1/K) * sum_{n=1..K} cos(n*tau/K); the value part of ``c_k_derivs``."""
    return c_k_derivs(K, tau)[0]


def c_k_derivs(K, tau):
    """Return (c, c', c'') of ``c_k`` at lag ``tau``.

    c'(tau)  = -(1/K) sum (n/K)   sin(n tau / K)
    c''(tau) = -(1/K) sum (n/K)^2 cos(n tau / K)

    The lag is folded into [-pi K, pi K] by the period 2 pi K; c and c'' are
    even and c' is odd.  Folded lags with |tau| >= _SMALL_LAG use the
    Dirichlet-kernel closed form, whose cost does not grow with K; smaller
    ones use the direct sums, which keep c'(0) == 0 exactly.
    """
    if K < 1:
        raise UsageError(f"degree K must be >= 1, got {K}")
    a, scalar = _as_array(tau)
    a = np.atleast_1d(a)
    f = a.ravel() - 2.0 * np.pi * K * np.rint(a.ravel() / (2.0 * np.pi * K))
    u = np.abs(f)
    small = u < _SMALL_LAG
    with np.errstate(divide="ignore", invalid="ignore"):
        c, c1, c2 = _c_k_closed(K, u)
    if np.any(small):
        c[small], c1[small], c2[small] = _c_k_direct(K, u[small])
    c1 = np.where(f < 0.0, -c1, c1)
    if scalar:
        return float(c[0]), float(c1[0]), float(c2[0])
    return c.reshape(a.shape), c1.reshape(a.shape), c2.reshape(a.shape)


def c_k_dd0(K):
    """c''_K(0) = -(K+1)(2K+1) / (6 K^2); tends to -1/3."""
    return -(K + 1.0) * (2.0 * K + 1.0) / (6.0 * K * K)


def _deriv_var(c, c1, c2, K):
    """v(t)^2 = [c'' - c''(0) - c'^2/(1+c)] / (1+c), from (c, c', c'') at lag 2t."""
    denom = 1.0 + c
    return (c2 - c_k_dd0(K) - c1 * c1 / denom) / denom


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


@dataclass(frozen=True)
class BoundsReport:
    """Outcome of the lag-covariance inequality checks on a grid."""

    K: int
    checked: int
    passed: bool
    violation: tuple | None  # (tau, which, value, bound) of the first failure


def kernel_bounds_check(K, tau_grid) -> BoundsReport:
    """Check |c(tau)| <= pi/tau and |c'(tau)| <= pi/tau + pi^2/(2 tau^2).

    ``tau_grid`` must lie in (0, K*pi].  Returns the first violation, if any;
    comparisons carry no slack, the inequalities hold exactly.
    """
    tau = np.asarray(tau_grid, dtype=float).ravel()
    if tau.size == 0:
        raise UsageError("empty tau grid")
    if np.any(tau <= 0.0) or np.any(tau > K * np.pi + 1e-12):
        raise UsageError("tau grid must lie in (0, K*pi]")
    c, c1, _ = c_k_derivs(K, tau)
    for which, size, bound in (
        ("value", np.abs(c), np.pi / tau),
        ("derivative", np.abs(c1), np.pi / tau + np.pi ** 2 / (2.0 * tau * tau)),
    ):
        bad = size > bound
        if np.any(bad):
            i = int(np.argmax(bad))
            return BoundsReport(K, tau.size, False, (float(tau[i]), which, float(size[i]), float(bound[i])))
    return BoundsReport(K, tau.size, True, None)
