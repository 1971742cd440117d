"""Covariance kernels of random cosine polynomials and their large-degree limits.

Everything lives on the rescaled time axis [0, K*pi], where the degree-K
ensembles oscillate on an O(1) scale.  Every kernel is one even lag function
f, taken with its first two derivatives:

* ``c_k(K, tau)`` -- the lag covariance (1/K) * sum_{n=1..K} cos(n*tau/K) of
  the stationary (cosine+sine) ensemble, with the lag folded by its period,
* ``sinc(x) = sin(x)/x`` -- its pointwise limit as K grows.

Both come from a closed form (the Dirichlet kernel, sin x / x) and, below
_SMALL_LAG = 2 where that cancels, from one even Taylor series with exact
moments, so the cost per lag does not grow with K.

The stationary ensemble's covariance surface is c_k(t-s) itself; the
cosine ensemble's, (c_k(t-s) + c_k(t+s))/2, is assembled where it is used,
in ``rice._pair_core``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError, require_int

# Lags with |u| below _SMALL_LAG use the even series of _TERMS terms: the
# closed forms lose about eps/u^2 there, and with moments at most 1 the first
# term left out is below 2e-19 in each of f, f', f''.
_SMALL_LAG = 2.0
_TERMS = 14
_FACTORIAL = np.cumprod([1.0, *range(1, 2 * _TERMS)])  # 0!, 1!, ..., (2 _TERMS - 1)!


def _series(m):
    """Horner rows, top power of v = u^2 first, of f, f'/u and f'' for
    f(u) = sum_j (-1)^j m_j u^(2j) / (2j)!; f(0) = m_0 and f''(0) = -m_1 exactly."""
    a, k = np.append(np.multiply(m, (-1.0) ** np.arange(_TERMS)), 0.0), np.arange(_TERMS)
    rows = (a[:-1] / _FACTORIAL[2 * k], a[1:] / _FACTORIAL[2 * k + 1], a[1:] / _FACTORIAL[2 * k])
    table = np.stack(rows, axis=1)[::-1, :, None]
    table.flags.writeable = False  # cached and shared by every call
    return table


def _even_series(table, u):
    """(f, f', f'') at lags u >= 0 from a ``_series`` table, by Horner's rule."""
    v, out = u * u, np.zeros((3, u.size))
    for row in table:
        out *= v
        out += row
    out[1] *= u
    return out


_SINC_SERIES = _series([1.0 / (2 * j + 1) for j in range(_TERMS)])
_C_K_SERIES = {}  # K -> its table, filled on first use


def _lag_kernel(closed, table, lag):
    """(f, f', f'') of an even f at ``lag``: the closed form at |lag|, patched
    below _SMALL_LAG by the series, and f' flipped at negative lags."""
    a = np.asarray(lag, dtype=float)
    u = np.abs(a.reshape(-1))  # numpy's x ** 3 is slow, and not bit-odd, at x < 0
    with np.errstate(divide="ignore", invalid="ignore"):
        parts = closed(u)
    small = u < _SMALL_LAG
    if np.any(small):
        for p, s in zip(parts, _even_series(table, u[small])):
            p[small] = s
    parts[1][a.reshape(-1) < 0.0] *= -1.0
    if a.ndim == 0:
        return tuple(float(p[0]) for p in parts)
    return tuple(p.reshape(a.shape) for p in parts)


def sinc(x):
    """sin(x)/x, the value part of ``sinc_derivs``."""
    return sinc_derivs(x)[0]


def _sinc_closed(x):
    """(sinc, sinc', sinc'') by their closed forms, at x != 0."""
    sx, cx = np.sin(x), np.cos(x)
    return sx / x, (x * cx - sx) / (x * x), ((2.0 - x * x) * sx - 2.0 * x * cx) / x ** 3


def sinc_derivs(x):
    """Return (sinc, sinc', sinc'') evaluated elementwise."""
    return _lag_kernel(_sinc_closed, _SINC_SERIES, x)


def _c_k_series(K):
    """The ``_series`` table of c_K, once per K.  Its moments (1/K) sum_n (n/K)^(2j)
    are correctly rounded from the power sums S_p = sum_{n<=K} n^p, exact
    integers by (K+1)^(p+1) - 1 = sum_{i<=p} C(p+1, i) S_i."""
    K = int(K)  # a numpy integer overflows the power sums, and the table is cached for int K too
    if K not in _C_K_SERIES:
        sums, row = [], [1]
        for p in range(2 * _TERMS - 1):
            row = [1, *(a + b for a, b in zip(row, row[1:])), 1]  # C(p+1, i)
            sums.append(((K + 1) ** (p + 1) - 1 - sum(c * s for c, s in zip(row, sums))) // (p + 1))
        _C_K_SERIES[K] = _series([sums[2 * j] / K ** (2 * j + 1) for j in range(_TERMS)])
    return _C_K_SERIES[K]


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
    """Return (c, c', c'') of ``c_k`` at lag ``tau``, folded into [-pi K, pi K].

    c'(tau)  = -(1/K) sum (n/K)   sin(n tau / K)
    c''(tau) = -(1/K) sum (n/K)^2 cos(n tau / K)
    """
    require_int("degree K", K, 1)
    period = 2.0 * np.pi * K
    a = np.asarray(tau, dtype=float)
    return _lag_kernel(lambda u: _c_k_closed(K, u), _c_k_series(K), a - period * np.rint(a / period))


def c_k_dd0(K):
    """c''_K(0) = -(K+1)(2K+1) / (6 K^2); tends to -1/3."""
    require_int("degree K", K, 1)
    return -(K + 1.0) * (2.0 * K + 1.0) / (6.0 * K * K)


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
    require_int("degree K", K, 1)
    tau = np.asarray(tau_grid, dtype=float).ravel()
    if tau.size == 0:
        raise UsageError("empty tau grid")
    if not np.all((tau > 0.0) & (tau <= K * np.pi + 1e-12)):  # also rejects nan
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
