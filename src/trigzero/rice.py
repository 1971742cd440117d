"""Rice moment integrals for the zero count of the cosine ensemble.

First moment: for the unit-variance standardized process the zero-count mean
over [lo, hi] on the rescaled axis is

    E N = (1/pi) * integral v(t) dt,

where v(t) is the standard deviation of the standardized derivative,
assembled directly from the lag covariance:

    v(t)^2 = [c''(2t) - c''(0) - c'(2t)^2/(1+c(2t))] / (1 + c(2t)).

Second factorial moment: E[N(N-1)] over a window is the double integral of

    E[|D_s| |D_t| given values vanish at s and t] * p_{s,t}(0, 0),

with the conditioned pair handled by explicit 2x2 Gaussian regression and the
conditional absolute moment E|UV| in closed form (``conditional_abs_moment``).

The integrand has a removable singularity on the diagonal t = s and vanishes
linearly there, so the lag u = t - s is integrated from 0 with the same
Gauss-Legendre rule: its nodes never land on u = 0, and at the smallest
16-node lag node (u ~ 0.008 on a half-period panel) the float64 integrand
still agrees with a 40-digit evaluation to about 1e-5 relative.

Both use one Gauss-Legendre panel rule: half-period panels of 16 nodes, whole
arrays of panels per integrand call, and the 16-vs-8-node gap as the error
estimate.  The mean halves the panels whose gap is large, in rounds.  Every
weighted sum is a numpy reduction, not a BLAS dot product, so the results do
not depend on the BLAS thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .covariance import _deriv_var, c_k_derivs
from .errors import NumericError, UsageError

_PANEL = 0.5 * np.pi
_BLOCK = 1024  # panels per integrand call of the mean: 24 nodes each, ~25k lags
_MAX_PANELS = 20000  # no refinement round of the mean starts above this


@lru_cache(maxsize=None)
def _gl(n):
    return np.polynomial.legendre.leggauss(n)


@dataclass(frozen=True)
class RiceResult:
    """One moment integral with its quadrature error estimate."""

    value: float
    interval: tuple
    quadrature_error_estimate: float
    K: int


def window_bounds(K: int, alpha: float) -> tuple:
    """Window [ (K pi)^alpha, K pi - (K pi)^alpha ] on the rescaled axis."""
    if not (0.0 < alpha < 0.5):
        raise UsageError("window exponent must lie in (0, 1/2)")
    edge = (K * np.pi) ** alpha
    hi = K * np.pi - edge
    if hi <= edge:
        raise UsageError("window is empty at this K and alpha")
    return (edge, hi)


def wilkins_mean(K: int) -> float:
    """Two-term asymptotic zero-count mean on [0, 2*pi]: ((2K+1) + 0.23)/sqrt(3)."""
    if K < 1:
        raise UsageError("K must be >= 1")
    return (2.0 * K + 1.0 + 0.23) / math.sqrt(3.0)


def zero_intensity(K: int, t):
    """Rice intensity v(t)/pi of the zero set on the rescaled axis."""
    t = np.asarray(t, dtype=float)
    c, c1, c2 = c_k_derivs(K, 2.0 * t)
    return np.sqrt(np.maximum(_deriv_var(c, c1, c2, K), 0.0)) / np.pi


def _panel_edges(lo, hi):
    """Ends a, b of the half-period panels tiling [lo, hi_i] per entry of ``hi``, and their entries.

    The edges are those of np.linspace(lo, hi_i, m_i + 1): k * step + lo, the
    last one exactly hi_i.
    """
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    m = np.maximum(np.ceil((hi - lo) / _PANEL).astype(np.int64), 1)
    owner = np.repeat(np.arange(hi.size), m)
    k = np.arange(owner.size) - np.repeat(np.cumsum(m) - m, m)
    step = ((hi - lo) / m)[owner]
    b = np.where(k + 1 == m[owner], hi[owner], (k + 1) * step + lo)
    return k * step + lo, b, owner


def _gl_panels(lo, hi, n_nodes):
    """GL nodes and weights tiling [lo, hi] in half-period panels, and each panel's entry of hi.

    ``hi`` may be an array of upper ends; their tilings are concatenated in order.
    """
    x, w = _gl(n_nodes)
    a, b, owner = _panel_edges(lo, hi)
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel(), owner


def _panel_sums(f, a, b):
    """16-node values and 16-vs-8-node gaps on panels [a_i, b_i], at most ``_BLOCK`` panels per call of f."""
    x16, w16 = _gl(16)
    x8, w8 = _gl(8)
    x = np.concatenate((x16, x8))
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    sums = np.empty((2, a.size))
    for i in range(0, a.size, _BLOCK):
        y = f((mid[i : i + _BLOCK, None] + half[i : i + _BLOCK, None] * x).ravel()).reshape(-1, x.size)
        sums[:, i : i + _BLOCK] = (y[:, :16] * w16).sum(axis=1), (y[:, 16:] * w8).sum(axis=1)
    v16, v8 = half * sums
    return v16, np.abs(v16 - v8)


def _adaptive_gl(f, lo, hi, rel_tol=1e-8):
    """Adaptive Gauss-Legendre on half-period panels, refined in rounds.

    Each round halves, in one batch, every panel whose gap exceeds its share
    rel_tol * |total| / n of the tolerance.  It stops when the gaps sum to at
    most rel_tol * |total|, when no panel qualifies, or at ``_MAX_PANELS``.
    Sums are numpy reductions and math.fsum, so no BLAS thread count moves them.
    """
    a, b, _ = _panel_edges(lo, hi)
    v, e = _panel_sums(f, a, b)
    while True:
        total, err = math.fsum(v), math.fsum(e)
        split = e > rel_tol * abs(total) / a.size
        if err <= rel_tol * abs(total) or a.size >= _MAX_PANELS or not split.any():
            break
        mid = 0.5 * (a[split] + b[split])
        a_new, b_new = np.concatenate((a[split], mid)), np.concatenate((mid, b[split]))
        v_new, e_new = _panel_sums(f, a_new, b_new)
        a, b = np.concatenate((a[~split], a_new)), np.concatenate((b[~split], b_new))
        v, e = np.concatenate((v[~split], v_new)), np.concatenate((e[~split], e_new))
    if err > 1e-4 * max(abs(total), 1.0):
        raise NumericError(f"quadrature stalled: estimate {err:g} on value {total:g}")
    return total, err


def _count_cosine_roots(lo, hi):
    # zeros of cos on [lo, hi): pi/2 + m*pi
    first = math.ceil((lo - 0.5 * math.pi) / math.pi)
    last = math.floor((hi - 1e-15 - 0.5 * math.pi) / math.pi)
    return max(last - first + 1, 0)


def rice_mean(K: int, interval=None, alpha: float | None = None, rel_tol: float = 1e-8) -> RiceResult:
    """Expected zero count over an interval of the rescaled axis [0, K*pi].

    ``interval=None`` means the full axis, or the alpha-window when ``alpha``
    is given.  K = 1 is degenerate (the path is a deterministic cosine shape
    with a random amplitude), so its zero count is the exact root count of the
    cosine factor rather than a Rice integral.
    """
    if K < 1:
        raise UsageError("K must be >= 1")
    if interval is None:
        interval = window_bounds(K, alpha) if alpha is not None else (0.0, K * np.pi)
    lo, hi = float(interval[0]), float(interval[1])
    if not (0.0 <= lo < hi <= K * np.pi + 1e-9):
        raise UsageError("interval must sit inside [0, K*pi]")
    if K == 1:
        return RiceResult(float(_count_cosine_roots(lo, hi)), (lo, hi), 0.0, K)
    val, err = _adaptive_gl(lambda t: zero_intensity(K, t), lo, hi, rel_tol=rel_tol)
    return RiceResult(val, (lo, hi), err, K)


def conditional_abs_moment(sigma_u, sigma_v, rho):
    """E|UV| for a centered bivariate Gaussian with the given sds and correlation:

        E|UV| = (2/pi) sigma_U sigma_V (sqrt(1-rho^2) + rho * arcsin rho).
    """
    rho = np.clip(np.asarray(rho, dtype=float), -1.0, 1.0)
    return (
        (2.0 / np.pi)
        * np.asarray(sigma_u, float)
        * np.asarray(sigma_v, float)
        * (np.sqrt(np.maximum(1.0 - rho * rho, 0.0)) + rho * np.arcsin(rho))
    )


_MIN_DET = 1e-12


def _pair_intensity(K, s, t):
    """Second-moment Rice integrand at (s, t), vectorized.

    Builds the standardized correlation surface and its needed partials from
    four lag evaluations, conditions the derivative pair on vanishing values
    through explicit 2x2 solves, and multiplies the conditional absolute
    moment by the joint density at (0, 0).
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    ct, c1t, c2t = c_k_derivs(K, t - s)
    cs_, c1s_, c2s_ = c_k_derivs(K, t + s)
    cds, c1ds, c2ds = c_k_derivs(K, 2.0 * s)
    cdt, c1dt, c2dt = c_k_derivs(K, 2.0 * t)

    r = 0.5 * (ct + cs_)
    r_s = 0.5 * (c1s_ - c1t)
    r_t = 0.5 * (c1t + c1s_)
    r_st = 0.5 * (c2s_ - c2t)

    ds = 1.0 + cds
    dt_ = 1.0 + cdt
    Vs = np.sqrt(0.5 * ds)
    Vt = np.sqrt(0.5 * dt_)
    Vps = c1ds / (2.0 * Vs)
    Vpt = c1dt / (2.0 * Vt)

    denom = Vs * Vt
    rho = r / denom
    g_s = (r_s - r * Vps / Vs) / denom
    g_t = (r_t - r * Vpt / Vt) / denom
    r11 = (r_st - r_t * Vps / Vs - r_s * Vpt / Vt + r * Vps * Vpt / denom) / denom

    vs2 = _deriv_var(cds, c1ds, c2ds, K)
    vt2 = _deriv_var(cdt, c1dt, c2dt, K)

    det = np.maximum(1.0 - rho * rho, _MIN_DET)
    sU2 = np.maximum(vs2 - g_s * g_s / det, 0.0)
    sV2 = np.maximum(vt2 - g_t * g_t / det, 0.0)
    c12 = r11 + rho * g_s * g_t / det

    sU, sV = np.sqrt(sU2), np.sqrt(sV2)
    prod = sU * sV
    with np.errstate(divide="ignore", invalid="ignore"):
        rho_c = np.where(prod > 0.0, c12 / prod, 0.0)
    return conditional_abs_moment(sU, sV, rho_c) / (2.0 * np.pi * np.sqrt(det))


def _pair_integral(K, w0, w1, n_nodes):
    """2 * int_{u=0}^{L} int_{s=w0}^{w1-u} F(s, s+u) ds du.

    One integrand call per u panel covers the s-tilings of all its u nodes.
    """
    u_nodes, u_weights, _ = _gl_panels(0.0, w1 - w0, n_nodes)
    total = 0.0
    for u, wu in zip(u_nodes.reshape(-1, n_nodes), u_weights.reshape(-1, n_nodes)):
        s, ws, owner = _gl_panels(w0, w1 - u, n_nodes)
        s = s.reshape(owner.size, n_nodes)
        weights = ws.reshape(s.shape) * wu[owner, None]
        f = _pair_intensity(K, s.ravel(), (s + u[owner, None]).ravel())
        total += float((weights.ravel() * f).sum())
    return 2.0 * total


def rice_second_moment(K: int, alpha: float = 0.25, interval=None, nodes: int = 16) -> RiceResult:
    """Second factorial moment E[N(N-1)] of the zero count over a window.

    The window defaults to the alpha-trimmed axis; explicit intervals must
    stay strictly inside (0, K*pi), where the standardized derivative is
    nondegenerate.
    """
    if K < 2:
        raise UsageError("second moment needs K >= 2")
    if interval is None:
        interval = window_bounds(K, alpha)
    w0, w1 = float(interval[0]), float(interval[1])
    if not (0.0 < w0 < w1 < K * np.pi):
        raise UsageError("interval must sit strictly inside (0, K*pi)")
    if w1 - w0 <= 0.01:
        raise UsageError("interval must be longer than 0.01")
    value = _pair_integral(K, w0, w1, nodes)
    err = abs(value - _pair_integral(K, w0, w1, max(nodes // 2, 4)))
    if not np.isfinite(value):
        raise NumericError("second-moment integrand produced non-finite values")
    return RiceResult(value, (w0, w1), err, K)


@dataclass(frozen=True)
class RiceVariance:
    """Variance of the windowed zero count assembled from Rice moments."""

    mean: RiceResult
    second_factorial: RiceResult
    variance: float


def rice_variance(K: int, alpha: float = 0.25) -> RiceVariance:
    """Var N = E[N(N-1)] + E[N] - (E[N])^2 over the alpha-window."""
    window = window_bounds(K, alpha)
    m1 = rice_mean(K, interval=window)
    m2 = rice_second_moment(K, alpha=alpha)
    var = m2.value + m1.value - m1.value ** 2
    return RiceVariance(mean=m1, second_factorial=m2, variance=var)
