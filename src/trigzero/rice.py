"""Rice moment integrals for the zero count of the cosine ensemble.

First moment: for the unit-variance standardized process the zero-count mean
over [lo, hi] on the rescaled axis is

    E N = (1/pi) * integral v(t) dt,

where v(t) is the standard deviation of the standardized derivative,
assembled directly from the lag covariance:

    v(t)^2 = [c''(2t) - c''(0) - c'(2t)^2/(1+c(2t))] / (1 + c(2t)).

Every path is even, so ``rice_mean`` folds an interval of [0, 2*K*pi] at K*pi.

Second factorial moment: E[N(N-1)] over a window is the double integral of

    E[|D_s| |D_t| given values vanish at s and t] * p_{s,t}(0, 0),

with the conditioned pair handled by explicit 2x2 Gaussian regression and the
conditional absolute moment E|UV| in closed form (``conditional_abs_moment``).

The second moment's rule is a tensor product over the triangle s < t.  The
window is tiled into m equal panels of width h at most a half period, each
with Gauss-Legendre nodes at offsets rel.  A pair of panels i < j takes the
product rule, so its lags depend only on panel indices and node pairs:
t - s = (j - i) h + rel_l - rel_k and t + s = 2 w0 + (i + j) h + rel_k + rel_l.
The lag kernel is therefore evaluated once per table, not four times per
point: one table for t - s over the offsets d = j - i, one for t + s per
parity of i + j, and the node factors at 2 * node; each offset d is then one
integrand call over the m - d panel pairs.  A diagonal panel is the triangle
u = t - s in [0, h], s in [a_i, b_i - u], with the same pattern in every
panel.  The integrand has a removable singularity on t = s and vanishes
linearly there: no node lands on it, and at the smallest 16-node lag node
(u ~ 0.008 on a half-period panel) the float64 integrand still agrees with a
40-digit evaluation to about 1e-5 relative.

Both moments use half-period panels of 16 nodes with the gap to the 8-node
rule as the error estimate, and whole arrays of panels per integrand call.
The mean halves the panels whose gap is large, in rounds.  Every weighted sum
is a numpy reduction or math.fsum, not a BLAS dot product, so the results do
not depend on the BLAS thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .covariance import c_k_dd0, c_k_derivs
from .errors import NumericError, UsageError, require_int, require_interval

_PANEL = 0.5 * np.pi
_BLOCK = 1024  # panels per integrand call of the mean: 24 nodes each, ~25k lags
_MAX_PANELS = 20000  # no refinement round of the mean starts above this
# request caps in half-period panels: the mean's memory grows with its panel
# count (2**22 take ~10 s and ~320 MiB), the second moment's time with the
# square of its window's (1,591 at K = 800 take ~35 s and ~170 MiB)
_MAX_MEAN_PANELS = 1 << 22
_MAX_PAIR_PANELS = 1 << 12
# the largest K whose default [0, K*pi] mean fits the mean's panel cap; the
# lag kernel's cost per lag, and its one moment table per K, do not grow with K
_MAX_DEGREE = _MAX_MEAN_PANELS // 2


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
    require_int("degree K", K, 1)
    if not (0.0 < alpha < 0.5):
        raise UsageError("window exponent must lie in (0, 1/2)")
    edge = (K * np.pi) ** alpha
    hi = K * np.pi - edge
    if hi <= edge:
        raise UsageError("window is empty at this K and alpha")
    return (edge, hi)


def wilkins_mean(K: int) -> float:
    """Two-term asymptotic zero-count mean on [0, 2*pi]: ((2K+1) + 0.23)/sqrt(3)."""
    require_int("degree K", K, 1)
    return (2.0 * K + 1.0 + 0.23) / math.sqrt(3.0)


def zero_intensity(K: int, t):
    """Rice intensity v(t)/pi of the zero set on the rescaled axis."""
    v2 = _node_factors(K, 2.0 * np.asarray(t, dtype=float))[2]
    return np.sqrt(np.maximum(v2, 0.0)) / np.pi


def _panel_count(lo, hi):
    """Number of equal panels, each at most a half period, that tile [lo, hi]."""
    return max(math.ceil((hi - lo) / _PANEL), 1)


def _panel_edges(lo, hi):
    """Ends a, b of the half-period panels tiling [lo, hi]: the edges of np.linspace."""
    edges = np.linspace(lo, hi, _panel_count(lo, hi) + 1)
    return edges[:-1], edges[1:]


def _gl_panels(lo, hi, n_nodes):
    """GL nodes and weights tiling [lo, hi] in half-period panels of n_nodes each."""
    x, w = _gl(n_nodes)
    a, b = _panel_edges(lo, hi)
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


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
    a, b = _panel_edges(lo, hi)
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
    """Expected zero count over an interval of the rescaled period [0, 2*K*pi].

    ``interval=None`` means [0, K*pi], or the alpha-window when ``alpha`` is
    given.  The part past K*pi is integrated as its mirror t -> 2*K*pi - t
    (every path is even), so the intensity's zero at K*pi stays a panel end.
    K = 1 is degenerate (a random amplitude times cos t), so its zero count
    is the exact root count of cos on [lo, hi) rather than a Rice integral.
    K above ``_MAX_DEGREE`` = 2**21, or an interval (both pieces together)
    of more than ``_MAX_MEAN_PANELS`` half-period panels, is a UsageError,
    raised before any panel is built.
    """
    require_int("degree K", K, 1, _MAX_DEGREE)
    if interval is None:
        interval = window_bounds(K, alpha) if alpha is not None else (0.0, K * np.pi)
    top = K * np.pi
    lo, hi = require_interval(interval, 0.0, 2.0 * top + 1e-9)
    if K == 1:
        return RiceResult(float(_count_cosine_roots(lo, hi)), (lo, hi), 0.0, K)
    pieces = [(a, b) for a, b in ((lo, min(hi, top)), (2.0 * top - hi, min(2.0 * top - lo, top))) if a < b]
    panels = sum(_panel_count(a, b) for a, b in pieces)
    if panels > _MAX_MEAN_PANELS:
        raise UsageError(f"the interval spans {panels} half-period panels, more than {_MAX_MEAN_PANELS}")
    val = err = 0.0
    for a, b in pieces:
        v, e = _adaptive_gl(lambda t: zero_intensity(K, t), a, b, rel_tol=rel_tol)
        val, err = val + v, err + e
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


def _node_factors(K, x):
    """V, V'/V and v^2 of the standardized process at the points x/2, from the lag x = 2t.

    v(t)^2 = [c'' - c''(0) - c'^2/(1+c)] / (1+c), with (c, c', c'') at lag 2t.
    """
    c, c1, c2 = c_k_derivs(K, x)
    denom = 1.0 + c
    return np.sqrt(0.5 * denom), c1 / denom, (c2 - c_k_dd0(K) - c1 * c1 / denom) / denom


def _pair_core(minus, plus, fs, ft):
    """Second-moment integrand from (c, c', c'') at the lags t - s and t + s and the node factors of s and t.

    Builds the standardized correlation surface and its needed partials,
    conditions the derivative pair on vanishing values through explicit 2x2
    solves, and multiplies the conditional absolute moment by the joint
    density at (0, 0).  All arguments broadcast against each other.
    """
    ct, c1t, c2t = minus
    cs_, c1s_, c2s_ = plus
    Vs, Ps, vs2 = fs
    Vt, Pt, vt2 = ft

    r = 0.5 * (ct + cs_)
    r_s = 0.5 * (c1s_ - c1t)
    r_t = 0.5 * (c1t + c1s_)
    r_st = 0.5 * (c2s_ - c2t)

    denom = Vs * Vt
    rho = r / denom
    g_s = (r_s - r * Ps) / denom
    g_t = (r_t - r * Pt) / denom
    r11 = (r_st - r_t * Ps - r_s * Pt + r * Ps * Pt) / denom

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
    """2 * int_{w0 <= s < t <= w1} F(s, t) on the tensor-product panel grid.

    [w0, w1] is tiled into m equal panels of width h with nodes w0 + i h + rel_k.
    A pair of panels i < j = i + d takes the product rule; its lags are
    t - s = d h + rel_l - rel_k and t + s = 2 w0 + (i + j) h + rel_k + rel_l.
    """
    m = _panel_count(w0, w1)
    h = (w1 - w0) / m
    x, gw = _gl(n_nodes)
    rel = 0.5 * h + 0.5 * h * x  # the nodes of _gl_panels(0, h, n_nodes)
    w = 0.5 * h * gw
    base = 2.0 * w0 + h * np.arange(2 * m - 1)  # 2 w0 + p h, p = 0 .. 2m - 2
    fac = _node_factors(K, base[::2, None] + 2.0 * rel)  # at 2 * node, per panel and node
    minus = c_k_derivs(K, h * np.arange(1, m)[:, None, None] + (rel - rel[:, None]))
    # t + s at p = i + j = 1 .. 2m - 3; offset d reads p = d, d + 2, ..., so one
    # table per parity of p keeps every kernel call within one offset's size
    plus = [c_k_derivs(K, base[p0:-1:2, None, None] + (rel + rel[:, None])) for p0 in (2, 1)]
    weights = w[:, None] * w
    sums = []
    for d in range(1, m):
        rows = slice((d - 1) // 2, (d - 1) // 2 + m - d)
        f = _pair_core(
            [a[d - 1] for a in minus],
            [a[rows] for a in plus[d % 2]],
            [a[: m - d, :, None] for a in fac],
            [a[d:, None, :] for a in fac],
        )
        sums.append((f * weights).sum())
    # the diagonal panels: lag u = rel_k from 0 and s over [a_i, b_i - u],
    # the same pattern in every panel
    s_rel = 0.5 * (h - rel)[:, None] * (1.0 + x)
    two_a = base[::2, None, None]
    f = _pair_core(
        [a[:, None] for a in c_k_derivs(K, rel)],
        c_k_derivs(K, two_a + (2.0 * s_rel + rel[:, None])),
        _node_factors(K, two_a + 2.0 * s_rel),
        _node_factors(K, two_a + 2.0 * (s_rel + rel[:, None])),
    )
    sums.append((f * (w * 0.5 * (h - rel))[:, None] * gw).sum())
    return 2.0 * math.fsum(sums)


def rice_second_moment(K: int, alpha: float = 0.25, interval=None, nodes: int = 16) -> RiceResult:
    """Second factorial moment E[N(N-1)] of the zero count over a window.

    The window defaults to the alpha-trimmed axis; explicit intervals must
    stay strictly inside (0, K*pi), where the standardized derivative is
    nondegenerate.  The error estimate is the gap to the rule of nodes // 2.
    The time grows as the window's panel count squared, so more than
    ``_MAX_PAIR_PANELS`` panels (K > 2053 on the default window) is a
    UsageError, as is K above ``_MAX_DEGREE`` on any window.
    """
    require_int("degree K", K, 2, _MAX_DEGREE)
    require_int("nodes", nodes, 2)
    if interval is None:
        interval = window_bounds(K, alpha)
    w0, w1 = require_interval(interval, 0.0, K * np.pi)
    if w0 == 0.0 or w1 == K * np.pi or w1 - w0 <= 0.01:
        raise UsageError("interval must sit strictly inside (0, K*pi) and be longer than 0.01")
    m = _panel_count(w0, w1)
    if m > _MAX_PAIR_PANELS:
        raise UsageError(f"the window spans {m} half-period panels, more than {_MAX_PAIR_PANELS}")
    value = _pair_integral(K, w0, w1, nodes)
    err = abs(value - _pair_integral(K, w0, w1, nodes // 2))
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
