"""Chaos-level variance constants of the zero count for the sinc process.

The centered, sqrt(length)-normalized zero count of the stationary process
with sinc covariance decomposes into orthogonal components indexed by an
order q >= 1.  The order-q component's limiting variance is

    sigma_q^2 = (1/3) * integral_R  G_q(tau) dtau,

where 1/3 is the variance of the process derivative, and G_q is the lag
correlation of the order-q integrand: a double sum over coefficient pairs of
four-fold Hermite product expectations, evaluated through the pairing-diagram
formula with the cross-correlations of (value, normalized derivative) at lag
tau.  The coefficients combine the Hermite table of |x| with the normalized
point-mass weights b_k / (k! sqrt(2 pi)); under this normalization the sum
over q of sigma_q^2 is exactly the limit of Var(N[0, L]) / L, the constant
the Monte Carlo campaigns estimate.

Odd orders vanish identically (odd point-mass weights are zero); the q = 2
constant has the closed form 2/(15 pi), used as an independent oracle in the
tests.

G_q decays like 1/tau^2, so the integral is truncated at a cutoff and the
remainder is added back from a fitted C/tau^2 envelope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import sinc_derivs
from .errors import UsageError
from .hermite import (
    ChaosCoefficients,
    abs_coeff,
    chaos_coefficients,
    dirac_coeff_normalized,
    mehler_product_grid,
)
from .rice import _gl_panels

_SQRT3 = np.sqrt(3.0)
_GL_NODES = 16


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


def _order_pairs(q: int):
    """Nonzero (order_x, order_y, coefficient) triples of the order-q integrand."""
    pairs = []
    for ell in range(q // 2 + 1):
        k = q - 2 * ell
        coef = dirac_coeff_normalized(k) * abs_coeff(ell)
        if coef != 0.0:
            pairs.append((k, 2 * ell, coef))
    return pairs


def chaos_lag_correlation(q: int, tau):
    """G_q(tau): lag correlation of the order-q chaos integrand.

    Vectorized over tau; the lag 0 value is the integrand's variance and is
    perfectly regular (the diagram sum is a polynomial in the correlations).
    """
    tau = np.asarray(tau, dtype=float)
    rzz, rzw, rwz, rww = _lag_correlations_raw(tau)
    pairs = _order_pairs(q)
    out = np.zeros(tau.shape)
    for kx, ky, cx in pairs:
        for kx2, ky2, cx2 in pairs:
            out = out + cx * cx2 * mehler_product_grid(
                (kx, ky, kx2, ky2), rzz, rzw, rwz, rww
            )
    return out


@dataclass(frozen=True)
class ChaosTerm:
    """One order's variance contribution, with quadrature bookkeeping."""

    q: int
    sigma_sq: float
    tail_cutoff: float
    quadrature_error: float


def sigma_q_squared(q: int, coeffs: ChaosCoefficients | None = None, tail: float = 1e4) -> ChaosTerm:
    """Limiting variance of the order-q component.

    sigma_q^2 = (1/3) * 2 * [ int_0^tail G_q + remainder ], the remainder
    coming from a C/tau^2 envelope fitted on the last decade before the
    cutoff.  Odd q vanish exactly.
    """
    if q < 1:
        raise UsageError("order must be >= 1")
    if tail < 100.0:
        raise UsageError("tail cutoff must be >= 100")
    if coeffs is not None and q > coeffs.q_max:
        raise UsageError(f"order {q} above the coefficient table's q_max")
    if q % 2 == 1:
        return ChaosTerm(q=q, sigma_sq=0.0, tail_cutoff=float(tail), quadrature_error=0.0)

    nodes, weights = _gl_panels(0.0, float(tail), _GL_NODES)
    g = chaos_lag_correlation(q, nodes)
    body = float(weights @ g)

    # coarse pass for the error estimate
    nodes8, weights8 = _gl_panels(0.0, float(tail), _GL_NODES // 2)
    body8 = float(weights8 @ chaos_lag_correlation(q, nodes8))

    # 1/tau^2 tail envelope fitted on the last decade
    sel = nodes >= tail / 10.0
    c_fit = float(np.mean(g[sel] * nodes[sel] ** 2))
    remainder = c_fit / tail

    sigma = (2.0 / 3.0) * (body + remainder)
    err = (2.0 / 3.0) * (abs(body - body8) + 0.5 * abs(remainder))
    return ChaosTerm(q=q, sigma_sq=sigma, tail_cutoff=float(tail), quadrature_error=err)


@dataclass(frozen=True)
class VarianceConstant:
    """Chaos variance sum: computed orders plus the series-tail estimate.

    The contributions decay polynomially, sigma_q^2 ~ C q^{-3/2} (the
    canonical rate for crossing-count functionals; the fit constant
    q^{3/2} sigma_q^2 is flat to a few 1e-4 by q ~ 20), so the orders beyond
    q_max are summed from that envelope via the Hurwitz zeta function rather
    than dropped.
    """

    total: float
    terms: list
    truncation_indicator: float  # magnitude of the last computed nonzero term
    series_tail: float  # estimated mass of the orders beyond q_max
    envelope_constant: float  # fitted C in sigma_q^2 ~ C q^{-3/2}


_TAIL_EXPONENT = 1.5


def _series_tail(terms, q_max):
    """Estimated sum of sigma_q^2 over even q > q_max from the C q^{-3/2} law."""
    from scipy.special import zeta

    anchors = [(t.q, t.sigma_sq) for t in terms if t.sigma_sq > 0.0][-2:]
    if not anchors:
        return 0.0, 0.0
    c_fit = float(np.mean([s * q ** _TAIL_EXPONENT for q, s in anchors]))
    m0 = q_max // 2 + 1  # next even order is 2*m0
    tail = c_fit * 2.0 ** -_TAIL_EXPONENT * float(zeta(_TAIL_EXPONENT, m0))
    return tail, c_fit


def total_variance_constant(q_max: int = 20, tail: float = 1e4) -> VarianceConstant:
    """Variance constant: sum of sigma_q^2 over q >= 2.

    Orders up to ``q_max`` are integrated directly (even orders carry
    everything); the remaining series mass comes from the q^{-3/2} envelope.
    """
    if q_max < 2:
        raise UsageError("q_max must be >= 2")
    coeffs = chaos_coefficients(q_max)
    terms = [sigma_q_squared(q, coeffs, tail=tail) for q in range(2, q_max + 1)]
    partial = float(sum(t.sigma_sq for t in terms))
    series_tail, c_fit = _series_tail(terms, q_max)
    nonzero = [abs(t.sigma_sq) for t in terms if t.sigma_sq != 0.0]
    indicator = nonzero[-1] if nonzero else 0.0
    return VarianceConstant(
        total=partial + series_tail,
        terms=terms,
        truncation_indicator=indicator,
        series_tail=series_tail,
        envelope_constant=c_fit,
    )
