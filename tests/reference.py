"""Independent references for the tests: routes the package does not ship."""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from trigzero.chaos_variance import _order_table
from trigzero.rice import _gl_panels, _pair_intensity


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
