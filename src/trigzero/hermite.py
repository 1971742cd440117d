"""Probabilists' Hermite polynomials and Hermite-expansion machinery.

The polynomials follow the probabilists' convention

    H_0 = 1,  H_1 = x,  H_{q+1}(x) = x H_q(x) - q H_{q-1}(x),

orthogonal for the standard Gaussian weight with ||H_q||^2 = q!.
The chaos variance constants need only the expansion coefficients and
pairing diagrams below, never a pointwise value of H_q.

The coefficients of the chaos expansion come from two sequences:

* ``abs_coeff(l)`` = a_{2l}, the Hermite coefficients of |x|:
      a_{2l} = sqrt(2/pi) * (-1)^{l+1} / (2^l l! (2l-1)),
* ``dirac_coeff(k)`` = b_k, the raw values behind the Hermite coefficients
  of a Gaussian bump shrinking to a point mass at 0:
      b_k = (-1)^{k/2} (k-1)!!   for even k,  0 for odd k,
  with the empty double factorial (-1)!! = 1 so that b_0 = 1.
  ``dirac_coeff_normalized(k)`` = b_k / (k! sqrt(2 pi)) is the coefficient
  itself, and the one the variance constants use.

``_mehler_terms`` enumerates the pairing diagrams of a four-fold Hermite
product of jointly Gaussian variables; ``mehler_product_grid`` sums them over
correlation arrays.  The chaos variance constants merge these terms
into one coefficient table per order; ``mehler_product_grid`` is the
reference the tests check that table against.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import UsageError

_TWO_PI = 2.0 * math.pi


def _double_factorial_odd(m: int) -> float:
    # (2j-1)!! style product over odd factors up to m (m odd); (-1)!! := 1
    out = 1.0
    for j in range(1, m + 1, 2):
        out *= j
    return out


def abs_coeff(ell: int) -> float:
    """Hermite coefficient a_{2l} of |x|."""
    if ell < 0:
        raise UsageError("index must be >= 0")
    return (
        math.sqrt(2.0 / math.pi)
        * (-1.0) ** (ell + 1)
        / (2.0 ** ell * math.factorial(ell) * (2.0 * ell - 1.0))
    )


def dirac_coeff(k: int) -> float:
    """Raw point-mass value b_k: (-1)^{k/2} (k-1)!! for even k, zero for odd k."""
    if k < 0:
        raise UsageError("index must be >= 0")
    if k % 2 == 1:
        return 0.0
    return (-1.0) ** (k // 2) * _double_factorial_odd(k - 1)


def dirac_coeff_normalized(k: int) -> float:
    """Hermite coefficient of the point-mass limit: b_k / (k! sqrt(2 pi)).

    This is lim_{eta->0} (1/k!) integral phi_eta(x) H_k(x) phi(x) dx
    = H_k(0) phi(0) / k!, the weight that makes

        sum_k coeff_k * H_k(x)

    act as a Dirac factor at 0 inside Gaussian expectations.  It is the
    normalization under which the order-0 term reproduces the zero-count
    mean, and the one used by the variance-constant assembly.
    """
    return dirac_coeff(k) / (math.factorial(k) * math.sqrt(_TWO_PI))


def _mehler_terms(orders):
    """Pairing multiplicities and integer weights for the diagram sum.

    For orders (n1, n2, n3, n4) of H_{n1}(Z1) H_{n2}(W1) H_{n3}(Z2) H_{n4}(W2)
    with Z1 _|_ W1 and Z2 _|_ W2, every nonzero pairing assigns m1 edges
    Z1-Z2, m2 edges Z1-W2, m3 edges W1-Z2, m4 edges W1-W2 subject to
    m1+m2 = n1, m3+m4 = n2, m1+m3 = n3, m2+m4 = n4.  The system has rank 3,
    so m1 alone enumerates all solutions (at most min(n1, n3)+1 of them).
    """
    n1, n2, n3, n4 = orders
    if n1 + n2 != n3 + n4:
        return []
    terms = []
    for m1 in range(max(0, n3 - n2), min(n1, n3) + 1):
        m2 = n1 - m1
        m3 = n3 - m1
        m4 = n2 - m3  # >= 0, since m1 >= n3 - n2
        w = (
            math.factorial(n1) * math.factorial(n2) * math.factorial(n3) * math.factorial(n4)
        ) // (
            math.factorial(m1) * math.factorial(m2) * math.factorial(m3) * math.factorial(m4)
        )
        terms.append((m1, m2, m3, m4, float(w)))
    return terms


def mehler_product_grid(orders, rzz, rzw, rwz, rww):
    """Vectorized diagram sum over correlation arrays (no validity checks).

    Intended for integrands where the correlations come from an actual
    Gaussian process, making the Gram condition automatic.
    """
    out = np.zeros(np.broadcast(rzz, rzw, rwz, rww).shape)
    for m1, m2, m3, m4, w in _mehler_terms(orders):
        out = out + w * rzz ** m1 * rzw ** m2 * rwz ** m3 * rww ** m4
    return out
