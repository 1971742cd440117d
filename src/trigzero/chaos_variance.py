"""Chaos-level variance constants of the zero count for the sinc process.

The centered, sqrt(length)-normalized zero count of the stationary process
with sinc covariance decomposes into orthogonal components indexed by an
order q >= 1.  The order-q component's limiting variance is

    sigma_q^2 = (1/3) * integral_R  G_q(tau) dtau,

where 1/3 is the variance of the process derivative, and G_q is the lag
correlation of the order-q integrand: a double sum over coefficient pairs of
four-fold Hermite product expectations, evaluated through the pairing-diagram
formula with the cross-correlations of (value, normalized derivative) at lag
tau.  The coefficients pair two sequences:

* ``abs_coeff(l)`` = a_{2l}, the Hermite coefficients of |x|:
      a_{2l} = sqrt(2/pi) * (-1)^{l+1} / (2^l l! (2l-1)),
* ``dirac_coeff(k)`` = b_k = (-1)^{k/2} (k-1)!! for even k, 0 for odd k,
  with (-1)!! = 1 so that b_0 = 1; the point-mass weights are
  ``dirac_coeff_normalized(k)`` = b_k / (k! sqrt(2 pi)).

Under this normalization the sum over q of sigma_q^2 is exactly the limit of
Var(N[0, L]) / L, the constant the Monte Carlo campaigns estimate.
``_mehler_terms`` enumerates the pairing diagrams of a four-fold Hermite
product of jointly Gaussian variables; ``mehler_product_grid`` sums them over
correlation arrays and is the reference the tests check the merged tables
against.

Every pairing diagram of order q has q edges, so G_q is a homogeneous
polynomial of degree q in the four correlations.  Two of them are one
function up to sign, rho_zw = -u and rho_wz = +u with u = sqrt(3) sinc', so
G_q is a polynomial in three variables,

    G_q = sum_{a, b} C_q[a, b] rho_zz^a u^b rho_ww^(q - a - b),

and each diagram term w rho_zz^m1 rho_zw^m2 rho_wz^m3 rho_ww^m4 adds
(-1)^m2 w to C_q[m1, m2 + m3].  The merged table is built once per order
(at most 231 entries at q = 20).  Only even powers of u survive, so the
table keeps the columns u^(2j): 111 nonzero coefficients at q = 20.  A pass
over a lag grid runs in blocks of ``_BLOCK`` nodes: per block it evaluates
sinc and its derivatives once, builds the power tables rho_zz^a and the
monomials u^(2j) rho_ww^(c-2j) up to the highest order, and contracts every
requested order's table against them, so all orders share one set of
powers.  ``total_variance_constant`` integrates all its orders in one such
pass per Gauss-Legendre grid.

Odd orders vanish identically (odd point-mass weights are zero); the q = 2
constant has the closed form 2/(15 pi), used as an independent oracle in the
tests.

G_q decays like 1/tau^2, so the integral is truncated at a cutoff and the
remainder is added back from a fitted C/tau^2 envelope.  The orders beyond
q_max are summed from a fitted C q^{-3/2} envelope through the Hurwitz zeta
function, which ``_hurwitz_zeta`` evaluates in pure Python (Euler-Maclaurin),
so this module never loads scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .covariance import sinc_derivs
from .errors import require_int, require_real
from .rice import _gl_panels

_GL_NODES = 16
_BLOCK = 4096  # lag nodes per block: power tables of 1.5 MB at q = 8, 5.7 MB at q = 20
# q^(3/2) sigma_q^2 steps evenly up to q = 116; above it float64 rounding takes over
# (sigma_q^2 < 0 at q = 164 with tail 1000), and q = 172 overflows a factorial
_MAX_ORDER = 100
# the lag grid, and with it time and memory, grows linearly with the tail
_MAX_TAIL = 1e6


def abs_coeff(ell: int) -> float:
    """Hermite coefficient a_{2l} of |x|."""
    require_int("index ell", ell, 0)
    return (
        math.sqrt(2.0 / math.pi)
        * (-1.0) ** (ell + 1)
        / (2.0 ** ell * math.factorial(ell) * (2.0 * ell - 1.0))
    )


def dirac_coeff(k: int) -> float:
    """Raw point-mass value b_k: (-1)^{k/2} (k-1)!! for even k, zero for odd k."""
    require_int("index k", k, 0)
    if k % 2 == 1:
        return 0.0
    return (-1.0) ** (k // 2) * math.prod(range(1, k, 2), start=1.0)  # (k-1)!!


def dirac_coeff_normalized(k: int) -> float:
    """Hermite coefficient of the point-mass limit: b_k / (k! sqrt(2 pi)).

    This is lim_{eta->0} (1/k!) integral phi_eta(x) H_k(x) phi(x) dx
    = H_k(0) phi(0) / k!, the weight that makes

        sum_k coeff_k * H_k(x)

    act as a Dirac factor at 0 inside Gaussian expectations.  It is the
    normalization under which the order-0 term reproduces the zero-count
    mean, and the one used by the variance-constant assembly.
    """
    return dirac_coeff(k) / (math.factorial(k) * math.sqrt(math.tau))


def _mehler_terms(orders):
    """Pairing multiplicities and weights n1! n2! n3! n4! / (m1! m2! m3! m4!) of the diagram sum.

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
        w = math.comb(n1, m1) * math.comb(n2, m3) * math.factorial(n3) * math.factorial(n4)
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


def _order_pairs(q: int):
    """Nonzero (order_x, order_y, coefficient) triples of the order-q integrand."""
    pairs = []
    for ell in range(q // 2 + 1):
        k = q - 2 * ell
        coef = dirac_coeff_normalized(k) * abs_coeff(ell)
        if coef != 0.0:
            pairs.append((k, 2 * ell, coef))
    return pairs


@lru_cache(maxsize=None)
def _order_table(q: int):
    """Merged table of G_q as its nonzero rows (a, C_q[a, :]).

    C_q[a, j] is the coefficient of rho_zz^a u^(2j) rho_ww^(q-a-2j).  Odd
    powers of u cancel exactly: swapping the two factors of a diagram swaps
    m2 and m3 and so flips the sign (-1)^m2 when m2 + m3 is odd.
    """
    table = np.zeros((q + 1, q // 2 + 1))
    pairs = _order_pairs(q)
    for kx, ky, cx in pairs:
        for kx2, ky2, cx2 in pairs:
            for m1, m2, m3, _, w in _mehler_terms((kx, ky, kx2, ky2)):
                if (m2 + m3) % 2 == 0:
                    table[m1, (m2 + m3) // 2] += (-1.0) ** m2 * cx * cx2 * w
    table.flags.writeable = False  # the cached rows are shared by every caller
    return tuple((a, table[a, : (q - a) // 2 + 1]) for a in range(q + 1) if table[a].any())


def _powers(r, n):
    """r^k for k = 0..n, shape (n + 1, r.size)."""
    out = np.empty((n + 1, r.size))
    out[0] = 1.0
    for k in range(1, n + 1):
        np.multiply(out[k - 1], r, out=out[k])
    return out


def _power_tables(tau, p):
    """Shared powers for every order up to p on one block of lags.

    Returns rho_zz^a for a = 0..p, shape (p + 1, tau.size), and per degree
    c = 0..p the monomials u^(2j) rho_ww^(c-2j) for j = 0..c//2.
    """
    s0, s1, s2 = sinc_derivs(tau)
    pu2, pw = _powers(3.0 * s1 * s1, p // 2), _powers(-3.0 * s2, p)
    return _powers(s0, p), [pu2[: c // 2 + 1] * pw[c::-2] for c in range(p + 1)]


def _evaluate(q, powers):
    """G_q on one block from its merged table and the shared power tables."""
    pz, mixed = powers
    out = np.zeros(pz.shape[1])
    for a, row in _order_table(q):
        out += pz[a] * (row @ mixed[q - a])
    return out


def chaos_lag_correlation(q: int, tau):
    """G_q(tau): lag correlation of the order-q chaos integrand.

    Vectorized over tau; the lag 0 value is the integrand's variance and is
    perfectly regular (the diagram sum is a polynomial in the correlations).
    """
    require_int("order q", q, 1, _MAX_ORDER)
    tau = np.asarray(tau, dtype=float)
    flat = tau.ravel()
    out = np.empty(flat.shape)
    for lo in range(0, flat.size, _BLOCK):
        block = flat[lo : lo + _BLOCK]
        out[lo : lo + _BLOCK] = _evaluate(q, _power_tables(block, q))
    return out.reshape(tau.shape)


def _grid_sums(orders, n_nodes, tail):
    """One pass over the n_nodes-point Gauss-Legendre lag grid on [0, tail].

    Returns, per order in ``orders``, weights @ G_q and the mean of
    G_q tau^2 over the last decade, tau >= tail / 10.
    """
    nodes, weights = _gl_panels(0.0, tail, n_nodes)
    fit_from = tail / 10.0
    body = dict.fromkeys(orders, 0.0)
    fit = dict.fromkeys(orders, 0.0)
    for lo in range(0, nodes.size, _BLOCK):
        tau = nodes[lo : lo + _BLOCK]
        w = weights[lo : lo + _BLOCK]
        far = tau >= fit_from
        tau2 = tau[far] ** 2
        powers = _power_tables(tau, max(orders))
        for q in orders:
            g = _evaluate(q, powers)
            body[q] += float(w @ g)
            fit[q] += float(g[far] @ tau2)
    n_fit = int(np.count_nonzero(nodes >= fit_from))
    return body, {q: f / n_fit for q, f in fit.items()}


@dataclass(frozen=True)
class ChaosTerm:
    """One order's variance contribution, with quadrature bookkeeping."""

    q: int
    sigma_sq: float
    quadrature_error: float


def _chaos_terms(orders, tail):
    """ChaosTerm per order, the even ones from one pass per quadrature grid.

    The 16-node pass gives sigma_q^2 and the tail fit; the 8-node pass gives
    the quadrature error estimate.
    """
    tail = require_real("tail", tail, 100.0, _MAX_TAIL)
    even = [q for q in orders if q % 2 == 0]
    if even:
        body, c_fit = _grid_sums(even, _GL_NODES, tail)
        body8, _ = _grid_sums(even, _GL_NODES // 2, tail)
    terms = []
    for q in orders:
        sigma = err = 0.0
        if q % 2 == 0:
            remainder = c_fit[q] / tail
            sigma = (2.0 / 3.0) * (body[q] + remainder)
            err = (2.0 / 3.0) * (abs(body[q] - body8[q]) + 0.5 * abs(remainder))
        terms.append(ChaosTerm(q=q, sigma_sq=sigma, quadrature_error=err))
    return terms


def sigma_q_squared(q: int, tail: float = 1e4) -> ChaosTerm:
    """Limiting variance of the order-q component.

    sigma_q^2 = (1/3) * 2 * [ int_0^tail G_q + remainder ], the remainder
    coming from a C/tau^2 envelope fitted on the last decade before the
    cutoff.  Odd q vanish exactly.
    """
    require_int("order q", q, 1, _MAX_ORDER)
    return _chaos_terms([q], tail)[0]


@dataclass(frozen=True)
class VarianceConstant:
    """Chaos variance sum: computed orders plus the series-tail estimate.

    The orders beyond q_max are summed via the Hurwitz zeta function from an
    assumed envelope sigma_q^2 ~ C q^{-3/2} rather than dropped.  The
    envelope is not exact: q^{3/2} sigma_q^2 still rises, from 0.078667 at
    q = 20 to 0.079311 at q = 60.
    """

    total: float
    terms: list
    truncation_indicator: float  # magnitude of the last computed nonzero term
    series_tail: float  # estimated mass of the orders beyond q_max


_TAIL_EXPONENT = 1.5
_ZETA_DIRECT = 12  # terms summed directly before the Euler-Maclaurin remainder
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)  # B_2, B_4, ..., B_14


def _hurwitz_zeta(s, a):
    """zeta(s, a) = sum_{k >= 0} (a + k)^-s for s > 1, a >= 1, by Euler-Maclaurin.

    Twelve direct terms, then the integral, the half end term and seven
    Bernoulli corrections at n = a + 12; the first omitted correction is
    below 1e-18 for s = 3/2.
    """
    n = a + _ZETA_DIRECT
    terms = [(a + k) ** -s for k in range(_ZETA_DIRECT)]
    terms += [n ** (1.0 - s) / (s - 1.0), 0.5 * n**-s]
    rising = s * n ** (-s - 1.0)  # s (s+1) ... (s+2j-2) n^(-s-2j+1) at j = 1
    for j, b in enumerate(_BERNOULLI, start=1):
        terms.append(b / math.factorial(2 * j) * rising)
        rising *= (s + 2 * j - 1) * (s + 2 * j) / (n * n)
    return math.fsum(terms)


def _series_tail(terms, q_max):
    """Estimated sum of sigma_q^2 over even q > q_max from the C q^{-3/2} law."""
    anchors = [(t.q, t.sigma_sq) for t in terms if t.sigma_sq > 0.0][-2:]
    c_fit = float(np.mean([s * q ** _TAIL_EXPONENT for q, s in anchors]))
    m0 = q_max // 2 + 1  # next even order is 2*m0
    return c_fit * 2.0 ** -_TAIL_EXPONENT * _hurwitz_zeta(_TAIL_EXPONENT, m0)


def total_variance_constant(q_max: int = 20, tail: float = 1e4) -> VarianceConstant:
    """Variance constant: sum of sigma_q^2 over q >= 2.

    Orders up to ``q_max`` are integrated directly, all even ones in one pass
    per quadrature grid (even orders carry everything); the remaining series
    mass comes from the q^{-3/2} envelope.
    """
    require_int("q_max", q_max, 2, _MAX_ORDER)
    terms = _chaos_terms(range(2, q_max + 1), tail)
    partial = float(sum(t.sigma_sq for t in terms))
    series_tail = _series_tail(terms, q_max)
    indicator = [abs(t.sigma_sq) for t in terms if t.sigma_sq != 0.0][-1]  # sigma_2^2 > 0
    return VarianceConstant(
        total=partial + series_tail,
        terms=terms,
        truncation_indicator=indicator,
        series_tail=series_tail,
    )
