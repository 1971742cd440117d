"""Zero counting for polynomial replicates: grid scan and eigenvalue oracle.

The scan method samples each replicate on the lattice t_j = j * period / N,
with N = 2 * OVERSAMPLE * K points per period, fine relative to the 2K root
bound.  A grid of P lattice points takes one of two routes, by cost.  A
short grid (such as K = 100 on [0, pi] or the window-chop tails) is one
float64 matrix product of the coefficients with a cached table of cos(n t_j)
(and sin(n t_j)), gathered from the N roots of unity at (n j) mod N so that
the argument reduction is exact.  A longer grid is held in float32 from one
single-precision FFT per replicate, each value within
beta = eps_32 * log2(N) * sum_n (|a_n| + |b_n|) of the exact sum.  Every
value smaller than beta is re-valued by a float64 sum over the same roots
of unity, rounded once to float32 with its sign kept, so the sign of every
grid value is the sign of its float64 sum.  The grid runs one lattice point
beyond the lattice cells that reach the interval's ends, and an end off the
lattice is summed directly, for its sign.  Sign changes between nonzero
values on the interval are counted, and suspects classified, in blocks.

Same-sign triples whose parabola fit dips toward zero, and a 0.0 between
like signs, flag the two cells around them, which are re-scanned at 4x
density (clipped to the interval).  As the grid reaches past the ends, the
end cells are flagged like any other.  The tests are widened by beta so
that every triple the float64 values would flag is flagged; an extra
flagged cell costs only work, as the re-scan is exact.  There the path
comes from one Taylor expansion per suspect, about its middle lattice
point, exact to rounding within a lattice step of it.  Its moments are
real: two real matrix products per block of points, over phases exp(i n t)
built from two tables of about sqrt(K) columns per point.  A
sign-preserving extremum found there is bracketed by bisection on the
derivative, all extrema of the batch in lockstep, and valued at the
bracket's midpoint: to 1e-12 when roots are located, and for a count to
1e-3 lattice steps, going on to 1e-12 only where that value lies within a
curvature bound of zero or of the tangency tolerance (see ``_scan_batch``).
If the extremum value is indistinguishable from zero, its cell is returned in
``ZeroCountResult.warnings`` as a tangency bracket and adds no crossings;
campaigns count these brackets in the ``warnings`` column of
``records.csv`` and leave such replicates out of their moments.  Otherwise
a sign change at the extremum adds two crossings.  Root location, when asked
for, takes one bracket per counted crossing (coarse and refined sign
changes, and both sides of each crossed extremum) and bisects them all in
lockstep on Taylor expansions, so the located roots are exactly as many as
the count.

The eigenvalue oracle rewrites the polynomial in z = exp(i t), lifts it to an
ordinary degree-2K polynomial, and reads zeros off the unit-circle roots of
its companion matrix.  A batch's companion matrices are stacked (real for
the cosine ensemble) and solved by one ``eigvals`` call per chunk; a single
replicate is first cut to its last nonzero coefficient.  The oracle is exact
up to eigenvalue accuracy and is the reference for the scan method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import UsageError, require_degrees, require_int, require_interval
from .sampling import REPLICATE_LIMIT, CoefficientVector, draw_coefficient_batch

_EIGEN_MAX_K = 256
_CIRCLE_TOL = 1e-8
_DEDUPE_TOL = 1e-9
# matrix entries per eigvals call: 8 companion matrices at K = 256
_STACK_ENTRIES = 1 << 21
_BISECT_WIDTH = 1e-12
_SETTLE_WIDTH = 1e-3  # lattice steps: count mode's first extremum bracket
# fraction of the discrete curvature scale below which a parabola extremum
# estimate counts as a possible hidden root pair
_SUSPECT_FRACTION = 0.25
_TANGENCY_REL_TOL = 1e-10

# entries held at once by the re-valuing pass and the Taylor expansions,
# and twice that by a classification block: glibc trims the heap top once it
# exceeds twice the largest freed mmapped chunk, here a table-route block;
# with blocks of 1 << 16, 16 of 260 K = 100 campaign operations (20 fresh
# interpreters, glibc 2.36) regrew about 1 MB of heap, none of 520 at 1 << 17
_BLOCK_ENTRIES = 1 << 16
# bytes of the single-precision FFT input buffer, filled in blocks of rows
# that are a multiple of 4: at K = 1600, blocks of 4 or 8 rows transformed
# in about half the time of blocks of 1, 2, 5, 6 or 10 rows, while whole
# scans at K = 100 and 1600 took the same time with buffers of 0.5 to 4 MB
_FFT_BYTES = 1 << 20
# a grid of P lattice points is valued from the lattice table when
# P * K < _TABLE_CUT * N log2 N, else by the float32 FFT: per 256-row
# chunk, the table product was the faster route below a ratio of about 9.6
# for the cosine ensemble and 8 for the stationary one, at K = 50 to 400
# and 1600 (BENCH_lattice_table.json)
_TABLE_CUT = 8.0
# machine epsilon of the lattice FFT, which runs in float32 (see _scan_grid)
_FFT_EPS = float(np.finfo(np.float32).eps)
# an interval end within this many lattice steps of a lattice point is
# treated as that point
_LATTICE_TOL = 1e-9
# lattice points per period over 2K: the density every count scans at, and the floor
OVERSAMPLE = 8
# Taylor terms kept about a lattice point, used up to a step h away: the
# floor OVERSAMPLE makes freq * h <= pi/8 for every frequency, and
# (pi/8)^18 / 18! < 1e-22, far below rounding
_TAYLOR_TERMS = 18


@dataclass
class ZeroCountResult:
    """Zero count (and optionally located roots) on an interval."""

    count: int
    roots: np.ndarray | None
    warnings: list = field(default_factory=list)  # unresolved tangency brackets


def _freqs(K: int, rescaled: bool) -> np.ndarray:
    n = np.arange(1, K + 1, dtype=float)
    return n / K if rescaled else n


def _lattice_values(a, b, N, j):
    """Float32 FFT values of every row of (a, b) at lattice points j * period / N.

    Each row is one FFT of length N with coefficient n at input index n, so
    output j is sum_n (a_n + i b_n) exp(-2 pi i n j / N), whose real part is
    the value.  The cosine ensemble is even in t, so it uses a real FFT and
    folds j > N/2 onto N - j.  Transforms and values are float32 (complex64
    transforms for the stationary ensemble), within the bound of ``_scan_grid``.
    Blocks of rows go through one zero-padded input buffer, filled in place.
    """
    from scipy import fft  # deferred: commands that scan nothing never load scipy

    j = np.mod(j, N)
    B, K = a.shape
    if b is None:
        j = np.minimum(j, N - j)
        transform, dtype = fft.rfft, np.float32
    else:
        transform, dtype = fft.fft, np.complex64
    # indices between the first and the last on one ascending run (every
    # scan grid inside [0, pi] on the cosine ensemble) are copied as a slice
    # and those two gathered; other folded or wrapped indices are gathered
    run = j.size > 2 and bool(np.all(np.diff(j[1:-1]) == 1))
    groups = _FFT_BYTES // (4 * N * np.dtype(dtype).itemsize)
    rows = max(1, min(B, 4 * max(1, groups)))  # whole groups of 4 rows
    x = np.zeros((rows, N), dtype=dtype)
    vals = np.empty((B, j.size), dtype=np.float32)
    for s in range(0, B, rows):
        xs = x[: min(rows, B - s)]
        xs[:, 1 : K + 1] = a[s : s + rows]
        if b is not None:
            xs.imag[:, 1 : K + 1] = b[s : s + rows]
        out = transform(xs).real
        if run:
            vals[s : s + rows, 1:-1] = out[:, j[1] : j[-2] + 1]
            vals[s : s + rows, [0, -1]] = out[:, j[[0, -1]]]
        else:
            vals[s : s + rows] = np.take(out, j, axis=1)
    return vals


@lru_cache(maxsize=2)
def _roots(N):
    """Read-only cos and sin of 2 pi j / N, j = 0..N-1: the N roots of unity."""
    turn = (2.0 * np.pi / N) * np.arange(N)
    cos, sin = np.cos(turn), np.sin(turn)
    cos.flags.writeable = sin.flags.writeable = False
    return cos, sin


# two tables: the chunks of a campaign reuse the table of its interval, and
# those of the window-chop check the tables of its two tails
@lru_cache(maxsize=2)
def _lattice_table(K, N, j0, j1, stationary):
    """Table of cos(2 pi n j / N), rows n = 1..K, columns j = j0..j1.

    These are the lattice values of cos(n t) on either axis (frequency n or
    n / K with step 2 pi / N or 2 pi K / N).  Entries are gathered from
    ``_roots`` at (n j) mod N, an exact integer reduction.  The
    stationary ensemble stacks the sines below the cosines, so that one
    product of the rows [a, b] with the table gives the values.  The cached
    array is read-only: it is shared by every caller.
    """
    cos, sin = _roots(N)
    idx = np.multiply.outer(np.arange(1, K + 1), np.arange(j0, j1 + 1))
    np.remainder(idx, N, out=idx)
    table = np.empty((2 * K if stationary else K, idx.shape[1]))
    np.take(cos, idx, out=table[:K])
    if stationary:
        np.take(sin, idx, out=table[K:])
    table.flags.writeable = False
    return table


def _lattice_sums(a, b, N, rows, j):
    """Float64 sum of row ``rows[i]`` at lattice point ``j[i]``, the same bits in any batch."""
    cos, sin = _roots(N)
    n = np.arange(1, a.shape[1] + 1)
    out = np.empty(rows.size)
    per = max(1, _BLOCK_ENTRIES // n.size)
    for s in range(0, rows.size, per):
        r, idx = rows[s : s + per], np.multiply.outer(j[s : s + per], n) % N
        out[s : s + per] = (a[r] * cos[idx] + (0.0 if b is None else b[r] * sin[idx])).sum(axis=1)
    return out


def _to_grid(v, dtype):
    """``v`` rounded once to ``dtype``; a nonzero value that underflows keeps its sign."""
    out = v.astype(dtype)
    return np.where((out == 0) & (v != 0), np.nextafter(out, np.sign(v).astype(dtype)), out)


class _TableGrid:
    """A table-route grid valued when sliced: ``grid[rows]`` is one product of
    those rows with the table, so that no whole-grid array is held."""

    def __init__(self, coef, table):
        self.coef, self.table, self.shape = coef, table, (coef.shape[0], table.shape[1])

    def __getitem__(self, rows):
        return self.coef[rows] @ self.table


def _scan_grid(a, b, freqs, N, step, lo, hi):
    """Lattice grid around [lo, hi], every row's values there, their error bounds, and the ends.

    Returns pts (P,), vals (B, P), err (B,) and edges = (cols, end_vals):
    each value is within err of the float64 sum, and its sign is the sign
    of that sum.  The grid is the lattice points j * step from one below
    the last at or below lo to one above the first at or above hi, so that
    every cell reaching into [lo, hi] is the middle one of three; pts[1]
    and pts[-2] are exactly lo and hi where these are on the lattice.  An
    end off it is summed directly: column cols[c] holds the lattice point
    next to the end whose value is end_vals[:, c].  The lattice values take
    one of two routes, whichever costs less:

    - with P * K < _TABLE_CUT * N log2 N (short grids), a ``_TableGrid`` of
      the rows' products with ``_lattice_table`` over j[0]..j[-1], and
      err = 0;
    - otherwise the float32 lattice of ``_lattice_values``, with every value
      below its row's bound err re-valued by ``_lattice_sums``.

    The FFT bound is err = eps_32 * log2(N) * sum_n (|a_n| + |b_n|): a
    float32 FFT of length N is accurate to eps_32 * log2(N) times the 1-norm
    of its input (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., 2002, sec. 24.1), and rounding the coefficients to float32 adds
    at most half that.  ``_to_grid`` stores the float64 re-sums within
    2^-24 * sum_n (|a_n| + |b_n|) < err.
    """
    x = np.array([lo, hi]) / step
    direct = np.abs(x - np.rint(x)) > _LATTICE_TOL
    j = np.arange(math.floor(x[0] + _LATTICE_TOL) - 1, math.ceil(x[1] - _LATTICE_TOL) + 2)
    pts = j * step
    pts[[1, -2]] = np.where(direct, pts[[1, -2]], [lo, hi])
    B, P = a.shape[0], j.size
    edges = np.array([1, P - 2])[direct], _eval_at(a, b, freqs, np.array([lo, hi])[direct])
    if P * freqs.size < _TABLE_CUT * N * math.log2(N):
        table = _lattice_table(freqs.size, N, int(j[0]), int(j[-1]), b is not None)
        return pts, _TableGrid(a if b is None else np.hstack((a, b)), table), np.zeros(B), edges
    vals = _lattice_values(a, b, N, j)
    err = np.abs(a).sum(axis=1)
    if b is not None:
        err += np.abs(b).sum(axis=1)
    err *= _FFT_EPS * math.log2(N)
    rows = max(1, _BLOCK_ENTRIES // P)
    err32 = np.nextafter(err.astype(np.float32), np.float32(np.inf))  # >= err
    small = [np.empty(0, dtype=np.intp)] + [
        s * P + np.flatnonzero(np.abs(vals[s : s + rows]) < err32[s : s + rows, None])
        for s in range(0, B, rows)
    ]
    r, i = np.divmod(np.concatenate(small), P)
    vals[r, i] = _to_grid(_lattice_sums(a, b, N, r, j[i]), vals.dtype)
    return pts, vals, err, edges


def _eval_at(a, b, freqs, pts):
    """Values at the (at most two) points ``pts`` of every row, by direct sums."""
    ang = np.multiply.outer(pts, freqs)
    v = np.cos(ang) @ a.T
    if b is not None:
        v += np.sin(ang) @ b.T
    return v.T


def _expansions(a, b, freqs, rows, t, step):
    """Real Taylor moments m of row ``rows[i]`` about ``t[i]``, shape (M, terms).

    The row's value at t[i] + u * step is sum_k m[i, k] u^k for |u| <= 1;
    m[i, 0] is the direct sum at t[i].  With phase theta = freq * t[i],
    C = a cos(theta) + b sin(theta) and S = a sin(theta) - b cos(theta),
    m[i, k] sums C, -S, -C, S (k mod 4, from i^k) times
    g_k = (freq * step)^k / k! over the frequencies: one real product for
    the even k and one for the odd k.
    """
    K = freqs.size
    # g[:, k] = (freq * step)^k / k! with the sign of its term: +, -, -, +
    # for k mod 4 = 0, 1, 2, 3
    ratios = np.multiply.outer(freqs * step, 1.0 / np.arange(1, _TAYLOR_TERMS))
    g = np.cumprod(np.hstack((np.ones((K, 1)), ratios)), axis=1)
    g[:, 2::4] *= -1.0
    g[:, 1::4] *= -1.0
    even, odd = np.ascontiguousarray(g[:, 0::2]), np.ascontiguousarray(g[:, 1::2])
    # freqs are n * freqs[0]; exp(i n tau) = exp(i q w tau) * exp(i m tau)
    # for n = q * w + m, from two tables of about sqrt(K) columns per point
    w = math.isqrt(K) + 1
    coarse = np.arange(K // w + 1) * (w * freqs[0])
    fine = np.arange(w) * freqs[0]
    mom = np.empty((rows.size, _TAYLOR_TERMS))
    per = max(1, _BLOCK_ENTRIES // K)
    for s in range(0, rows.size, per):
        sl = slice(s, s + per)
        ts, ar = t[sl], a[rows[sl]]
        big = np.exp(1j * np.multiply.outer(ts, coarse))
        small = np.exp(1j * np.multiply.outer(ts, fine))
        ph = (big[:, :, None] * small[:, None, :]).reshape(ts.size, -1)[:, 1 : K + 1]
        if b is None:
            cterm, sterm = ar * ph.real, ar * ph.imag
        else:
            br = b[rows[sl]]
            cterm = ar * ph.real + br * ph.imag
            sterm = ar * ph.imag - br * ph.real
        mom[sl, 0::2] = cterm @ even
        mom[sl, 1::2] = sterm @ odd
    return mom


def _taylor(mom, u):
    """sum_k mom[i, k] u[i, ...]^k by Horner's rule (real moments)."""
    shape = (-1,) + (1,) * (u.ndim - 1)
    acc = mom[:, -1].reshape(shape)
    for k in range(mom.shape[1] - 2, -1, -1):
        acc = acc * u + mom[:, k].reshape(shape)
    return acc


def _bisect(mom, t0, step, lo, hi, lo_pos, width):
    """Sign changes in brackets [lo_i, hi_i], all brackets in lockstep.

    ``mom[i]`` is the Taylor expansion about ``t0[i]``, within a lattice
    step of the bracket, of the function that changes sign across it (the
    path or its derivative); ``lo_pos[i]`` is its sign at ``lo_i``.  Each
    bracket halves until narrower than ``width``, or stops where the
    function at its midpoint is exactly zero or where the midpoint rounds to
    one of its ends (|t| >= 8192, where one ulp exceeds 1e-12).  A narrower
    ``width`` continues the same halvings; returns the midpoints.
    """
    lo = lo.copy()
    hi = hi.copy()
    live = np.ones(lo.size, dtype=bool)
    for _ in range(80):
        live &= hi - lo >= width
        k = np.flatnonzero(live)
        if not k.size:
            break
        mid = 0.5 * (lo[k] + hi[k])
        fm = _taylor(mom[k], (mid - t0[k]) / step)
        flat = (fm == 0.0) | (mid == lo[k]) | (mid == hi[k])
        live[k[flat]] = False
        k, mid, fm = k[~flat], mid[~flat], fm[~flat]
        right = (fm > 0) == lo_pos[k]
        lo[k] = np.where(right, mid, lo[k])
        hi[k] = np.where(right, hi[k], mid)
    return 0.5 * (lo + hi)


def _suspicious_triples(v0, v1, v2, r, scale, err):
    """Which candidate triples (v0, v1, v2), of rows ``r``, hide a possible root pair.

    Candidates have outer values of one sign and the least |v| in the
    middle; those whose nonzero middle has the other sign are dropped here.
    Each is fitted with a parabola: d1 = (v2 - v0) / 2, d2 = v2 - 2 v1 + v0,
    and the extremum value est = v1 - d1^2 / (2 d2).  With |d2| > 0 and
    |d1| <= 1.5 |d2| (``ok``), est crossing zero or landing within a margin
    of a quarter of |d2| (plus 1e-13 of the row scale) of it flags the
    neighborhood of the middle point for refinement; with s = sign(v1) != 0
    that is s * est <= margin, and v1 = 0 is always flagged.

    Each value may be off by up to e = ``err[r]`` (with a sign that is
    right), and the test flags every triple that some values within e of
    the given ones would flag.  Such values move |d1| by at most e, d2 by at
    most 4 e, |v1| by at most e and the row scale by at most e, so ``ok``
    may hold if |d1| - e <= 1.5 (|d2| + 4 e), the margin is at most
    0.25 (|d2| + 4 e) + 1e-13 (scale + e), and s * est is at least
    ``least``: with |d2| > 4 e, d2 keeps its sign and s * est is
    |v1| - d1^2 / (2 |d2|) when d2 has the sign of v1, else
    |v1| + d1^2 / (2 |d2|), each bounded by the extreme d1 and d2; with
    |d2| <= 4 e, d2 may take either sign, but ``ok`` caps d1^2 / (2 |d2|)
    at 1.125 |d2|.  With e = 0 the test is the plain one.
    """
    e = err[r]
    d1 = np.abs(0.5 * (v2 - v0))
    d2 = v2 - 2.0 * v1 + v0
    d1_lo, d1_hi = np.maximum(d1 - e, 0.0), d1 + e
    d2_lo, d2_hi = np.abs(d2) - 4.0 * e, np.abs(d2) + 4.0 * e
    ok = (d2_hi > 0) & (d1_lo <= 1.5 * d2_hi) & ((v1 == 0) | ((v1 > 0) == (v0 > 0)))
    with np.errstate(divide="ignore", invalid="ignore"):
        shift = np.where(
            np.sign(d2) == np.sign(v1), d1_hi * d1_hi / (2.0 * d2_lo), -d1_lo * d1_lo / (2.0 * d2_hi)
        )
    least = np.abs(v1) - e - np.where(d2_lo > 0, shift, 1.125 * d2_hi)
    margin = _SUSPECT_FRACTION * d2_hi + 1e-13 * (scale[r] + e)
    return ok & ((v1 == 0) | (least <= margin))


def _classify(vals, err, locate, edges=((), None)):
    """Sign changes, scales and suspects of a ``_scan_grid`` grid ``vals``, shape (B, P).

    Each row's values may be off by its ``err``; signs at the ends off the
    lattice come from ``edges``.  The cells from column 1 to P - 2 are
    counted, and every column but the outer two is a triple's middle.
    Returns each row's sign-change count and largest |value|, the suspects
    (rows, middle indices, signs) and, with ``locate``, the sign changes
    (rows, left indices, signs there), else None.  Signs change only
    between nonzero values: a 0.0 between values of one sign takes theirs,
    and its triple is a suspect, so that refinement tells a touch from a
    crossed pair.  A middle point is a candidate when its |v| exceeds
    neither neighbour's by more than 3 err (rounded up to float32), so that
    every triple the float64 sums would make a candidate is one: 2 err for
    the values, err more for rounding (monotone, so a float32 subtraction
    keeps it).  Rows are valued and classified in blocks of
    2 * _BLOCK_ENTRIES // P, each released before the next is valued, so
    that no temporary outgrows the cache or the heap churns.
    """
    B, P = vals.shape
    counts = np.empty(B, dtype=np.int64)
    scale = np.empty(B)
    none = np.empty(0, dtype=np.intp)
    cands, changes = [(none,) * 2 + (np.empty(0),) * 3], [(none, none, none.astype(bool))]
    rows = max(1, 2 * _BLOCK_ENTRIES // P)
    slack = np.nextafter((3.0 * err).astype(np.float32), np.float32(np.inf))
    for s in range(0, B, rows):
        v = vals[s : s + rows]
        sgn = v > 0
        # a block valued for this call (the table route's) is overwritten
        absv = np.abs(v, out=v if v.flags.owndata else None)
        np.max(absv[:, 1:-1], axis=1, out=scale[s : s + rows])
        a1 = absv[:, 1:-1]
        if err.any():  # no temporary on the table route, whose err is 0
            a1 = a1 - slack[s : s + rows, None]
        cand = a1 <= absv[:, :-2]
        cand &= a1 <= absv[:, 2:]
        cand &= sgn[:, :-2] == sgn[:, 2:]
        r, i = np.divmod(np.flatnonzero(cand), P - 2)
        left = r * P + i  # flat index of each triple's first point
        flat, sflat = absv.reshape(-1), sgn.reshape(-1)
        trip = [np.where(sflat[left + k], 1.0, -1.0) * flat[left + k] for k in range(3)]
        zero = left[trip[1] == 0]
        sflat[zero + 1] = sflat[zero]
        cands.append((r + s, i + 1, *trip))
        if len(edges[0]):
            sgn[:, edges[0]] = edges[1][s : s + rows] > 0
        same = sgn[:, 1:-2] == sgn[:, 2:-1]
        counts[s : s + rows] = (P - 3) - np.count_nonzero(same, axis=1)
        if locate:
            cr, ci = np.divmod(np.flatnonzero(~same), P - 3)
            changes.append((cr + s, ci + 1, sgn[cr, ci + 1]))
        del v, absv, a1, flat
    r, m, v0, v1, v2 = map(np.concatenate, zip(*cands))
    hit = _suspicious_triples(v0, v1, v2, r, scale, err)
    changes = tuple(map(np.concatenate, zip(*changes))) if locate else None
    return counts, scale, r[hit], m[hit], v0[hit] + v2[hit] > 0, changes


def _scan_batch(a, b, K, lo, hi, oversample, rescaled, locate):
    """Scan all rows of (a, b); returns counts, tangencies, root lists.

    ``tangencies`` is (rows, lo, hi): one entry per tangency bracket
    [lo, hi] of row ``rows[i]``.
    """
    require_int("degree K", K, 1)
    require_int("oversample", oversample, OVERSAMPLE)
    if not all(isinstance(flag, (bool, np.bool_)) for flag in (rescaled, locate)):
        raise UsageError(f"rescaled and locate_roots must be bools, got {rescaled!r} and {locate!r}")
    if np.shape(a)[1:] != (K,) or (b is not None and np.shape(b) != np.shape(a)):
        raise UsageError(f"coefficient rows must hold K = {K} entries each")
    freqs = _freqs(K, rescaled)
    N = 2 * oversample * K
    step = 2.0 * np.pi * (K if rescaled else 1.0) / N
    pts, vals, err, edges = _scan_grid(a, b, freqs, N, step, lo, hi)
    B, P = vals.shape
    counts, scale, s_rows, s_idx, s_pos, changes = _classify(vals, err, locate, edges)
    cut = np.clip(pts, lo, hi)  # the cells' ends, clipped to the interval

    # Refinement: the cells inside [lo, hi] on either side of a suspect,
    # keyed row * P + left point, are re-scanned at 4x density.  Their ends
    # keep their coarse signs.  Inside, values and derivatives come from the
    # Taylor expansion about a suspect's middle point: the cell's right end
    # if that is one, else its left end; the derivative at its right end
    # from the next cell's, when that is refined too (so neighbours agree).
    key = s_rows * P + s_idx
    cells = np.unique(np.concatenate((key - 1, key)))
    cells = cells[(cells % P > 0) & (cells % P < P - 2)]
    rows, p = cells // P, cells % P
    k = np.minimum(np.searchsorted(key, cells + 1), key.size - 1)
    k = np.where(key[k] == cells + 1, k, np.searchsorted(key, cells))
    mom = _expansions(a, b, freqs, s_rows, pts[s_idx], step)[k]
    dmom = mom[:, 1:] * np.arange(1, _TAYLOR_TERMS)  # of the u-derivative
    t0 = pts[s_idx[k]]
    t = cut[p, None] + np.multiply.outer(cut[p + 1] - cut[p], np.arange(5) / 4.0)
    t[:, 4] = cut[p + 1]
    u = (t - t0[:, None]) / step
    sg = np.repeat(s_pos[k][:, None], 5, axis=1)
    for c, v in zip(edges[0], edges[1].T):  # an end off the lattice: its own sign
        sg[p == c, 0] = v[rows[p == c]] > 0
        sg[p + 1 == c, 4] = v[rows[p + 1 == c]] > 0
    sg[:, 1:4] = _taylor(mom, u[:, 1:4]) > 0
    dpos = _taylor(dmom, u) > 0
    dpos[:-1, 4] = np.where(np.diff(cells) == 1, dpos[1:, 0], dpos[:-1, 4])
    flip = sg[:, :-1] != sg[:, 1:]
    np.add.at(counts, rows, flip.sum(axis=1) - (sg[:, 0] != sg[:, 4]))

    # sign-preserving extrema: bisect the derivative and value the path at
    # the midpoint, to _BISECT_WIDTH for root location (crossed extrema end
    # root brackets).  A count stops at _SETTLE_WIDTH steps unless the value
    # lies within a slack of 0 or of the tangency tolerance: further halvings
    # of w steps move it by at most M w^2 / 2, M = sum_k k (k - 1) |m_k| >=
    # |f''(u)| on |u| <= 1, and each Horner sum rounds by <= 34 eps sum |m_k|.
    ci, q = np.nonzero(~flip & (dpos[:, :-1] != dpos[:, 1:]))
    ext_rows = rows[ci]
    tol = _TANGENCY_REL_TOL * scale[ext_rows]
    tstar, vstar, todo = np.empty(ci.size), np.empty(ci.size), np.arange(ci.size)
    curv = np.arange(_TAYLOR_TERMS) * np.arange(-1, _TAYLOR_TERMS - 1)
    for width in (_BISECT_WIDTH,) if locate else (_SETTLE_WIDTH * step, _BISECT_WIDTH):
        if not todo.size:
            break
        e, eq = ci[todo], q[todo]
        tstar[todo] = _bisect(dmom[e], t0[e], step, t[e, eq], t[e, eq + 1], dpos[e, eq], width)
        vstar[todo] = _taylor(mom[e], (tstar[todo] - t0[e]) / step)
        m, av = np.abs(mom[e]), np.abs(vstar[todo])
        slack = 0.5 * (width / step) ** 2 * (m @ curv) + 72 * np.finfo(float).eps * m.sum(axis=1)
        todo = todo[np.minimum(av, np.abs(av - tol[todo])) <= slack]
    tangent = np.abs(vstar) <= tol
    crossed = ~tangent & ((vstar > 0) != sg[ci, q])
    np.add.at(counts, ext_rows[crossed], 2)
    tc, tq = ci[tangent], q[tangent]
    tangencies = (ext_rows[tangent], t[tc, tq], t[tc, tq + 1])

    root_lists = [None] * B
    if locate:
        # one bracket per crossing: coarse cells (expanded about their left
        # grid point), refined cells, and both sides of each crossed extremum
        kr, kp, kpos = (x[~np.isin(changes[0] * P + changes[1], cells)] for x in changes)
        fr, fq = np.nonzero(flip)
        cr = np.flatnonzero(crossed)
        xc, xq, xmom = ci[cr], q[cr], mom[ci[cr]]
        coarse = _expansions(a, b, freqs, kr, pts[kp], step)
        owner = np.concatenate((kr, rows[fr], ext_rows[cr], ext_rows[cr]))
        roots = _bisect(
            np.concatenate((coarse, mom[fr], xmom, xmom)),
            np.concatenate((pts[kp], t0[fr], t0[xc], t0[xc])),
            step,
            np.concatenate((cut[kp], t[fr, fq], t[xc, xq], tstar[cr])),
            np.concatenate((cut[kp + 1], t[fr, fq + 1], tstar[cr], t[xc, xq + 1])),
            np.concatenate((kpos, sg[fr, fq], sg[xc, xq], vstar[cr] > 0)),
            _BISECT_WIDTH,
        )
        order = np.lexsort((roots, owner))
        root_lists = np.split(roots[order], np.cumsum(np.bincount(owner, minlength=B))[:-1])
    return counts, tangencies, root_lists


def count_zeros_scan(
    coeffs: CoefficientVector,
    interval,
    oversample: int = OVERSAMPLE,
    rescaled: bool = False,
    locate_roots: bool = True,
) -> ZeroCountResult:
    """Count (and locate) zeros on [lo, hi) by grid scan plus bisection."""
    lo, hi = require_interval(interval)
    a = coeffs.a[None, :]
    b = coeffs.b[None, :] if coeffs.b is not None else None
    counts, (_, t_lo, t_hi), roots = _scan_batch(
        a, b, coeffs.K, lo, hi, oversample, rescaled, locate_roots
    )
    return ZeroCountResult(count=int(counts[0]), roots=roots[0], warnings=list(zip(t_lo, t_hi)))


def scan_count_batch(a, b, K, interval, oversample=OVERSAMPLE, rescaled=False):
    """Counts and tangency-warning counts for a batch of replicates."""
    lo, hi = require_interval(interval)
    counts, (t_rows, _, _), _ = _scan_batch(a, b, K, lo, hi, oversample, rescaled, False)
    return counts, np.bincount(t_rows, minlength=a.shape[0])


def _stack_rows(K: int) -> int:
    return max(1, _STACK_ENTRIES // (2 * K) ** 2)  # companion matrices per eigvals call


def _eigen_roots(a, b, K, lo, hi):
    """Each row's distinct unit-circle root angles in [lo, hi), ascending.

    Every row's top coefficient (a_K, b_K) must be nonzero.
    """
    c = a if b is None else a + 1j * b
    # companion top rows -[conj c_{K-1}, ..., conj c_1, 0, c_1, ..., c_K] / conj c_K
    top = np.concatenate((np.conj(c[:, -2::-1]), np.zeros((len(c), 1)), c), axis=1)
    top /= -np.conj(c[:, -1:])
    rows = _stack_rows(K)
    out = []
    for s in range(0, len(top), rows):
        chunk = top[s : s + rows]
        m = np.repeat(np.eye(2 * K, k=-1, dtype=top.dtype)[None], len(chunk), axis=0)
        m[:, 0] = chunk
        z = np.linalg.eigvals(m)
        t = np.mod(np.angle(z), 2.0 * np.pi)
        t[np.abs(np.abs(z) - 1.0) >= _CIRCLE_TOL] = np.nan  # sorts last
        t.sort(axis=1)
        keep = np.ones(t.shape, dtype=bool)
        keep[:, 1:] = np.diff(t, axis=1) > _DEDUPE_TOL
        keep &= (t >= lo) & (t < hi)
        out += np.split(t[keep], np.cumsum(keep.sum(axis=1))[:-1])
    return out


def count_zeros_eigen(coeffs: CoefficientVector, interval) -> ZeroCountResult:
    """Exact zero count via companion-matrix eigenvalues on the unit circle.

    Lifts sum a_n cos(nt) (+ b_n sin(nt)) to the degree-2K polynomial
    z^K * sum_n [(a_n - i b_n)/2 z^n + (a_n + i b_n)/2 z^{-n}] and keeps
    eigen-roots within 1e-8 of |z| = 1 whose angle falls in the interval.
    """
    require_int("eigen oracle degree K", coeffs.K, 1, _EIGEN_MAX_K)
    lo, hi = require_interval(interval, 0.0, 2.0 * np.pi + 1e-9)
    a, b = coeffs.a, coeffs.b
    nz = np.flatnonzero(a if b is None else a + 1j * b)
    if nz.size == 0:
        raise UsageError("zero polynomial has no isolated roots")
    k = nz[-1] + 1  # trailing zero coefficients only add roots at z = 0
    roots = _eigen_roots(a[None, :k], None if b is None else b[None, :k], k, lo, hi)[0]
    return ZeroCountResult(count=roots.size, roots=roots)


def oracle_agreement(K_list, reps, seed):
    """Cross-validate scan counts and root locations against the eigen oracle.

    Compares ``reps`` cosine replicates per degree on [0, pi), scanned at
    OVERSAMPLE like every count.  Returns a report dict with any count
    mismatches and the worst root-location gap seen across all replicates.
    An empty request (no degree, or reps < 1) raises UsageError rather than
    passing vacuously.
    """
    require_degrees("eigen oracle degree K", K_list, _EIGEN_MAX_K)
    require_int("reps (56-bit indices)", reps, 1, REPLICATE_LIMIT)
    mismatches = []
    worst_gap = 0.0
    for K in K_list:
        rows = _stack_rows(K)
        for start in range(0, reps, rows):
            idx = range(start, min(start + rows, reps))
            a, _ = draw_coefficient_batch(K, "cosine", seed, idx)
            eig = _eigen_roots(a, None, K, 0.0, np.pi)
            _, _, scan = _scan_batch(a, None, K, 0.0, np.pi, OVERSAMPLE, rescaled=False, locate=True)
            for i, s, e in zip(idx, scan, eig):
                if s.size != e.size:
                    mismatches.append({"K": K, "index": i, "scan": s.size, "eigen": e.size})
                elif s.size:
                    worst_gap = max(worst_gap, float(np.max(np.abs(s - e))))
    return {
        "runs": reps * len(K_list),
        "mismatches": mismatches,
        "max_root_gap": worst_gap,
        "passed": not mismatches,
    }
