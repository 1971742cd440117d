"""Replicate sampling: deterministic coefficient draws.

Randomness is counter-based: every replicate owns a Philox stream keyed by
(experiment seed, replicate index, stream purpose), so draws are reproducible
independently of execution order or worker count.  Gaussian variates come
from the inverse normal CDF applied to the stream's uniforms; each normal
consumes exactly one 64-bit word, which keeps streams alignable.  A batch
of replicates is drawn by one generator, re-keyed per replicate, and a
stream never depends on the batch it is drawn in.  The inverse CDF is
``scipy.special.ndtri``, imported on the first draw rather than with the
module, so commands that draw nothing never load scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError

PURPOSE_COEFFS = 0
# replicate indices lie in [0, REPLICATE_LIMIT): the key word's top 56 bits
REPLICATE_LIMIT = 1 << 56

_ENSEMBLES = ("cosine", "stationary")


def _normal_rows(seed: int, indices, purpose: int, n: int) -> np.ndarray:
    """Standard normals, shape (len(indices), n); row i from stream indices[i].

    One Philox generator serves the whole call.  For each row it is re-keyed
    to (seed, index << 8 | purpose) with counter 0 and an empty buffer,
    which is exactly the state of a fresh ``Philox(key=...)``.  The generator
    is local, so concurrent calls share nothing.  The seed must be an
    integer that fits the 64-bit key word as it is: no two seeds may key
    the same streams.
    """
    if not (isinstance(seed, (int, np.integer)) and 0 <= seed < 1 << 64):
        raise UsageError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    from scipy.special import ndtri  # deferred: commands that draw nothing never load scipy

    gen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    state = gen.state  # counter 0, empty buffer
    key = state["state"]["key"]
    raw = np.empty((len(indices), n), dtype=np.uint64)
    for i, index in enumerate(indices):
        index = int(index)
        if index < 0 or index >= REPLICATE_LIMIT:
            raise UsageError("replicate index out of the 56-bit key range")
        key[1] = (index << 8) | purpose
        gen.state = state
        raw[i] = gen.random_raw(n)
    # top 53 bits, centered: u in (0, 1) strictly, so ndtri stays finite
    raw >>= np.uint64(11)
    u = raw.astype(np.float64)
    u += 0.5
    u *= 2.0 ** -53
    return ndtri(u, out=u)


@dataclass(frozen=True)
class CoefficientVector:
    """Gaussian coefficients of one polynomial replicate.

    ``b`` is present exactly when the replicate belongs to the stationary
    (cosine+sine) ensemble.
    """

    K: int
    a: np.ndarray
    b: np.ndarray | None


def draw_coefficients(K: int, ensemble: str = "cosine", seed: int = 0, index: int = 0) -> CoefficientVector:
    """Draw one replicate's coefficient vector(s), deterministically."""
    a, b = draw_coefficient_batch(K, ensemble, seed, (index,))
    return CoefficientVector(K=K, a=a[0], b=None if b is None else b[0])


def draw_coefficient_batch(K: int, ensemble: str, seed: int, indices) -> tuple:
    """Coefficient rows for many replicates; row i uses stream ``indices[i]``.

    Returns (a, b) with shapes (B, K); ``b`` is None for the cosine ensemble.
    """
    if K < 1:
        raise UsageError(f"degree K must be >= 1, got {K}")
    if ensemble not in _ENSEMBLES:
        raise UsageError(f"unknown ensemble {ensemble!r}")
    per = 2 * K if ensemble == "stationary" else K
    rows = _normal_rows(seed, indices, PURPOSE_COEFFS, per)
    if ensemble == "stationary":
        return rows[:, :K], rows[:, K:]
    return rows, None
