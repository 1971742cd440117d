"""Replicate sampling: deterministic coefficient draws.

Randomness is counter-based: every replicate owns a Philox stream keyed by
(experiment seed, replicate index, stream purpose), so draws are reproducible
independently of execution order or worker count.  Gaussian variates come
from the inverse normal CDF applied to the stream's uniforms; each normal
consumes exactly one 64-bit word, which keeps streams alignable.  A word w
maps to the uniform u = (float(w >> 11) + 0.5) * 2**-53, clamped to at most
1 - 2**-53: below w >> 11 = 2**52 the sum is exact, so u is the centre of
its bin; above it the half rounds to even, and the top value, which would
round to 1.0, takes the largest double below 1.  So u lies in (0, 1) and
every normal is finite.

A batch of replicates is drawn by one generator, re-keyed per replicate
from a state dict of plain Python ints, which its setter reads faster than
the arrays ``state`` returns.  Rows are drawn one block of about 2**15 words
at a time into one reused word buffer, and each block is converted while it
is still in cache, straight into its slice of the output, so a batch
allocates little beyond its normals.  A stream never depends on the batch
or block it is drawn in.  The inverse CDF is ``scipy.special.ndtri``,
imported on the first draw rather than with the module, so commands that
draw nothing never load scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError, require_int

PURPOSE_COEFFS = 0
# replicate indices lie in [0, REPLICATE_LIMIT): the key word's top 56 bits
REPLICATE_LIMIT = 1 << 56

ENSEMBLES = ("cosine", "stationary")
# words per block of rows: the block is converted while it is in cache
_BLOCK_WORDS = 1 << 15
# the largest double below 1: the top 53-bit word's centre rounds to 1.0
_U_MAX = 1.0 - 2.0 ** -53


def _words_to_normals(words: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Standard normals of raw 64-bit ``words`` written into ``out``.

    ``words`` is shifted in place.  The map is the module docstring's: top
    53 bits, plus one half, times 2**-53, clamped to 1 - 2**-53, then
    ``ndtri``.
    """
    from scipy.special import ndtri  # deferred: commands that draw nothing never load scipy

    words >>= np.uint64(11)
    out[...] = words
    out += 0.5
    out *= 2.0 ** -53
    np.minimum(out, _U_MAX, out=out)
    return ndtri(out, out=out)


def _normal_rows(seed: int, indices, purpose: int, n: int) -> np.ndarray:
    """Standard normals, shape (len(indices), n); row i from stream indices[i].

    One Philox generator serves the whole call.  For each row it is re-keyed
    to (seed, index << 8 | purpose) with counter 0 and an empty buffer,
    which is exactly the state of a fresh ``Philox(key=...)``.  The rows are
    drawn ``max(1, 2**15 // n)`` at a time into one uint64 block buffer,
    which is converted into the rows' slice of the output before the next
    block is drawn; the output and that buffer are the only arrays the call
    keeps.  The generator and buffer are local, so concurrent calls share
    nothing.  The seed and every index must be integers (``require_int``)
    that fit their key bits as they are, the seed in [0, 2**64) and an index
    in [0, 2**56): no two inputs may key the same stream.
    """
    require_int("seed", seed, 0, (1 << 64) - 1)
    rows = len(indices)
    out = np.empty((rows, n))
    step = max(1, _BLOCK_WORDS // n)
    block = np.empty((min(step, rows), n), dtype=np.uint64)
    gen = np.random.Philox(key=0)  # re-keyed before every row
    key = [int(seed), 0]
    # counter 0, empty buffer: the state of a fresh generator for the key
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for start in range(0, rows, step):
        stop = min(start + step, rows)
        for j, index in enumerate(indices[start:stop]):
            require_int("replicate index", index, 0, REPLICATE_LIMIT - 1)
            key[1] = (int(index) << 8) | purpose
            gen.state = state
            block[j] = gen.random_raw(n)
        _words_to_normals(block[: stop - start], out[start:stop])
    return out


@dataclass(frozen=True)
class CoefficientVector:
    """Gaussian coefficients of one polynomial replicate.

    ``b`` is present exactly when the replicate belongs to the stationary
    (cosine+sine) ensemble; ``a`` and ``b`` hold K coefficients each.
    """

    K: int
    a: np.ndarray
    b: np.ndarray | None

    def __post_init__(self):
        require_int("degree K", self.K, 1)
        if any(np.shape(c) != (self.K,) for c in (self.a, self.b) if c is not None):
            raise UsageError(f"coefficient vectors must hold K = {self.K} entries each")


def draw_coefficients(K: int, ensemble: str = "cosine", seed: int = 0, index: int = 0) -> CoefficientVector:
    """Draw one replicate's coefficient vector(s), deterministically."""
    a, b = draw_coefficient_batch(K, ensemble, seed, (index,))
    return CoefficientVector(K=K, a=a[0], b=None if b is None else b[0])


def draw_coefficient_batch(K: int, ensemble: str, seed: int, indices) -> tuple:
    """Coefficient rows for many replicates; row i uses stream ``indices[i]``.

    Returns (a, b) with shapes (B, K); ``b`` is None for the cosine ensemble.
    """
    require_int("degree K", K, 1)
    if ensemble not in ENSEMBLES:
        raise UsageError(f"unknown ensemble {ensemble!r}")
    per = 2 * K if ensemble == "stationary" else K
    rows = _normal_rows(seed, indices, PURPOSE_COEFFS, per)
    if ensemble == "stationary":
        return rows[:, :K], rows[:, K:]
    return rows, None
