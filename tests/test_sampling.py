"""Deterministic draws and path evaluation."""

import hashlib
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.special import ndtri

from reference import Kernel, eval_path
from trigzero import sampling
from trigzero.errors import UsageError
from trigzero.sampling import (
    CoefficientVector,
    draw_coefficient_batch,
    draw_coefficients,
    PURPOSE_COEFFS,
)


def _reference_normals(seed, index, purpose, n):
    """One fresh Philox generator per stream: the draw path, spelled out."""
    key = np.array([seed, (index << 8) | purpose], dtype=np.uint64)
    raw = np.random.Philox(key=key).random_raw(n)
    u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
    return ndtri(np.minimum(u, 1.0 - 2.0 ** -53))


class TestDraws:
    def test_determinism(self):
        a = draw_coefficients(3, "cosine", 12345, 0)
        b = draw_coefficients(3, "cosine", 12345, 0)
        assert np.array_equal(a.a, b.a)
        assert a.b is None

    def test_streams_differ_by_index_and_seed(self):
        base = draw_coefficients(8, "cosine", 1, 0).a
        assert not np.array_equal(base, draw_coefficients(8, "cosine", 1, 1).a)
        assert not np.array_equal(base, draw_coefficients(8, "cosine", 2, 0).a)

    def test_standard_normal_moments(self):
        K = 10 ** 4
        z = draw_coefficients(K, "cosine", 77, 0).a
        assert abs(z.mean()) < 4.0 / np.sqrt(K)
        assert abs(z.var() - 1.0) < 0.06

    def test_stationary_has_independent_sine_block(self):
        cv = draw_coefficients(5, "stationary", 3, 0)
        assert cv.b is not None and cv.b.shape == (5,)
        vals = np.concatenate([cv.a, cv.b])
        assert len(np.unique(vals)) == 10

    def test_batch_matches_single(self):
        a, b = draw_coefficient_batch(6, "stationary", 9, range(4))
        single = draw_coefficients(6, "stationary", 9, 2)
        assert np.array_equal(a[2], single.a)
        assert np.array_equal(b[2], single.b)

    def test_bad_ensemble(self):
        with pytest.raises(UsageError):
            draw_coefficients(3, "exotic", 0, 0)

    @pytest.mark.parametrize("K", [0, -3])
    def test_bad_degree(self, K):
        with pytest.raises(UsageError):
            draw_coefficients(K, "cosine", 0, 0)
        with pytest.raises(UsageError):
            draw_coefficient_batch(K, "cosine", 0, range(3))


class TestDrawPath:
    """Batch rows and a fresh generator per stream agree bitwise."""

    @pytest.mark.parametrize("ensemble", ["cosine", "stationary"])
    @pytest.mark.parametrize("K", [1, 3, 100, 1600])
    @pytest.mark.parametrize(
        "indices", [range(5), [9, 2, 40, 3], [(1 << 56) - 1, 0]], ids=["run", "shuffled", "top"]
    )
    def test_batch_rows_equal_single_streams(self, ensemble, K, indices):
        seed = 17
        a, b = draw_coefficient_batch(K, ensemble, seed, indices)
        rows = a if b is None else np.hstack((a, b))
        per = rows.shape[1]
        assert per == (K if b is None else 2 * K)
        for row, idx in zip(rows, indices):
            assert np.array_equal(row, _reference_normals(seed, idx, PURPOSE_COEFFS, per))

    @pytest.mark.parametrize(
        "index",
        [
            -1,
            1 << 56,
            # int() would turn each of these into stream 1
            pytest.param(1.5, id="float"),
            pytest.param(1.7, id="float-1.7"),
            pytest.param(True, id="bool"),
            pytest.param(np.float64(1.9), id="float64"),
            pytest.param(np.bool_(True), id="numpy-bool"),
        ],
    )
    def test_index_outside_key_range(self, index):
        with pytest.raises(UsageError):
            draw_coefficient_batch(4, "cosine", 0, [0, index])
        with pytest.raises(UsageError):
            draw_coefficients(4, "cosine", 0, index)

    @pytest.mark.parametrize(
        "K, ensemble, indices",
        [
            (1600, "stationary", range(300)),
            # these end on a ragged block
            (1600, "stationary", np.array([37, 5, 250, 0, 999, 12, 8, 301, 77, 64, 3, 1000, 41])),
            (1600, "cosine", range(1000, 1301)),
            (100, "cosine", range(700)),
        ],
        ids=["k1600-stationary-300", "k1600-stationary-shuffled", "k1600-cosine-ragged", "k100-cosine-ragged"],
    )
    def test_rows_across_blocks(self, K, ensemble, indices):
        seed = 29
        per = 2 * K if ensemble == "stationary" else K
        step = max(1, sampling._BLOCK_WORDS // per)
        assert len(indices) > step  # the batch crosses a block boundary
        a, b = draw_coefficient_batch(K, ensemble, seed, indices)
        rows = a if b is None else np.hstack((a, b))
        assert rows.shape == (len(indices), per)
        for row, idx in zip(rows, indices):
            assert np.array_equal(row, _reference_normals(seed, idx, PURPOSE_COEFFS, per))

    @pytest.mark.parametrize("ensemble", ["cosine", "stationary"])
    def test_empty_indices(self, ensemble):
        a, b = draw_coefficient_batch(1600, ensemble, 3, [])
        assert a.shape == (0, 1600)
        if ensemble == "stationary":
            assert b.shape == (0, 1600)

    def test_words_to_normals_edges(self):
        # the top 53-bit word (2,048 of the 2**64 words) centred rounds to
        # u = 1.0, where ndtri is +inf; it is clamped to 1 - 2**-53
        words = np.array([0, 1 << 63, (1 << 64) - (1 << 11), (1 << 64) - 1], dtype=np.uint64)
        z = sampling._words_to_normals(words.copy(), np.empty(4))
        assert np.all(np.isfinite(z))
        assert z[0] == ndtri(2.0 ** -54)
        assert z[1] == 0.0  # 2**52 + 0.5 rounds to even: u = 0.5
        assert z[2] == z[3] == ndtri(1.0 - 2.0 ** -53)
        assert np.isinf(ndtri(((words[2:] >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53)).all()

    def test_draw_allocates_little_beyond_its_output(self):
        draw_coefficient_batch(1600, "cosine", 0, range(256))  # warm: ndtri loaded
        tracemalloc.start()
        try:
            a, _ = draw_coefficient_batch(1600, "cosine", 0, range(256))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * a.nbytes

    @pytest.mark.parametrize("seed", [-1, 1 << 64, 1.5, pytest.param(True, id="bool")])
    def test_seed_outside_key_word(self, seed):
        # a masked or truncated seed would key the streams of another seed
        with pytest.raises(UsageError):
            draw_coefficient_batch(4, "cosine", seed, [0])

    def test_top_seed_draws_its_own_stream(self):
        seed = (1 << 64) - 1
        a, _ = draw_coefficient_batch(4, "cosine", seed, [3])
        assert np.array_equal(a[0], _reference_normals(seed, 3, PURPOSE_COEFFS, 4))

    def test_concurrent_chunks_equal_serial(self):
        # more threads than cores and a short switch interval, so that the
        # draws of different chunks interleave
        chunks = [range(s, s + 32) for s in range(0, 512, 32)]
        serial = [draw_coefficient_batch(100, "stationary", 5, c) for c in chunks]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(draw_coefficient_batch, 100, "stationary", 5, c) for c in chunks]
                got = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for (a, b), (sa, sb) in zip(got, serial):
            assert np.array_equal(a, sa) and np.array_equal(b, sb)


# SHA-256 of a 256-row draw (rows 0..255; a's bytes, then b's), little-endian
# float64.  A numpy or scipy upgrade that moved a stream would change these,
# and with them every committed count and record.
_DRAW_DIGESTS = {
    (1, "cosine", 0): "77c23db4c9c5bbdeca4a9328d36f56c6442dfd0ae162fb04910024f5a012d4d3",
    (1, "stationary", 0): "eafe07f3ec20c3b4f317062fa11f942f78c7adf4a465fb8d720391b4bf10337b",
    (100, "cosine", 0): "094d0bf688732f92386dc8b0fec3663a5f2a4b67d525328f61feccc9cf9ad0d8",
    (100, "stationary", 0): "e6c15b14202a3e079652bb004a3a2c267d03bdefe021c43e488e7c66b235a4ae",
    (1600, "cosine", 0): "006f2c712776bada1975b1c096cb37fa471309d09d79f1f09a656c101f64bcf6",
    (1600, "stationary", 0): "b70674f62249a28d45f16846723bf8460ac623250b2d50d5cbe45646b732b716",
    (1, "cosine", 2**64 - 1): "94de73fbe089440715a2abda34578721b190e7b090880a34a5dea5d0fbc6a399",
    (1, "stationary", 2**64 - 1): "8401f7f62b1e2308411b9756cb834660a39a43e2eba1d4b3e460e53d6ecc3cd8",
    (100, "cosine", 2**64 - 1): "15e5b6752d0620689b24772c91f0f648509c612f355b18e24b872a5cc965e09f",
    (100, "stationary", 2**64 - 1): "e3269f7fecdef204b30b91c752579728d5f082958d1b8d0bc1c38b02ba690c0e",
    (1600, "cosine", 2**64 - 1): "8ac2ad86b7e1ab3d5ba08299ef7c93f8d7c4497b5a33d712b116e64fe9a73377",
    (1600, "stationary", 2**64 - 1): "b6b4e8a232ec33bbdc178537c7290ccd0ce7a3582234acfd4f3a55a6e2d65363",
}


@pytest.mark.parametrize("K, ensemble, seed", sorted(_DRAW_DIGESTS))
def test_draw_bytes_are_pinned(K, ensemble, seed):
    a, b = draw_coefficient_batch(K, ensemble, seed, range(256))
    digest = hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes())
    if b is not None:
        digest.update(np.ascontiguousarray(b, dtype="<f8").tobytes())
    assert digest.hexdigest() == _DRAW_DIGESTS[K, ensemble, seed]


class TestEvalPath:
    def test_single_mode_rescaled(self):
        K = 9
        cv = CoefficientVector(K=K, a=np.r_[np.sqrt(K), np.zeros(K - 1)], b=None)
        t = np.linspace(0.0, K * np.pi, 33)
        val, der = eval_path(cv, t, rescaled=True)
        assert np.allclose(val, np.cos(t / K), atol=1e-14)
        assert np.allclose(der, -np.sin(t / K) / K, atol=1e-14)

    def test_original_equals_rescaled_at_Kt(self):
        cv = draw_coefficients(11, "cosine", 4, 0)
        t = np.linspace(0.0, np.pi, 29)
        v_orig, _ = eval_path(cv, t, rescaled=False)
        v_resc, _ = eval_path(cv, 11 * t, rescaled=True)
        assert np.allclose(v_orig, v_resc, atol=1e-12)

    def test_derivative_finite_difference(self):
        cv = draw_coefficients(25, "stationary", 8, 1)
        rng = np.random.default_rng(0)
        t = rng.uniform(0.1, 2 * np.pi - 0.1, size=50)
        h = 1e-6
        _, der = eval_path(cv, t, rescaled=False)
        vp, _ = eval_path(cv, t + h, rescaled=False)
        vm, _ = eval_path(cv, t - h, rescaled=False)
        assert np.max(np.abs(der - (vp - vm) / (2 * h))) < 1e-6

    def test_cosine_reflection_symmetry(self):
        # T(2*pi - t) = T(t) exactly in exact arithmetic; float argument
        # reduction leaves rounding at the 1e-12 scale
        cv = draw_coefficients(20, "cosine", 5, 0)
        t = np.linspace(0.1, np.pi, 40)
        v1, _ = eval_path(cv, t, rescaled=False)
        v2, _ = eval_path(cv, 2 * np.pi - t, rescaled=False)
        assert np.allclose(v1, v2, atol=1e-10)

    def test_empirical_covariance_ties_to_kernel(self):
        # ensemble covariance at random point pairs vs the cosine kernel
        reps = 10 ** 4
        rng = np.random.default_rng(123)
        for K in (10, 100):
            kern = Kernel(K)
            a, _ = draw_coefficient_batch(K, "cosine", 321, range(reps))
            s = rng.uniform(0.0, K * np.pi, size=10)
            t = rng.uniform(0.0, K * np.pi, size=10)
            freqs = np.arange(1, K + 1) / K
            vs = (a @ np.cos(np.outer(freqs, s))) / np.sqrt(K)
            vt = (a @ np.cos(np.outer(freqs, t))) / np.sqrt(K)
            emp = (vs * vt).mean(axis=0)
            want = kern.partials(s, t)[0]
            se = (vs * vt).std(axis=0, ddof=1) / np.sqrt(reps)
            assert np.all(np.abs(emp - want) < 4.0 * se)
