"""Deterministic draws and path evaluation."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.special import ndtri

from reference import Kernel, eval_path
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
    return ndtri(((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53)


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

    @pytest.mark.parametrize("index", [-1, 1 << 56])
    def test_index_outside_key_range(self, index):
        with pytest.raises(UsageError):
            draw_coefficient_batch(4, "cosine", 0, [0, index])

    @pytest.mark.parametrize("seed", [-1, 1 << 64, 1.5])
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
