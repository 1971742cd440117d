"""Scan counting versus the companion-matrix oracle."""

import hashlib
import math
import warnings

import numpy as np
import pytest

import corpus
from reference import eval_path
from trigzero import zeros
from trigzero.errors import UsageError
from trigzero.sampling import (
    CoefficientVector,
    draw_coefficient_batch,
    draw_coefficients,
)
from trigzero.zeros import (
    _BISECT_WIDTH,
    _SETTLE_WIDTH,
    _STACK_ENTRIES,
    _bisect,
    _classify,
    _eigen_roots,
    _expansions,
    _freqs,
    _lattice_values,
    _scan_batch,
    _scan_grid,
    count_zeros_eigen,
    count_zeros_scan,
    oracle_agreement,
    scan_count_batch,
)


def _vector(K, a, b=None):
    return CoefficientVector(K=K, a=np.asarray(a, float), b=b)


class TestTrivialCounts:
    def test_single_low_mode(self):
        K = 8
        cv = _vector(K, np.r_[np.sqrt(K), np.zeros(K - 1)])
        res = count_zeros_scan(cv, (0.0, np.pi))
        assert res.count == 1
        assert res.roots[0] == pytest.approx(np.pi / 2.0, abs=1e-11)

    def test_single_top_mode(self):
        K = 8
        cv = _vector(K, np.r_[np.zeros(K - 1), np.sqrt(K)])
        res = count_zeros_scan(cv, (0.0, np.pi))
        assert res.count == K  # cos(K t) has K roots in [0, pi)
        eig = count_zeros_eigen(cv, (0.0, np.pi))
        assert eig.count == K
        assert np.max(np.abs(res.roots - eig.roots)) < 1e-10

    @pytest.mark.parametrize("ensemble", ["cosine", "stationary"])
    def test_eigen_cuts_trailing_zeros(self, ensemble):
        # a zero top coefficient would divide the companion row by zero
        # unless the row is cut to its last nonzero coefficient
        K = 8
        cases = [_vector(K, np.r_[np.sqrt(K), np.zeros(K - 1)])]
        a, b = draw_coefficient_batch(K, ensemble, 5, range(1))
        a[0, -2:] = 0.0
        if b is not None:
            b[0, -2:] = 0.0
        cases.append(_vector(K, a[0], None if b is None else b[0]))
        for cv in cases:
            for interval in ((0.0, np.pi), (0.3, 2.0 * np.pi)):
                eig = count_zeros_eigen(cv, interval)
                assert eig.count == count_zeros_scan(cv, interval, locate_roots=False).count
        assert count_zeros_eigen(cases[0], (0.0, np.pi)).roots == pytest.approx([np.pi / 2.0])

    def test_count_bound_full_period(self):
        for idx in range(20):
            cv = draw_coefficients(12, "cosine", 90, idx)
            res = count_zeros_scan(cv, (0.0, 2.0 * np.pi), locate_roots=False)
            assert res.count <= 2 * 12


class TestCrossValidation:
    def test_root_locations_match(self):
        for idx in range(30):
            cv = draw_coefficients(10, "cosine", 17, idx)
            scan = count_zeros_scan(cv, (0.0, np.pi))
            eig = count_zeros_eigen(cv, (0.0, np.pi))
            assert scan.count == eig.count
            if scan.count:
                assert np.max(np.abs(scan.roots - eig.roots)) < 1e-8

    def test_oracle_agreement_batch(self):
        report = oracle_agreement([5, 10, 20], 150, seed=2024)
        assert report["passed"], report["mismatches"]
        assert report["max_root_gap"] < 1e-8

    def test_oracle_agreement_emits_no_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = oracle_agreement([5], 20, 0)
        assert report["passed"] and report["runs"] == 20

    @pytest.mark.parametrize("ensemble", ["cosine", "stationary"])
    def test_eigen_batch_rows_equal_single_rows(self, ensemble):
        K, interval = 24, (0.3, 2.9)
        a, b = draw_coefficient_batch(K, ensemble, 41, range(32))
        batch = _eigen_roots(a, b, K, *interval)
        for r in range(32):
            one = count_zeros_eigen(_vector(K, a[r], None if b is None else b[r]), interval)
            assert np.array_equal(batch[r], one.roots)

    def test_eigvals_stack_within_budget(self, monkeypatch):
        # only the stack shapes matter here: the stub returns roots at z = 0,
        # which lie off the unit circle
        shapes = []

        def spy(m):
            shapes.append(m.shape)
            return np.zeros(m.shape[:-1], dtype=complex)

        monkeypatch.setattr(np.linalg, "eigvals", spy)
        a, _ = draw_coefficient_batch(256, "cosine", 3, range(20))
        assert all(r.size == 0 for r in _eigen_roots(a, None, 256, 0.0, np.pi))
        assert sum(s[0] for s in shapes) == 20 and len(shapes) > 1
        assert max(np.prod(s) for s in shapes) <= _STACK_ENTRIES

    @pytest.mark.parametrize("K_list, reps", [([5, 10], 0), ([5], -5), ([], 10)])
    def test_oracle_agreement_rejects_empty_requests(self, K_list, reps):
        # an empty request must not read as a pass with "runs": 0
        with pytest.raises(UsageError):
            oracle_agreement(K_list, reps, seed=0)

    def test_oracle_agreement_scans_at_the_count_density(self, monkeypatch):
        # the oracle vouches for the lattice every campaign counts on
        seen, real = [], zeros._scan_batch

        def spy(a, b, K, lo, hi, oversample, rescaled, locate):
            seen.append(oversample)
            return real(a, b, K, lo, hi, oversample, rescaled, locate)

        monkeypatch.setattr(zeros, "_scan_batch", spy)
        assert oracle_agreement([5, 10], 3, seed=0)["passed"]
        assert seen == [8] * 2
        assert zeros.OVERSAMPLE == 8

    def test_oracle_agreement_rejects_reps_beyond_the_index_range(self):
        # replicate indices are 56 bits of the Philox key
        with pytest.raises(UsageError, match="56-bit"):
            oracle_agreement([5], (1 << 56) + 1, seed=0)

    def test_stationary_ensemble_agrees(self):
        for idx in range(25):
            cv = draw_coefficients(10, "stationary", 55, idx)
            scan = count_zeros_scan(cv, (0.0, 2.0 * np.pi), locate_roots=False)
            eig = count_zeros_eigen(cv, (0.0, 2.0 * np.pi))
            assert scan.count == eig.count

    def test_full_period_doubles_half_period(self):
        for idx in range(200):
            cv = draw_coefficients(15, "cosine", 31, idx)
            n_half = count_zeros_scan(cv, (0.0, np.pi), locate_roots=False).count
            n_full = count_zeros_scan(cv, (0.0, 2.0 * np.pi), locate_roots=False).count
            assert n_full == 2 * n_half

    def test_eigen_doubling(self):
        for idx in range(50):
            cv = draw_coefficients(20, "cosine", 8, idx)
            n_half = count_zeros_eigen(cv, (0.0, np.pi)).count
            n_full = count_zeros_eigen(cv, (0.0, 2.0 * np.pi)).count
            assert n_full == 2 * n_half


class TestRootQuality:
    def test_residuals(self):
        for idx in range(20):
            cv = draw_coefficients(30, "cosine", 3, idx)
            res = count_zeros_scan(cv, (0.0, np.pi))
            vals, _ = eval_path(cv, res.roots, rescaled=False)
            grid_vals, _ = eval_path(cv, np.linspace(0, np.pi, 2000), rescaled=False)
            assert np.max(np.abs(vals)) < 1e-9 * np.max(np.abs(grid_vals))

    def test_rescaled_axis_equivalent(self):
        cv = draw_coefficients(12, "cosine", 44, 5)
        orig = count_zeros_scan(cv, (0.0, np.pi), rescaled=False)
        resc = count_zeros_scan(cv, (0.0, 12 * np.pi), rescaled=True)
        assert orig.count == resc.count
        assert np.allclose(resc.roots / 12.0, orig.roots, atol=1e-10)


class TestTangency:
    def _tangent_vector(self, tstar=1.0):
        # K = 3 coefficients with value and slope both zero at t*: a touch
        # point, not a crossing
        n = np.arange(1, 4)
        m = np.vstack([np.cos(n * tstar), n * np.sin(n * tstar)])
        _, _, vh = np.linalg.svd(m)
        a = vh[-1]
        # orient so the touch approaches zero from above
        val2 = -np.sum(a * n ** 2 * np.cos(n * tstar))
        if val2 < 0:
            a = -a
        return _vector(3, a), tstar

    def test_warning_issued_and_not_counted(self):
        cv, tstar = self._tangent_vector()
        res = count_zeros_scan(cv, (0.0, np.pi))
        assert len(res.warnings) == 1
        lo, hi = res.warnings[0]
        assert lo < tstar < hi
        # the tangency is excluded from the crossing count
        assert not np.any(np.abs(res.roots - tstar) < 1e-6)

    def test_perturbed_pair_counted(self):
        # pushing the touch point slightly below zero creates two crossings
        cv, tstar = self._tangent_vector()
        delta = 1e-6 / np.cos(tstar)
        shifted = _vector(3, cv.a - np.r_[delta, 0.0, 0.0])
        res = count_zeros_scan(shifted, (0.0, np.pi))
        near = res.roots[np.abs(res.roots - tstar) < 0.05]
        assert near.size == 2
        eig = count_zeros_eigen(shifted, (0.0, np.pi))
        assert eig.count == res.count

    @pytest.mark.parametrize("frac", [0.1, 0.35, 0.6, 0.85])
    def test_touch_in_each_quarter_of_a_cell(self, frac):
        # refinement cuts a grid cell in four; put the touch point in each
        # quarter of the cell between lattice points 15 and 16 (K = 3,
        # oversample 16: step pi/48)
        tstar = (15 + frac) * np.pi / 48
        cv, _ = self._tangent_vector(tstar)
        res = count_zeros_scan(cv, (0.0, np.pi), oversample=16)
        assert len(res.warnings) == 1
        lo, hi = res.warnings[0]
        assert lo < tstar < hi and hi - lo < np.pi / 48 / 4 * (1 + 1e-9)
        delta = 1e-6 / np.cos(tstar)
        shifted = _vector(3, cv.a - np.r_[delta, 0.0, 0.0])
        res = count_zeros_scan(shifted, (0.0, np.pi), oversample=16)
        assert np.sum(np.abs(res.roots - tstar) < 0.05) == 2
        assert res.count == count_zeros_eigen(shifted, (0.0, np.pi)).count


    def test_touch_where_two_suspects_tie(self, monkeypatch):
        # a touch point near the middle of the cell between lattice points 15
        # and 16, placed where their values tie: on the FFT route both
        # triples around the cell are suspects within the rounding slack, so
        # the adjacent cells 14, 15 and 16 are refined and share their inner
        # ends
        monkeypatch.setattr(zeros, "_TABLE_CUT", 0.0)
        step = np.pi / 48
        n = np.arange(1, 4)

        def gap(frac):
            a = self._tangent_vector((15 + frac) * step)[0].a
            v15, v16 = np.cos(np.multiply.outer(np.array([15, 16]) * step, n)) @ a
            return v15 - v16

        from scipy.optimize import brentq

        tstar = (15 + brentq(gap, 0.3, 0.7, xtol=1e-15)) * step
        cv, _ = self._tangent_vector(tstar)
        # the grid's points from 0 to pi, so that index j is lattice point j
        _, grid, err, _ = _scan_grid(cv.a[None, :], None, _freqs(3, False), 96, step, 0.0, np.pi)
        vals = grid[:, 1:-1]
        assert set(_classify(vals, err, False)[3]) == {15, 16}
        res = count_zeros_scan(cv, (0.0, np.pi), oversample=16)
        assert len(res.warnings) == 1
        lo, hi = res.warnings[0]
        assert lo < tstar < hi and hi - lo < step / 4 * (1 + 1e-9)
        shifted = _vector(3, cv.a - np.r_[1e-6 / np.cos(tstar), 0.0, 0.0])
        res = count_zeros_scan(shifted, (0.0, np.pi), oversample=16)
        assert np.sum(np.abs(res.roots - tstar) < 0.05) == 2
        assert res.count == count_zeros_eigen(shifted, (0.0, np.pi)).count

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["above", "below"])
    def test_touch_on_an_exact_lattice_zero(self, sign):
        # the touch point 16 pi/48 is lattice point 16 (K = 3, oversample 16)
        # and its lattice value is exactly 0.0: no sign change is counted
        # there, and refinement reports the touch
        tstar = 16 * np.pi / 48
        cv, _ = self._tangent_vector(tstar)
        cv = _vector(3, sign * cv.a)
        assert np.cos(np.arange(1, 4) * tstar) @ cv.a == 0.0
        res = count_zeros_scan(cv, (0.0, np.pi), oversample=16)
        assert res.count == 1 == res.roots.size
        assert len(res.warnings) == 1
        lo, hi = res.warnings[0]
        assert lo <= tstar <= hi and hi - lo < np.pi / 48 / 4 * (1 + 1e-9)
        assert not np.any(np.abs(res.roots - tstar) < 1e-6)

    @pytest.mark.parametrize("K, eps", [(16, 1e-12), (32, 0.0), (64, 0.0)])
    def test_flat_touch_on_a_shared_cell_end(self, monkeypatch, K, eps):
        # a cosine path is even about pi; four coefficients cancel its value
        # and second and fourth derivatives there, so that it is about
        # c (t - pi)^6 + eps.  On the FFT route that flat run makes suspects
        # of pi and its neighbours, so the cells on either side of pi are
        # refined about different centres, and the derivative at pi, zero to
        # rounding, must put the touch in exactly one of them
        monkeypatch.setattr(zeros, "_TABLE_CUT", 0.0)
        n = np.arange(1, 5)
        head = np.linalg.svd(np.vstack([(-1.0) ** n * n ** (2 * k) for k in range(3)]))[2][-1]
        head *= -np.sign(np.sum(head * (-1.0) ** n * n**6))  # f^(6)(pi) > 0
        a = np.zeros(K)
        a[:4] = head
        a[0] -= eps
        N = 32 * K
        step = 2.0 * np.pi / N
        pts, vals, err, _ = _scan_grid(a[None, :], None, _freqs(K, False), N, step, 0.3, 5.9)
        mid = np.rint(pts[_classify(vals, err, False)[3]] / step) - N // 2
        assert {-1, 0, 1} <= set(mid)
        cv = _vector(K, a)
        res = count_zeros_scan(cv, (0.3, 5.9))
        assert len(res.warnings) == 1
        lo, hi = res.warnings[0]
        assert lo <= np.pi <= hi
        counted = count_zeros_scan(cv, (0.3, 5.9), locate_roots=False)
        assert res.count == res.roots.size == counted.count and len(counted.warnings) == 1
        assert not np.any(np.abs(res.roots - np.pi) < 0.1)


class TestTwoStageVerdicts:
    """Count mode settles an extremum at _SETTLE_WIDTH steps unless its value
    lies within the curvature slack of 0 or of the tangency tolerance."""

    STEP = np.pi / 48  # K = 3, oversample 16

    @pytest.fixture
    def widths(self, monkeypatch):
        calls = []

        def spy(mom, t0, step, lo, hi, lo_pos, width):
            calls.append((width / step, lo.size))
            return _bisect(mom, t0, step, lo, hi, lo_pos, width)

        monkeypatch.setattr(zeros, "_bisect", spy)
        return calls

    def test_crossed_extremum_settled_at_stage_one(self, widths):
        cv, tstar = TestTangency()._tangent_vector()
        shifted = _vector(3, cv.a - np.r_[1e-6 / np.cos(tstar), 0.0, 0.0])
        counts, warns = scan_count_batch(shifted.a[None], None, 3, (0.0, np.pi))
        assert widths == [(pytest.approx(_SETTLE_WIDTH), 1)]
        assert counts[0] == count_zeros_eigen(shifted, (0.0, np.pi)).count and not warns.any()

    @pytest.mark.parametrize("factor", [0.5, 2.0], ids=["inside", "outside"])
    def test_touch_near_the_tolerance_goes_to_stage_two(self, widths, factor):
        # the touch lowered to factor times the tangency tolerance: a warning
        # inside it, a crossed pair outside, and either way within the slack
        cv, tstar = TestTangency()._tangent_vector()
        n = np.arange(1, 4)
        scale = np.max(np.abs(np.cos(np.multiply.outer(np.arange(49) * self.STEP, n)) @ cv.a))
        delta = factor * zeros._TANGENCY_REL_TOL * scale / np.cos(tstar)
        low = _vector(3, cv.a - np.r_[delta, 0.0, 0.0])
        counted = count_zeros_scan(low, (0.0, np.pi), oversample=16, locate_roots=False)
        assert widths == [(pytest.approx(_SETTLE_WIDTH), 1), (pytest.approx(_BISECT_WIDTH / self.STEP), 1)]
        located = count_zeros_scan(low, (0.0, np.pi), oversample=16)
        assert counted.count == located.count == located.roots.size
        assert counted.warnings == located.warnings
        assert len(located.warnings) == (factor < 1.0)

    @pytest.mark.parametrize("K", [3, 16, 32, 64])
    def test_count_mode_matches_locate_mode(self, monkeypatch, K):
        # every TestTangency vector, and the perturbed pairs of its touches
        if K == 3:
            rows, interval = corpus._touch_rows(), (0.0, np.pi)
        else:
            monkeypatch.setattr(zeros, "_TABLE_CUT", 0.0)
            rows, interval = corpus._flat_rows(K, (1e-12, 0.0)), (0.3, 5.9)
        for oversample in (8, 16):
            for a in rows:
                counted = count_zeros_scan(_vector(K, a), interval, oversample, locate_roots=False)
                located = count_zeros_scan(_vector(K, a), interval, oversample)
                assert counted.count == located.count
                assert counted.warnings == located.warnings

    @pytest.mark.parametrize("t0", [1.0, 5000.0, 9000.0, 20000.0])
    def test_bisect_stops_when_the_midpoint_rounds_to_an_end(self, monkeypatch, t0):
        # a linear function with its root a third of a step left of t0: past
        # t = 8192 one ulp exceeds the width, and the bracket stops at one ulp
        calls, taylor = [], zeros._taylor

        def count(mom, u):
            calls.append(1)
            return taylor(mom, u)

        monkeypatch.setattr(zeros, "_taylor", count)
        mom = np.zeros((1, zeros._TAYLOR_TERMS))
        mom[0, :2] = 1.0 / 3.0, 1.0
        t = np.array([t0])
        root = _bisect(mom, t, 1.0, t - 0.5, t + 0.25, np.array([False]), _BISECT_WIDTH)
        assert len(calls) <= math.ceil(math.log2(0.75 / _BISECT_WIDTH))  # 80 without the stop
        assert abs(root[0] - (t0 - 1.0 / 3.0)) <= max(_BISECT_WIDTH, 2.0 * np.spacing(t0))


class TestCorpus:
    """The Tier-1 part of the counts-unchanged corpus in corpus.py."""

    @pytest.mark.parametrize("name", corpus.SUBSET)
    def test_digests_unchanged(self, name):
        assert corpus.digest(corpus.CONFIGS[name]) == corpus.pinned()[name]


class TestEndCells:
    """Root pairs inside an interval's first or last cell are counted."""

    @pytest.mark.parametrize("oversample", [8, 16])
    def test_pair_in_first_cell(self, oversample):
        # its first two roots, 4.4e-4 and 1.26e-3, lie in the first cell of
        # both lattices
        a, b = draw_coefficient_batch(100, "stationary", 11, [9813])
        counts, warns = scan_count_batch(a, b, 100, (0.0, np.pi), oversample=oversample)
        assert counts[0] == 70 == _eigen_roots(a, b, 100, 0.0, np.pi)[0].size
        assert not warns.any()
        roots = count_zeros_scan(_vector(100, a[0], b[0]), (0.0, np.pi), oversample).roots
        assert roots.size == 70 and roots[1] < np.pi / (8 * 100)

    @pytest.mark.parametrize("oversample", [8, 16])
    def test_pair_in_last_cell_off_the_lattice(self, oversample):
        # the pair 1.5792/1.5830 lies just inside the end 1.58314
        a, b = draw_coefficient_batch(30, "stationary", 5, [302])
        interval = (0.0, 0.5 * np.pi + 0.01234)
        counts, _ = scan_count_batch(a, b, 30, interval, oversample=oversample)
        assert counts[0] == 13 == _eigen_roots(a, b, 30, *interval)[0].size
        roots = count_zeros_scan(_vector(30, a[0], b[0]), interval, oversample).roots
        assert roots.size == 13 and interval[1] - roots[-2] < 0.005

    @pytest.fixture(scope="class")
    def row47(self):
        # row 47 of the seed-0 stationary K = 400 batch; its first two
        # roots are 1.958e-4 and 5.738e-4
        a, b = draw_coefficient_batch(400, "stationary", 0, [47])
        return a[0], b[0]

    @pytest.mark.parametrize("oversample", [8, 16])
    def test_shifted_pair_in_first_cell(self, row47, oversample):
        # the path moved left by 1.5e-4 puts that pair (gap 3.8e-4) into the
        # first cell [0, pi / (16 * 400)] of oversample 16; the interval
        # moved left by 1.5e-4, with ends off the lattice, puts it into the
        # first cell of oversample 8
        a, b = row47
        n, s = np.arange(1, 401), 1.5e-4
        shifted = (a * np.cos(n * s) + b * np.sin(n * s), b * np.cos(n * s) - a * np.sin(n * s))
        for (ra, rb), interval in ((shifted, (0.0, np.pi)), ((a, b), (-s, np.pi - s))):
            counts, warns = scan_count_batch(ra[None], rb[None], 400, interval, oversample=oversample)
            assert counts[0] == 236 and not warns.any()
        roots = count_zeros_scan(_vector(400, *shifted), (0.0, np.pi), oversample).roots
        assert np.allclose(roots[:2], [1.958e-4 - s, 5.738e-4 - s], rtol=0.0, atol=1e-7)

    def test_stationary_eigen_oracle_agreement(self):
        # the K = 100 rows around index 9813 of seed 11, both lattices
        a, b = draw_coefficient_batch(100, "stationary", 11, range(9810, 9818))
        eig = [r.size for r in _eigen_roots(a, b, 100, 0.0, np.pi)]
        for oversample in (8, 16):
            counts, warns = scan_count_batch(a, b, 100, (0.0, np.pi), oversample=oversample)
            assert counts.tolist() == eig and not warns.any()


class TestRootCount:
    """Located roots are exactly the count-mode count, one per crossing."""

    def _check(self, cv, interval):
        res = count_zeros_scan(cv, interval)
        assert res.roots.size == res.count
        assert res.count == count_zeros_scan(cv, interval, locate_roots=False).count
        assert np.all(np.diff(res.roots) > 0)
        assert np.all((res.roots >= interval[0]) & (res.roots <= interval[1]))
        vals, _ = eval_path(cv, res.roots, rescaled=False)
        grid_vals, _ = eval_path(cv, np.linspace(0, 2 * np.pi, 2000), rescaled=False)
        assert np.max(np.abs(vals), initial=0.0) < 1e-9 * np.max(np.abs(grid_vals))

    @pytest.mark.parametrize("ensemble", ["cosine", "stationary"])
    @pytest.mark.parametrize("interval", [(0.0, np.pi), (0.3, 5.9)])
    def test_random_rows(self, ensemble, interval):
        for K in (5, 40, 200):
            for idx in range(10):
                self._check(draw_coefficients(K, ensemble, 12, idx), interval)

    def test_batch_roots_split_by_row(self):
        a, b = draw_coefficient_batch(20, "stationary", 13, range(16))
        counts, _, roots = _scan_batch(a, b, 20, 0.3, 5.9, 16, False, True)
        for r in range(16):
            one = count_zeros_scan(_vector(20, a[r], b[r]), (0.3, 5.9))
            assert roots[r].size == counts[r] == one.count
            assert np.allclose(roots[r], one.roots, rtol=0.0, atol=1e-11)

    # the touch points of TestTangency
    @pytest.mark.parametrize(
        "tstar", [1.0] + [(15 + f) * np.pi / 48 for f in (0.1, 0.35, 0.6, 0.85)]
    )
    def test_tangent_and_perturbed(self, tstar):
        cv, _ = TestTangency()._tangent_vector(tstar)
        self._check(cv, (0.0, np.pi))
        delta = 1e-6 / np.cos(tstar)
        self._check(_vector(3, cv.a - np.r_[delta, 0.0, 0.0]), (0.0, np.pi))


class TestValidation:
    def test_oversample_minimum(self):
        cv = draw_coefficients(5, "cosine", 0, 0)
        with pytest.raises(UsageError):
            count_zeros_scan(cv, (0.0, np.pi), oversample=4)
        with pytest.raises(UsageError):
            scan_count_batch(cv.a[None, :], None, 5, (0.0, np.pi), oversample=4)
        for oversample in (8.0, 16.5, True, "8"):
            with pytest.raises(UsageError, match="oversample"):
                count_zeros_scan(cv, (0.0, np.pi), oversample=oversample)

    def test_rows_of_another_degree(self):
        # a row of 5 coefficients is no degree-7 polynomial, and a 5-entry
        # vector is no degree-3 one: neither is counted as if it were
        with pytest.raises(UsageError, match="K = 7"):
            scan_count_batch(np.ones((1, 5)), None, 7, (0.0, 1.0))
        with pytest.raises(UsageError, match="K = 5"):
            scan_count_batch(np.ones((1, 5)), np.ones((1, 4)), 5, (0.0, 1.0))
        with pytest.raises(UsageError, match="K = 3"):
            count_zeros_eigen(CoefficientVector(3, np.ones(5), None), (0.0, 1.0))
        with pytest.raises(UsageError, match="K = 3"):
            CoefficientVector(3, np.ones(3), np.ones(2))

    def test_eigen_degree_budget(self):
        cv = draw_coefficients(300, "cosine", 0, 0)
        with pytest.raises(UsageError):
            count_zeros_eigen(cv, (0.0, np.pi))
        with pytest.raises(UsageError):
            oracle_agreement([300], 1, seed=0)

    def test_empty_interval(self):
        cv = draw_coefficients(5, "cosine", 0, 0)
        with pytest.raises(UsageError):
            count_zeros_scan(cv, (1.0, 1.0))
        # a non-finite end is no interval either (nan raised ValueError, inf OverflowError)
        for interval in ((0.0, np.nan), (0.0, np.inf), (-np.inf, 1.0)):
            with pytest.raises(UsageError, match="finite"):
                count_zeros_scan(cv, interval)
            with pytest.raises(UsageError, match="finite"):
                scan_count_batch(cv.a[None, :], None, 5, interval)


# intervals on the original axis; the rescaled axis multiplies them by K
_INTERVALS = {
    "half_period": (0.0, np.pi),
    "quarter_period": (0.0, 0.5 * np.pi),
    "off_lattice": (0.3, 2.9),
    "across_pi": (0.3, 5.9),
    "full_period": (0.0, 2.0 * np.pi),
}


def _beta(a, b, N):
    """The stated bound of the float32 lattice: eps_32 * log2 N * sum_n (|a_n| + |b_n|)."""
    norm = np.abs(a).sum(axis=1) + (0.0 if b is None else np.abs(b).sum(axis=1))
    return np.finfo(np.float32).eps * np.log2(N) * norm


def _direct_values(a, b, freqs, pts, block=2000):
    """Reference: the trigonometric sums at ``pts``, one block of points at a time."""
    out = []
    for s in range(0, pts.size, block):
        ang = np.multiply.outer(pts[s : s + block], freqs)
        v = np.cos(ang) @ a.T
        if b is not None:
            v += np.sin(ang) @ b.T
        out.append(v.T)
    return np.hstack(out)


class TestLatticeGrid:
    @pytest.mark.parametrize("K", [1, 7, 100, 1600])
    @pytest.mark.parametrize("ensemble", ["cosine", "stationary"])
    @pytest.mark.parametrize("rescaled", [False, True])
    @pytest.mark.parametrize("name", sorted(_INTERVALS))
    def test_fft_values_match_direct_sums(self, K, ensemble, rescaled, name):
        # the lattice runs in float32: its values are held to the stated
        # rounding bound beta, and grid values summed in float64 to 1e-11
        oversample = 16
        lo, hi = (x * K if rescaled else x for x in _INTERVALS[name])
        a, b = draw_coefficient_batch(K, ensemble, 11, range(3))
        freqs = _freqs(K, rescaled)
        N = 2 * oversample * K
        step = 2.0 * np.pi * (K if rescaled else 1.0) / N
        pts, grid, err, (cols, end_vals) = _scan_grid(a, b, freqs, N, step, lo, hi)
        # consecutive lattice points, the second at or below lo and the
        # second last at or above hi (exactly lo and hi on the lattice);
        # clipped to the interval, with the direct sums at ends off it, the
        # grid is lo, the lattice points strictly inside, and hi
        assert np.all(np.diff(np.rint(pts / step)) == 1)
        assert pts[1] <= lo < pts[2] and pts[-3] < hi <= pts[-2]
        vals = grid[:]
        vals[:, cols] = end_vals
        pts, vals = np.clip(pts, lo, hi)[1:-1], vals[:, 1:-1]
        assert pts[0] == lo and pts[-1] == hi
        j = np.rint(pts[1:-1] / step)
        assert np.array_equal(pts[1:-1], j * step)
        assert np.all(np.diff(j) == 1)
        assert pts[1] - lo <= step * (1 + 1e-9) and hi - pts[-2] <= step * (1 + 1e-9)
        # compare on at most ~2000 evenly spread points, ends included: the
        # grid's values, and the FFT lattice values of the kept points on
        # the lattice whichever route the grid took
        keep = np.unique(np.r_[np.arange(0, pts.size, max(1, pts.size // 2000)), pts.size - 1])
        want = _direct_values(a, b, freqs, pts[keep])
        row_max = np.max(np.abs(want), axis=1, keepdims=True)
        jk = np.rint(pts[keep] / step)
        on = np.abs(pts[keep] / step - jk) <= 1e-9
        lattice = _lattice_values(a, b, N, jk[on].astype(np.int64))
        beta = _beta(a, b, N)[:, None]
        ref = want[:, on]
        assert np.all(np.abs(lattice - ref) <= beta)
        clear = np.abs(ref) > beta
        assert np.array_equal((lattice > 0)[clear], (ref > 0)[clear])
        # grid values: lattice values on an FFT grid where |lattice| >= beta,
        # held to beta with signs exact outside it; float64 sums elsewhere
        # (table-route grids, ends off the lattice, re-valued lattice points),
        # held to 1e-11 of the row's largest value, with signs agreeing
        # wherever the path is not zero to rounding (K = 1 vanishes exactly
        # at pi/2 and 3pi/2, lattice points).  An FFT grid is float32, so its
        # float64 sums are also rounded once to float32
        fft = np.zeros(want.shape, dtype=bool)
        tol = 1e-11 * row_max
        if err.any():
            assert vals.dtype == np.float32
            assert np.allclose(err, beta[:, 0], rtol=1e-12, atol=0.0)
            fft[:, on] = np.abs(lattice) >= beta
            tol = 2.0**-24 * np.abs(want) + 1.0001e-11 * row_max
        else:
            assert vals.dtype == np.float64
            assert j.size * K < zeros._TABLE_CUT * N * np.log2(N)
        got = vals[:, keep]
        assert np.all(np.abs(got - want) <= np.where(fft, beta, tol))
        clear = np.abs(want) > np.where(fft, beta, 1e-14 * row_max)
        assert np.array_equal((got > 0)[clear], (want > 0)[clear])

    @pytest.mark.parametrize("ensemble", ["cosine", "stationary"])
    def test_gathered_values_equal_sliced_values(self, ensemble):
        # one ascending run of lattice indices is copied as a slice; indices
        # across pi (folded onto N - j by the cosine ensemble) and across 2 pi
        # (wrapped) are gathered, and must read the same values
        K, N = 40, 2 * 16 * 40
        a, b = draw_coefficient_batch(K, ensemble, 31, range(5))
        cosine = b is None
        top = N // 2 + 1 if cosine else N
        table = _lattice_values(a, b, N, np.arange(top))
        for j in (np.arange(N // 2 - 30, N // 2 + 31), np.arange(N - 30, N + 31)):
            col = np.mod(j, N)
            if cosine:
                col = np.minimum(col, N - col)
            assert np.array_equal(_lattice_values(a, b, N, j), table[:, col])


class TestBatchEngine:
    def test_batch_equals_single_rows(self):
        # a K = 3 batch holding the tangent path of TestTangency, so that
        # warning counts are compared too, and K = 40 batches off the lattice
        tangent = TestTangency()._tangent_vector()[0].a
        a3, _ = draw_coefficient_batch(3, "cosine", 21, range(64))
        a3[17] = tangent
        cases = [(3, a3, None, (0.0, np.pi))]
        for ensemble in ("cosine", "stationary"):
            a, b = draw_coefficient_batch(40, ensemble, 22, range(64))
            cases.append((40, a, b, (0.3, 2.9)))
        for K, a, b, interval in cases:
            counts, warns = scan_count_batch(a, b, K, interval)
            for r in range(a.shape[0]):
                cv = _vector(K, a[r], None if b is None else b[r])
                one = count_zeros_scan(cv, interval, locate_roots=False)
                assert counts[r] == one.count
                assert warns[r] == len(one.warnings)
            if K == 3:
                assert warns[17] == 1 and warns.sum() == 1

    @pytest.mark.parametrize(
        "K, ensemble, interval, reps",
        [
            (7, "cosine", (0.3, 2.9), 200),
            (64, "cosine", (0.3, 5.9), 40),
            (256, "cosine", (0.3, 2.9), 3),
            (7, "stationary", (0.3, 5.9), 200),
            (64, "stationary", (0.0, 2.0 * np.pi), 40),
            (256, "stationary", (0.3, 2.9), 3),
        ],
    )
    def test_eigen_oracle_agreement(self, K, ensemble, interval, reps):
        a, b = draw_coefficient_batch(K, ensemble, 23, range(reps))
        counts, warns = scan_count_batch(a, b, K, interval)
        assert not warns.any()
        eig = _eigen_roots(a, b, K, *interval)
        for r in range(reps):
            assert counts[r] == eig[r].size

    @pytest.mark.parametrize("K, hi", [(30, np.pi / 8), (1600, np.pi / 2)], ids=["30", "1600"])
    def test_empty_batch(self, K, hi):
        # K = 30 on [0, pi/8] takes the table route, K = 1600 on [0, pi/2]
        # the FFT
        counts, warns = scan_count_batch(np.zeros((0, K)), None, K, (0.0, hi))
        assert counts.shape == warns.shape == (0,)

    @pytest.fixture(scope="class")
    def k1600_chunk(self):
        # seed 0, replicates 0..255, K = 1600 on [0, pi/2): the first chunk
        # of the benchmark's large-K campaign
        a, _ = draw_coefficient_batch(1600, "cosine", 0, range(256))
        counts, warns = scan_count_batch(a, None, 1600, (0.0, 0.5 * np.pi))
        return a, counts, warns

    def test_pinned_k1600_counts(self, k1600_chunk):
        # counted before the FFT scan
        _, counts, warns = k1600_chunk
        assert int(counts.sum()) == 118438
        assert not warns.any()
        digest = hashlib.sha256(counts.astype("<i8").tobytes()).hexdigest()
        assert digest == "d7c8bb4343644bb699e3ad493cda76867f2fd4e7db753cbf9a6f521cb85203ca"

    def test_row_blocks_do_not_change_counts(self, k1600_chunk):
        # 37 rows from the middle of the chunk: not a multiple of the FFT,
        # classification or expansion row blocks, nor aligned with them
        a, counts, warns = k1600_chunk
        sub_counts, sub_warns = scan_count_batch(a[101:138], None, 1600, (0.0, 0.5 * np.pi))
        assert np.array_equal(sub_counts, counts[101:138])
        assert np.array_equal(sub_warns, warns[101:138])

    def test_row_blocks_do_not_change_grid_bits(self, k1600_chunk):
        # the same 37 rows: each row's float32 FFT values, re-summed values
        # and bound are the same bits alone as in the chunk
        a = k1600_chunk[0]
        N = 32 * 1600
        grid = (_freqs(1600, False), N, 2.0 * np.pi / N, 0.0, 0.5 * np.pi)
        _, vals, err, _ = _scan_grid(a, None, *grid)
        _, sub_vals, sub_err, _ = _scan_grid(a[101:138], None, *grid)
        assert sub_vals.dtype == np.float32
        assert np.count_nonzero(np.abs(sub_vals) < sub_err[:, None])  # re-summed values
        assert np.array_equal(sub_vals, vals[101:138])
        assert np.array_equal(sub_err, err[101:138])

    def test_k1600_row_against_colleague_matrix(self):
        # cos(n t) = T_n(cos t), so the roots in x = cos t of the Chebyshev
        # series [0, a_1, ..., a_K] that are real and lie in (0, 1] are the
        # zeros on [0, pi/2); an oracle at the campaign degree K = 1600
        K = 1600
        a, _ = draw_coefficient_batch(K, "cosine", 1, range(1))
        counts, warns = scan_count_batch(a, None, K, (0.0, 0.5 * np.pi))
        x = np.polynomial.chebyshev.chebroots(np.r_[0.0, a[0]])
        real = x[np.abs(x.imag) < 1e-7].real
        assert not warns.any()
        assert counts[0] == np.count_nonzero((real > 0.0) & (real <= 1.0))


class TestRealMoments:
    @pytest.mark.parametrize("ensemble", ["cosine", "stationary"])
    def test_moments_match_mpmath(self, ensemble):
        # Taylor moments about K = 1600 lattice points t = j * step against a
        # 40-digit sum with exact phases 2 pi (n j mod N) / N.  Column k is
        # sum_n g_k(n) * (C, -S, -C, S)[k mod 4] with g_k(n) = (n step)^k / k!,
        # C = a cos + b sin and S = a sin - b cos.  The bound allows each
        # term a rounding error of 2 eps times its size and its phase n t
        mpmath = pytest.importorskip("mpmath")
        K, cols = 1600, (0, 1, 2, 17)
        N = 2 * 16 * K
        step = 2.0 * np.pi / N
        j = np.array([1, 4321, 12799, 25599])
        a, b = draw_coefficient_batch(K, ensemble, 3, range(1))
        mom = _expansions(a, b, _freqs(K, False), np.zeros(j.size, dtype=int), j * step, step)
        n = np.arange(1, K + 1)
        size = np.abs(a[0]) + (0.0 if b is None else np.abs(b[0]))
        with mpmath.workdps(40):
            h = 2 * mpmath.pi / N
            g = {k: [(m * h) ** k / mpmath.factorial(k) for m in range(1, K + 1)] for k in cols}
            coef = [(mpmath.mpf(float(x)), 0 if b is None else mpmath.mpf(float(y)))
                    for x, y in zip(a[0], a[0] if b is None else b[0])]
            for p, jp in enumerate(j):
                phase = [2 * mpmath.pi * ((m * int(jp)) % N) / N for m in range(1, K + 1)]
                cs = [(mpmath.cos(x), mpmath.sin(x)) for x in phase]
                C = [an * c + bn * sn for (an, bn), (c, sn) in zip(coef, cs)]
                S = [an * sn - bn * c for (an, bn), (c, sn) in zip(coef, cs)]
                for k in cols:
                    sign, term = ((1, C), (-1, S), (-1, C), (1, S))[k % 4]
                    want = sign * mpmath.fsum(x * y for x, y in zip(g[k], term))
                    gk = (n * step) ** k / math.factorial(k)
                    bound = 2 * np.finfo(float).eps * np.sum(gk * size * (1.0 + n * j[p] * step))
                    assert abs(mom[p, k] - float(want)) <= bound, (k, int(jp))


def _lattice_values_f64(a, b, N, j):
    """Reference: the lattice values by double-precision FFTs.

    Each row is one FFT of length N with coefficient n at input index n, so
    output j is sum_n (a_n + i b_n) exp(-2 pi i n j / N), whose real part is
    the value; the cosine ensemble uses a real FFT and folds j > N/2 onto
    N - j.
    """
    from scipy import fft

    j = np.mod(j, N)
    B, K = a.shape
    if b is None:
        j = np.minimum(j, N - j)
        transform, width = fft.rfft, N // 2 + 1
    else:
        transform, width = fft.fft, N
    run = bool(np.all(np.diff(j) == 1))
    cols = slice(j[0], j[0] + j.size)
    rows = max(1, min(B, (1 << 16) // width))
    x = np.zeros((rows, N), dtype=float if b is None else complex)
    vals = np.empty((B, j.size))
    for s in range(0, B, rows):
        xs = x[: min(rows, B - s)]
        xs[:, 1 : K + 1] = a[s : s + rows]
        if b is not None:
            xs[:, 1 : K + 1] += 1j * b[s : s + rows]
        out = transform(xs).real
        vals[s : s + rows] = out[:, cols] if run else np.take(out, j, axis=1)
    return vals


@pytest.fixture
def float64_scan(monkeypatch):
    """Run a scan on the double-precision lattice with a zero rounding bound.

    With the bound at zero nothing is re-valued and the classification is
    the plain one: the scan as it was before the lattice went to float32.
    """

    def run(fn, *args):
        with monkeypatch.context() as m:
            m.setattr(zeros, "_lattice_values", _lattice_values_f64)
            m.setattr(zeros, "_FFT_EPS", 0.0)
            return fn(*args)

    return run


class TestMixedPrecision:
    """The float32 lattice gives the counts and warnings of the float64 one."""

    @pytest.fixture(autouse=True)
    def fft_route(self, monkeypatch):
        # these grids are short enough for the table route: force the FFT
        monkeypatch.setattr(zeros, "_TABLE_CUT", 0.0)

    # (K, ensemble, seed, rows, interval, locate)
    CASES = [
        *[(100, "cosine", seed, 128, (0.0, np.pi), False) for seed in (0, 1, 2)],
        (1600, "cosine", 0, 64, (0.0, 0.5 * np.pi), False),
        (40, "cosine", 4, 64, (0.3, 2.9), True),
        (40, "stationary", 4, 64, (0.3, 2.9), True),
    ]

    @pytest.mark.parametrize("K, ensemble, seed, rows, interval, locate", CASES)
    def test_counts_match_float64_lattice(self, float64_scan, K, ensemble, seed, rows, interval, locate):
        a, b = draw_coefficient_batch(K, ensemble, seed, range(rows))
        args = (a, b, K, *interval, 16, False, locate)
        counts, tangencies, roots = _scan_batch(*args)
        ref_counts, ref_tangencies, ref_roots = float64_scan(_scan_batch, *args)
        assert np.array_equal(counts, ref_counts)
        for got, want in zip(tangencies, ref_tangencies):
            assert np.array_equal(got, want)
        if locate:
            for got, want in zip(roots, ref_roots):
                assert got.size == want.size
                assert np.all(np.abs(got - want) <= 1e-12)
        # the suspects of the float64 grid are all suspects of the mixed one
        freqs, N = _freqs(K, False), 32 * K
        grid = (a, b, freqs, N, 2.0 * np.pi / N, *interval)
        _, vals, err, _ = _scan_grid(*grid)
        _, ref_vals, ref_err, _ = float64_scan(_scan_grid, *grid)
        assert err.any() and not ref_err.any()
        mixed = _classify(vals, err, False)
        ref = _classify(ref_vals, ref_err, False)
        assert np.array_equal(mixed[0], ref[0])
        P = vals.shape[1]
        assert np.all(np.isin(ref[2] * P + ref[3], mixed[2] * P + mixed[3]))

    def test_grid_storage_keeps_signs(self):
        # float64 sums are stored in a float32 grid by one rounding; values
        # that would underflow keep their sign as the least subnormal
        v = np.array([1e-50, -1e-50, 3e-39, -3e-39, 0.0, 1.5, -2.5])
        got = zeros._to_grid(v, np.float32)
        assert got.dtype == np.float32
        assert np.array_equal(np.sign(got), np.sign(v))
        assert np.all(np.abs(got[:2]) == np.finfo(np.float32).smallest_subnormal)
        assert np.array_equal(got[2:], v[2:].astype(np.float32))

    @pytest.mark.parametrize("ensemble", ["cosine", "stationary"])
    def test_lattice_error_far_below_bound(self, ensemble):
        # the stated bound is loose: about 1% of it is reached at K = 1600
        K, N = 1600, 32 * 1600
        a, b = draw_coefficient_batch(K, ensemble, 0, range(8))
        j = np.arange(N // 2 + 1 if b is None else N)
        got = _lattice_values(a, b, N, j)
        want = _lattice_values_f64(a, b, N, j)
        assert np.all(np.max(np.abs(got - want), axis=1) <= 0.1 * _beta(a, b, N))

    # cos t, which vanishes at the lattice point pi/2, and two touch points
    # of TestTangency within 0.13 steps of a lattice point, with their
    # perturbed pairs; padded with zero coefficients to K = 64 so that the
    # grid comes from the lattice
    @pytest.mark.parametrize(
        "tstar, delta", [(None, 0.0)] + [(t, d) for t in (1.0, 15.1 * np.pi / 48) for d in (0.0, 1e-6)]
    )
    def test_near_zero_values_resummed(self, float64_scan, tstar, delta):
        K, N = 64, 2 * 16 * 64
        step = 2.0 * np.pi / N
        if tstar is None:
            head = np.r_[1.0, 0.0, 0.0]
        else:
            head = TestTangency()._tangent_vector(tstar)[0].a - np.r_[delta / np.cos(tstar), 0.0, 0.0]
        a = np.zeros((1, K))
        a[0, :3] = head
        freqs = _freqs(K, False)
        pts, vals, err, _ = _scan_grid(a, None, freqs, N, step, 0.0, np.pi)
        pts, vals = pts[1:-1], vals[:, 1:-1]  # without the outer points
        raw = _lattice_values(a, None, N, np.arange(pts.size))
        small = np.flatnonzero(np.abs(raw[0]) < err[0])
        assert small.size
        # re-summed in float64 over the roots of unity, rounded once to float32
        resummed = zeros._lattice_sums(a, None, N, np.zeros(small.size, dtype=int), small)
        assert np.array_equal(vals[0, small], resummed.astype(np.float32))
        want = _direct_values(a, None, freqs, pts)[0]
        assert np.all(np.abs(resummed - want[small]) <= 1e-11 * np.max(np.abs(want)))
        cv = _vector(K, a[0])
        res = count_zeros_scan(cv, (0.0, np.pi))
        ref = float64_scan(count_zeros_scan, cv, (0.0, np.pi))
        assert res.count == ref.count == res.roots.size
        assert res.warnings == ref.warnings
        assert np.all(np.abs(res.roots - ref.roots) <= 1e-12)
        if tstar is None:
            assert res.count == 1 and abs(res.roots[0] - 0.5 * np.pi) < 1e-12
        elif delta == 0.0:
            assert len(res.warnings) == 1
        else:
            assert res.count == count_zeros_eigen(cv, (0.0, np.pi)).count


class TestRoutes:
    """The table and FFT routes give the same counts, warnings and roots."""

    @pytest.mark.parametrize("K, rows", [(7, 64), (40, 32), (100, 16), (250, 8)])
    @pytest.mark.parametrize("ensemble", ["cosine", "stationary"])
    @pytest.mark.parametrize("name", ["half_period", "off_lattice", "across_pi", "full_period", "rescaled"])
    def test_routes_agree(self, monkeypatch, K, rows, ensemble, name):
        # "rescaled" is the half period on the rescaled axis, [0, K pi]
        rescaled = name == "rescaled"
        lo, hi = (0.0, K * np.pi) if rescaled else _INTERVALS[name]
        a, b = draw_coefficient_batch(K, ensemble, 41, range(rows))
        freqs, N = _freqs(K, rescaled), 32 * K
        step = 2.0 * np.pi * (K if rescaled else 1.0) / N
        monkeypatch.setattr(zeros, "_TABLE_CUT", np.inf)
        counts, tangencies, roots = _scan_batch(a, b, K, lo, hi, 16, rescaled, True)
        pts, grid, err, _ = _scan_grid(a, b, freqs, N, step, lo, hi)
        vals = grid[:]
        monkeypatch.setattr(zeros, "_TABLE_CUT", 0.0)
        ref_counts, ref_tangencies, ref_roots = _scan_batch(a, b, K, lo, hi, 16, rescaled, True)
        assert np.array_equal(counts, ref_counts)
        for got, want in zip(tangencies, ref_tangencies):
            assert np.array_equal(got, want)
        for got, want in zip(roots, ref_roots):
            assert got.size == want.size
            assert np.all(np.abs(got - want) <= 1e-12)
        assert not err.any()
        want = _direct_values(a, b, freqs, pts)
        assert np.all(np.abs(vals - want) <= 1e-11 * np.max(np.abs(want), axis=1, keepdims=True))

    def test_tables_read_only_and_bounded(self):
        info = zeros._lattice_table.cache_info()
        assert info.maxsize is not None
        tables = [zeros._lattice_table(8, 256, 0, j1, True) for j1 in range(info.maxsize + 1)]
        assert zeros._lattice_table.cache_info().currsize == info.maxsize
        n, j = np.arange(1, 9)[:, None], np.arange(info.maxsize + 1)
        want = np.vstack((np.cos(2.0 * np.pi * n * j / 256), np.sin(2.0 * np.pi * n * j / 256)))
        assert np.allclose(tables[-1], want, rtol=0.0, atol=1e-15)
        for table in tables:
            with pytest.raises(ValueError):
                table[0, 0] = 1.0


class TestClassifyBound:
    """Values off by at most err keep every suspect of the exact values."""

    # rows of exact values whose triple at index 1..3 sits on the edge of a
    # test: a near tie of |v| between the middle point and a neighbour, an
    # extremum estimate at its margin, and second differences within 4 err
    # of zero; values below err are re-valued in float64 by the scan, so
    # only the others are perturbed
    ERR = 1e-3
    ROWS = [
        [9.0, 5.0, 0.5, 0.5 + 0.5e-3, 5.0, 9.0],
        [9.0, 1.5, 0.5, 1.5, 9.0, 9.0],
        [9.0, 3e-4 + 1.5e-3, 3e-4, 3e-4 + 1.5e-3, 9.0, 9.0],
        [-9.0, -2e-4 - 1.5e-3, -2e-4, -2e-4 - 1e-3, -9.0, -9.0],
    ]

    @pytest.mark.parametrize("row", range(len(ROWS)))
    def test_suspects_survive_every_perturbation(self, row):
        exact = np.array([self.ROWS[row]])
        _, _, rows, idx, _, _ = _classify(exact, np.zeros(1), False)
        assert idx.size  # each edge case is a suspect of the exact values
        e = np.full(1, self.ERR)
        for shift in np.array(np.meshgrid(*[(-1.0, 0.0, 1.0)] * 3)).reshape(3, -1).T:
            vals = exact.copy()
            vals[0, 1:4] += np.where(np.abs(exact[0, 1:4]) >= self.ERR, 0.999 * self.ERR * shift, 0.0)
            _, _, r, i, _, _ = _classify(vals, e, False)
            assert set(zip(rows, idx)) <= set(zip(r, i)), shift
