"""Campaign mechanics: determinism, mergeable moments, normality harness."""

import math
from functools import reduce

import numpy as np
import pytest

from trigzero import experiments, zeros
from trigzero.errors import CampaignError, UsageError
from trigzero.experiments import (
    MAX_DEGREE,
    ExperimentConfig,
    IntervalSpec,
    clt_test,
    run_campaign,
    window_chop_check,
)
from trigzero.rice import rice_mean
from trigzero.rice import window_bounds
from trigzero.sampling import draw_coefficient_batch, draw_coefficients
from trigzero.zeros import count_zeros_scan, scan_count_batch


def _config(**kw):
    base = dict(
        K_list=(30,),
        replicates=400,
        interval=IntervalSpec("original", 0.0, np.pi),
        alpha=0.25,
        seed=5,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestCampaign:
    def test_degenerate_degree_one(self):
        res = run_campaign(_config(K_list=(1,), replicates=50))
        row = res.summaries[0]
        assert all(c == 1 for c in res.counts[0])
        assert row.variance == 0.0

    @pytest.mark.parametrize("threads, want", [("100000", 4), ("3", 3), ("0", 4)])
    def test_worker_count_clamped_to_cores(self, monkeypatch, threads, want):
        # asks for the count only; no thread is started
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 4)
        monkeypatch.setenv("TRIGZERO_THREADS", threads)
        assert experiments.worker_count() == want

    def test_deterministic_across_worker_counts(self, monkeypatch):
        monkeypatch.setenv("TRIGZERO_THREADS", "1")
        r1 = run_campaign(_config())
        monkeypatch.setenv("TRIGZERO_THREADS", "3")
        r3 = run_campaign(_config())
        assert r1.counts[0].tolist() == r3.counts[0].tolist()
        assert r1.summaries[0].mean == r3.summaries[0].mean
        assert r1.summaries[0].variance == r3.summaries[0].variance

    def test_mean_matches_rice_integral(self):
        for K in (40, 100):
            res = run_campaign(_config(K_list=(K,), replicates=3000))
            row = res.summaries[0]
            want = rice_mean(K).value
            assert abs(row.mean - want) < 4.0 * row.se_mean

    def test_mean_leading_order_at_k200(self):
        res = run_campaign(_config(K_list=(200,), replicates=4000))
        ratio = res.summaries[0].mean / (200.0 / math.sqrt(3.0))
        assert 0.99 <= ratio <= 1.01

    def test_two_degrees_two_rows(self):
        res = run_campaign(_config(K_list=(20, 40), replicates=100))
        assert [row.K for row in res.summaries] == [20, 40]
        assert sum(c.size for c in res.counts) == 200

    def test_validation(self):
        with pytest.raises(UsageError):
            run_campaign(_config(replicates=1))
        with pytest.raises(UsageError):
            run_campaign(_config(alpha=0.7, interval=IntervalSpec("window")))
        for K_list in ((0,), (-3,), (20, 0), (10, 10), (20, 10, 20)):
            with pytest.raises(UsageError):
                run_campaign(_config(K_list=K_list))
        # refused by validate itself, not by the first draw inside the thread pool
        for field, value, named in (
            ("seed", -1, "seed"),
            ("seed", 1 << 64, "seed"),
            ("ensemble", "foo", "ensemble"),
            ("K_list", (2.5,), "degree K"),
        ):
            with pytest.raises(UsageError, match=named):
                _config(**{field: value}).validate()
        _config(seed=(1 << 64) - 1, ensemble="stationary").validate()

    @pytest.mark.parametrize(
        "kw",
        [
            {"interval": IntervalSpec("original", 1.0, 0.5)},
            {"interval": IntervalSpec("original", math.nan, 1.0)},
            {"interval": IntervalSpec("bogus")},
            {"K_list": (200, 1), "interval": IntervalSpec("window"), "alpha": 0.49},
        ],
        ids=["reversed", "nan-end", "unknown-kind", "empty-window-of-a-later-degree"],
    )
    def test_bad_interval_refused_before_any_draw(self, monkeypatch, kw):
        # every degree's interval is resolved by validate, so nothing is drawn
        # for a request that a later degree's interval makes invalid
        drawn = []
        monkeypatch.setattr(experiments, "draw_coefficient_batch", lambda *args: drawn.append(args))
        with pytest.raises(UsageError):
            run_campaign(_config(**kw))
        assert drawn == []

    @pytest.mark.parametrize("interval", [(0.0, 1.0), "0:pi", None])
    def test_interval_must_be_an_interval_spec(self, interval):
        with pytest.raises(UsageError, match="interval must be an IntervalSpec"):
            ExperimentConfig((5,), 4, interval=interval).validate()

    def test_replicates_beyond_the_index_range(self):
        # replicate indices are 56 bits of the Philox key: a larger request
        # is refused up front rather than submitted chunk by chunk
        _config(replicates=1 << 56).validate()
        with pytest.raises(UsageError, match="56-bit"):
            _config(replicates=(1 << 56) + 1).validate()
        with pytest.raises(UsageError, match="56-bit"):
            run_campaign(_config(replicates=(1 << 56) + 1))

    def test_missing_degree_is_named(self):
        with pytest.raises(UsageError, match="degree K"):
            _config(K_list=()).validate()

    @pytest.mark.parametrize("K_list", [5, None, iter([5])], ids=["int", "None", "iterator"])
    def test_degree_list_that_is_no_collection_is_refused(self, K_list):
        with pytest.raises(UsageError, match="K_list"):
            _config(K_list=K_list).validate()

    def test_arrays_aligned_with_summaries(self):
        res = run_campaign(_config(K_list=(20, 40), replicates=300))
        for row, counts, warns in zip(res.summaries, res.counts, res.warnings):
            assert counts.dtype == warns.dtype == np.int64
            assert counts.shape == warns.shape == (300,)
            assert row.n_used == np.count_nonzero(warns == 0)
            assert row.mean == pytest.approx(counts[warns == 0].mean(), rel=1e-12)
        assert res.exclusion_fraction == 0.0


def _chunk_moments(counts):
    return [experiments._moments(counts[i : i + 256]) for i in range(0, counts.size, 256)]


class TestStreamingMoments:
    counts = np.random.default_rng(1).poisson(40, size=999)

    def test_matches_batch_recomputation(self):
        n, mean, m2, m3, m4 = experiments._moments(self.counts)
        merged = reduce(experiments._merge, _chunk_moments(self.counts))
        assert merged[0] == n == self.counts.size
        assert merged[1:3] == pytest.approx((mean, m2), rel=1e-12)
        assert merged[3] == pytest.approx(m3, rel=1e-12, abs=1e-12 * m2 ** 1.5)
        assert merged[4] == pytest.approx(m4, rel=1e-12)
        # clt_test reads its empirical variance from here: numpy's, bit for bit
        assert m2 / (n - 1) == self.counts.astype(float).var(ddof=1)
        d = self.counts - self.counts.mean()
        assert (m3, m4) == pytest.approx((np.sum(d ** 3), np.sum(d ** 4)), rel=1e-12)

    def test_merge_with_empty_batch(self):
        empty = experiments._moments(np.array([], dtype=np.int64))
        assert empty == (0, 0.0, 0.0, 0.0, 0.0)
        for part in _chunk_moments(self.counts):
            assert experiments._merge(part, empty) == part
            assert experiments._merge(empty, part) == part

    def test_merge_order_independent(self):
        parts = _chunk_moments(self.counts)
        want = reduce(experiments._merge, parts)
        rng = np.random.default_rng(3)
        for _ in range(5):
            order = rng.permutation(len(parts))
            got = reduce(experiments._merge, [parts[i] for i in order])
            assert got[0] == want[0]
            assert got[1:3] == pytest.approx(want[1:3], rel=1e-13)
            assert got[3] == pytest.approx(want[3], rel=1e-11, abs=1e-12 * want[2] ** 1.5)
            assert got[4] == pytest.approx(want[4], rel=1e-11)


class TestCltHarness:
    def test_calibration_on_synthetic_normals(self):
        # feeding exact normal draws: p-values behave like a null sample
        K = 100
        passes = 0
        rng = np.random.default_rng(2025)
        for _ in range(100):
            counts = 58.0 + math.sqrt(math.pi * K) * rng.normal(size=1000)
            rep = clt_test(counts, K)
            passes += rep.p_value > 0.01
        assert passes >= 98

    def test_small_K_report_produced(self):
        res = run_campaign(_config(K_list=(10,), replicates=2000))
        rep = res.summaries[0].normality
        assert rep is not None and 0.0 <= rep.p_value <= 1.0

    def test_minimum_replicates(self):
        with pytest.raises(UsageError):
            clt_test(np.ones(100), 10)

    def test_degenerate_sample(self):
        # equal counts have no spread to test against an empirical null
        with pytest.raises(UsageError, match="sample is degenerate"):
            clt_test(np.full(600, 30), 30)

    def test_variance_sources(self):
        rng = np.random.default_rng(0)
        counts = 100.0 + rng.normal(size=600) * 10.0
        emp = clt_test(counts, 50)
        fixed = clt_test(counts, 50, variance=emp.variance_used)
        assert (emp.variance_source, fixed.variance_source) == ("empirical", "chaos_constant")
        assert fixed.variance_used == emp.variance_used
        assert fixed.ks_statistic == pytest.approx(emp.ks_statistic, rel=1e-12)

    @pytest.mark.parametrize("variance", [math.nan, math.inf, 0.0, -1.0])
    def test_chaos_value_must_be_finite_and_positive(self, variance):
        counts = 100.0 + np.random.default_rng(0).normal(size=600) * 10.0
        with pytest.raises(UsageError, match="null variance must be finite and positive"):
            clt_test(counts, 50, variance=variance)


class TestWindowChop:
    def test_partition_additivity(self):
        # window plus complement counts reproduce the full-interval count
        K, alpha = 30, 0.25
        edge = (K * np.pi) ** alpha / K
        for idx in range(50):
            cv = draw_coefficients(K, "cosine", 77, idx)
            full = count_zeros_scan(cv, (0.0, np.pi), locate_roots=False).count
            left = count_zeros_scan(cv, (0.0, edge), locate_roots=False).count
            mid = count_zeros_scan(cv, (edge, np.pi - edge), locate_roots=False).count
            right = count_zeros_scan(cv, (np.pi - edge, np.pi), locate_roots=False).count
            assert left + mid + right == full

    def test_report_fields(self):
        rep = window_chop_check(100, 0.25, 300, seed=1)
        assert rep.K == 100 and rep.replicates == 300
        assert rep.ratio == pytest.approx(rep.mean_complement / math.sqrt(100 * math.pi))
        assert rep.var_complement >= 0.0

    def test_tiny_alpha_gives_tiny_ratio(self):
        rep = window_chop_check(100, 0.01, 300, seed=1)
        assert rep.ratio < 0.02

    def test_alpha_validation(self):
        with pytest.raises(UsageError):
            window_chop_check(100, 0.6, 10)

    @pytest.mark.parametrize("K", [0, -3])
    def test_degree_below_one(self, K):
        with pytest.raises(UsageError):
            window_chop_check(K, 0.25, 10)

    @pytest.mark.parametrize("replicates", [0, 1, -5])
    def test_too_few_replicates(self, replicates):
        # one replicate has no sample variance; none has no moments at all
        with pytest.raises(UsageError):
            window_chop_check(30, 0.25, replicates)

    def test_replicates_beyond_the_index_range(self):
        with pytest.raises(UsageError, match="56-bit"):
            window_chop_check(30, 0.25, (1 << 56) + 1)

    def test_refuses_what_a_campaign_refuses(self, monkeypatch):
        # one rule set: the window-chop request is validated as the campaign
        # config of the window, so both refuse with the same message
        def never(*args):
            raise AssertionError("an invalid request reached the count engine")

        monkeypatch.setattr(experiments, "_count_chunks", never)
        requests = [
            (0, 0.25, 10),
            (-3, 0.25, 10),
            (30, 0.25, 1),
            (30, 0.25, (1 << 56) + 1),
            (30, 0.0, 10),
            (30, 0.6, 10),
            (MAX_DEGREE + 1, 0.25, 10),
        ]
        for K, alpha, replicates in requests:
            with pytest.raises(UsageError) as campaign:
                run_campaign(
                    ExperimentConfig(
                        K_list=(K,), replicates=replicates, interval=IntervalSpec("window"), alpha=alpha
                    )
                )
            with pytest.raises(UsageError) as chop:
                window_chop_check(K, alpha, replicates)
            assert str(chop.value) == str(campaign.value), (K, alpha, replicates)

    def test_empty_window_refused_before_any_draw(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(experiments, "draw_coefficient_batch", lambda *args: drawn.append(args))
        with pytest.raises(UsageError, match="window is empty"):
            window_chop_check(1, 0.49, 10)
        assert drawn == []

    def test_scans_at_the_count_density(self, monkeypatch):
        # both tails on the lattice every campaign counts on
        seen, real = [], experiments.scan_count_batch

        def spy(a, b, K, interval, **kw):
            seen.append(kw["oversample"])
            return real(a, b, K, interval, **kw)

        monkeypatch.setattr(experiments, "scan_count_batch", spy)
        window_chop_check(100, 0.25, 300, seed=1)
        assert seen == [8] * 4
        assert zeros.OVERSAMPLE == 8

    def test_moments_are_the_campaign_fold(self):
        # the replicate-order fold of each chunk's moments, bit for bit; at
        # this request the moments of the whole array differ in the last bit
        K, reps, seed = 400, 1500, 5
        rep = window_chop_check(K, 0.25, reps, seed=seed)
        lo, hi = IntervalSpec("window").bounds_original(K, 0.25)
        chunks = experiments._count_chunks(K, "cosine", seed, reps, [(0.0, lo), (hi, math.pi)])
        n, mean, m2, _, _ = reduce(experiments._merge, (experiments._moments(c[w == 0]) for c, w in chunks))
        assert (rep.mean_complement, rep.var_complement) == (mean, m2 / (n - 1))
        whole = experiments._moments(np.concatenate([c[w == 0] for c, w in chunks]))
        assert rep.mean_complement != whole[1]

    def test_worker_count_does_not_matter(self, monkeypatch):
        reports = []
        for workers in ("1", "3"):
            monkeypatch.setenv("TRIGZERO_THREADS", workers)
            reports.append(window_chop_check(40, 0.25, 600, seed=4))
        assert reports[0] == reports[1]

    def test_tangent_rows_left_out(self, monkeypatch):
        # flag replicate 7 on the left interval only, one of 1200 rows (under
        # the 0.1% exclusion cap); the report must be the moments of the
        # other rows
        K, reps, seed = 30, 1200, 1
        real = experiments.scan_count_batch
        flagged = draw_coefficient_batch(K, "cosine", seed, [7])[0][0]

        def flagging(a, b, K, interval, **kw):
            counts, warns = real(a, b, K, interval, **kw)
            if interval[0] == 0.0:
                warns = warns + np.all(a == flagged, axis=1)
            return counts, warns

        monkeypatch.setattr(experiments, "scan_count_batch", flagging)
        rep = window_chop_check(K, 0.25, reps, seed=seed)
        w0, w1 = window_bounds(K, 0.25)
        a, _ = draw_coefficient_batch(K, "cosine", seed, range(reps))
        totals = sum(scan_count_batch(a, None, K, iv)[0] for iv in ((0.0, w0 / K), (w1 / K, np.pi)))
        kept = np.delete(totals, [7]).astype(float)
        root = math.sqrt(K * math.pi)
        assert rep.replicates == reps
        assert rep.mean_complement == pytest.approx(kept.mean(), rel=1e-12)
        assert rep.var_complement == pytest.approx(kept.var(ddof=1), rel=1e-10)
        se = math.sqrt(kept.var(ddof=1) / kept.size)
        assert rep.se_ratio == pytest.approx(se / root, rel=1e-10)

    @pytest.mark.parametrize("flag_every", [1, 150])
    def test_exclusions_over_cap_raise(self, monkeypatch, flag_every):
        # every row warned (no clean replicate left), or row 7 of every 150
        # (1%): the check refuses, as a campaign does, by the same rule
        real = experiments.scan_count_batch

        def flagging(a, b, K, interval, **kw):
            counts, warns = real(a, b, K, interval, **kw)
            return counts, warns + (np.arange(a.shape[0]) % flag_every == 7 % flag_every)

        monkeypatch.setattr(experiments, "scan_count_batch", flagging)
        with pytest.raises(CampaignError, match="excluded at K=30"):
            window_chop_check(30, 0.25, 300, seed=1)
        with pytest.raises(CampaignError, match="excluded at K=30"):
            run_campaign(_config(replicates=300))
