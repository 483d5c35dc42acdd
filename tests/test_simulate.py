"""Monte Carlo machinery: samplers, block dependence, experiment driver."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import spearmanr

from detectability import (
    Categorical,
    DependenceSpec,
    ExperimentConfig,
    rescale_blocks,
    run_experiment,
    log_likelihood_ratio,
    roc_from_scores,
    sample_iid,
    sample_noniid,
    trial_rng,
    tv_distance,
)
from detectability.simulate import _CHUNK_CELLS, _chunk_trials

BERN_6 = Categorical.bernoulli(0.6)
BERN_5 = Categorical.bernoulli(0.5)
TRI = Categorical([0.2, 0.3, 0.5])


def pooled_frequencies(counts):
    """Share of each index over every draw of a count matrix."""
    return counts.sum(axis=0) / counts.sum()


class TestSampleIid:
    def test_point_mass(self):
        rng = np.random.default_rng(0)
        counts = sample_iid(Categorical([0.0, 1.0, 0.0]), 1000, 7, rng)
        assert (counts == [0, 1000, 0]).all()

    def test_values_in_support(self):
        counts = sample_iid(TRI, 17, 500, np.random.default_rng(2))
        assert counts.shape == (500, 3)
        assert counts.dtype.kind == "i"
        assert counts.min() >= 0
        assert (counts.sum(axis=1) == 17).all()

    def test_frequencies_match(self):
        counts = sample_iid(TRI, 1000, 1000, np.random.default_rng(1))
        draws = counts.sum()
        for k, p in enumerate(TRI.probs):
            freq = pooled_frequencies(counts)[k]
            assert abs(freq - p) < 4 * math.sqrt(p * (1 - p) / draws)

    def test_deterministic_under_seed(self):
        a = sample_iid(TRI, 50, 40, np.random.default_rng(42))
        b = sample_iid(TRI, 50, 40, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)


class TestRescaleBlocks:
    def test_exact_fit_cycles_pattern(self):
        dep = DependenceSpec([(3, 0.5), (2, 0.1)])
        out = rescale_blocks(dep, 10)
        assert out.blocks == ((3, 0.5), (2, 0.1), (3, 0.5), (2, 0.1))

    def test_truncates_final_block(self):
        dep = DependenceSpec([(4, 0.9)])
        out = rescale_blocks(dep, 10)
        assert out.blocks == ((4, 0.9), (4, 0.9), (2, 0.9))
        assert out.n == 10

    def test_identity_when_lengths_agree(self):
        dep = DependenceSpec([(5, 0.3), (5, 0.7)])
        assert rescale_blocks(dep, 10).blocks == dep.blocks

    def test_n_smaller_than_first_block(self):
        dep = DependenceSpec([(10, 0.5)])
        assert rescale_blocks(dep, 3).blocks == ((3, 0.5),)


class TestSampleNoniid:
    def test_rho_one_blocks_are_constant(self):
        # under full coupling each block repeats one symbol, so every index
        # is counted a whole number of blocks
        dep = DependenceSpec([(5, 1.0)] * 20)
        counts = sample_noniid(TRI, dep, 300, np.random.default_rng(3))
        assert counts.shape == (300, 3)
        assert (counts.sum(axis=1) == 100).all()
        assert (counts % 5 == 0).all()
        assert (counts % 10 != 0).any()  # blocks do vary within a set

    def test_rho_zero_matches_marginal(self):
        dep = rescale_blocks(DependenceSpec([(5, 0.0)]), 500)
        counts = sample_noniid(TRI, dep, 2000, np.random.default_rng(4))
        draws = counts.sum()
        for k, p in enumerate(TRI.probs):
            freq = pooled_frequencies(counts)[k]
            assert abs(freq - p) < 4 * math.sqrt(p * (1 - p) / draws)

    def test_marginal_preserved_under_dependence(self):
        # copying earlier draws leaves each position marginally distributed
        # as the base distribution; the tolerance counts blocks, not draws
        dep = rescale_blocks(DependenceSpec([(4, 0.7)]), 400)
        counts = sample_noniid(TRI, dep, 1500, np.random.default_rng(5))
        for k, p in enumerate(TRI.probs):
            freq = pooled_frequencies(counts)[k]
            assert abs(freq - p) < 4 * math.sqrt(p * (1 - p) / (counts.sum() / 4))

    def test_pair_match_rate(self):
        # in a block of 2 with coupling rho, P(x1 == x2) =
        # rho + (1 - rho) sum_k p_k^2; a match is a count of 2
        rho = 0.5
        sets = 400_000
        counts = sample_noniid(
            TRI, DependenceSpec([(2, rho)]), sets, np.random.default_rng(6)
        )
        match = (counts == 2).any(axis=1).mean()
        expect = rho + (1 - rho) * float((TRI.probs**2).sum())
        assert abs(match - expect) < 4 * math.sqrt(expect * (1 - expect) / sets)

    def test_unequal_blocks_keep_their_copy_structure(self):
        # blocks of 2 and 3 under full coupling: each index is counted as a
        # sum of whole blocks, so only 0, 2, 3 or 5 can occur
        dep = DependenceSpec([(2, 1.0), (3, 1.0)])
        counts = sample_noniid(TRI, dep, 20_000, np.random.default_rng(8))
        assert (counts.sum(axis=1) == 5).all()
        assert set(np.unique(counts).tolist()) == {0, 2, 3, 5}

    def test_matches_per_set_loop_on_the_same_uniforms(self):
        # reference: replay the documented stream (fresh, coin and pick
        # uniforms per position) one set and one position at a time
        dep = DependenceSpec([(4, 0.6), (1, 0.3), (3, 0.9), (2, 0.0)])
        sets = 50
        got = sample_noniid(TRI, dep, sets, np.random.default_rng(9))
        fresh_u, coin_u, pick_u = np.random.default_rng(9).random((3, sets, dep.n))
        cdf = np.cumsum(TRI.probs)
        for t in range(sets):
            xs = []
            for c, rho in dep.blocks:
                head = len(xs)
                for i in range(c):
                    j = head + i
                    if i > 0 and coin_u[t, j] < rho:
                        xs.append(xs[head + min(int(pick_u[t, j] * i), i - 1)])
                    else:
                        xs.append(min(int(np.searchsorted(cdf, fresh_u[t, j], side="right")), 2))
            np.testing.assert_array_equal(got[t], np.bincount(xs, minlength=3))

    def test_deterministic_under_seed(self):
        dep = DependenceSpec([(3, 0.4)] * 7)
        a = sample_noniid(TRI, dep, 30, np.random.default_rng(7))
        b = sample_noniid(TRI, dep, 30, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)


class TestTrialRng:
    def test_streams_are_distinct(self):
        draws = {
            (n, c, chunk): trial_rng(9, n, c, chunk).random()
            for n in (1, 2)
            for c in (0, 1)
            for chunk in (0, 1, 2)
        }
        assert len(set(draws.values())) == len(draws)

    def test_streams_are_stable(self):
        assert trial_rng(9, 2, 1, 5).random() == trial_rng(9, 2, 1, 5).random()

    def test_chunk_size_counts_max_of_n_and_support(self):
        assert _chunk_trials(1, 1) == _CHUNK_CELLS
        assert _chunk_trials(1, 2) == _CHUNK_CELLS // 2
        assert _chunk_trials(300, 2) == _CHUNK_CELLS // 300
        assert _chunk_trials(4, 1000) == _CHUNK_CELLS // 1000
        assert _chunk_trials(10 * _CHUNK_CELLS, 2) == 1

    @pytest.mark.parametrize("dependence", [None, DependenceSpec([(4, 0.5)])])
    def test_run_follows_the_chunk_stream_contract(self, dependence):
        # chunk j of (seed, n, class) is sampled and scored from
        # trial_rng(seed, n, class, j); rebuilding every chunk by hand must
        # reproduce the run's AUROC exactly
        n, trials, seed = 300, 500, 4
        cfg = ExperimentConfig(
            TRI, Categorical.uniform(3), [n], trials, dependence=dependence, seed=seed
        )
        step = _chunk_trials(n, 3)
        assert trials > step  # the run spans several chunks
        per_class = []
        for class_index, dist in ((0, cfg.m), (1, cfg.h)):
            parts = []
            for chunk, lo in enumerate(range(0, trials, step)):
                size = min(step, trials - lo)
                rng = trial_rng(seed, n, class_index, chunk)
                if dependence is None:
                    counts = sample_iid(dist, n, size, rng)
                else:
                    counts = sample_noniid(dist, rescale_blocks(dependence, n), size, rng)
                parts.append(log_likelihood_ratio(cfg.m, cfg.h, counts))
            per_class.append(np.concatenate(parts))
        want = roc_from_scores(*per_class).auroc
        assert run_experiment(cfg).rows[0].empirical_auroc == want


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(BERN_6, Categorical.uniform(3), [1], 10)
        with pytest.raises(ValueError):
            ExperimentConfig(BERN_6, BERN_5, [], 10)
        with pytest.raises(ValueError):
            ExperimentConfig(BERN_6, BERN_5, [2, 2], 10)
        with pytest.raises(ValueError):
            ExperimentConfig(BERN_6, BERN_5, [4, 2], 10)
        with pytest.raises(ValueError):
            ExperimentConfig(BERN_6, BERN_5, [1], 0)
        with pytest.raises(ValueError):
            ExperimentConfig(BERN_6, BERN_5, [1], 10, seed=-1)

    @pytest.mark.parametrize(
        "field, kwargs",
        [
            ("n_values", {"n_values": [1.7]}),
            ("n_values", {"n_values": [1, True]}),
            ("trials_per_class", {"trials_per_class": 20.9}),
            ("trials_per_class", {"trials_per_class": "20"}),
            ("seed", {"seed": "x"}),
            ("seed", {"seed": 1.0}),
        ],
    )
    def test_non_integers_are_rejected_not_truncated(self, field, kwargs):
        args = {"n_values": [1], "trials_per_class": 10} | kwargs
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(BERN_6, BERN_5, **args)

    def test_numpy_integers_are_accepted(self):
        cfg = ExperimentConfig(
            BERN_6, BERN_5, np.array([1, 2]), np.int64(5), seed=np.int32(3)
        )
        assert cfg.n_values == (1, 2) and type(cfg.n_values[0]) is int
        assert cfg.trials_per_class == 5 and cfg.seed == 3


class TestRunExperiment:
    def test_rows_and_exact_bound_gating(self):
        cfg = ExperimentConfig(BERN_6, BERN_5, [1, 4, 30, 20_000], 200, seed=1)
        res = run_experiment(cfg)
        assert [r.n for r in res.rows] == [1, 4, 30, 20_000]
        for row in res.rows:
            assert 0.0 <= row.empirical_auroc <= 1.0
            assert row.wall_time_seconds >= 0.0
            # support 2: 2^30 > 10^7 so the exact column drops out; 2^20000
            # has more digits than Python will print
            if row.n <= 23:
                assert row.auroc_upper_exact is not None
                assert row.empirical_auroc <= row.auroc_upper_exact + 0.05
            else:
                assert row.auroc_upper_exact is None
            assert row.auroc_upper_chernoff == row.auroc_upper_chernoff  # not NaN

    def test_bit_identical_reruns(self):
        cfg = ExperimentConfig(BERN_6, BERN_5, [2, 8], 300, seed=7)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        for ra, rb in zip(a.rows, b.rows):
            assert ra.empirical_auroc == rb.empirical_auroc
            assert ra.auroc_upper_exact == rb.auroc_upper_exact
            assert ra.auroc_upper_chernoff == rb.auroc_upper_chernoff

    def test_multi_chunk_reruns_are_bit_identical(self):
        trials = 3 * _chunk_trials(300, 2) + 7
        for dep in (None, DependenceSpec([(10, 0.5)])):
            cfg = ExperimentConfig(BERN_6, BERN_5, [300], trials, dependence=dep, seed=5)
            a, b = run_experiment(cfg), run_experiment(cfg)
            assert a.rows[0].empirical_auroc == b.rows[0].empirical_auroc

    def test_block_run_memory_is_bounded_by_the_chunk(self):
        # one dense trials x n float64 array of this run would take 48 MB;
        # chunked sampling keeps the whole run's peak far below that
        cfg = ExperimentConfig(
            BERN_6, BERN_5, [300], 20_000, dependence=DependenceSpec([(10, 0.5)]), seed=107
        )
        tracemalloc.start()
        try:
            run_experiment(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_auroc_grows_with_n(self):
        cfg = ExperimentConfig(BERN_6, BERN_5, [1, 2, 4, 8, 16, 32, 64], 10_000, seed=2)
        res = run_experiment(cfg)
        aucs = [r.empirical_auroc for r in res.rows]
        rho = spearmanr(range(len(aucs)), aucs).statistic
        assert rho > 0.95
        assert aucs[-1] > 0.85
        assert aucs[0] < 0.6

    def test_dependence_slows_growth(self):
        n_vals = [50]
        trials = 4000
        free = run_experiment(ExperimentConfig(BERN_6, BERN_5, n_vals, trials, seed=3))
        tied = run_experiment(
            ExperimentConfig(
                BERN_6,
                BERN_5,
                n_vals,
                trials,
                dependence=DependenceSpec([(10, 1.0)]),
                seed=3,
            )
        )
        assert tied.rows[0].empirical_auroc < free.rows[0].empirical_auroc

    def test_tv_sanity(self):
        assert tv_distance(BERN_6, BERN_5) == pytest.approx(0.1)
