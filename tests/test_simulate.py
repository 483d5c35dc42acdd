"""Monte Carlo machinery: samplers, block dependence, experiment driver."""

import dataclasses
import functools
import math
import tracemalloc

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import multinomial, spearmanr

from detectability import (
    BudgetError,
    Categorical,
    DependenceSpec,
    ExperimentConfig,
    ExperimentRow,
    run_experiment,
    log_likelihood_ratio,
    roc_from_scores,
    sample_iid,
    sample_noniid,
    trial_rng,
    tv_distance,
)
from detectability import distributions, simulate
from detectability.simulate import (
    _CHUNK_CELLS,
    _block_kinds,
    _block_law,
    _chunk_trials,
    _copy_positions,
    _copy_sampler,
    _law_sampler,
    _law_selected,
    _noniid_sampler,
    _rescale,
)

from _synth import (
    copy_counts_by_scan,
    copy_process_law,
    dependent_lr_auroc,
    rescale_blocks,
)

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
    # A pattern at n is described by its whole cycles and its partial cycle;
    # the law sampler sees the block kinds, the copy process the positions.
    def test_exact_fit_cycles_pattern(self):
        dep = DependenceSpec([(3, 0.5), (2, 0.1)])
        assert _rescale(dep, 10) == (2, [])
        assert _block_kinds(dep, 10) == {(3, 0.5): 2, (2, 0.1): 2}

    def test_truncates_final_block(self):
        dep = DependenceSpec([(4, 0.9)])
        assert _rescale(dep, 10) == (2, [(2, 0.9)])
        assert list(_block_kinds(dep, 10).items()) == [((4, 0.9), 2), ((2, 0.9), 1)]
        np.testing.assert_array_equal(_copy_positions(dep, 10)[0], [0, 1, 2, 3] * 2 + [0, 1])

    def test_identity_when_lengths_agree(self):
        dep = DependenceSpec([(5, 0.3), (5, 0.7)])
        assert _rescale(dep, 10) == (1, [])
        assert list(_block_kinds(dep, 10)) == list(dep.blocks)

    def test_n_smaller_than_first_block(self):
        dep = DependenceSpec([(10, 0.5)])
        assert _rescale(dep, 3) == (0, [(3, 0.5)])
        assert _block_kinds(dep, 3) == {(3, 0.5): 1}

    @staticmethod
    def assert_matches_the_listing(dep, n):
        listing = rescale_blocks(dep, n).blocks
        assert list(_block_kinds(dep, n).items()) == list(Counter(listing).items())
        offset, rho = _copy_positions(dep, n)
        np.testing.assert_array_equal(offset, np.concatenate([np.arange(c) for c, _ in listing]))
        np.testing.assert_array_equal(rho, np.concatenate([np.full(c, r) for c, r in listing]))

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(1, 6), st.sampled_from([0.0, 0.3, 0.5, 1.0])),
            min_size=1,
            max_size=4,
        ),
        st.data(),
    )
    def test_kinds_and_positions_match_the_listing(self, blocks, data):
        dep = DependenceSpec(blocks)
        self.assert_matches_the_listing(dep, data.draw(st.integers(1, 3 * dep.n + 2)))

    @pytest.mark.parametrize(
        "blocks, n",
        [
            ([(3, 0.5), (2, 0.1)], 15),  # rest == 0
            ([(3, 0.2), (2, 0.9), (1, 0.0)], 4),  # n < dep.n
            ([(4, 0.5), (1, 0.5)], 12),  # the truncated (2, 0.5) is a new kind
            ([(2, 0.3), (4, 0.5), (2, 0.5)], 20),  # the truncated (2, 0.5) repeats a kind
            ([(2, 0.3), (1, 0.7), (2, 0.3)], 6),  # a repeated kind listed once, first
        ],
    )
    def test_edge_cases_match_the_listing(self, blocks, n):
        self.assert_matches_the_listing(DependenceSpec(blocks), n)

    def test_positions_below_one_cycle_cover_only_n(self):
        # a pattern far longer than n builds arrays of n entries, not of the pattern
        dep = DependenceSpec([(10**12, 0.5), (3, 0.2)])
        offset, rho = _copy_positions(dep, 64)
        np.testing.assert_array_equal(offset, np.arange(64))
        np.testing.assert_array_equal(rho, np.full(64, 0.5))

    def test_huge_n_is_counted_not_listed(self):
        dep = DependenceSpec([(3, 0.2), (2, 0.9)])
        n = 2**63 - 1  # 2 past a whole cycle
        kinds = _block_kinds(dep, n)
        cycles = n // 5
        assert list(kinds.items()) == [((3, 0.2), cycles), ((2, 0.9), cycles), ((2, 0.2), 1)]


def sample_law(dist, dep, n, trials, rng):
    """One draw from the block laws, whatever ``_law_selected`` picks."""
    return _law_sampler(dist, dep, n, functools.partial(_block_law, dist.probs))(trials, rng)


def sample_copy(dist, dep, n, trials, rng):
    """One draw from the copy process, whatever ``_law_selected`` picks."""
    return _copy_sampler(dist, dep, n)(trials, rng)


# The law sampler and the copy process draw from one law; sample_noniid
# picks between them by input size, so the structural tests run on both.
SAMPLERS = (sample_law, sample_copy)


class TestSampleNoniid:
    def test_rho_one_blocks_are_constant(self):
        # under full coupling each block repeats one symbol, so every index
        # is counted a whole number of blocks
        dep = DependenceSpec([(5, 1.0)] * 20)
        for sampler in SAMPLERS:
            counts = sampler(TRI, dep, dep.n, 300, np.random.default_rng(3))
            assert counts.shape == (300, 3), sampler.__name__
            assert (counts.sum(axis=1) == 100).all(), sampler.__name__
            assert (counts % 5 == 0).all(), sampler.__name__
            assert (counts % 10 != 0).any(), sampler.__name__  # blocks vary within a set

    def test_uniform_past_the_cdf_lands_on_the_last_index_with_mass(self):
        # these masses cumulate to 1 - 2**-52, so the largest uniform under 1
        # falls past the cdf; it belongs to index 9, not the massless index 10
        w = np.random.default_rng(6).random(10)
        dist = Categorical([*(w / w.sum()).tolist(), 0.0])
        assert np.cumsum(dist.probs)[-1] < np.nextafter(1.0, 0.0)

        class TopUniforms:
            def random(self, size):
                return np.full(size, np.nextafter(1.0, 0.0))

        counts = sample_copy(dist, DependenceSpec([(2, 0.5)]), 4, 3, TopUniforms())
        want = np.zeros((3, 11), dtype=np.int64)
        want[:, 9] = 4
        np.testing.assert_array_equal(counts, want)
        other = Categorical([*(w[::-1] / w.sum()).tolist(), 0.0])
        assert np.isfinite(log_likelihood_ratio(dist, other, counts)).all()

    def test_rho_zero_matches_marginal(self):
        dep = DependenceSpec([(5, 0.0)])
        for sampler in SAMPLERS:
            counts = sampler(TRI, dep, 500, 2000, np.random.default_rng(4))
            draws = counts.sum()
            for k, p in enumerate(TRI.probs):
                freq = pooled_frequencies(counts)[k]
                assert abs(freq - p) < 4 * math.sqrt(p * (1 - p) / draws), sampler.__name__

    def test_marginal_preserved_under_dependence(self):
        # copying earlier draws leaves each position marginally distributed
        # as the base distribution; the tolerance counts blocks, not draws
        dep = DependenceSpec([(4, 0.7)])
        for sampler in SAMPLERS:
            counts = sampler(TRI, dep, 400, 1500, np.random.default_rng(5))
            for k, p in enumerate(TRI.probs):
                freq = pooled_frequencies(counts)[k]
                tol = 4 * math.sqrt(p * (1 - p) / (counts.sum() / 4))
                assert abs(freq - p) < tol, sampler.__name__

    def test_pair_match_rate(self):
        # in a block of 2 with coupling rho, P(x1 == x2) =
        # rho + (1 - rho) sum_k p_k^2; a match is a count of 2
        rho = 0.5
        sets = 400_000
        expect = rho + (1 - rho) * float((TRI.probs**2).sum())
        for sampler in SAMPLERS:
            counts = sampler(TRI, DependenceSpec([(2, rho)]), 2, sets, np.random.default_rng(6))
            match = (counts == 2).any(axis=1).mean()
            tol = 4 * math.sqrt(expect * (1 - expect) / sets)
            assert abs(match - expect) < tol, sampler.__name__

    def test_unequal_blocks_keep_their_copy_structure(self):
        # blocks of 2 and 3 under full coupling: each index is counted as a
        # sum of whole blocks, so only 0, 2, 3 or 5 can occur
        dep = DependenceSpec([(2, 1.0), (3, 1.0)])
        for sampler in SAMPLERS:
            counts = sampler(TRI, dep, 5, 20_000, np.random.default_rng(8))
            assert (counts.sum(axis=1) == 5).all(), sampler.__name__
            assert set(np.unique(counts).tolist()) == {0, 2, 3, 5}, sampler.__name__

    def test_matches_per_set_loop_on_the_same_uniforms(self):
        # reference: replay the copy process's stream (fresh, coin and pick
        # uniforms per position) one set and one position at a time
        dep = DependenceSpec([(4, 0.6), (1, 0.3), (3, 0.9), (2, 0.0)])
        sets = 50
        got = sample_copy(TRI, dep, dep.n, sets, np.random.default_rng(9))
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

    @pytest.mark.parametrize(
        "blocks",
        [
            [(1, 0.5)],
            [(40, 0.7)],
            [(5, 0.9), (1, 0.2), (12, 0.5), (5, 0.0), (2, 1.0), (12, 0.3)],
            [(3, 0.4)] * 9 + [(17, 0.8)] + [(2, 0.6)] * 4,
        ],
    )
    def test_matches_the_scan_reference_on_mixed_blocks(self, blocks):
        dep = DependenceSpec(blocks)
        for n in (1, dep.n, 2 * dep.n + 3):
            got = sample_copy(TRI, dep, n, 64, np.random.default_rng(13))
            listing = rescale_blocks(dep, n)
            want = copy_counts_by_scan(TRI, listing, 64, np.random.default_rng(13))
            np.testing.assert_array_equal(got, want)

    def test_deterministic_under_seed(self):
        dep = DependenceSpec([(3, 0.4)] * 7)
        for sampler in SAMPLERS:
            a = sampler(TRI, dep, 21, 30, np.random.default_rng(7))
            b = sampler(TRI, dep, 21, 30, np.random.default_rng(7))
            np.testing.assert_array_equal(a, b)

    def test_type_frequencies_match_the_exact_law(self):
        # one block of 4 at rho 0.3 over a support with a zero-mass index
        dist = Categorical([0.2, 0.0, 0.3, 0.5])
        atoms, law = _block_law(dist.probs, 4, 0.3)
        sets = 20_000
        for sampler in SAMPLERS:
            counts = sampler(dist, DependenceSpec([(4, 0.3)]), 4, sets, np.random.default_rng(10))
            types, freq = np.unique(counts, axis=0, return_counts=True)
            seen = {tuple(row): f / sets for row, f in zip(types.tolist(), freq)}
            assert seen.keys() <= {tuple(row) for row in atoms.tolist()}, sampler.__name__
            for row, p in zip(atoms.tolist(), law):
                tol = 4 * math.sqrt(p * (1 - p) / sets)
                assert abs(seen.get(tuple(row), 0.0) - p) < tol, sampler.__name__

    def test_selection_by_cells_touched(self):
        # the law runs when building and drawing it touches no more cells
        # than the copy process on a full chunk, and its type keys fit int64
        tens = DependenceSpec([(10, 0.5)])
        assert all(_law_selected(tens, n, 2) for n in (50, 100, 300))  # sim-block
        tri_pair = DependenceSpec([(2, 0.5)])  # 6 types for 2 samples
        assert not _law_selected(tri_pair, 2, 3)
        assert not _law_selected(tens, 3000, 1000)
        # 1001 types for 5000 samples, but the law takes 999 steps over up
        # to 1000 types to build
        assert not _law_selected(DependenceSpec([(1000, 0.5)]), 5000, 2)
        # 861 types for 1000 samples, but 3**41 keys overflow int64
        assert not _law_selected(DependenceSpec([(2, 0.5)]), 1000, 41)
        # sample_noniid follows the selection on the same generator state
        for dist, dep, n, sampler in (
            (BERN_6, tens, 50, sample_law),
            (TRI, tri_pair, 2, sample_copy),
        ):
            np.testing.assert_array_equal(
                sample_noniid(dist, dep, n, 40, np.random.default_rng(11)),
                sampler(dist, dep, n, 40, np.random.default_rng(11)),
            )


class TestBlockLaw:
    @pytest.mark.parametrize("c", [1, 2, 3, 4])
    @pytest.mark.parametrize("rho", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("probs", [[0.4, 0.6], [0.2, 0.3, 0.5], [0.5, 0.0, 0.5]])
    def test_matches_every_copy_path(self, c, rho, probs):
        atoms, law = _block_law(np.array(probs), c, rho)
        assert atoms.dtype == np.int64 and (atoms.sum(axis=1) == c).all()
        got = {tuple(row): p for row, p in zip(atoms.tolist(), law)}
        want = copy_process_law(probs, c, rho)
        assert got.keys() == want.keys()
        for key, p in want.items():
            assert abs(got[key] - p) <= 1e-12

    def test_rho_zero_is_multinomial(self):
        atoms, law = _block_law(TRI.probs, 6, 0.0)
        assert len(law) == math.comb(8, 6)
        np.testing.assert_allclose(law, multinomial.pmf(atoms, 6, TRI.probs), rtol=1e-12)

    def test_rho_one_repeats_one_index(self):
        probs = np.array([0.2, 0.0, 0.3, 0.5])
        atoms, law = _block_law(probs, 7, 1.0)
        np.testing.assert_array_equal(atoms, 7 * np.eye(4, dtype=np.int64)[[0, 2, 3]])
        np.testing.assert_array_equal(law, probs[[0, 2, 3]])


class TestDependentExact:
    # Bern(0.6) vs Bern(0.5) with 10-sample blocks at rho 0.5: exact AUROC of
    # the count-LLR detector that run_experiment uses, by convolving the
    # block laws, beside criterion 07's chance-to-iid bracket
    DEP = DependenceSpec([(10, 0.5)])
    EXACT = {50: 0.72200, 100: 0.79735, 300: 0.92519}

    def test_exact_values(self):
        for n, want in self.EXACT.items():
            auroc, _ = dependent_lr_auroc(BERN_6, BERN_5, rescale_blocks(self.DEP, n), 1)
            assert abs(auroc - want) <= 5e-6

    def test_run_lands_within_four_se(self):
        trials = 20_000
        cfg = ExperimentConfig(
            BERN_6, BERN_5, list(self.EXACT), trials, dependence=self.DEP, seed=17
        )
        rows = run_experiment(cfg)
        for row in rows:
            auroc, se = dependent_lr_auroc(
                BERN_6, BERN_5, rescale_blocks(self.DEP, row.n), trials
            )
            assert abs(row.empirical_auroc - auroc) <= 4 * se


# One dependent pattern per sampler at n = 300 over three letters.
CONTRACT_DEPS = [DependenceSpec([(4, 0.5)]), DependenceSpec([(200, 0.5)])]


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

    @pytest.mark.parametrize(
        "key", [(0, 1, 0, 0), (9, 2, 1, 5), (2**63, 300, 1, 7), (1, 23, 0, 2**40)]
    )
    def test_stream_is_default_rngs(self, key):
        # the generator default_rng builds from the keyed seed sequence
        got = trial_rng(*key)
        want = np.random.default_rng(np.random.SeedSequence(entropy=key))
        assert type(got.bit_generator) is type(want.bit_generator)
        assert got.integers(0, 2**63, size=8).tolist() == want.integers(0, 2**63, size=8).tolist()
        assert got.random(8).tobytes() == want.random(8).tobytes()
        draws = [g.multinomial(300, [0.4, 0.6], size=4).tolist() for g in (got, want)]
        assert draws[0] == draws[1]

    def test_chunk_size_counts_the_cells_of_one_trial(self):
        # k cells for an iid trial, max(n, k) for a block-dependent one
        assert _chunk_trials(1) == _CHUNK_CELLS
        assert _chunk_trials(2) == _CHUNK_CELLS // 2
        assert _chunk_trials(300) == _CHUNK_CELLS // 300
        assert _chunk_trials(1000) == _CHUNK_CELLS // 1000
        assert _chunk_trials(10 * _CHUNK_CELLS) == 1

    @pytest.mark.parametrize(
        "m, h, dependence, n, trials, chunks",
        [
            # an iid chunk holds 2**16 // k trials whatever n is
            (BERN_6, BERN_5, None, 300, 2**16 + 1, 3),
            (BERN_6, BERN_5, None, 10**9, 2**16 + 1, 3),
            (TRI, Categorical(np.full(3, 1 / 3)), None, 10**9, 2**16 // 3 + 1, 2),
            # a dependent one 2**16 // max(n, k): 218 trials at n = 300
            (BERN_6, BERN_5, DependenceSpec([(10, 0.5)]), 300, 500, 3),
        ],
        ids=["iid-n300", "iid-n1e9", "iid-k3", "dependent-n300"],
    )
    def test_chunks_seeded_per_class(self, monkeypatch, m, h, dependence, n, trials, chunks):
        keys = []

        def counting(*key):
            keys.append(key)
            return trial_rng(*key)

        monkeypatch.setattr(simulate, "trial_rng", counting)
        run_experiment(ExperimentConfig(m, h, [n], trials, dependence=dependence, seed=1))
        assert keys == [(1, n, c, j) for c in (0, 1) for j in range(chunks)]

    def test_chunk_contract_covers_both_samplers(self):
        assert [_law_selected(dep, 300, 3) for dep in CONTRACT_DEPS] == [True, False]

    @pytest.mark.parametrize("dependence", [None, *CONTRACT_DEPS])
    def test_run_follows_the_chunk_stream_contract(self, dependence):
        # chunk j of (seed, n, class) is sampled and scored from
        # trial_rng(seed, n, class, j); rebuilding every chunk by hand must
        # reproduce the run's AUROC exactly, and a row's sampler, built once,
        # must draw each chunk as sample_noniid does.  The iid pair stays
        # short of AUROC 1, so a chunking off the contract moves its AUROC
        n, seed = 300, 4
        if dependence is None:
            m, h, trials, step = BERN_6, BERN_5, 2**15 + 500, _chunk_trials(2)
        else:
            m, h, trials = TRI, Categorical(np.full(3, 1 / 3)), 500
            step = _chunk_trials(max(n, 3))
        cfg = ExperimentConfig(m, h, [n], trials, dependence=dependence, seed=seed)
        assert trials > step  # the run spans several chunks
        per_class = []
        for class_index, dist in ((0, cfg.m), (1, cfg.h)):
            if dependence is not None:
                law = functools.partial(_block_law, dist.probs)
                draw = _noniid_sampler(dist, dependence, n, law)
            parts = []
            for chunk, lo in enumerate(range(0, trials, step)):
                size = min(step, trials - lo)
                rng = trial_rng(seed, n, class_index, chunk)
                if dependence is None:
                    counts = sample_iid(dist, n, size, rng)
                else:
                    counts = sample_noniid(dist, dependence, n, size, rng)
                    row_draw = draw(size, trial_rng(seed, n, class_index, chunk))
                    np.testing.assert_array_equal(row_draw, counts)
                parts.append(log_likelihood_ratio(cfg.m, cfg.h, counts))
            per_class.append(np.concatenate(parts))
        want = roc_from_scores(*per_class).auroc
        assert run_experiment(cfg)[0].empirical_auroc == want

    def test_rows_sharing_laws_follow_the_chunk_stream_contract(self):
        # n = 35 and 50 take the copy path, n = 100 and 300 draw from one
        # (10, 0.5) law per class built for the run; rebuilding every chunk of
        # every row by hand with sample_noniid, which builds its own laws on
        # each call, must reproduce each row's AUROC exactly
        dep = DependenceSpec([(10, 0.5)])
        n_values, trials, seed = [35, 50, 100, 300], 700, 4
        assert [_law_selected(dep, n, 3) for n in n_values] == [False, False, True, True]
        cfg = ExperimentConfig(
            TRI, Categorical(np.full(3, 1 / 3)), n_values, trials, dependence=dep, seed=seed
        )
        want = []
        for n in n_values:
            step = _chunk_trials(max(n, 3))
            per_class = []
            for class_index, dist in ((0, cfg.m), (1, cfg.h)):
                parts = []
                for chunk, lo in enumerate(range(0, trials, step)):
                    rng = trial_rng(seed, n, class_index, chunk)
                    counts = sample_noniid(dist, dep, n, min(step, trials - lo), rng)
                    parts.append(log_likelihood_ratio(cfg.m, cfg.h, counts))
                per_class.append(np.concatenate(parts))
            want.append(roc_from_scores(*per_class).auroc)
        assert [row.empirical_auroc for row in run_experiment(cfg)] == want

    @pytest.mark.parametrize(
        "n_values, kinds, want",
        [
            # the sim-block workload: 1 + 2 + 5 chunks per class at n = 50,
            # 100, 300, all of the one kind (10, 0.5)
            (
                [50, 100, 300],
                [(10, 0.5)],
                [
                    (50, 0.7234065, 0.6990539388396263),
                    (100, 0.801736, 0.8188629365441132),
                    (300, 0.9159545, 0.9762271111551195),
                ],
            ),
            # n = 55 adds the truncated kind (5, 0.5); n = 100 reuses (10, 0.5)
            (
                [50, 55, 100],
                [(10, 0.5), (5, 0.5)],
                [
                    (50, 0.7234065, 0.6990539388396263),
                    (55, 0.7354795, 0.7139509370066836),
                    (100, 0.801736, 0.8188629365441132),
                ],
            ),
        ],
        ids=["sim-block", "truncated-kind"],
    )
    def test_each_run_builds_a_class_law_once_per_kind(self, monkeypatch, n_values, kinds, want):
        # one law per (class, kind) for the whole run, each from that class's
        # masses, built by the first row that meets the kind; the rows are
        # those of the per-row builds they replace
        cfg = ExperimentConfig(
            BERN_6, BERN_5, n_values, 1000, dependence=DependenceSpec([(10, 0.5)])
        )
        built = []

        def counting(probs, c, rho):
            built.append((tuple(probs), c, rho))
            return _block_law(probs, c, rho)

        monkeypatch.setattr(simulate, "_block_law", counting)
        rows = run_experiment(cfg)
        assert built == [(tuple(d.probs), *kind) for kind in kinds for d in (BERN_6, BERN_5)]
        assert rows == tuple(
            ExperimentRow(n, auroc, None, chernoff) for n, auroc, chernoff in want
        )


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(BERN_6, Categorical(np.full(3, 1 / 3)), [1], 10)
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
        with pytest.raises(ValueError, match="^m and h must be Categorical distributions$"):
            ExperimentConfig([0.4, 0.6], BERN_5, [1], 10)
        with pytest.raises(ValueError, match="^dependence must be a DependenceSpec or None$"):
            ExperimentConfig(BERN_6, BERN_5, [1], 10, dependence={"blocks": [[2, 0.5]]})

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

    # a number once raised TypeError, a mapping ran its keys and a string its characters
    @pytest.mark.parametrize(
        "n_values, shown", [(5, "5"), ({1: 2}, '{"1": 2}'), ("12", '"12"')],
        ids=["number", "mapping", "string"],
    )
    def test_n_values_must_be_a_list(self, n_values, shown):
        with pytest.raises(ValueError, match=f"^n_values must be a list of integers, got {shown}$"):
            ExperimentConfig(BERN_6, BERN_5, n_values, 10)

    @pytest.mark.parametrize("blocks", [None, [(10, 0.5)], [(3, 0.2), (2, 0.9), (1, 0.0)]])
    def test_n_is_capped_at_int64_with_or_without_dependence(self, blocks):
        # the pattern is counted, not listed, so its number of blocks sets no cap
        dep = DependenceSpec(blocks) if blocks else None
        ExperimentConfig(BERN_6, BERN_5, [1, 2**63 - 1], 10, dependence=dep)
        with pytest.raises(ValueError, match=f"^n_values must be an integer in 1..{2**63 - 1}, "):
            ExperimentConfig(BERN_6, BERN_5, [1, 2**63], 10, dependence=dep)

    def test_numpy_integers_are_accepted(self):
        cfg = ExperimentConfig(
            BERN_6, BERN_5, np.array([1, 2]), np.int64(5), seed=np.int32(3)
        )
        assert cfg.n_values == (1, 2) and type(cfg.n_values[0]) is int
        assert cfg.trials_per_class == 5 and cfg.seed == 3


class TestRunExperiment:
    def test_rows_and_exact_bound_gating(self):
        cfg = ExperimentConfig(BERN_6, BERN_5, [1, 4, 30, 20_000], 200, seed=1)
        rows = run_experiment(cfg)
        assert [r.n for r in rows] == [1, 4, 30, 20_000]
        for row in rows:
            assert 0.0 <= row.empirical_auroc <= 1.0
            # support 2: 2^30 > 10^7 so the exact column drops out; 2^20000
            # has more digits than Python will print
            if row.n <= 23:
                assert row.auroc_upper_exact is not None
                assert row.empirical_auroc <= row.auroc_upper_exact + 0.05
            else:
                assert row.auroc_upper_exact is None
            assert row.auroc_upper_chernoff == row.auroc_upper_chernoff  # not NaN

    def test_bit_identical_reruns(self):
        # a row holds data columns only, no timing, so whole rows compare equal
        assert [f.name for f in dataclasses.fields(ExperimentRow)] == [
            "n", "empirical_auroc", "auroc_upper_exact", "auroc_upper_chernoff"
        ]
        cfg = ExperimentConfig(BERN_6, BERN_5, [2, 8], 300, seed=7)
        assert run_experiment(cfg) == run_experiment(cfg)

    def test_multi_chunk_reruns_are_bit_identical(self):
        for dep, cells in ((None, 2), (DependenceSpec([(10, 0.5)]), 300)):
            trials = 3 * _chunk_trials(cells) + 7
            cfg = ExperimentConfig(BERN_6, BERN_5, [300], trials, dependence=dep, seed=5)
            a, b = run_experiment(cfg), run_experiment(cfg)
            assert a[0].empirical_auroc == b[0].empirical_auroc

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

    def test_law_path_memory_does_not_grow_with_n(self):
        # 10**8 blocks of 10, drawn one trial per chunk from their kinds' laws
        cfg = ExperimentConfig(
            BERN_6, BERN_5, [10**9], 20, dependence=DependenceSpec([(10, 0.5)]), seed=3
        )
        assert _law_selected(cfg.dependence, 10**9, 2)
        tracemalloc.start()
        try:
            (row,) = run_experiment(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert 0.0 <= row.empirical_auroc <= 1.0

    def test_run_scoped_laws_do_not_pile_up(self):
        # law-path rows at n = 10**3 .. 10**9 share one law per class
        n_values = [10**e for e in range(3, 10)]
        dep = DependenceSpec([(10, 0.5)])
        assert all(_law_selected(dep, n, 2) for n in n_values)
        cfg = ExperimentConfig(BERN_6, BERN_5, n_values, 20, dependence=dep, seed=3)
        tracemalloc.start()
        try:
            rows = run_experiment(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert all(0.0 <= row.empirical_auroc <= 1.0 for row in rows)

    def test_auroc_grows_with_n(self):
        cfg = ExperimentConfig(BERN_6, BERN_5, [1, 2, 4, 8, 16, 32, 64], 10_000, seed=2)
        rows = run_experiment(cfg)
        aucs = [r.empirical_auroc for r in rows]
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
        assert tied[0].empirical_auroc < free[0].empirical_auroc

    def test_tv_sanity(self):
        assert tv_distance(BERN_6, BERN_5) == pytest.approx(0.1)

    def test_one_growth_of_the_types_per_run(self, monkeypatch):
        # levels 2..22 grown once, plus one final sum at each n = 2..23
        calls = []

        def counting(last, k):
            calls.append(k)
            return sorted_children(last, k)

        sorted_children = distributions._sorted_children
        monkeypatch.setattr(distributions, "_sorted_children", counting)
        run_experiment(ExperimentConfig(BERN_6, BERN_5, range(1, 24), 1))
        assert len(calls) == 43

    def test_criterion_06_grid_calls_each_public_stage(self, monkeypatch):
        # the benchmark's tracer times these three by patching exactly these
        # bindings; work moved into a private routine would read 0 calls.
        # 2,000 trials a class: an iid chunk holds 2**16 // 2 = 32,768
        # trials whatever n is, so every n, 300 included, is one chunk a class
        calls = Counter()
        for name in ("log_likelihood_ratio", "roc_from_scores", "chernoff_information"):
            fn = getattr(simulate, name)

            def counting(*args, _fn=fn, _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(simulate, name, counting)
        run_experiment(ExperimentConfig(BERN_6, BERN_5, [1, 2, 4, 8, 16, 300], 2000, seed=106))
        want = {"log_likelihood_ratio": 12, "roc_from_scores": 6, "chernoff_information": 1}
        assert calls == want

    def test_rows_past_the_budget_raise_no_budget_error(self, monkeypatch):
        def refuse(self, *args):
            raise AssertionError("a BudgetError was constructed")

        monkeypatch.setattr(BudgetError, "__init__", refuse)
        rows = run_experiment(ExperimentConfig(BERN_6, BERN_5, [1, 23, 24, 20_000], 1))
        assert [row.auroc_upper_exact is None for row in rows] == [False, False, True, True]

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_chernoff_column_is_a_floor_on_the_exact_ceiling(self, data):
        # 1 - tv_n = sum min(P^n, Q^n) <= exp(-n C) (Chernoff 1952), and the
        # computed C, a Newton minimum stepped down for rounding, is at most
        # the true C.  Equality holds where one mass dominates the other on
        # their common support (p == q, say), so the two columns may cross
        # there by rounding in the ceiling: 1e-12 allows it.
        k = data.draw(st.integers(1, 4))
        weights = st.lists(
            st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=k, max_size=k
        ).filter(any)
        m, h = (Categorical(np.array(w) / sum(w)) for w in (data.draw(weights), data.draw(weights)))
        ns = sorted(data.draw(st.sets(st.integers(1, 16), min_size=1, max_size=4)))
        seed = data.draw(st.integers(0, 3))
        for row in run_experiment(ExperimentConfig(m, h, ns, 3, seed=seed)):
            if row.auroc_upper_exact is not None:
                assert row.auroc_upper_chernoff <= row.auroc_upper_exact + 1e-12


W40 = Categorical(np.arange(1, 41) / 820)
U40 = Categorical(np.full(40, 1 / 40))


class TestStreamPin:
    # Literal empirical AUROCs of 400 trials per class at seed 23.  Any change
    # to the seeded stream, the block rescaling or the sampler selection moves
    # them, so they are compared with ==, not with a tolerance.
    @pytest.mark.parametrize(
        "m, h, blocks, want",
        [
            # law path
            (BERN_6, BERN_5, [(10, 0.5)], {50: 0.745475, 100: 0.8092, 300: 0.92639375}),
            # mixed kinds, a truncated partial cycle; n = 7 copies, n = 31 uses laws
            (
                TRI,
                Categorical(np.full(3, 1 / 3)),
                [(3, 0.2), (2, 0.9), (1, 0.0)],
                {7: 0.74778125, 31: 0.90994375},
            ),
            # copy rows, then two law rows sharing the run's (10, 0.5) laws
            (
                TRI,
                Categorical(np.full(3, 1 / 3)),
                [(10, 0.5)],
                {35: 0.802434375, 50: 0.869903125, 100: 0.927003125, 300: 0.997359375},
            ),
            # copy path: long blocks, n below and above the pattern length
            (
                BERN_6,
                BERN_5,
                [(200, 0.5), (7, 0.3)],
                {5: 0.6080125, 64: 0.6910625, 1000: 0.967965625},
            ),
            # copy path: a 40-letter support
            (W40, U40, [(10, 0.5), (4, 1.0)], {30: 0.93429375, 100: 0.99609375}),
            # copy path: n far below a pattern of 10**12 samples
            (BERN_6, BERN_5, [(10**12, 0.5)], {5: 0.6080125, 64: 0.6910625}),
            (BERN_6, BERN_5, None, {20: 0.73886875}),
            # iid rows with n > k, one 2**16 // k chunk whatever n is; at
            # n = 10**6 a close pair keeps the AUROC short of 1
            (BERN_6, BERN_5, None, {300: 0.99205}),
            (Categorical.bernoulli(0.5005), BERN_5, None, {10**6: 0.774990625}),
        ],
        ids=[
            "law",
            "mixed",
            "shared-law",
            "long",
            "wide",
            "huge-pattern",
            "iid",
            "iid-n300",
            "iid-n1e6",
        ],
    )
    def test_empirical_auroc_is_pinned(self, m, h, blocks, want):
        dep = DependenceSpec(blocks) if blocks else None
        rows = run_experiment(ExperimentConfig(m, h, list(want), 400, dependence=dep, seed=23))
        assert {row.n: row.empirical_auroc for row in rows} == want


class TestCeilingPin:
    # Literal auroc_upper_exact of every row, blank past the enumeration
    # budget.  A change to how the exact types are grown, summed or gated
    # moves them, so they are compared with ==, not with a tolerance.
    @pytest.mark.parametrize(
        "m, h, want",
        [
            # Bernoulli-like: 2**23 is the budget edge, n = 24 is blank
            (
                Categorical.bernoulli(0.61),
                Categorical.bernoulli(0.52),
                {
                    1: 0.58595,
                    2: 0.5965285549999999,
                    3: 0.623595209342,
                    4: 0.6382953195212188,
                    5: 0.6490720635312797,
                    6: 0.6663289862236654,
                    7: 0.6684031885407439,
                    8: 0.6874508866519075,
                    9: 0.6902938420834324,
                    10: 0.7042528049367782,
                    11: 0.7105060275452368,
                    12: 0.7180476973762182,
                    13: 0.7269884821816774,
                    14: 0.7296100924453537,
                    15: 0.7407041451437084,
                    16: 0.7416834097718678,
                    17: 0.7522857824946962,
                    18: 0.7557728423281282,
                    19: 0.7621731233765043,
                    20: 0.7677940796981031,
                    21: 0.7706849564901306,
                    22: 0.7781284309915499,
                    23: 0.7781809448884275,
                    24: None,
                },
            ),
            # k = 3: 3**14 is in the budget, 3**15 is past it
            (
                TRI,
                Categorical([0.35, 0.4, 0.25]),
                {
                    1: 0.71875,
                    2: 0.763671875,
                    3: 0.79439921875,
                    7: 0.8900442310314178,
                    13: 0.945642955237007,
                    14: 0.9513044992442838,
                    15: None,
                    40: None,
                },
            ),
            # k = 10: 10**7 is exactly the budget
            (
                Categorical(np.arange(1, 11) / 55),
                Categorical(np.full(10, 0.1)),
                {
                    1: 0.7014462809917356,
                    2: 0.770650826446281,
                    3: 0.8147017709737345,
                    4: 0.8462064312592995,
                    5: 0.8700652267829931,
                    6: 0.8892426259891184,
                    7: 0.9048755003967529,
                    8: None,
                },
            ),
        ],
        ids=["bernoulli", "k3", "k10"],
    )
    def test_auroc_upper_exact_is_pinned(self, m, h, want):
        rows = run_experiment(ExperimentConfig(m, h, list(want), 1, seed=0))
        assert {row.n: row.auroc_upper_exact for row in rows} == want
