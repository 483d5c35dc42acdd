"""Likelihood-ratio scoring, labeling, and empirical ROC assembly."""

import math

import numpy as np
import pytest

from detectability import (
    Categorical,
    DimensionError,
    Label,
    auroc_upper,
    classify,
    log_likelihood_ratio,
    product_tv_exact,
    roc_from_scores,
)

from _synth import product_masses, rand_pair

BERN_6 = Categorical.bernoulli(0.6)
BERN_5 = Categorical.bernoulli(0.5)


class TestLogLikelihoodRatio:
    def test_hand_value(self):
        # two ones under Bern(0.6) vs Bern(0.5): 2 ln(0.6/0.5)
        got = log_likelihood_ratio(BERN_6, BERN_5, [1, 1])
        assert got == pytest.approx(2 * math.log(1.2), abs=1e-12)

    def test_additivity(self):
        rng = np.random.default_rng(10)
        m, h = rand_pair(rng, 5)
        xs = rng.integers(0, 5, size=12)
        whole = log_likelihood_ratio(m, h, xs)
        parts = log_likelihood_ratio(m, h, xs[:7]) + log_likelihood_ratio(m, h, xs[7:])
        assert whole == pytest.approx(parts, abs=1e-9)

    def test_machine_only_zero_mass_is_plus_inf(self):
        m = Categorical([0.5, 0.5, 0.0])
        h = Categorical([0.3, 0.3, 0.4])
        assert log_likelihood_ratio(h, m, [2]) == math.inf
        assert log_likelihood_ratio(m, h, [2]) == -math.inf

    def test_both_zero_sample_skipped_with_warning(self):
        m = Categorical([0.5, 0.5, 0.0])
        h = Categorical([0.4, 0.6, 0.0])
        with pytest.warns(RuntimeWarning, match="zero mass"):
            got = log_likelihood_ratio(m, h, [0, 2, 1])
        assert got == pytest.approx(
            math.log(0.5 / 0.4) + math.log(0.5 / 0.6), abs=1e-12
        )

    def test_all_samples_skipped_raises(self):
        m = Categorical([0.5, 0.5, 0.0])
        h = Categorical([0.4, 0.6, 0.0])
        with pytest.warns(RuntimeWarning):
            with pytest.raises(ValueError):
                log_likelihood_ratio(m, h, [2, 2])

    def test_opposing_infinities_warn_and_tie(self):
        m = Categorical([1.0, 0.0])
        h = Categorical([0.0, 1.0])
        with pytest.warns(RuntimeWarning, match="both sides"):
            got = log_likelihood_ratio(m, h, [0, 1])
        assert got == 0.0

    def test_input_validation(self):
        with pytest.raises(DimensionError):
            log_likelihood_ratio(BERN_6, Categorical.uniform(3), [0])
        with pytest.raises(ValueError):
            log_likelihood_ratio(BERN_6, BERN_5, [])
        with pytest.raises(ValueError):
            log_likelihood_ratio(BERN_6, BERN_5, [0, 2])
        with pytest.raises(ValueError):
            log_likelihood_ratio(BERN_6, BERN_5, [0.5])
        with pytest.raises(ValueError):
            log_likelihood_ratio(BERN_6, BERN_5, [[[0, 1]]])
        with pytest.raises(ValueError):
            log_likelihood_ratio(BERN_6, BERN_5, [[0, 1, 2]])
        with pytest.raises(ValueError):
            log_likelihood_ratio(BERN_6, BERN_5, [[1, -1]])
        with pytest.raises(ValueError):
            log_likelihood_ratio(BERN_6, BERN_5, [[0, 2], [0, 0]])
        with pytest.raises(ValueError):
            log_likelihood_ratio(BERN_6, BERN_5, [[0.5, 0.5]])


def expand(counts):
    """The sample list, in index order, that a count vector counts."""
    return np.repeat(np.arange(len(counts)), counts)


class TestCountScoring:
    @pytest.mark.parametrize("n", [16, 300])
    def test_each_count_type_has_one_score(self, n):
        # the score is a function of the count vector (the type), so every
        # ordering of a set's samples must score bit-equal
        rng = np.random.default_rng(n)
        types = np.stack([n - np.arange(n + 1), np.arange(n + 1)], axis=1)
        by_type = log_likelihood_ratio(BERN_6, BERN_5, types)
        for row, want in zip(types, by_type):
            xs = expand(row)
            scores = {log_likelihood_ratio(BERN_6, BERN_5, rng.permutation(xs)) for _ in range(5)}
            assert scores == {want}
        repeated = log_likelihood_ratio(BERN_6, BERN_5, np.repeat(types, 3, axis=0))
        np.testing.assert_array_equal(repeated, np.repeat(by_type, 3))
        assert np.unique(by_type).size == n + 1

    def test_matrix_rows_equal_index_lists(self):
        rng = np.random.default_rng(11)
        m, h = rand_pair(rng, 12)
        counts = rng.integers(0, 6, size=(200, 12))
        counts[counts.sum(axis=1) == 0, 0] = 1
        got = log_likelihood_ratio(m, h, counts)
        assert got.shape == (200,)
        want = [log_likelihood_ratio(m, h, rng.permutation(expand(row))) for row in counts]
        np.testing.assert_array_equal(got, want)

    def test_zero_mass_conventions_match_index_lists(self):
        # index 0: both positive; 1: only m; 2: only h; 3: neither
        m = Categorical([0.5, 0.5, 0.0, 0.0])
        h = Categorical([0.5, 0.0, 0.5, 0.0])
        counts = np.array([[2, 0, 0, 0], [1, 1, 0, 0], [1, 0, 3, 0], [0, 1, 1, 0]])
        with pytest.warns(RuntimeWarning, match="both sides"):
            got = log_likelihood_ratio(m, h, counts)
        np.testing.assert_array_equal(got, [0.0, math.inf, -math.inf, 0.0])
        with pytest.warns(RuntimeWarning, match="both sides"):
            assert log_likelihood_ratio(m, h, expand(counts[3])) == 0.0
        for row, want in zip(counts[:3], got[:3]):
            assert log_likelihood_ratio(m, h, expand(row)) == want

        skipped = np.array([[1, 0, 0, 2], [0, 1, 0, 1]])
        with pytest.warns(RuntimeWarning, match="skipped 3 sample"):
            got = log_likelihood_ratio(m, h, skipped)
        np.testing.assert_array_equal(got, [0.0, math.inf])
        for row, want in zip(skipped, got):
            with pytest.warns(RuntimeWarning, match="zero mass"):
                assert log_likelihood_ratio(m, h, expand(row)) == want

        all_skipped = np.array([[1, 0, 0, 0], [0, 0, 0, 2]])
        with pytest.warns(RuntimeWarning):
            with pytest.raises(ValueError, match="every sample"):
                log_likelihood_ratio(m, h, all_skipped)
        with pytest.warns(RuntimeWarning):
            with pytest.raises(ValueError, match="every sample"):
                log_likelihood_ratio(m, h, expand(all_skipped[1]))


class TestClassify:
    def test_positive_is_machine(self):
        v = classify(0.3)
        assert v.label is Label.MACHINE
        assert v.llr == 0.3
        assert v.n_used == 1

    def test_negative_is_human(self):
        assert classify(-0.3).label is Label.HUMAN

    def test_tie_goes_to_machine(self):
        assert classify(0.0).label is Label.MACHINE
        assert classify(1.5, threshold=1.5).label is Label.MACHINE

    def test_threshold_shifts_decision(self):
        assert classify(0.3, threshold=0.5).label is Label.HUMAN
        assert classify(-0.2, threshold=-0.5, n_used=4).label is Label.MACHINE

    def test_rejects_nan_and_bad_n(self):
        with pytest.raises(ValueError):
            classify(math.nan)
        with pytest.raises(ValueError):
            classify(0.1, n_used=0)


def mann_whitney_auroc(machine, human):
    """Tie-aware probability that a machine score outranks a human score."""
    m = np.asarray(machine, dtype=float)
    h = np.asarray(human, dtype=float)
    wins = (m[:, None] > h[None, :]).sum() + 0.5 * (m[:, None] == h[None, :]).sum()
    return float(wins) / (m.size * h.size)


class TestRocFromScores:
    def test_hand_example(self):
        # machine {1, 2}, human {0, 1}: wins 3.5 of 4
        roc = roc_from_scores([1.0, 2.0], [0.0, 1.0])
        assert roc.auroc == pytest.approx(0.875, abs=1e-12)
        assert roc.points[0] == (0.0, 0.0)
        assert roc.points[-1] == (1.0, 1.0)

    def test_identical_scores_give_half(self):
        roc = roc_from_scores([3.0, 3.0, 3.0], [3.0, 3.0])
        assert roc.auroc == pytest.approx(0.5, abs=1e-12)

    def test_perfect_separation(self):
        roc = roc_from_scores([10.0, 11.0], [1.0, 2.0, 3.0])
        assert roc.auroc == 1.0
        assert (0.0, 1.0) in roc.points

    def test_curve_is_monotone_staircase(self):
        rng = np.random.default_rng(11)
        roc = roc_from_scores(rng.normal(1, 1, 50), rng.normal(0, 1, 80))
        fprs = [f for f, _ in roc.points]
        tprs = [t for _, t in roc.points]
        assert all(b >= a for a, b in zip(fprs, fprs[1:]))
        assert all(b >= a for a, b in zip(tprs, tprs[1:]))
        assert roc.points[0] == (0.0, 0.0)
        assert roc.points[-1] == (1.0, 1.0)

    def test_matches_quadratic_mann_whitney_with_ties(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            nm = int(rng.integers(1, 12))
            nh = int(rng.integers(1, 12))
            pool = rng.integers(0, 4, size=nm + nh).astype(float)
            m, h = pool[:nm], pool[nm:]
            roc = roc_from_scores(m, h)
            assert roc.auroc == pytest.approx(mann_whitney_auroc(m, h), abs=1e-12)

    def test_handles_infinite_scores(self):
        roc = roc_from_scores([math.inf, 1.0], [-math.inf, 1.0])
        assert roc.auroc == pytest.approx(mann_whitney_auroc([math.inf, 1.0], [-math.inf, 1.0]))

    def test_rejects_empty_or_nan(self):
        with pytest.raises(ValueError):
            roc_from_scores([], [1.0])
        with pytest.raises(ValueError):
            roc_from_scores([1.0], [])
        with pytest.raises(ValueError):
            roc_from_scores([math.nan], [1.0])

    def test_enumerated_auroc_never_beats_ceiling(self):
        # score every outcome of the n-fold product by its exact LLR and
        # weight by the true masses: the resulting AUROC must sit at or
        # below 0.5 + tv - tv^2/2 for the same n
        rng = np.random.default_rng(13)
        for _ in range(20):
            m, h = rand_pair(rng, int(rng.integers(2, 5)))
            n = int(rng.integers(1, 4))
            pm, ph = product_masses(m, n), product_masses(h, n)
            with np.errstate(divide="ignore", invalid="ignore"):
                llr = np.where(
                    (pm > 0) | (ph > 0), np.log(pm) - np.log(ph), 0.0
                )
            ok = ~np.isnan(llr)
            llr, pm, ph = llr[ok], pm[ok], ph[ok]
            order = np.argsort(llr)
            wins = 0.0
            # weighted tie-aware comparison, grouping equal LLRs
            llr_s, pm_s, ph_s = llr[order], pm[order], ph[order]
            h_below = 0.0
            i = 0
            while i < llr_s.size:
                j = i
                while j < llr_s.size and llr_s[j] == llr_s[i]:
                    j += 1
                pm_blk = pm_s[i:j].sum()
                ph_blk = ph_s[i:j].sum()
                wins += pm_blk * h_below + 0.5 * pm_blk * ph_blk
                h_below += ph_blk
                i = j
            tv = product_tv_exact(m, h, n)
            assert wins <= auroc_upper(tv) + 1e-12
