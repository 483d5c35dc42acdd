"""Likelihood-ratio scoring and empirical ROC assembly."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from detectability import (
    Categorical,
    DimensionError,
    auroc_upper,
    log_likelihood_ratio,
    product_tv_exact,
    roc_from_scores,
)
from detectability.detector import AUROC_CONSISTENCY_TOL

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

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    def test_additive_over_summed_count_vectors(self, seed, k):
        # zero masses included, so +-inf and the warned tie are exercised
        rng = np.random.default_rng(seed)
        m, h = rand_pair(rng, k, zero_frac=0.3)
        a = rng.integers(0, 4, size=k)
        b = rng.integers(0, 4, size=k)
        a[rng.integers(k)] += 1
        b[rng.integers(k)] += 1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            try:
                whole = log_likelihood_ratio(m, h, (a + b)[None, :])[0]
                parts = log_likelihood_ratio(m, h, np.stack([a, b])).sum()
            except ValueError:  # a set whose every sample has zero mass under both
                assume(False)
        only_m = (a + b)[(m.probs > 0) & (h.probs == 0)].any()
        only_h = (a + b)[(m.probs == 0) & (h.probs > 0)].any()
        if only_m and only_h:
            assert whole == 0.0  # certain for both sides: the tie convention
        elif only_m or only_h:
            assert whole == parts == (math.inf if only_m else -math.inf)
        else:
            assert whole == pytest.approx(parts, rel=1e-12, abs=1e-12)

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
            log_likelihood_ratio(BERN_6, Categorical(np.full(3, 1 / 3)), [0])
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

    @pytest.mark.parametrize("k", [3, 9, 40, 5000])
    def test_row_scores_bit_equal_in_any_matrix(self, k):
        # numpy sums a row pairwise past 8 entries, not in index order, but
        # reads nothing outside it: a count vector scores the same as an
        # index list, as a one-row matrix, and at the top, middle or bottom
        # of a matrix of any height
        rng = np.random.default_rng(k)
        m, h = (Categorical(rng.dirichlet(np.ones(k))) for _ in range(2))
        vectors = rng.integers(1, 30, size=(3, k))
        alone = [log_likelihood_ratio(m, h, v[None, :])[0] for v in vectors]
        assert [log_likelihood_ratio(m, h, expand(v)) for v in vectors] == alone
        filler = rng.integers(0, 30, size=(50, k))
        for rows in (2, 218, 2000, 40000):
            if rows * k > 10**7:  # 40,000 rows of 5,000 would hold 1.6 GB
                continue
            counts = np.resize(filler, (rows, k))
            at = list(dict.fromkeys([0, rows // 2, rows - 1]))
            counts[at] = vectors[: len(at)]
            got = log_likelihood_ratio(m, h, counts)
            assert got[at].tolist() == alone[: len(at)]

    @pytest.mark.parametrize("k", range(2, 9))
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_rows_sum_bit_equal_to_numpys_row_sum(self, k, layout):
        # below 8 columns the scores are summed column by column, which must
        # add the same terms in the same order as ``sum(axis=1)``
        rng = np.random.default_rng(k)
        m, h = (Categorical(rng.dirichlet(np.ones(k))) for _ in range(2))
        counts = rng.integers(0, 30, size=(2000, 2 * k))
        counts[:, 0] += 1
        counts = {
            "C": counts[:, :k].copy(), "F": np.asfortranarray(counts[:, :k]),
            "strided": counts[:, ::2],
        }[layout]
        want = (counts * (m.log_probs() - h.log_probs())).sum(axis=1)
        assert log_likelihood_ratio(m, h, counts).tobytes() == want.tobytes()

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

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 10), st.sampled_from([0.0, 0.3]))
    def test_scores_and_warnings_match_the_general_path(self, seed, k, zero_frac):
        # one m scored against two h, each pair twice: the no-zero-mass fast
        # path and the zero-mass path both give the general path's bits and
        # warnings, whatever the pair was scored against before
        rng = np.random.default_rng(seed)
        m, h1 = rand_pair(rng, k, zero_frac=zero_frac)
        _, h2 = rand_pair(rng, k, zero_frac=zero_frac)
        counts = rng.integers(0, 4, size=(6, k))
        counts[np.arange(6), rng.integers(k, size=6)] += 1
        for h in (h1, h2, h1, h2):
            for samples in (counts, expand(counts[0])):
                got, got_warned = scored(log_likelihood_ratio, m, h, samples)
                want, want_warned = scored(general_path_llr, m, h, samples)
                assert got_warned == want_warned
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def scored(llr, m, h, samples):
    """``(scores or the ValueError's message, warning messages)`` of one call."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = llr(m, h, samples)
        except ValueError as exc:
            got = str(exc)
    return got, [str(w.message) for w in caught]


def general_path_llr(m, h, samples):
    """``log_likelihood_ratio`` with every pair taken through the zero-mass bookkeeping."""
    arr = np.asarray(samples)
    k = m.support_size
    counts = np.bincount(arr, minlength=k)[None, :] if arr.ndim == 1 else arr
    with np.errstate(divide="ignore", invalid="ignore"):
        table = np.log(m.probs) - np.log(h.probs)
    total = counts.sum(axis=1)
    if not total.all():
        raise ValueError("every sample set must be nonempty")
    finite = np.isfinite(table)
    weights = np.where(finite, table, 0.0)
    if k < 8:
        scores = counts[:, 0] * weights[0]
        for j in range(1, k):
            scores += counts[:, j] * weights[j]
    else:
        scores = (counts * weights).sum(axis=1)
    both_zero = np.isnan(table)
    skipped = counts[:, both_zero].sum(axis=1)
    if skipped.any():
        warnings.warn(
            f"skipped {int(skipped.sum())} sample(s) with zero mass under both distributions",
            RuntimeWarning,
        )
        if (skipped == total).any():
            raise ValueError("every sample had zero mass under both distributions")
    has_pos = counts[:, np.isposinf(table)].any(axis=1)
    has_neg = counts[:, np.isneginf(table)].any(axis=1)
    scores[has_pos] = np.inf
    scores[has_neg] = -np.inf
    tie = has_pos & has_neg
    if tie.any():
        warnings.warn(
            "evidence certain for both sides (joint mass zero under both models); "
            "treating as a tie",
            RuntimeWarning,
        )
        scores[tie] = 0.0
    return float(scores[0]) if arr.ndim == 1 else scores


def mann_whitney_auroc(machine, human):
    """Tie-aware probability that a machine score outranks a human score."""
    m = np.asarray(machine, dtype=float)
    h = np.asarray(human, dtype=float)
    wins = (m[:, None] > h[None, :]).sum() + 0.5 * (m[:, None] == h[None, :]).sum()
    return float(wins) / (m.size * h.size)


def searchsorted_roc(machine, human):
    """The rankdata plus searchsorted ROC that ``roc_from_scores`` replaced."""
    ms = np.asarray(machine, dtype=np.float64)
    hs = np.asarray(human, dtype=np.float64)
    combined = np.concatenate([ms, hs])
    r_m = float(rankdata(combined, method="average")[: ms.size].sum())
    auroc = (r_m - ms.size * (ms.size + 1) / 2.0) / (ms.size * hs.size)
    thresholds = np.unique(combined)[::-1]
    tpr = 1.0 - np.searchsorted(np.sort(ms), thresholds, side="left") / ms.size
    fpr = 1.0 - np.searchsorted(np.sort(hs), thresholds, side="left") / hs.size
    fprs = np.concatenate([[0.0], fpr])
    tprs = np.concatenate([[0.0], tpr])
    return tuple(zip(fprs.tolist(), tprs.tolist())), float(auroc)


EDGE_SCORES = [-math.inf, math.inf, -0.0, 0.0, 1.5, -2.25, 3.0]
scores_with_ties = st.lists(
    st.sampled_from(EDGE_SCORES) | st.floats(-4, 4, allow_nan=False),
    min_size=1,
    max_size=40,
)


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

    def test_equals_searchsorted_oracle(self):
        rng = np.random.default_rng(14)
        pool = np.array(EDGE_SCORES)
        for trial in range(1200):
            nm, nh = (int(x) for x in rng.integers(1, 60, size=2))
            if trial % 3 == 0:
                m, h = rng.choice(pool, nm), rng.choice(pool, nh)
            elif trial % 3 == 1:
                m = rng.integers(-3, 4, nm).astype(float)
                h = rng.integers(-3, 4, nh).astype(float)
                m[rng.random(nm) < 0.1] = math.inf
                h[rng.random(nh) < 0.1] = -math.inf
            else:
                m, h = rng.normal(1, 1, nm), rng.normal(0, 1, nh)
            roc = roc_from_scores(m, h)
            assert (roc.points, roc.auroc) == searchsorted_roc(m, h)

    def test_shuffled_scores_give_the_same_curve(self):
        # many tied LLR scores, as simulate produces them
        rng = np.random.default_rng(15)
        m_counts = rng.multinomial(300, BERN_6.probs, size=20_000)
        h_counts = rng.multinomial(300, BERN_5.probs, size=20_000)
        m = log_likelihood_ratio(BERN_6, BERN_5, m_counts)
        h = log_likelihood_ratio(BERN_6, BERN_5, h_counts)
        ordered = roc_from_scores(np.sort(m), np.sort(h))
        for _ in range(3):
            shuffled = roc_from_scores(rng.permutation(m), rng.permutation(h))
            assert shuffled.auroc == ordered.auroc
            assert shuffled.points == ordered.points

    @settings(max_examples=300, deadline=None)
    @given(scores_with_ties, scores_with_ties)
    def test_rank_auroc_is_trapezoid_area_in_unit_interval(self, m, h):
        roc = roc_from_scores(m, h)
        fprs, tprs = zip(*roc.points)
        area = float(np.trapezoid(tprs, fprs))
        assert abs(area - roc.auroc) <= AUROC_CONSISTENCY_TOL
        assert 0.0 <= roc.auroc <= 1.0

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
