"""Exact distribution machinery: TV, Chernoff, products, brute force."""

import math

import numpy as np
import pytest

from detectability import (
    BudgetError,
    Categorical,
    DimensionError,
    ProductSpec,
    chernoff_information,
    min_error_bruteforce,
    product_tv_exact,
    tv_distance,
)

from _synth import rand_pair

BERN_6 = Categorical.bernoulli(0.6)
BERN_5 = Categorical.bernoulli(0.5)

# Oracle: brute-force grid search over alpha in {0, 1e-6, ..., 1} for the
# coefficient sum 0.4^a 0.5^(1-a) + 0.6^a 0.5^(1-a), frozen before the
# golden-section implementation existed.
CHERNOFF_BERN_6_VS_5 = 0.0050767704853432695


def chernoff_grid_oracle(p: Categorical, q: Categorical, step: float = 1e-6) -> float:
    mask = (p.probs > 0) & (q.probs > 0)
    if not mask.any():
        return math.inf
    lp = np.log(p.probs[mask])
    lq = np.log(q.probs[mask])
    best = math.inf
    for chunk in np.array_split(np.arange(0.0, 1.0 + step / 2, step), 101):
        coeff = np.exp(chunk[:, None] * lp + (1 - chunk[:, None]) * lq).sum(axis=1)
        best = min(best, float(coeff.min()))
    return -math.log(best)


class TestCategorical:
    def test_renormalizes_within_tolerance(self):
        c = Categorical([0.5, 0.5 + 5e-13])
        assert c.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_sum_outside_tolerance(self):
        with pytest.raises(ValueError, match="sum"):
            Categorical([0.5, 0.5 + 1e-6])

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Categorical([1.1, -0.1])

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            Categorical([])
        with pytest.raises(ValueError):
            Categorical([np.nan, 1.0])

    def test_support_size_and_readonly(self):
        c = Categorical([0.25] * 4)
        assert c.support_size == 4
        with pytest.raises(ValueError):
            c.probs[0] = 0.5

    def test_bernoulli_layout(self):
        assert BERN_6.probs.tolist() == [0.4, 0.6]

    def test_equality_and_hash(self):
        assert Categorical([0.5, 0.5]) == Categorical.uniform(2)
        assert hash(Categorical([0.5, 0.5])) == hash(Categorical.uniform(2))


class TestTvDistance:
    def test_bernoulli_example(self):
        assert tv_distance(BERN_6, BERN_5) == pytest.approx(0.1, abs=1e-12)

    def test_identical_is_zero(self):
        assert tv_distance(BERN_6, BERN_6) == 0.0

    def test_disjoint_is_one(self):
        assert tv_distance(Categorical([1.0, 0.0]), Categorical([0.0, 1.0])) == 1.0

    def test_mismatched_support_raises(self):
        with pytest.raises(DimensionError):
            tv_distance(BERN_6, Categorical([0.2, 0.3, 0.5]))

    def test_disjoint_supports_never_exceed_one(self):
        # the unclamped L1 sum rounds to 1.0000000000000002 here
        p = Categorical([1 / 184] * 184 + [0] * 7)
        q = Categorical([0] * 184 + [1 / 7] * 7)
        assert tv_distance(p, q) == 1.0
        assert tv_distance(q, p) == 1.0

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p, q = rand_pair(rng, int(rng.integers(2, 9)))
            tv = tv_distance(p, q)
            assert tv == tv_distance(q, p)
            assert 0.0 <= tv <= 1.0


class TestChernoffInformation:
    def test_grid_oracle_regression(self):
        assert chernoff_information(BERN_6, BERN_5) == pytest.approx(
            CHERNOFF_BERN_6_VS_5, abs=1e-12
        )

    def test_oracle_reproduces_frozen_constant(self):
        assert chernoff_grid_oracle(BERN_6, BERN_5) == pytest.approx(
            CHERNOFF_BERN_6_VS_5, abs=1e-15
        )

    def test_symmetric_pair_closed_form(self):
        # coefficient minimized at alpha = 1/2: 2 sqrt(0.09) = 0.6
        got = chernoff_information(Categorical.bernoulli(0.9), Categorical.bernoulli(0.1))
        assert got == pytest.approx(-math.log(0.6), abs=1e-9)

    def test_identical_is_zero(self):
        assert chernoff_information(BERN_5, BERN_5) == pytest.approx(0.0, abs=1e-12)

    def test_disjoint_supports_is_inf(self):
        got = chernoff_information(Categorical([1.0, 0.0]), Categorical([0.0, 1.0]))
        assert got == math.inf

    def test_symmetry_and_grid_agreement(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p, q = rand_pair(rng, int(rng.integers(2, 6)), zero_frac=0.2)
            a = chernoff_information(p, q)
            b = chernoff_information(q, p)
            if math.isinf(a):
                assert math.isinf(b)
                continue
            assert a == pytest.approx(b, abs=1e-10)
            assert a == pytest.approx(chernoff_grid_oracle(p, q, 1e-4), abs=1e-7)
            assert a >= 0.0


class TestProductTvExact:
    def test_n1_equals_tv(self):
        assert product_tv_exact(BERN_6, BERN_5, 1) == tv_distance(BERN_6, BERN_5)

    def test_bernoulli_n2_hand_value(self):
        # masses (0.16, 0.24, 0.24, 0.36) vs four 0.25s: half L1 = 0.11
        assert product_tv_exact(BERN_6, BERN_5, 2) == pytest.approx(0.11, abs=1e-12)

    def test_monotone_in_n(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            p, q = rand_pair(rng, int(rng.integers(2, 5)))
            tvs = [product_tv_exact(p, q, n) for n in range(1, 8)]
            assert all(b >= a - 1e-12 for a, b in zip(tvs, tvs[1:]))

    def test_budget_guard(self):
        p, q = rand_pair(np.random.default_rng(3), 10)
        with pytest.raises(BudgetError):
            product_tv_exact(p, q, 8)  # 10**8 outcomes

    def test_chernoff_rate_trend(self):
        # log(1 - tv_n)/n climbs toward -chernoff along doublings and never
        # crosses it; n = 6 is included only against the ceiling, since the
        # doubling argument does not order it relative to n = 4.
        rng = np.random.default_rng(4)
        for _ in range(25):
            p, q = rand_pair(rng, int(rng.integers(2, 5)))
            ic = chernoff_information(p, q)
            rate = {
                n: math.log(1.0 - product_tv_exact(p, q, n)) / n for n in (2, 4, 6, 8)
            }
            assert rate[2] <= rate[4] + 1e-12
            assert rate[4] <= rate[8] + 1e-12
            for n in (2, 4, 6, 8):
                assert rate[n] <= -ic + 1e-12
            assert abs(rate[8] + ic) <= abs(rate[2] + ic) + 1e-12


class TestProductSpec:
    def test_size_and_mass_order(self):
        spec = ProductSpec(BERN_6, 2)
        assert spec.size == 4
        expect = np.multiply.outer(BERN_6.probs, BERN_6.probs).ravel()
        np.testing.assert_allclose(spec.masses(), expect, rtol=0, atol=0)

    def test_masses_sum_to_one(self):
        spec = ProductSpec(Categorical([0.2, 0.3, 0.5]), 6)
        assert spec.masses().sum() == pytest.approx(1.0, abs=1e-12)

    def test_budget_guard(self):
        with pytest.raises(BudgetError):
            ProductSpec(Categorical.uniform(10), 8).masses()

    def test_bad_n(self):
        with pytest.raises(ValueError):
            ProductSpec(BERN_6, 0)


class TestMinErrorBruteforce:
    def test_matches_one_minus_tv(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p, q = rand_pair(rng, int(rng.integers(2, 9)), zero_frac=0.15)
            res = min_error_bruteforce(p, q)
            assert res.min_error == pytest.approx(1.0 - tv_distance(p, q), abs=1e-12)
            assert res.lr_region_error <= res.min_error + 1e-12

    def test_lr_region_contents(self):
        res = min_error_bruteforce(BERN_6, BERN_5)
        assert res.lr_region == (1,)
        assert res.min_error == pytest.approx(0.9, abs=1e-12)

    def test_identical_distributions(self):
        res = min_error_bruteforce(BERN_5, BERN_5)
        assert res.min_error == pytest.approx(1.0, abs=1e-12)
        assert res.lr_region == (0, 1)  # ties kept in the region

    def test_support_cap(self):
        p, q = rand_pair(np.random.default_rng(6), 21)
        with pytest.raises(BudgetError):
            min_error_bruteforce(p, q)
