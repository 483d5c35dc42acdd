"""Exact distribution machinery: TV, Chernoff, products, brute force."""

import math
import re
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from detectability import (
    BudgetError,
    Categorical,
    DimensionError,
    chernoff_information,
    min_error_bruteforce,
    product_tv_exact,
    tv_distance,
)

from detectability.distributions import (
    _product_tvs,
    _within_budget,
)

from _synth import product_masses, rand_pair

BERN_6 = Categorical.bernoulli(0.6)
BERN_5 = Categorical.bernoulli(0.5)

# Oracle: brute-force grid search over alpha in {0, 1e-6, ..., 1} for the
# coefficient sum 0.4^a 0.5^(1-a) + 0.6^a 0.5^(1-a), frozen before any
# iterative minimizer existed.
CHERNOFF_BERN_6_VS_5 = 0.0050767704853432695


def product_tv_oracle(p: Categorical, q: Categorical, n: int) -> float:
    """Half the L1 distance between the two enumerated k**n product vectors."""
    return float(0.5 * np.abs(product_masses(p, n) - product_masses(q, n)).sum())


@st.composite
def small_pairs(draw, max_k=4, mass=st.floats(1e-3, 1.0)):
    """Categorical pairs on k <= max_k indices, zero masses allowed on either side."""
    k = draw(st.integers(1, max_k))
    weights = st.lists(st.one_of(st.just(0.0), mass), min_size=k, max_size=k).filter(any)
    pair = []
    for _ in range(2):
        w = np.array(draw(weights))
        pair.append(Categorical(w / w.sum()))
    return pair[0], pair[1], draw(st.integers(1, 6))


# pairs on up to 40 indices, masses log-uniform down to about 1e-300
WIDE_PAIRS = small_pairs(40, st.floats(0.0, 300.0).map(lambda e: 10.0**-e))


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


def chernoff_decimal(p: Categorical, q: Categorical) -> Decimal:
    """Chernoff information of the stored masses, converted exactly, in 50 digits.

    Bisection on the sign of f'(a) = sum p^a q^(1-a) (log p - log q), whose
    100 halvings leave the bracket far under 1e-30; infinite when the
    supports are disjoint.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        logs = [
            (Decimal(a).ln(), Decimal(b).ln())
            for a, b in zip(p.probs.tolist(), q.probs.tolist())
            if a > 0 and b > 0
        ]
        if not logs:
            return Decimal("Infinity")

        def terms(a):
            return [(a * lp + (1 - a) * lq).exp() for lp, lq in logs]

        def slope(a):
            return sum(t * (lp - lq) for t, (lp, lq) in zip(terms(a), logs))

        lo, hi = Decimal(0), Decimal(1)
        if slope(lo) >= 0:
            hi = lo
        elif slope(hi) <= 0:
            lo = hi
        else:
            for _ in range(100):
                mid = (lo + hi) / 2
                if slope(mid) < 0:
                    lo = mid
                else:
                    hi = mid
        return -sum(terms((lo + hi) / 2)).ln()


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
        with pytest.raises(ValueError, match="^probs must be finite$"):
            Categorical(np.array([np.inf, 0.0]))

    @pytest.mark.parametrize(
        "probs, shown",
        [({"a": 0.5, "b": 0.5}, '{"a": 0.5, "b": 0.5}'), ("ab", '"ab"'), (0.5, "0.5"), (None, "null")],
        ids=["mapping", "string", "number", "null"],
    )
    def test_rejects_what_is_not_a_list_by_name(self, probs, shown):
        with pytest.raises(ValueError, match=f"^probs must be a list of numbers, got {re.escape(shown)}$"):
            Categorical(probs)

    def test_support_size_and_readonly(self):
        c = Categorical([0.25] * 4)
        assert c.support_size == 4
        with pytest.raises(ValueError):
            c.probs[0] = 0.5

    def test_bernoulli_layout(self):
        assert BERN_6.probs.tolist() == [0.4, 0.6]

    def test_equality_and_hash(self):
        assert Categorical([0.5, 0.5]) == Categorical(np.full(2, 1 / 2))
        assert hash(Categorical([0.5, 0.5])) == hash(Categorical(np.full(2, 1 / 2)))
        # only a Categorical compares equal: the same masses as a list do not
        assert (Categorical([1.0]) == [1.0]) is False


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

    @settings(max_examples=300, deadline=None)
    @given(small_pairs())
    def test_symmetry_and_range_property(self, case):
        p, q, _ = case
        tv = tv_distance(p, q)
        assert tv == tv_distance(q, p)
        assert 0.0 <= tv <= 1.0


class TestChernoffInformation:
    def test_grid_oracle_regression(self):
        assert chernoff_information(BERN_6, BERN_5) == pytest.approx(
            CHERNOFF_BERN_6_VS_5, abs=1e-12
        )

    def test_pinned_float64_floor_value(self):
        # the Newton minimum, evaluated in float64 and stepped down by its
        # a-priori rounding margin: 3.9e-15 under the 50-digit value of the
        # stored masses, 0.00507677048534470852...; the tv command's pinned
        # cell covers the same pair read from files
        assert chernoff_information(BERN_6, BERN_5) == 0.005076770485340851

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

    def test_identical_is_exactly_zero(self):
        # the log-space coefficient of this pair rounds an ulp below 0
        p = Categorical([4 / 7, 3 / 7])
        assert chernoff_information(p, p) == 0.0

    def test_disjoint_supports_is_inf(self):
        got = chernoff_information(Categorical([1.0, 0.0]), Categorical([0.0, 1.0]))
        assert got == math.inf

    @settings(max_examples=200, deadline=None)
    @given(small_pairs())
    @example((BERN_6, BERN_5, 1))  # a float64 Newton minimum lands 8.5e-18 above
    # one mass under ~1e-22: E[d^2] - mean^2 cancels to 0 at the secant start
    @example((Categorical([0.5, 0.5]), Categorical([1e-30, 1.0 - 1e-30]), 1))
    @example((Categorical([0.5, 0.5]), Categorical([1e-300, 1.0]), 1))
    def test_floor_on_50_digit_value(self, case):
        p, q, _ = case
        got = chernoff_information(p, q)
        # stored masses can sum an ulp past 1, putting an equal pair's exact
        # value a hair below the 0 that C cannot go under
        want = max(chernoff_decimal(p, q), Decimal(0))
        if want.is_infinite():
            assert got == math.inf
            return
        assert Decimal(got) <= want
        assert want - Decimal(got) <= Decimal("1e-12")

    @settings(max_examples=60, deadline=None)
    @given(WIDE_PAIRS)
    # logs near -690, where each log's allowance is largest
    @example((Categorical([1e-300, 0.5, 0.5]), Categorical([0.5, 1e-300, 0.5]), 1))
    def test_floor_on_50_digit_value_for_wide_pairs(self, case):
        p, q, _ = case
        got = chernoff_information(p, q)
        want = max(chernoff_decimal(p, q), Decimal(0))
        if want.is_infinite():
            assert got == math.inf
            return
        assert Decimal(got) <= want
        # the margin and the error it covers are each under 1e-12 while every
        # |log mass| is under 1024
        assert want - Decimal(got) <= Decimal("2e-12")

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
        with pytest.raises(BudgetError):
            product_tv_exact(BERN_6, BERN_5, 20_000)  # too many digits to print
        one = Categorical([1.0])
        assert product_tv_exact(one, one, 30) == 0.0  # 1**30 is within budget

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

    @settings(max_examples=300, deadline=None)
    @given(small_pairs())
    def test_type_sum_matches_outer_product(self, case):
        p, q, n = case
        tv = product_tv_exact(p, q, n)
        assert tv == pytest.approx(product_tv_oracle(p, q, n), abs=1e-12)
        assert tv == product_tv_exact(q, p, n)
        assert 0.0 <= tv <= 1.0

    def test_budget_edge_memory(self):
        # 2**23 tuples at the budget edge, but only 24 types; a sweep up to
        # it holds one level at a time
        for run in (
            lambda: product_tv_exact(BERN_6, BERN_5, 23),
            lambda: list(_product_tvs(BERN_6, BERN_5, range(1, 24))),
        ):
            tracemalloc.start()
            try:
                run()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 2**20

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_sweep_equals_one_call_per_n(self, data):
        k = data.draw(st.integers(1, 6))
        weights = st.lists(st.floats(1e-3, 1.0), min_size=k, max_size=k)
        p, q = (Categorical(np.array(w) / sum(w)) for w in (data.draw(weights), data.draw(weights)))
        top = 30 if k == 1 else max(n for n in range(1, 25) if _within_budget(k, n))
        ns = sorted(data.draw(st.sets(st.integers(1, top), min_size=1, max_size=6)))
        assert list(_product_tvs(p, q, ns)) == [product_tv_exact(p, q, n) for n in ns]

    def test_large_support(self):
        # a loop over support indices would take minutes here
        p, q = rand_pair(np.random.default_rng(7), 10**6)
        assert product_tv_exact(p, q, 1) == tv_distance(p, q)
        p, q = rand_pair(np.random.default_rng(8), 1000)
        assert product_tv_exact(p, q, 2) == pytest.approx(product_tv_oracle(p, q, 2), abs=1e-12)


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
