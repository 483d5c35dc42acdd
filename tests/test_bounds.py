"""Detection ceilings and sample-size floors: frozen oracles and domains."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detectability import (
    Categorical,
    DependenceSpec,
    Document,
    Label,
    TrainConfig,
    auroc_upper,
    auroc_vs_n_curve,
    auroc_vs_prefix_length,
    build_vocab,
    ngram_table,
    pairwise_augment,
    product_tv_exact,
    roc_upper_curve,
    sample_complexity_iid,
    sample_complexity_noniid,
    tv_tensor_chernoff,
    tv_tensor_lower,
)
from detectability.bounds import _check_int, _check_ints, _check_real

# Oracles computed by hand / with mpmath before the implementations existed.
# iid: ceil(ln(2 / (1 - eps)) / delta^2)
#   delta=0.1, eps=0.9  -> ceil(299.57...) = 300
#   delta=1.0, eps=0.5  -> ceil(1.386...) = 2
# noniid with gamma = ln(8 / (1 - eps)), alpha = sum (c_j - 1) rho_j:
#   delta=0.1, eps=0.9, one block c=10 rho=0.5 (alpha=4.5) -> 605
N_IID_EXAMPLE = 300
N_IID_EASY = 2
N_DEP_EXAMPLE = 605

# tv_tensor_lower(n, delta) = max(0, 1 - 2 exp(-n delta^2 / 2))
TV_TENSOR_N300_D01 = 0.5537396797031403   # 1 - 2 exp(-1.5)
# auroc_upper(tv) = 0.5 + tv - tv^2 / 2
AUROC_AT_TV_TENSOR = 0.9004258632642721
# tv_tensor_chernoff = 1 - exp(-n c), both anchors cross-checked with
# 40-digit Decimal arithmetic
TV_CHERNOFF_N5 = 0.9222300368415623      # n=5,   c=0.5108
TV_CHERNOFF_N500 = 0.9210061472371848    # n=500, c=0.0050767704853432695


class TestRocUpperCurve:
    def test_pinned_points(self):
        fpr = [0.0, 0.2, 0.5, 0.9, 1.0]
        got = roc_upper_curve(0.3, fpr)
        assert [t for _, t in got] == [0.3, 0.5, 0.8, 1.0, 1.0]
        assert [f for f, _ in got] == fpr

    def test_tv_zero_is_diagonal(self):
        fpr = [0.0, 0.25, 1.0]
        assert [t for _, t in roc_upper_curve(0.0, fpr)] == fpr

    def test_tv_one_is_step(self):
        assert [t for _, t in roc_upper_curve(1.0, [0.0, 0.5, 1.0])] == [1.0, 1.0, 1.0]

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError):
            roc_upper_curve(0.3, [0.5, 0.2])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            roc_upper_curve(1.5, [0.0, 1.0])
        with pytest.raises(ValueError):
            roc_upper_curve(0.5, [-0.1, 1.0])


class TestAurocUpper:
    def test_pinned_values(self):
        assert auroc_upper(0.0) == 0.5
        assert auroc_upper(1.0) == 1.0
        assert auroc_upper(0.1) == pytest.approx(0.595, abs=1e-12)

    def test_is_trapezoid_area_of_roc_ceiling(self):
        # area under tpr = min(fpr + tv, 1) on a dense grid
        grid = np.linspace(0.0, 1.0, 100001)
        for tv in (0.05, 0.3, 0.62, 0.97):
            area = np.trapezoid(np.minimum(grid + tv, 1.0), grid)
            assert auroc_upper(tv) == pytest.approx(float(area), abs=1e-9)

    def test_monotone_in_tv(self):
        vals = [auroc_upper(tv) for tv in np.linspace(0, 1, 101)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestTvTensorLower:
    def test_frozen_value(self):
        assert tv_tensor_lower(300, 0.1) == pytest.approx(TV_TENSOR_N300_D01, abs=1e-15)
        assert auroc_upper(tv_tensor_lower(300, 0.1)) == pytest.approx(
            AUROC_AT_TV_TENSOR, abs=1e-15
        )

    def test_clamped_at_zero_for_small_n(self):
        assert tv_tensor_lower(1, 0.1) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            tv_tensor_lower(0, 0.1)
        with pytest.raises(ValueError):
            tv_tensor_lower(10, 0.0)
        with pytest.raises(ValueError):
            tv_tensor_lower(10, 1.5)

    def test_monotone_in_n(self):
        vals = [tv_tensor_lower(n, 0.2) for n in range(1, 400)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 0.99

    def test_n_past_the_float_range(self):
        # n delta^2 / 2 is 5e397, 0.5 and 5e19: the floor is 1, 0 and 1
        assert tv_tensor_lower(10**400, 0.1) == 1.0
        assert tv_tensor_lower(10**400, 1e-200) == 0.0
        assert tv_tensor_lower(10**420, 1e-200) == 1.0


class TestTvTensorChernoff:
    def test_frozen_values(self):
        assert tv_tensor_chernoff(5, 0.5108) == pytest.approx(
            TV_CHERNOFF_N5, abs=1e-12
        )
        assert tv_tensor_chernoff(500, 0.0050767704853432695) == pytest.approx(
            TV_CHERNOFF_N500, abs=1e-12
        )

    def test_infinite_rate_saturates(self):
        assert tv_tensor_chernoff(1, math.inf) == 1.0

    def test_zero_rate_is_zero(self):
        assert tv_tensor_chernoff(100, 0.0) == 0.0

    def test_n_past_the_float_range(self):
        assert tv_tensor_chernoff(10**400, 0.1) == 1.0
        assert tv_tensor_chernoff(10**400, 0.0) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            tv_tensor_chernoff(0, 0.1)
        with pytest.raises(ValueError):
            tv_tensor_chernoff(10, -0.1)


class TestSampleComplexityIid:
    def test_frozen_values(self):
        assert sample_complexity_iid(0.1, 0.9) == N_IID_EXAMPLE
        assert sample_complexity_iid(1.0, 0.5) == N_IID_EASY

    def test_domain(self):
        for delta, eps in [(0.0, 0.9), (1.1, 0.9), (0.1, 0.4), (0.1, 1.0)]:
            with pytest.raises(ValueError):
                sample_complexity_iid(delta, eps)

    @pytest.mark.parametrize("delta", [1e-200, 1e-160])
    def test_sample_size_past_the_float_range_names_delta(self, delta):
        # delta**2 underflows to 0 at 1e-200, and the quotient overflows at 1e-160
        with pytest.raises(
            ValueError, match=rf"^the sample size at delta = {delta!r} is past the float range$"
        ):
            sample_complexity_iid(delta, 0.9)
        with pytest.raises(
            ValueError,
            match=rf"^the sample size at delta = {delta!r}, alpha = 4\.5 is past the float range$",
        ):
            sample_complexity_noniid(delta, 0.9, DependenceSpec([(10, 0.5)]))
        # a dependence mass near the float limit overflows it at any delta
        with pytest.raises(ValueError, match=r"^the sample size at delta = 0\.1, alpha = 1e\+308 "):
            sample_complexity_noniid(0.1, 0.9, DependenceSpec([(10**308 + 1, 1.0)]))

    def test_guarantee_holds_and_is_tight(self):
        # n draws must push the tensorized floor's ceiling to >= eps, and
        # n - 1 draws must not: auroc_upper(tv_tensor_lower(n, d)) is exactly
        # 1 - 2 exp(-n d^2) once the floor is positive.
        for delta in np.linspace(0.05, 1.0, 20):
            for eps in np.linspace(0.5, 0.99, 20):
                n = sample_complexity_iid(float(delta), float(eps))
                tv = max(float(delta), tv_tensor_lower(n, float(delta)))
                assert auroc_upper(tv) >= eps - 1e-12
                if n > 1:
                    tv_prev = tv_tensor_lower(n - 1, float(delta))
                    assert 1.0 - 2.0 * math.exp(-(n - 1) * delta**2) < eps


class TestDependenceSpec:
    def test_alpha_and_n(self):
        dep = DependenceSpec([(10, 0.5)])
        assert dep.n == 10
        assert dep.alpha == pytest.approx(4.5)
        dep2 = DependenceSpec([(3, 1.0), (2, 0.25), (1, 0.9)])
        assert dep2.n == 6
        assert dep2.alpha == pytest.approx(2.25)
        dep3 = DependenceSpec([(5, 0.2)] * 4)
        assert dep3.blocks == ((5, 0.2),) * 4
        assert dep3.n == 20

    def test_independent_blocks_have_zero_alpha(self):
        assert DependenceSpec([(1, 0.7), (1, 0.0)]).alpha == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            DependenceSpec([])
        with pytest.raises(ValueError):
            DependenceSpec([(0, 0.5)])
        with pytest.raises(ValueError):
            DependenceSpec([(2, 1.5)])
        with pytest.raises((TypeError, ValueError)):
            DependenceSpec([(2.5, 0.5)])


class TestSampleComplexityNoniid:
    def test_frozen_value(self):
        dep = DependenceSpec([(10, 0.5)])
        assert sample_complexity_noniid(0.1, 0.9, dep) == N_DEP_EXAMPLE

    def test_alpha_zero_collapses_to_gamma_over_delta_sq(self):
        dep = DependenceSpec([(1, 0.0)] * 5)
        got = sample_complexity_noniid(0.1, 0.9, dep)
        assert got == math.ceil(math.log(8 / 0.1) / 0.01)

    def test_looser_than_iid_constant(self):
        # the dependent floor uses ln(8/(1-eps)) where the iid floor uses
        # ln(2/(1-eps)), so even at alpha = 0 the dependent answer is larger
        dep = DependenceSpec([(1, 0.0)])
        for delta in (0.05, 0.1, 0.3, 0.8):
            for eps in (0.5, 0.75, 0.9, 0.95):
                assert sample_complexity_noniid(delta, eps, dep) >= sample_complexity_iid(
                    delta, eps
                )

    def test_monotone_in_dependence(self):
        base = sample_complexity_noniid(0.1, 0.9, DependenceSpec([(10, 0.0)]))
        for rho in (0.25, 0.5, 0.75, 1.0):
            stronger = sample_complexity_noniid(0.1, 0.9, DependenceSpec([(10, rho)]))
            assert stronger >= base
            base = stronger
        small_c = sample_complexity_noniid(0.1, 0.9, DependenceSpec([(2, 0.5)]))
        big_c = sample_complexity_noniid(0.1, 0.9, DependenceSpec([(40, 0.5)]))
        assert big_c > small_c

    def test_result_satisfies_quadratic(self):
        # n must satisfy n >= gamma / (2 delta^2) + 2 alpha / delta (sufficient
        # form); check the returned n against the closed-form root directly
        dep = DependenceSpec([(10, 0.5)])
        delta, eps = 0.1, 0.9
        gamma = math.log(8 / (1 - eps))
        alpha = dep.alpha
        root = gamma / (2 * delta**2) + 2 * alpha / delta + math.sqrt(
            gamma**2 + 8 * alpha * delta * gamma
        ) / (2 * delta**2)
        assert sample_complexity_noniid(delta, eps, dep) == math.ceil(root)

    @settings(max_examples=500, deadline=None)
    @given(
        st.floats(1e-6, 1.0),
        st.floats(0.5, 1.0, exclude_max=True),
        st.lists(st.tuples(st.integers(1, 10**6), st.floats(0.0, 1.0)), min_size=1, max_size=4),
    )
    def test_result_meets_the_concentration_precondition(self, delta, eps, blocks):
        dep = DependenceSpec(blocks)
        assert delta > dep.alpha / sample_complexity_noniid(delta, eps, dep)

    def test_domain(self):
        dep = DependenceSpec([(2, 0.5)])
        with pytest.raises(ValueError):
            sample_complexity_noniid(0.0, 0.9, dep)
        with pytest.raises(ValueError):
            sample_complexity_noniid(0.1, 0.3, dep)

    @pytest.mark.parametrize("dep", [[(2, 0.5)], None], ids=["list", "none"])
    def test_dep_must_be_a_dependence_spec(self, dep):
        with pytest.raises(ValueError, match="^dep must be a DependenceSpec$"):
            sample_complexity_noniid(0.1, 0.9, dep)


class TestAurocVsNCurve:
    def test_n1_reports_delta_itself(self):
        pts = auroc_vs_n_curve(0.37, [1])
        assert pts[0].tv_lower == 0.37
        assert pts[0].auroc_upper == pytest.approx(auroc_upper(0.37))

    def test_monotone_and_saturating(self):
        ns = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]
        pts = auroc_vs_n_curve(0.1, ns)
        tvs = [p.tv_lower for p in pts]
        aucs = [p.auroc_upper for p in pts]
        assert all(b >= a for a, b in zip(tvs, tvs[1:]))
        assert all(b >= a for a, b in zip(aucs, aucs[1:]))
        assert aucs[-1] > 0.999
        assert all(p.n == n for p, n in zip(pts, ns))

    def test_rejects_bad_n_values(self):
        with pytest.raises(ValueError):
            auroc_vs_n_curve(0.1, [])
        with pytest.raises(ValueError):
            auroc_vs_n_curve(0.1, [2, 2])
        with pytest.raises(ValueError):
            auroc_vs_n_curve(0.1, [4, 2])
        with pytest.raises(ValueError):
            auroc_vs_n_curve(0.1, [0, 1])


DOCS = [
    Document(id=f"{lab.value}{i}", text="a b c d", label=lab)
    for lab in (Label.HUMAN, Label.MACHINE)
    for i in range(3)
]


class TestIntegerValidators:
    def test_check_int_range_and_types(self):
        assert _check_int("order", np.int64(6), high=6) == 6
        assert type(_check_int("n", np.int32(3))) is int
        assert _check_int("seed", 0, low=0) == 0
        with pytest.raises(ValueError, match=r"order must be an integer in 1\.\.6, got 7"):
            _check_int("order", 7, high=6)
        with pytest.raises(ValueError, match="n must be a positive integer, got 0"):
            _check_int("n", 0)
        for bad in (True, 2.0, "2", None):
            with pytest.raises(ValueError, match="^n must be"):
                _check_int("n", bad)

    def test_check_ints_list_rules(self):
        assert _check_ints("lengths", (np.int64(2), 5)) == [2, 5]
        assert _check_ints("orders", iter([1, 3]), high=6) == [1, 3]
        for bad, what in (
            ([], "nonempty"),
            ([2, 2], "strictly ascending"),
            ([4, 2], "strictly ascending"),
            ([0, 1], "positive integer"),
            ([1, 2.5], "positive integer"),
        ):
            with pytest.raises(ValueError, match=f"^lengths must be .*{what}"):
                _check_ints("lengths", bad)

    # A mapping would be read key by key, a set in hash order and a string
    # character by character: each is refused by the argument's name.
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: auroc_vs_n_curve(0.1, 3), "n_values must be a list of integers, got 3"),
            (
                lambda: auroc_vs_n_curve(0.1, {1: 2}),
                'n_values must be a list of integers, got {"1": 2}',
            ),
            (lambda: auroc_vs_n_curve(0.1, "12"), 'n_values must be a list of integers, got "12"'),
            (lambda: _check_ints("lengths", {3}), 'lengths must be a list of integers, got "{3}"'),
            (lambda: _check_ints("lengths", b"\x05"), "lengths must be a list of integers, got "),
            (
                lambda: auroc_vs_prefix_length(DOCS[:3], DOCS[3:], 5),
                "lengths must be a list of integers, got 5",
            ),
            (
                lambda: roc_upper_curve(0.5, {0.1: 1}),
                'fpr_grid must be a list of numbers, got {"0.1": 1}',
            ),
            (
                lambda: DependenceSpec({"blocks": [[2, 0.5]]}),
                'blocks must be a list of (size, rho) pairs, got {"blocks": [[2, 0.5]]}',
            ),
        ],
        ids=["number", "mapping", "string", "set", "bytes", "lengths", "fpr_grid", "blocks"],
    )
    def test_list_shapes_are_refused_by_name(self, call, message):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value).startswith(message)

    # JSON cannot name a tuple key, and a 0-d array is an Iterable that
    # cannot be iterated: each is still refused by name, shown by its repr.
    @pytest.mark.parametrize(
        "call, message",
        [
            (
                lambda: Categorical({(1, 2): 0.5}),
                "probs must be a list of numbers, got {(1, 2): 0.5}",
            ),
            (lambda: _check_int("n", {(1,): 2}), "n must be a positive integer, got {(1,): 2}"),
            (lambda: _check_real("x", {(1,): 2}), "x must be a number, got {(1,): 2}"),
            (
                lambda: DependenceSpec([{(1,): 2}]),
                "block 1 of 1 must be a (size, rho) pair, got {(1,): 2}",
            ),
            (
                lambda: _check_ints("n_values", np.array(3)),
                'n_values must be a list of integers, got "array(3)"',
            ),
        ],
        ids=["categorical", "int", "real", "block", "0-d-array"],
    )
    def test_values_json_cannot_show_raise_value_error(self, call, message):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message

    # None of these may truncate a float or take a bool as an integer.
    @pytest.mark.parametrize(
        "name, call",
        [
            ("epochs", lambda: TrainConfig(epochs=2.5)),
            ("order", lambda: ngram_table(DOCS, 2.5)),
            ("lengths", lambda: auroc_vs_prefix_length(DOCS[:3], DOCS[3:], [2.7])),
            ("k", lambda: pairwise_augment(DOCS, k=1.5)),
            ("min_df", lambda: build_vocab(DOCS, min_df=1.5)),
            (
                "n",
                lambda: product_tv_exact(
                    Categorical.bernoulli(0.6), Categorical.bernoulli(0.5), True
                ),
            ),
        ],
    )
    def test_non_integers_are_rejected_not_truncated(self, name, call):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            call()


# Each call takes the drawn value where a real number, an integer or a block
# belongs; the real-number places are checked by one validator.
SCALAR_CALLS = {
    "auroc_upper": lambda v: auroc_upper(v),
    "roc_upper_curve tv": lambda v: roc_upper_curve(v, [0.5]),
    "roc_upper_curve fpr": lambda v: roc_upper_curve(0.5, [v]),
    "tv_tensor_lower n": lambda v: tv_tensor_lower(v, 0.1),
    "tv_tensor_lower delta": lambda v: tv_tensor_lower(5, v),
    "tv_tensor_chernoff n": lambda v: tv_tensor_chernoff(v, 0.1),
    "tv_tensor_chernoff chernoff": lambda v: tv_tensor_chernoff(5, v),
    "sample_complexity_iid delta": lambda v: sample_complexity_iid(v, 0.9),
    "sample_complexity_iid epsilon": lambda v: sample_complexity_iid(0.1, v),
    "sample_complexity_noniid delta": lambda v: sample_complexity_noniid(
        v, 0.9, DependenceSpec([(10, 0.5)])
    ),
    "sample_complexity_noniid epsilon": lambda v: sample_complexity_noniid(
        0.1, v, DependenceSpec([(10, 0.5)])
    ),
    "auroc_vs_n_curve delta": lambda v: auroc_vs_n_curve(v, [1, 2]),
    "auroc_vs_n_curve n": lambda v: auroc_vs_n_curve(0.1, [v]),
    "Categorical element": lambda v: Categorical([0.5, v]),
    "Categorical.bernoulli": lambda v: Categorical.bernoulli(v),
    "DependenceSpec size": lambda v: DependenceSpec([(v, 0.5)]),
    "DependenceSpec rho": lambda v: DependenceSpec([(2, v)]),
    "DependenceSpec block": lambda v: DependenceSpec([v]),
}

JSON_LIKE = st.recursive(
    st.none()
    | st.booleans()
    | st.text(max_size=4)
    | st.integers(-3, 12)
    | st.integers(10**399, 10**400).flatmap(lambda i: st.sampled_from([i, -i]))
    | st.floats(0.0, 1.0)
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, np.float32(0.5), np.int64(3), np.True_]),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=4,
)


class TestRealValidator:
    @settings(max_examples=300, deadline=None)
    @given(JSON_LIKE)
    def test_scalar_inputs_return_or_raise_value_error(self, value):
        def is_number(v):
            numeric = isinstance(v, (int, float, np.integer, np.floating))
            return numeric and not isinstance(v, (bool, np.bool_))

        for name, call in SCALAR_CALLS.items():
            try:
                call(value)
            except ValueError:
                continue
            if name == "DependenceSpec block":
                assert len(value) == 2 and all(map(is_number, value)), f"{name} took {value!r}"
            else:
                assert is_number(value), f"{name} took {value!r}"

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: sample_complexity_iid(True, 0.9), "^delta must be a number, got true$"),
            (lambda: tv_tensor_lower(1, "0.5"), '^delta must be a number, got "0.5"$'),
            (lambda: auroc_upper(None), "^tv must be a number, got null$"),
            (
                lambda: sample_complexity_iid(math.nan, 0.9),
                r"^delta must lie in \(0, 1\], got nan$",
            ),
            (lambda: tv_tensor_chernoff(5, -1), r"^chernoff must lie in \[0, inf\], got -1\.0$"),
            (lambda: Categorical.bernoulli(2), r"^p must lie in \[0, 1\], got 2\.0$"),
            (lambda: Categorical(["0.4", 0.6]), '^element 1 of 2 must be a number, got "0.4"$'),
            (
                lambda: Categorical([0.5, math.nan]),
                "^element 2 of 2 must be a finite number, got NaN$",
            ),
            (
                lambda: Categorical([10**400, 0]),
                "^element 1 of 2 must be a finite number, got 1000",
            ),
            (lambda: DependenceSpec(5), r"^blocks must be a list of \(size, rho\) pairs, got 5$"),
            (lambda: DependenceSpec([5]), r"^block 1 of 1 must be a \(size, rho\) pair, got 5$"),
            (
                lambda: DependenceSpec([(True, 0.5)]),
                "^block 1 of 1: size must be a number, got true$",
            ),
            (
                lambda: DependenceSpec([(2, 0.5), (3, 1.5)]),
                r"^block 2 of 2: rho must lie in \[0, 1\], got 1\.5$",
            ),
            (
                lambda: DependenceSpec([(10**400, 0.5)]),
                "^block 1 of 1: size must be a finite number, got 1000",
            ),
        ],
        ids=[
            "delta-bool", "delta-string", "tv-null", "delta-nan", "chernoff-negative",
            "p-above-one", "element-string", "element-nan", "element-too-big", "blocks-int",
            "block-int", "size-bool", "rho-above-one", "size-too-big",
        ],
    )
    def test_messages_name_the_field_and_value(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    def test_numpy_scalars_are_numbers(self):
        assert auroc_upper(np.float32(0.5)) == 0.875
        assert Categorical([np.float32(0.25), np.float64(0.75)]).probs.tolist() == [0.25, 0.75]
        assert DependenceSpec([(np.int64(3), np.float32(0.5))]).blocks == ((3, 0.5),)
