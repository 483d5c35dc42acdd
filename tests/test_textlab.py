"""Feature extraction, logistic training, prefix and pairwise studies."""

import math
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import expit
from hypothesis import example, given, settings
from hypothesis import strategies as st

from detectability import (
    Document,
    Label,
    TrainConfig,
    auroc_vs_prefix_length,
    build_vocab,
    featurize,
    pairwise_augment,
    pairwise_auroc,
    roc_from_scores,
    tokenize,
    train_logreg,
)
from detectability import textlab
from detectability.corpus import _encode
from detectability.textlab import (
    _AUGMENT_SALT,
    _RTOL,
    PrefixRow,
    _logreg_loss,
    _stratified_split,
)

from _synth import (
    count_csr_reference,
    rand_pair,
    strip_tokenize,
    unigram_docs,
    vocab_reference,
)


def doc(text, label=Label.HUMAN, id="d0"):
    return Document(id=id, text=text, label=label)


def tiny_corpus():
    return [
        doc("apple banana apple", id="a"),
        doc("banana cherry banana", id="b"),
        doc("apple cherry", id="c"),
    ]


class TestVocabulary:
    def test_min_df_filters_and_sorts(self):
        v = build_vocab(tiny_corpus(), min_df=2)
        assert v.tokens == ("apple", "banana", "cherry")
        assert len(v) == 3

    def test_min_df_three_drops_everything_but_none(self):
        v = build_vocab(tiny_corpus(), min_df=3)
        assert v.tokens == ()

    def test_doc_freq_counts_documents_not_tokens(self):
        v = build_vocab(tiny_corpus(), min_df=1)
        assert v.doc_freq[v.tokens.index("apple")] == 2
        assert v.doc_freq[v.tokens.index("banana")] == 2
        assert v.n_docs == 3

    def test_column_is_none_for_oov(self):
        v = build_vocab(tiny_corpus(), min_df=2)
        assert "durian" not in v.tokens
        assert v.tokens[0] == "apple"


WORDS = ["apple", "Apple,", "banana.", "«cherry»", "don't", "—", "ß", "naïve", "x", "y"]


def doc_lists(min_size=1):
    return st.lists(
        st.lists(st.sampled_from(WORDS), min_size=1, max_size=8).map(" ".join),
        min_size=min_size,
        max_size=8,
    ).map(lambda ts: [doc(t, id=f"d{i}") for i, t in enumerate(ts)])


class FeatureCapture:
    """A stand-in for ``train_logreg`` that keeps every feature matrix it meets.

    The training features are kept, and the model it returns keeps each
    matrix it scores and scores every row 0.
    """

    def __init__(self):
        self.features = []

    def __call__(self, features, labels, config=None):
        self.features.append(features)
        return self, np.zeros(1)

    def decision_function(self, features):
        self.features.append(features)
        return np.zeros(features.shape[0])


class TestAgainstTokenListReference:
    @settings(max_examples=100, deadline=None)
    @given(doc_lists(), doc_lists(), st.integers(1, 3))
    def test_vocab_and_counts_match(self, train, test, min_df):
        v = build_vocab(train, min_df=min_df)
        tokens, df = vocab_reference(train, min_df)
        assert v.tokens == tokens
        assert v.doc_freq.tolist() == df
        assert v.n_docs == len(train)
        if not tokens:
            return
        for docs in (train, test):
            x = featurize(docs, v, space="counts")
            indptr, indices, data = count_csr_reference(docs, tokens)
            assert x.shape == (len(docs), len(tokens))
            assert x.indptr.tolist() == indptr
            assert x.indices.tolist() == indices
            assert x.data.tolist() == data

    @settings(max_examples=100, deadline=None)
    @given(doc_lists())
    def test_encode_matches_stripped_token_lists(self, docs):
        token_lists = [strip_tokenize(d.text) for d in docs]
        tokens, ids, lens = _encode(docs)
        assert tokens == sorted({tok for toks in token_lists for tok in toks})
        assert [tokens[i] for i in ids] == [tok for toks in token_lists for tok in toks]
        assert lens.tolist() == [len(toks) for toks in token_lists]

    @settings(max_examples=100, deadline=None)
    @given(doc_lists(2), doc_lists(2), st.integers(1, 3), st.integers(1, 9))
    def test_heldout_count_matrices_match(self, human, machine, min_df, length):
        # the studies' path: one encoding of both sides, counts of the whole
        # training documents, test documents cut to `length` tokens and
        # counted on the training columns
        train, test = _stratified_split(len(human), len(machine), 0.5, 0)
        docs = human + machine
        train_docs, test_docs = [docs[i] for i in train], [docs[i] for i in test]
        vocab, _ = vocab_reference(train_docs, min_df)
        cfg = TrainConfig(train_frac=0.5, seed=0, space="counts", min_df=min_df)
        capture = FeatureCapture()
        with mock.patch.object(textlab, "train_logreg", capture):
            if not vocab:
                with pytest.raises(ValueError, match="empty vocabulary"):
                    textlab._heldout_fit(human, machine, cfg)
                return
            *_, test_scores = textlab._heldout_fit(human, machine, cfg)
            test_scores(length)
            test_scores()
        # a cut text may hold no token, which a Document refuses
        cut = [SimpleNamespace(text=" ".join(strip_tokenize(d.text)[:length])) for d in test_docs]
        assert len(capture.features) == 3
        for docs, x in zip((train_docs, cut, test_docs), capture.features):
            indptr, indices, data = count_csr_reference(docs, vocab)
            assert x.shape == (len(docs), len(vocab))
            assert x.indptr.tolist() == indptr
            assert x.indices.tolist() == indices
            assert x.data.tolist() == data


@st.composite
def token_rows(draw):
    """``(rows, ids, n_rows, width)`` as :func:`textlab._count_matrix` takes them.

    Rows of -1 and ids of -1 (tokens left out), rows with no token, width 0
    and no kept token all occur; left-out tokens may carry any id.
    """
    n_rows, width = draw(st.integers(0, 5)), draw(st.integers(0, 6))
    pair = st.tuples(st.just(-1), st.integers(-1, max(width - 1, -1)))
    if n_rows:
        pair |= st.tuples(st.integers(0, n_rows - 1), st.integers(-1, width - 1))
    pairs = draw(st.lists(pair, max_size=30))
    rows, ids = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return rows, ids, n_rows, width


class TestCountMatrix:
    @settings(max_examples=300, deadline=None)
    @given(token_rows())
    def test_equals_the_coo_construction(self, case):
        rows, ids, n_rows, width = case
        x = textlab._count_matrix(rows, ids, n_rows, width)
        kept = (rows >= 0) & (ids >= 0)
        want = sp.csr_matrix(
            (np.ones(np.count_nonzero(kept)), (rows[kept], ids[kept])), shape=(n_rows, width)
        )
        assert x.format == "csr"
        assert x.shape == want.shape
        assert x.has_canonical_format
        for got, ref in ((x.indptr, want.indptr), (x.indices, want.indices), (x.data, want.data)):
            assert got.dtype == ref.dtype
            assert got.tolist() == ref.tolist()


def scipy_tfidf(counts, doc_freq, n_docs):
    """tf-idf weighing by scipy's sparse operations, the reference for ``_weigh``."""
    idf = np.log((1.0 + n_docs) / (1.0 + doc_freq)) + 1.0
    x = counts.multiply(idf[None, :]).tocsr()
    norms = np.sqrt(np.asarray(x.multiply(x).sum(axis=1)).ravel())
    inv = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    return (sp.diags(inv) @ x).tocsr()


class TestWeigh:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 12), st.integers(1, 80))
    def test_tfidf_equals_scipy_to_the_bit(self, seed, n_rows, width):
        # rows past 8 entries, where numpy's pairwise sums differ from a
        # running sum, and empty rows; entries in scipy's order too, since a
        # model's scores sum them in that order
        rng = np.random.default_rng(seed)
        dense = rng.poisson(rng.uniform(0.05, 3.0), size=(n_rows, width)).astype(np.float64)
        dense[rng.random(n_rows) < 0.2] = 0.0
        counts = sp.csr_matrix(dense)
        doc_freq = rng.integers(0, n_rows + 1, size=width)
        got = textlab._weigh(counts, doc_freq, n_rows, "tfidf")
        want = scipy_tfidf(counts, doc_freq, n_rows)
        assert got.shape == want.shape
        assert got.data.tobytes() == want.data.tobytes()
        assert got.indices.tolist() == want.indices.tolist()
        assert got.indptr.tolist() == want.indptr.tolist()


def float_neighbours(x, ulps=3):
    """``x`` and the ``ulps`` floats on either side of it."""
    below, above = [x], [x]
    for _ in range(ulps):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return sorted(set(below + above))


# log(DBL_MAX): libm's exp overflows just past it, and math.exp raises there
EXP_EDGE = [s * v for s in (1.0, -1.0) for v in float_neighbours(709.782712893384)]
# ±0, the smallest subnormals, the smallest normal, ±inf and NaN
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                  math.inf, -math.inf, math.nan]


class TestLogistic:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(),  # any float64: subnormals, ±inf and NaNs included
                st.sampled_from(EXP_EDGE + SPECIAL_FLOATS),
                # where glibc's complex exp rescales, and differs from exp
                st.floats(-709.79, -709.08),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @example(EXP_EDGE + SPECIAL_FLOATS)
    def test_equals_scipy_expit_to_the_bit(self, values):
        z = np.array(values, dtype=np.float64)
        before = z.tobytes()
        got = textlab._logistic(z)
        assert got.dtype == np.float64
        assert got.tobytes() == expit(z).tobytes()
        assert z.tobytes() == before  # the argument is not written to


class TestFeaturize:
    def test_count_matrix(self):
        docs = tiny_corpus()
        v = build_vocab(docs, min_df=1)
        x = featurize(docs, v, space="counts")
        assert sp.issparse(x)
        dense = x.toarray()
        assert dense[0, v.tokens.index("apple")] == 2
        assert dense[0, v.tokens.index("banana")] == 1
        assert dense[2, v.tokens.index("cherry")] == 1

    def test_tfidf_matches_manual_computation(self):
        docs = tiny_corpus()
        v = build_vocab(docs, min_df=1)
        x = featurize(docs, v, space="tfidf").toarray()
        n = 3
        counts = np.zeros((3, len(v)))
        for i, d in enumerate(docs):
            for tok in d.text.split():
                counts[i, v.tokens.index(tok)] += 1
        idf = np.log((1 + n) / (1 + v.doc_freq)) + 1.0
        manual = counts * idf
        norms = np.linalg.norm(manual, axis=1, keepdims=True)
        manual = manual / norms
        np.testing.assert_allclose(x, manual, atol=1e-12)

    def test_rows_unit_norm(self):
        docs = tiny_corpus()
        v = build_vocab(docs, min_df=1)
        x = featurize(docs, v, space="tfidf")
        norms = np.sqrt(np.asarray(x.multiply(x).sum(axis=1)).ravel())
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_oov_tokens_ignored(self):
        docs = tiny_corpus()
        v = build_vocab(docs[:2], min_df=1)  # no "cherry"... wait, b has it
        v = build_vocab([docs[0]], min_df=1)  # apple, banana only
        x = featurize([doc("apple zebra")], v, space="counts").toarray()
        assert x[0, v.tokens.index("apple")] == 1
        assert x.sum() == 1

    def test_all_oov_doc_keeps_zero_row(self):
        v = build_vocab([tiny_corpus()[0]], min_df=1)
        x = featurize([doc("zebra yak")], v, space="tfidf").toarray()
        assert (x == 0).all()

    def test_empty_vocab_raises(self):
        v = build_vocab(tiny_corpus(), min_df=99)
        with pytest.raises(ValueError):
            featurize(tiny_corpus(), v)

    def test_unknown_space_raises(self):
        v = build_vocab(tiny_corpus(), min_df=1)
        with pytest.raises(ValueError):
            featurize(tiny_corpus(), v, space="hashing")


def logreg_gradient(x, y, weights, bias, l2=TrainConfig.l2):
    """Gradient of the training objective in (weights, bias), from its formula."""
    resid = 1.0 / (1.0 + np.exp(-(x @ weights + bias))) - np.asarray(y, dtype=float)
    return np.append(x.T @ resid / len(resid) + l2 * weights, resid.mean())


def meets_gradient_stop(x, y, model):
    """Whether the model's largest gradient entry is within _RTOL of the largest at zero."""
    start = np.abs(logreg_gradient(x, y, np.zeros(x.shape[1]), 0.0)).max()
    return np.abs(logreg_gradient(x, y, model.weights, model.bias)).max() <= _RTOL * start


def newton_optimum_loss(x, y, l2=TrainConfig.l2):
    """The objective's minimum, by damped Newton steps on dense ``x``."""
    a = np.hstack([x, np.ones((x.shape[0], 1))])
    penalty = np.append(np.full(x.shape[1], l2), 0.0)

    def loss(theta):
        return _logreg_loss(a @ theta, y, theta[:-1], l2)

    theta = np.zeros(a.shape[1])
    for _ in range(100):
        p = 1.0 / (1.0 + np.exp(-(a @ theta)))
        grad = a.T @ (p - y) / len(y) + penalty * theta
        hess = a.T @ (a * (p * (1 - p))[:, None]) / len(y) + np.diag(penalty)
        step, t = np.linalg.solve(hess, grad), 1.0
        while loss(theta - t * step) > loss(theta) and t > 1e-12:
            t /= 2
        theta = theta - t * step
    return loss(theta)


class TestTrainLogreg:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(4, 40),
        st.integers(1, 6),
        st.sampled_from([1, 2, 5, 50]),
        st.floats(0.05, 1.0),
    )
    def test_trains_to_the_optimum_before_the_cap(self, seed, n, d, top, density):
        # sparse counts up to ``top``; with d + 1 parameters under the
        # L-BFGS memory, none of 4,000 random draws like these needed more
        # than 150 iterations
        rng = np.random.default_rng(seed)
        dense = np.where(rng.random((n, d)) < density, rng.integers(1, top + 1, (n, d)), 0.0)
        x = sp.csr_matrix(dense)
        y = (rng.random(n) < 0.5).astype(float)
        y[:2] = [0.0, 1.0]
        model, losses = train_logreg(x, y)
        assert all(b <= a for a, b in zip(losses, losses[1:]))
        assert len(losses) - 1 < TrainConfig.epochs
        # the gradient stop, or the float one: no step lowers the loss any
        # more, which happens only within a few ulps of the minimum
        if not meets_gradient_stop(x, y, model):
            best = newton_optimum_loss(dense, y)
            assert losses[-1] - best <= 8 * np.finfo(float).eps * best
        longer, longer_losses = train_logreg(x, y, TrainConfig(epochs=2 * TrainConfig.epochs))
        np.testing.assert_array_equal(longer.weights, model.weights)
        assert longer.bias == model.bias
        np.testing.assert_array_equal(longer_losses, losses)

    def test_epochs_at_the_cap_means_the_stop_rule_was_not_met(self):
        # dense counts like this one (n 8-40, d 10-30, counts up to 50) can
        # need more than the default 500 iterations; training then stops at
        # the cap, with nothing but ``epochs`` to show it
        rng = np.random.default_rng(8)
        n, d = int(rng.integers(8, 41)), int(rng.integers(10, 31))
        x = rng.integers(0, 51, size=(n, d)).astype(float)
        y = rng.integers(0, 2, size=n)
        model, losses = train_logreg(x, y)
        assert len(losses) - 1 == TrainConfig.epochs
        assert not meets_gradient_stop(x, y, model)  # the gradient is above 1e-6 of its start

    def test_stops_where_no_step_lowers_the_loss(self):
        # features this small leave the optimum flat: a few iterations reach
        # it within an ulp, where no halved step lowers the loss at float
        # precision, while the gradient is still above 1e-6 of its start
        rng = np.random.default_rng(8)
        x = rng.normal(size=(16, 5)) * 2e-3
        y = (rng.random(16) < 0.5).astype(float)
        y[:2] = [0.0, 1.0]
        model, losses = train_logreg(x, y)
        assert len(losses) - 1 < TrainConfig.epochs
        assert all(b <= a for a, b in zip(losses, losses[1:]))
        assert not meets_gradient_stop(x, y, model)
        best = newton_optimum_loss(x, y)
        assert losses[-1] - best <= 8 * np.finfo(float).eps * best

    def test_separable_pair_classifies_correctly(self, monkeypatch):
        monkeypatch.setattr(textlab, "_FIRST_STEP", 1.0)
        x = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        y = np.array([0, 1])
        model, losses = train_logreg(x, y, TrainConfig(epochs=200))
        z = model.decision_function(x)
        assert z[0] < 0 < z[1]
        assert losses[0] == pytest.approx(math.log(2), abs=1e-12)
        assert losses[-1] < losses[0]

    def test_losses_never_increase(self, monkeypatch):
        monkeypatch.setattr(textlab, "_FIRST_STEP", 0.5)
        rng = np.random.default_rng(30)
        x = sp.csr_matrix(rng.normal(size=(40, 7)))
        y = (rng.random(40) < 0.5).astype(int)
        y[0], y[1] = 0, 1  # both classes present
        _, losses = train_logreg(x, y, TrainConfig(epochs=300))
        assert 2 <= len(losses) <= 301
        assert all(b <= a for a, b in zip(losses, losses[1:]))

    def test_large_first_step_backtracks_to_the_same_model(self, monkeypatch):
        # a first step of 500 overshoots; halving it keeps every loss below
        # the last, and training ends at the model a step of 0.1 reaches
        rng = np.random.default_rng(31)
        x = sp.csr_matrix(rng.normal(size=(20, 4)) * 10)
        y = (rng.random(20) < 0.5).astype(int)
        y[0], y[1] = 0, 1
        models = []
        for lr in (500.0, 0.1):
            monkeypatch.setattr(textlab, "_FIRST_STEP", lr)
            model, losses = train_logreg(x, y)
            assert all(b <= a for a, b in zip(losses, losses[1:]))
            assert meets_gradient_stop(x, y, model)
            models.append(np.append(model.weights, model.bias))
        np.testing.assert_allclose(models[0], models[1], rtol=0, atol=1e-5)

    def test_decision_function_checks_the_width(self):
        model, _ = train_logreg(sp.csr_matrix(np.eye(2)), np.array([0, 1]))
        with pytest.raises(ValueError, match="^feature width 3 != weight count 2$"):
            model.decision_function(sp.csr_matrix(np.eye(3)))

    def test_label_validation(self):
        x = sp.csr_matrix(np.eye(3))
        with pytest.raises(ValueError):
            train_logreg(x, np.array([0, 1, 2]))
        with pytest.raises(ValueError):
            train_logreg(x, np.array([1, 1, 1]))
        with pytest.raises(ValueError):
            train_logreg(x, np.array([0, 1]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_features_raise(self, bad):
        x = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, bad]]))
        with pytest.raises(ValueError, match="^features must be finite$"):
            train_logreg(x, [0, 1])

    def test_first_step_matches_analytic_gradient(self, monkeypatch):
        # after one epoch from w = 0, the update is -lr * grad; compare
        # against central finite differences of the documented objective
        lr = 0.25
        monkeypatch.setattr(textlab, "_FIRST_STEP", lr)
        rng = np.random.default_rng(32)
        for _ in range(50):
            n, d = int(rng.integers(2, 9)), int(rng.integers(1, 6))
            x = sp.csr_matrix(rng.normal(size=(n, d)))
            y = (rng.random(n) < 0.5).astype(int)
            y[: 2] = [0, 1]
            l2 = float(rng.uniform(0, 0.3))
            model, _ = train_logreg(x, y, TrainConfig(epochs=1, l2=l2))
            w1 = np.concatenate([model.weights, [model.bias]])
            grad_impl = -w1 / lr

            def loss_at(wb):
                z = x @ wb[:-1] + wb[-1]
                return _logreg_loss(z, y, wb[:-1], l2)

            eps = 1e-5
            grad_fd = np.empty(d + 1)
            for j in range(d + 1):
                up = np.zeros(d + 1)
                up[j] = eps
                grad_fd[j] = (loss_at(up) - loss_at(-up)) / (2 * eps)
            np.testing.assert_allclose(grad_impl, grad_fd, atol=1e-6)

    def test_config_validation(self):
        # no step-size setting: L-BFGS reaches the same model from any first step
        with pytest.raises(TypeError, match="learning_rate"):
            TrainConfig(learning_rate=0.1)
        # keyword-only: an old positional (epochs, l2) cannot land on the seed
        with pytest.raises(TypeError, match="positional"):
            TrainConfig(500, 1e-4)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(l2=-1.0)
        assert TrainConfig(l2=0.0).l2 == 0.0

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("epochs", True, "must be a positive integer, got true"),
            ("epochs", "500", 'must be a positive integer, got "500"'),
            ("l2", False, "must be a number, got false"),
            ("l2", None, "must be a number, got null"),
        ],
    )
    def test_config_rejects_non_numbers(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{field} {message}$"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field", ["l2"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_config_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must lie in \[0, inf\), got {value}$"):
            TrainConfig(**{field: value})

    def test_nan_loss_raises(self):
        # the first step overflows x . w; the loss turns NaN, which no
        # "increased by more than the slack" comparison catches
        x = np.array([[1e308], [1.0], [2.0], [-1e308]])
        with np.errstate(all="ignore"):
            message = r"epoch 1 \(0\.69\d+ -> nan\): features too large for the first step"
            with pytest.raises(RuntimeError, match=message):
                train_logreg(x, np.array([1, 0, 1, 0]))


class TestTrainPin:
    """Training outputs as literals, compared with ``==``.

    A change to featurizing or training that claims to keep every output
    must keep these bit for bit.  Counts are pinned from a first step of
    0.01, a second path to the optimum besides the default 0.1.
    """

    @pytest.mark.parametrize(
        "space, lr, loss, bias",
        [
            ("tfidf", 0.1, 0.12066855277209407, 4.131666163410639),
            ("counts", 0.01, 0.018895838772801085, 22.469539535360244),
        ],
    )
    def test_final_loss_and_bias(self, monkeypatch, space, lr, loss, bias):
        monkeypatch.setattr(textlab, "_FIRST_STEP", lr)
        h, m = drifted_corpora(seed=41, n_docs=40, doc_len=30)
        docs = h + m
        x = featurize(docs, build_vocab(docs, min_df=2), space=space)
        model, losses = train_logreg(x, [0] * 40 + [1] * 40)
        assert float(losses[-1]) == loss
        assert model.bias == bias

    # each space's one study model: its epochs and final training loss
    STUDY_FIT = {"tfidf": (60, 0.10514676661510822), "counts": (145, 0.009537222587048831)}

    @pytest.mark.parametrize(
        "space, lr, prefix, pooled",
        [
            (
                "tfidf", 0.1,
                [0.6527777777777778, 0.8055555555555556, 0.9722222222222222],
                [0.9722222222222222, 1.0],
            ),
            (
                "counts", 0.01,
                [0.625, 0.8055555555555556, 0.9861111111111112],
                [0.9861111111111112, 1.0],
            ),
        ],
    )
    def test_study_aurocs(self, monkeypatch, space, lr, prefix, pooled):
        monkeypatch.setattr(textlab, "_FIRST_STEP", lr)
        h, m = drifted_corpora(seed=41, n_docs=40, doc_len=30)
        config = TrainConfig(seed=9, space=space)
        rows = auroc_vs_prefix_length(h, m, [2, 5, 30], config=config)
        assert [r.test_auroc for r in rows] == prefix
        # every row of both studies carries the one model's last bits
        assert {(r.epochs, r.final_loss) for r in rows} == {self.STUDY_FIT[space]}
        rows = pairwise_auroc(h, m, [1, 2], config=config)
        assert [r.test_auroc for r in rows] == pooled
        assert {(r.epochs, r.final_loss) for r in rows} == {self.STUDY_FIT[space]}


class TestPairwiseAugment:
    def make_docs(self, n=8):
        rng = np.random.default_rng(33)
        h = unigram_docs(rng, np.full(4, 0.25), Label.HUMAN, n, 6, "h")
        m = unigram_docs(rng, np.full(4, 0.25), Label.MACHINE, n, 6, "m")
        return h + m

    def test_k1_is_singletons(self):
        docs = self.make_docs()
        out = pairwise_augment(docs, k=1, seed=0)
        assert out == [(d,) for d in docs]

    def test_groups_are_label_pure_and_anchored(self):
        docs = self.make_docs()
        out = pairwise_augment(docs, k=3, seed=1)
        assert len(out) == len(docs)
        for orig, group in zip(docs, out):
            assert len(group) == 3
            assert group[0] is orig
            assert all(member.label is orig.label for member in group)

    def test_members_within_group_are_distinct(self):
        docs = self.make_docs()
        for k in (2, 4):
            out = pairwise_augment(docs, k=k, seed=2)
            for group in out:
                assert len({d.id for d in group}) == k

    def test_deterministic(self):
        docs = self.make_docs()
        a = pairwise_augment(docs, k=3, seed=5)
        b = pairwise_augment(docs, k=3, seed=5)
        assert a == b
        c = pairwise_augment(docs, k=3, seed=6)
        assert a != c

    @pytest.mark.parametrize("k", [1, 2, 5, 9])
    def test_tuples_follow_the_seeded_draws(self, k):
        # reference: in document order, each anchor draws its k - 1 partners
        # with one rng.choice over the other members of its class
        docs = self.make_docs(n=12)
        docs = docs[::2] + docs[1::2]  # interleave the classes
        seed = 11
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, _AUGMENT_SALT)))
        expected = []
        for i, d in enumerate(docs):
            pool = [j for j, e in enumerate(docs) if e.label is d.label and j != i]
            chosen = rng.choice(len(pool), size=k - 1, replace=False) if k > 1 else []
            expected.append([d.id] + [docs[pool[c]].id for c in chosen])
        out = pairwise_augment(docs, k, seed=seed)
        assert [[d.id for d in t] for t in out] == expected

    def test_k_exceeding_class_size_raises(self):
        docs = self.make_docs(n=3)
        with pytest.raises(ValueError):
            pairwise_augment(docs, k=4, seed=0)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            pairwise_augment(self.make_docs(), k=0)


def drifted_corpora(seed=34, n_docs=60, doc_len=40):
    rng = np.random.default_rng(seed)
    base = rng.dirichlet(np.full(12, 2.0))
    shift = rng.dirichlet(np.full(12, 2.0))
    pm = 0.6 * base + 0.4 * shift
    h = unigram_docs(rng, base, Label.HUMAN, n_docs, doc_len, "h")
    m = unigram_docs(rng, pm, Label.MACHINE, n_docs, doc_len, "m")
    return h, m


class TestPrefixStudy:
    def test_auroc_climbs_with_prefix_length(self):
        h, m = drifted_corpora()
        rows = auroc_vs_prefix_length(h, m, [2, 8, 40], config=TrainConfig(seed=3))
        assert [r.length for r in rows] == [2, 8, 40]
        aucs = [r.test_auroc for r in rows]
        assert all(0.0 <= a <= 1.0 for a in aucs)
        assert aucs[-1] > aucs[0]

    def test_truncation_equals_cut_texts(self):
        # reference: the public pipeline on the same split, a model trained
        # on the whole training texts and scoring test texts cut to length
        h, m = drifted_corpora(n_docs=30, doc_len=20)

        def cut(docs, n):
            return [
                Document(id=d.id, text=" ".join(d.text.split()[:n]), label=d.label)
                for d in docs
            ]

        # every document has 20 tokens: 19 cuts each one, 20 and 40 cut none
        assert {len(tokenize(d.text)) for d in h + m} == {20}
        rows = auroc_vs_prefix_length(h, m, [3, 8, 19, 20, 40], config=TrainConfig(seed=5))
        docs = h + m
        train, test = _stratified_split(len(h), len(m), 0.7, 5)
        train_docs = [docs[i] for i in train]
        test_docs = [docs[i] for i in test]
        vocab = build_vocab(train_docs, min_df=2)
        y_train = [int(d.label is Label.MACHINE) for d in train_docs]
        model, losses = train_logreg(featurize(train_docs, vocab), y_train)
        is_m = np.array([d.label is Label.MACHINE for d in test_docs])
        for row in rows:
            scores = model.decision_function(featurize(cut(test_docs, row.length), vocab))
            auroc = roc_from_scores(scores[is_m], scores[~is_m]).auroc
            assert row == PrefixRow(row.length, auroc, losses.size - 1, float(losses[-1]))

    def test_trains_one_model_for_all_lengths(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return train_logreg(*args, **kwargs)

        monkeypatch.setattr(textlab, "train_logreg", counting)
        h, m = drifted_corpora(n_docs=30, doc_len=20)
        rows = auroc_vs_prefix_length(h, m, [3, 8, 40], config=TrainConfig(seed=5))
        assert [r.length for r in rows] == [3, 8, 40]
        assert len(calls) == 1

    def test_deterministic(self):
        h, m = drifted_corpora()
        a = auroc_vs_prefix_length(h, m, [4, 16], config=TrainConfig(seed=3))
        b = auroc_vs_prefix_length(h, m, [4, 16], config=TrainConfig(seed=3))
        assert a == b

    def test_lengths_validation(self):
        h, m = drifted_corpora(n_docs=8)
        with pytest.raises(ValueError):
            auroc_vs_prefix_length(h, m, [])
        with pytest.raises(ValueError):
            auroc_vs_prefix_length(h, m, [4, 4])
        with pytest.raises(ValueError):
            auroc_vs_prefix_length(h, m, [8, 4])
        with pytest.raises(ValueError):
            auroc_vs_prefix_length(h, m, [0, 4])


STUDIES = [
    lambda h, m, **kw: auroc_vs_prefix_length(h, m, [4], **kw),
    lambda h, m, **kw: pairwise_auroc(h, m, (1,), **kw),
]


@pytest.mark.parametrize("study", STUDIES, ids=["prefix", "pairwise"])
class TestStudyOptions:
    @pytest.mark.parametrize(
        "seed, shown", [(-1, "-1"), (True, "true"), (2.0, "2.0"), ("3", '"3"')]
    )
    def test_seed_must_be_a_nonnegative_integer(self, study, seed, shown):
        h, m = drifted_corpora(n_docs=8)
        with pytest.raises(ValueError, match=f"^seed must be an integer >= 0, got {shown}$"):
            study(h, m, config=TrainConfig(seed=seed))

    def test_numpy_seed_is_the_int_seed(self, study):
        h, m = drifted_corpora(n_docs=20)
        assert study(h, m, config=TrainConfig(seed=np.int64(3))) == study(
            h, m, config=TrainConfig(seed=3)
        )

    def test_space_is_checked_before_the_split(self, study):
        # one document a side cannot split: the bad space is reported first
        h, m = drifted_corpora(n_docs=8)
        with pytest.raises(
            ValueError, match=r"^space must be one of \('counts', 'tfidf'\), got 'hashing'$"
        ):
            study(h[:1], m, config=TrainConfig(space="hashing"))

    def test_one_document_on_a_side_cannot_split(self, study):
        h, m = drifted_corpora(n_docs=8)
        with pytest.raises(ValueError, match="^each class needs at least 2 documents to split$"):
            study(h[:1], m)


class TestPairwiseStudy:
    def test_grouping_helps_and_rows_are_labeled(self):
        h, m = drifted_corpora(seed=35, n_docs=80)
        rows = pairwise_auroc(h, m, k_values=(1, 4), config=TrainConfig(seed=4))
        assert [r.k for r in rows] == [1, 4]
        assert rows[1].test_auroc >= rows[0].test_auroc - 0.05

    def test_deterministic(self):
        h, m = drifted_corpora(seed=36)
        a = pairwise_auroc(h, m, k_values=(1, 2), config=TrainConfig(seed=4))
        b = pairwise_auroc(h, m, k_values=(1, 2), config=TrainConfig(seed=4))
        assert a == b

    def test_trains_one_model_for_all_k(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return train_logreg(*args, **kwargs)

        monkeypatch.setattr(textlab, "train_logreg", counting)
        h, m = drifted_corpora(seed=37)
        rows = pairwise_auroc(h, m, k_values=(1, 2, 4, 8), config=TrainConfig(seed=2))
        assert [r.k for r in rows] == [1, 2, 4, 8]
        assert len(calls) == 1

    @pytest.mark.parametrize("space", ["tfidf", "counts"])
    def test_k1_row_is_the_full_length_prefix_row(self, monkeypatch, space):
        monkeypatch.setattr(textlab, "_FIRST_STEP", 0.01)
        h, m = drifted_corpora(seed=38, n_docs=40)
        longest = max(len(tokenize(d.text)) for d in h + m)
        cfg = TrainConfig(seed=6, space=space, epochs=100)
        (row,) = pairwise_auroc(h, m, k_values=(1,), config=cfg)
        for length in (longest, 10 * longest):
            (ref,) = auroc_vs_prefix_length(h, m, [length], config=cfg)
            assert row.test_auroc == ref.test_auroc

    @pytest.mark.parametrize("space", ["tfidf", "counts"])
    def test_k1_row_trains_the_full_length_prefix_model(self, space):
        # default config, trained to its stop rule: the two studies must run
        # the same split, features and training, iteration for iteration;
        # every prefix row carries that one fit, and a row that cuts no
        # document scores as the k = 1 row
        h, m = drifted_corpora(seed=41, n_docs=120, doc_len=40)
        longest = max(len(tokenize(d.text)) for d in h + m)
        cfg = TrainConfig(seed=0, space=space)
        (row,) = pairwise_auroc(h, m, k_values=(1,), config=cfg)
        assert row.epochs < TrainConfig().epochs
        refs = auroc_vs_prefix_length(h, m, [5, longest, 3 * longest], config=cfg)
        for ref in refs:
            assert row.epochs == ref.epochs
            assert row.final_loss == ref.final_loss
        for ref in refs[1:]:
            assert row.test_auroc == ref.test_auroc

    def test_rows_pool_summed_member_scores(self):
        # reference: the public pipeline on the same split, each test
        # document scored once, a tuple scored by its members' sum
        h, m = drifted_corpora(seed=39, n_docs=50)
        ks, seed = (1, 2, 3, 5), 7
        rows = pairwise_auroc(h, m, k_values=ks, config=TrainConfig(seed=seed))
        docs = h + m
        train, test = _stratified_split(len(h), len(m), 0.7, seed)
        train_docs = [docs[i] for i in train]
        test_docs = [docs[i] for i in test]
        vocab = build_vocab(train_docs, min_df=2)
        y_train = [int(d.label is Label.MACHINE) for d in train_docs]
        model, _ = train_logreg(featurize(train_docs, vocab), y_train)
        test_scores = model.decision_function(featurize(test_docs, vocab))
        score = {id(d): s for d, s in zip(test_docs, test_scores)}
        seeds = np.random.SeedSequence(entropy=(seed, _AUGMENT_SALT)).generate_state(
            2 * len(ks)
        )
        for j, (k, row) in enumerate(zip(ks, rows)):
            tuples = pairwise_augment(test_docs, k, seed=int(seeds[2 * j + 1]))
            pooled = np.array([sum(score[id(d)] for d in t) for t in tuples])
            is_m = np.array([t[0].label is Label.MACHINE for t in tuples])
            assert row.k == k
            assert row.test_auroc == roc_from_scores(pooled[is_m], pooled[~is_m]).auroc

    def test_tuples_pool_by_role_not_by_document_label(self):
        h, m = drifted_corpora(seed=40, n_docs=30)
        relabeled = [Document(id=d.id, text=d.text, label=Label.MACHINE) for d in h]
        rows = pairwise_auroc(h, m, k_values=(1, 2, 4), config=TrainConfig(seed=8))
        assert pairwise_auroc(relabeled, m, k_values=(1, 2, 4), config=TrainConfig(seed=8)) == rows

    def test_k_values_validation(self):
        h, m = drifted_corpora(n_docs=8)
        with pytest.raises(ValueError):
            pairwise_auroc(h, m, k_values=())
        with pytest.raises(ValueError):
            pairwise_auroc(h, m, k_values=(2, 2))
        with pytest.raises(ValueError):
            pairwise_auroc(h, m, k_values=(4, 2))


class TestStudyMemory:
    # 200 + 200 documents of 250 tokens over 5,000 words, so that nearly every
    # (document, word) pair is its own entry: one count of the training
    # documents, read for the vocabulary and cut to it, peaks at about 41-44
    # bytes a token; sorting the training keys once for the document
    # frequencies and again for the matrix took 50
    @pytest.mark.parametrize(
        "study, values",
        [(auroc_vs_prefix_length, [10, 50, 200]), (pairwise_auroc, [1, 2, 4])],
        ids=["prefix", "pairwise"],
    )
    def test_peak_memory_per_token_is_bounded(self, study, values):
        rng = np.random.default_rng(11)
        words = np.array([f"word{i}" for i in range(5000)])
        h, m = (
            [doc(" ".join(rng.choice(words, 250)), lab, f"{lab.value}{i}") for i in range(200)]
            for lab in (Label.HUMAN, Label.MACHINE)
        )
        tracemalloc.start()
        try:
            rows = study(h, m, values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == 3
        assert peak / 100_000 < 47
