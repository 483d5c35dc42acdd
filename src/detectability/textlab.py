"""Classifier-side text experiments: features, training, ablations.

A deliberately small stack -- bag-of-words features, L2-regularized logistic
loss minimized by L-BFGS -- because the point of these experiments is not
classifier quality but how detection accuracy moves with the amount of text
the detector sees at test time: longer prefixes per document, or several
same-class documents pooled into one decision.  Both studies train one model,
on the whole training documents.  The prefix study cuts only the held-out
documents; pooling scores each whole held-out document once, and a k-tuple's
score is the sum of its members' decision values, the multi-sample
log-likelihood-ratio rule.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .bounds import _check_int, _check_ints, _check_real
from .corpus import Document, _encode
from .detector import Label, roc_from_scores

__all__ = [
    "LinearModel",
    "PairwiseRow",
    "PrefixRow",
    "TrainConfig",
    "Vocabulary",
    "auroc_vs_prefix_length",
    "build_vocab",
    "featurize",
    "pairwise_auroc",
    "pairwise_augment",
    "train_logreg",
]

FEATURE_SPACES = ("counts", "tfidf")

# L-BFGS keeps this many curvature pairs.
_MEMORY = 10
# The first gradient step; later ones scale by curvature, so any reaches the optimum.
_FIRST_STEP = 0.1
# Training stops once the largest gradient entry is this fraction of its start.
_RTOL = 1e-6
# Armijo rule: a step must lower the loss by this fraction of its first-order
# prediction.
_ARMIJO = 1e-4
_EPS = np.finfo(np.float64).eps
# log(DBL_MAX): the largest argument whose exp is finite.
_EXP_MAX = math.log(np.finfo(np.float64).max)

# Salts separating the internal RNG streams.
_SPLIT_SALT = 101
_AUGMENT_SALT = 202


@dataclass(frozen=True, eq=False)
class Vocabulary:
    """Ordered feature vocabulary with document frequencies.

    Built from the training split only; test documents are mapped onto it
    with unseen tokens ignored.
    """

    tokens: tuple[str, ...]
    doc_freq: np.ndarray
    n_docs: int

    def __len__(self) -> int:
        return len(self.tokens)


def _doc_rows(lens: np.ndarray, docs: np.ndarray) -> np.ndarray:
    """Per token, the feature row of its document: its index in ``docs``, else -1."""
    rows = np.full(lens.size, -1, dtype=np.int64)
    rows[docs] = np.arange(docs.size)
    return np.repeat(rows, lens)


def _count_matrix(rows: np.ndarray, ids: np.ndarray, n_rows: int, width: int) -> sp.csr_matrix:
    """Term counts of ``n_rows`` documents: entry ``(r, i)`` counts id ``i`` in row ``r``.

    ``rows`` gives each token's document row and ``ids`` its column among
    ``width``; a token whose row or id is -1 is left out.  The matrix is built
    in canonical form, each row's columns sorted and distinct.
    """
    kept = (rows >= 0) & (ids >= 0)
    keys = rows[kept]
    keys *= width
    keys += ids[kept]
    del kept
    keys.sort()  # the key row * width + id sorts like the pair (row, id)
    # each run of equal keys is one entry, and its length the count
    new = np.empty(keys.size, dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    del new
    counts = np.diff(starts, append=keys.size).astype(np.float64)
    keys = keys[starts]
    indptr = np.searchsorted(keys, np.arange(n_rows + 1) * width)
    keys %= width
    return sp.csr_matrix((counts, keys, indptr), shape=(n_rows, width))


def _frequent_columns(counts: sp.csr_matrix, min_df: int) -> tuple[np.ndarray, np.ndarray]:
    """The columns of canonical ``counts`` with entries in ``min_df`` rows or more, and how many."""
    df = np.bincount(counts.indices, minlength=counts.shape[1])
    columns = np.flatnonzero(df >= min_df)
    return columns, df[columns]


def _check_space(space: str) -> None:
    if space not in FEATURE_SPACES:
        raise ValueError(f"space must be one of {FEATURE_SPACES}, got {space!r}")


def _weigh(counts: sp.csr_matrix, doc_freq: np.ndarray, n_docs: int, space: str) -> sp.csr_matrix:
    """Features from vocabulary term counts, as :func:`featurize` describes.

    The tf-idf values are worked on the CSR arrays with the products, row
    sums and entry order of scipy's ``multiply``, ``sum(axis=1)`` and
    ``diags(inv) @ x``, so the features, and a model's scores on them, are
    the same to the bit; the last leaves each row's columns descending.
    """
    if counts.shape[1] == 0:
        raise ValueError("empty vocabulary")
    if space == "counts":
        return counts
    idf = np.log((1.0 + n_docs) / (1.0 + doc_freq)) + 1.0
    indptr, lengths = counts.indptr, np.diff(counts.indptr)
    data = counts.data * idf[counts.indices]
    squares = np.zeros(lengths.size)
    filled = lengths > 0
    squares[filled] = np.add.reduceat(data * data, indptr[:-1][filled])
    norms = np.sqrt(squares)
    inv = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    data *= np.repeat(inv, lengths)
    # each row's entries in reverse
    order = np.repeat(indptr[:-1] + indptr[1:] - 1, lengths) - np.arange(data.size)
    return sp.csr_matrix((data[order], counts.indices[order], indptr), shape=counts.shape)


def build_vocab(docs: Sequence[Document], min_df: int = 2) -> Vocabulary:
    """Vocabulary of tokens appearing in at least ``min_df`` documents."""
    min_df = _check_int("min_df", min_df)
    tokens, ids, lens = _encode(docs)
    counts = _count_matrix(_doc_rows(lens, np.arange(lens.size)), ids, lens.size, len(tokens))
    columns, doc_freq = _frequent_columns(counts, min_df)
    return Vocabulary(
        tokens=tuple(tokens[i] for i in columns), doc_freq=doc_freq, n_docs=lens.size
    )


def featurize(
    docs: Sequence[Document], vocab: Vocabulary, space: str = "tfidf"
) -> sp.csr_matrix:
    """Bag-of-words feature matrix (documents x vocabulary), sparse.

    ``space`` selects raw term counts or tf-idf with smoothed idf
    ``log((1 + N) / (1 + df)) + 1`` and per-document L2 normalization.
    Tokens outside the vocabulary are ignored.
    """
    _check_space(space)
    tokens, ids, lens = _encode(docs)
    index = dict(zip(vocab.tokens, range(len(vocab))))
    column = np.fromiter(
        (index.get(tok, -1) for tok in tokens), dtype=np.int64, count=len(tokens)
    )[ids]
    counts = _count_matrix(_doc_rows(lens, np.arange(lens.size)), column, lens.size, len(vocab))
    return _weigh(counts, vocab.doc_freq, vocab.n_docs, space)


@dataclass(frozen=True, kw_only=True)
class TrainConfig:
    """Settings of a trained study: its split, features and :func:`train_logreg`.

    ``seed`` draws the stratified train/test split and the pooled tuples,
    ``train_frac`` is the split's training share of each class, ``space`` the
    feature space (:func:`featurize`) and ``min_df`` the vocabulary's
    document-frequency floor.  :func:`train_logreg` reads only ``epochs``,
    the cap on its iterations (training usually stops well before it, at the
    optimum), and ``l2``.  Full-batch training from zero weights has nothing
    to shuffle: the same data and settings give the same model.
    """

    seed: int = 0
    train_frac: float = 0.7
    space: str = "tfidf"
    min_df: int = 2
    epochs: int = 500
    l2: float = 1e-4

    def __post_init__(self):
        _check_space(self.space)  # first: it has nothing to convert
        for name, value in (
            ("seed", _check_int("seed", self.seed, low=0)),
            ("train_frac", _check_real("train_frac", self.train_frac, 0, 1, "()")),
            ("min_df", _check_int("min_df", self.min_df)),
            ("epochs", _check_int("epochs", self.epochs)),
            ("l2", _check_real("l2", self.l2, 0, math.inf, "[)")),
        ):
            object.__setattr__(self, name, value)


@dataclass(frozen=True, eq=False)
class LinearModel:
    """A trained linear scorer: one weight per feature column.

    Scores are ``x . weights + bias``; positive means machine.
    """

    weights: np.ndarray
    bias: float

    def decision_function(self, features) -> np.ndarray:
        """Raw scores for a feature matrix with one column per weight."""
        if features.shape[1] != self.weights.size:
            raise ValueError(
                f"feature width {features.shape[1]} != weight count {self.weights.size}"
            )
        return np.asarray(features @ self.weights).ravel() + self.bias


def _logistic(z: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-z))`` with the C library's ``exp``.

    This is scipy's logistic ufunc, bit for bit.  numpy's own ``exp`` differs
    from libm's in the last bit on some inputs; ``math.exp`` calls libm's, but
    raises ``OverflowError`` where C returns ``inf``, so those arguments go
    in as ``inf`` and give 0, as C's would.
    """
    t = -z
    t[t > _EXP_MAX] = np.inf
    return 1.0 / (1.0 + np.fromiter(map(math.exp, t.tolist()), np.float64, t.size))


def _logreg_loss(z: np.ndarray, y: np.ndarray, w: np.ndarray, l2: float) -> float:
    # mean log-loss, numerically stable, plus ridge penalty (bias excluded)
    return float(np.mean(np.logaddexp(0.0, z) - y * z) + 0.5 * l2 * (w @ w))


def _lbfgs_direction(
    grad: np.ndarray, pairs: deque[tuple[np.ndarray, np.ndarray, float]], scale: float
) -> np.ndarray:
    """``-H grad`` by the L-BFGS two-loop recursion over ``(s, y, 1 / s.y)`` pairs.

    ``H`` starts from ``scale * I`` and takes the pairs oldest first.
    """
    q, product = grad.copy(), np.empty_like(grad)
    alphas = []
    for s, y, rho in reversed(pairs):
        alphas.append(rho * (s @ q))
        q -= np.multiply(alphas[-1], y, out=product)
    q *= scale
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q += np.multiply(alpha - rho * (y @ q), s, out=product)
    return np.negative(q, out=q)


def train_logreg(
    features,
    labels: Sequence[int],
    config: TrainConfig | None = None,
) -> tuple[LinearModel, np.ndarray]:
    """Minimize L2-regularized logistic loss by L-BFGS.

    The objective is the mean log-loss plus ``l2 / 2 * ||weights||^2``; the
    bias is not penalized.  Weights start at zero, so training is
    deterministic.  Each iteration steps along the limited-memory BFGS
    direction (Liu & Nocedal 1989) over the last few curvature pairs,
    trying the full step first and halving it until the loss falls by the
    Armijo rule.  Before any pair exists the inverse Hessian is ``0.1 * I``,
    so the first iteration is a gradient step of 0.1, halved by the Armijo
    rule until the loss falls enough.

    Training stops once the gradient's largest entry is at most a fixed
    fraction (1e-6) of its value at zero weights, once no step can lower the
    loss at float precision, or after ``epochs`` iterations; ``len(losses) - 1
    == epochs`` shows the last, no stop rule met (some small dense count
    matrices reach it).  A trial step whose loss is NaN or infinite raises
    ``RuntimeError`` naming the iteration and the two losses.

    The gradient's logistic ``1 / (1 + exp(-z))`` is computed with the C
    library's ``exp``, one call per sample, so it equals scipy's logistic
    ufunc bit for bit; of scipy, training uses ``scipy.sparse`` alone.

    Parameters
    ----------
    features : sparse or dense matrix, shape (n_samples, n_features)
    labels : sequence of 0/1
        1 marks the positive (machine) class; both classes must be present.

    Returns
    -------
    (model, losses)
        ``losses`` holds the loss at zero weights and after each iteration,
        at most ``epochs + 1`` entries, never increasing; ``losses[-1]`` is
        the final training loss.
    """
    cfg = config if config is not None else TrainConfig()
    x = features if sp.issparse(features) else np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    n, d = x.shape
    if y.shape != (n,):
        raise ValueError("labels must be one value per feature row")
    if not np.isin(y, (0.0, 1.0)).all():
        raise ValueError("labels must be 0 or 1")
    if y.min() == y.max():
        raise ValueError("both classes must be present")
    if not np.isfinite(x.data if sp.issparse(x) else x).all():
        raise ValueError("features must be finite")

    l2, xt = cfg.l2, x.T

    def loss_at(theta: np.ndarray) -> tuple[np.ndarray, float]:
        # theta is the weights followed by the bias
        z = np.asarray(x @ theta[:-1]).ravel() + theta[-1]
        return z, _logreg_loss(z, y, theta[:-1], l2)

    def gradient(z: np.ndarray, theta: np.ndarray) -> np.ndarray:
        resid = _logistic(z) - y
        grad_w = np.asarray(xt @ resid).ravel() / n + l2 * theta[:-1]
        return np.append(grad_w, np.mean(resid))

    theta = np.zeros(d + 1)
    z, loss = loss_at(theta)
    grad = gradient(z, theta)
    tol = _RTOL * np.abs(grad).max()
    losses = [loss]
    pairs: deque[tuple[np.ndarray, np.ndarray, float]] = deque(maxlen=_MEMORY)
    scale = _FIRST_STEP
    while len(losses) <= cfg.epochs and np.abs(grad).max() > tol:
        direction = _lbfgs_direction(grad, pairs, scale)
        slope = float(grad @ direction)
        step = 1.0
        # the Armijo decrease step * -slope must show in the loss's last bits
        while step * -slope > _EPS * abs(loss):
            trial = theta + step * direction
            z, trial_loss = loss_at(trial)
            if not math.isfinite(trial_loss):
                raise RuntimeError(
                    f"training loss is not finite at epoch {len(losses)} "
                    f"({loss!r} -> {trial_loss!r}): features too large for the first step"
                )
            if trial_loss <= loss + _ARMIJO * step * slope:
                break
            step /= 2
        else:
            break  # no step lowers the loss at float precision
        trial_grad = gradient(z, trial)
        s, g_change = trial - theta, trial_grad - grad
        curvature, g_norm2 = float(s @ g_change), float(g_change @ g_change)
        if curvature > _EPS * g_norm2:
            pairs.append((s, g_change, 1.0 / curvature))
            scale = curvature / g_norm2
        theta, loss, grad = trial, trial_loss, trial_grad
        losses.append(loss)
    return LinearModel(weights=theta[:-1], bias=float(theta[-1])), np.array(losses)


@dataclass(frozen=True)
class PrefixRow:
    """Test AUROC when test documents are cut to a fixed token length.

    ``epochs`` and ``final_loss`` are the iterations the study's one model,
    fit on the whole training documents, trained for and its final training
    loss, the same on every row; ``epochs`` equal to the cap means the cap,
    not a stop rule, ended training (:func:`train_logreg`).
    """

    length: int
    test_auroc: float
    epochs: int
    final_loss: float


@dataclass(frozen=True)
class PairwiseRow:
    """Test AUROC when decisions pool k same-class documents.

    ``epochs`` and ``final_loss`` describe the one model every k shares, read
    as in :class:`PrefixRow` (``epochs`` at the cap: no stop rule was met).
    """

    k: int
    test_auroc: float
    epochs: int
    final_loss: float


def _stratified_split(
    n_human: int, n_machine: int, train_frac: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Train and test indices into the human documents followed by the machine ones."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, _SPLIT_SALT)))
    train, test = [], []
    for offset, count in ((0, n_human), (n_human, n_machine)):
        if count < 2:
            raise ValueError("each class needs at least 2 documents to split")
        perm = rng.permutation(count)
        n_train = min(count - 1, max(1, round(train_frac * count)))
        train.append(offset + np.sort(perm[:n_train]))
        test.append(offset + np.sort(perm[n_train:]))
    return np.concatenate(train), np.concatenate(test)


def _auroc(scores: np.ndarray, y: np.ndarray) -> float:
    return roc_from_scores(scores[y == 1.0], scores[y == 0.0]).auroc


def _heldout_fit(
    human_docs: Sequence[Document], machine_docs: Sequence[Document], cfg: TrainConfig
):
    """The study's one model, fit on the whole training documents, and its test split.

    Returns ``(test_labels, epochs, final_loss, test_scores)``, labels 0 for
    human and 1 for machine.  The vocabulary is the tokens in at least
    ``cfg.min_df`` training documents.  ``test_scores(length)`` gives the model's
    decision values on the test documents cut to their first ``length``
    tokens, counted on that vocabulary and weighed with the training idf; by
    default ``length`` is the longest document's, which cuts none.
    """
    train, test = _stratified_split(len(human_docs), len(machine_docs), cfg.train_frac, cfg.seed)
    tokens, ids, lens = _encode([*human_docs, *machine_docs])
    counts = _count_matrix(_doc_rows(lens, train), ids, train.size, len(tokens))
    columns, doc_freq = _frequent_columns(counts, cfg.min_df)
    # each id's vocabulary column, -1 outside it
    column = np.full(len(tokens), -1, dtype=np.int64)
    column[columns] = np.arange(columns.size)
    at = column[counts.indices]  # the map rises, so each row stays sorted
    kept = at >= 0
    indptr = np.append(0, np.cumsum(kept))[counts.indptr]
    counts = sp.csr_matrix((counts.data[kept], at[kept], indptr), shape=(train.size, columns.size))
    column = column[ids]  # each token's column takes the place of its id
    del ids, at, kept  # training needs the room
    y = np.repeat([0.0, 1.0], [len(human_docs), len(machine_docs)])
    model, losses = train_logreg(_weigh(counts, doc_freq, train.size, cfg.space), y[train], cfg)
    test_rows = _doc_rows(lens, test)

    def test_scores(length: int = lens.max()) -> np.ndarray:
        rows = test_rows
        if length < lens.max():  # the length cuts some document
            offset = np.arange(column.size) - np.repeat(np.cumsum(lens) - lens, lens)
            rows = np.where(offset < length, test_rows, -1)
        counts = _count_matrix(rows, column, test.size, columns.size)
        return model.decision_function(_weigh(counts, doc_freq, train.size, cfg.space))

    return y[test], losses.size - 1, float(losses[-1]), test_scores


def auroc_vs_prefix_length(
    human_docs: Sequence[Document],
    machine_docs: Sequence[Document],
    lengths: Sequence[int],
    config: TrainConfig | None = None,
) -> list[PrefixRow]:
    """Detection accuracy as a function of how much of each test document is seen.

    One stratified train/test split is drawn, and one logistic model is
    trained on the whole training documents, over their vocabulary and idf.
    At each length the test documents are cut to their first ``length``
    tokens, weighed on that vocabulary and idf, and scored by the model, and
    the test AUROC recorded.  So length varies only what the detector sees at
    test time, and every row shares the one model's ``epochs`` and
    ``final_loss``.  A length that cuts no document gives the k = 1 row of
    :func:`pairwise_auroc` with the same config.
    """
    lengths = _check_ints("lengths", lengths)
    cfg = config if config is not None else TrainConfig()
    y, epochs, final_loss, test_scores = _heldout_fit(human_docs, machine_docs, cfg)
    return [PrefixRow(n, _auroc(test_scores(n), y), epochs, final_loss) for n in lengths]


def _pool_indices(labels: Sequence[Label], k: int, seed: int) -> np.ndarray:
    """The ``(len(labels), k)`` index matrix behind :func:`pairwise_augment`.

    Row ``i`` holds ``i``, then ``k - 1`` distinct other indices with its label.
    """
    k = _check_int("k", k)
    by_label: dict[Label, list[int]] = {}
    for i, label in enumerate(labels):
        by_label.setdefault(label, []).append(i)
    members, rank = {}, np.empty(len(labels), dtype=np.int64)
    for label, idx in by_label.items():
        if len(idx) < k:
            raise ValueError(
                f"class {label.value!r} has {len(idx)} documents, fewer than k={k}"
            )
        members[label] = np.array(idx)
        rank[idx] = np.arange(len(idx))
    out = np.empty((len(labels), k), dtype=np.int64)
    out[:, 0] = np.arange(len(labels))
    if k == 1:  # nothing to draw
        return out
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, _AUGMENT_SALT)))
    for i, label in enumerate(labels):
        # a draw over the class without i, shifted past i's own position
        chosen = rng.choice(members[label].size - 1, size=k - 1, replace=False)
        out[i, 1:] = members[label][chosen + (chosen >= rank[i])]
    return out


def pairwise_augment(
    docs: Sequence[Document], k: int = 2, seed: int = 0
) -> list[tuple[Document, ...]]:
    """Pool documents into same-class k-tuples.

    Every document anchors one tuple: itself plus ``k - 1`` distinct other
    documents of its class, drawn uniformly.  Tuples may share members
    (sampling is with replacement across tuples, without replacement within
    one), every tuple is label-pure, and ``k = 1`` returns the original
    documents as singletons.  Deterministic for a fixed seed.
    """
    index = _pool_indices([doc.label for doc in docs], k, seed)
    return [tuple(docs[j] for j in row) for row in index]


def pairwise_auroc(
    human_docs: Sequence[Document],
    machine_docs: Sequence[Document],
    k_values: Sequence[int],
    config: TrainConfig | None = None,
) -> list[PairwiseRow]:
    """Detection accuracy when each decision pools k same-class documents.

    One model is trained on the split's whole training documents, the model
    every :func:`auroc_vs_prefix_length` row with the same config shares,
    and scores every whole test document once.  For each ``k_values[j]``
    the test documents are pooled into the tuples :func:`_pool_indices`
    draws on seed ``2j + 1`` of the study's augment stream, by role (human
    or machine, whatever label a document carries), so tuples never cross
    the split or the roles, and a tuple's score is the sum of its members'
    decision values: the multi-sample log-likelihood-ratio rule.  The k = 1
    row is the unpooled test AUROC.
    """
    ks = _check_ints("k_values", k_values)
    cfg = config if config is not None else TrainConfig()
    y, epochs, final_loss, test_scores = _heldout_fit(human_docs, machine_docs, cfg)
    scores = test_scores()
    # the model was trained on roles, so the tuples pool by role too
    roles = [Label.MACHINE if label else Label.HUMAN for label in y]
    # the tuples for k_values[j] are drawn from seed 2j + 1 of this stream;
    # the even seeds go unused, which keeps each k's tuples fixed
    aug_seeds = np.random.SeedSequence(entropy=(cfg.seed, _AUGMENT_SALT)).generate_state(
        2 * len(ks)
    )
    rows = []
    for j, k in enumerate(ks):
        index = _pool_indices(roles, k, int(aug_seeds[2 * j + 1]))
        # member by member, left to right: a row-wise ndarray.sum adds in
        # another order for k >= 9, and the scores would change in the last bit
        pooled = sum(scores[member] for member in index.T)
        # tuple t is anchored on test document t, so it carries that label
        rows.append(PairwiseRow(k, _auroc(pooled, y), epochs, final_loss))
    return rows
