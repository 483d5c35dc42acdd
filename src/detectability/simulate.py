"""Monte Carlo detection experiments against the exact bounds.

Draws repeated sample sets from a machine and a human distribution, scores
each set with the log-likelihood ratio, and reports the empirical AUROC next
to the exact ceiling (when ``support_size ** n`` is within the enumeration
budget) and the ceiling at the Chernoff floor on the product TV.

Reproducibility: the trials of each ``(n, class)`` are drawn in fixed-size
chunks, and chunk ``j`` gets its own generator, keyed by
``(seed, n, class_index, j)`` with class index 0 for machine and 1 for human.
A chunk holds at most ``_CHUNK_CELLS`` (2**16) cells, counting the cells one
trial's sampler holds: ``k`` for an iid trial over support size ``k`` (one row
of a multinomial draw, whatever ``n`` is) and ``max(n, k)`` for a
block-dependent one.  So an iid chunk covers ``2**16 // k`` trials and a
dependent one ``2**16 // max(n, k)`` (at least one).  Each chunk is sampled
as a matrix of per-trial count vectors and scored in one call: iid chunks by
one multinomial draw, block-dependent ones as :func:`sample_noniid`
describes, by a rule that depends only on the support size, the block
pattern and ``n``, so every chunk of a row uses the same sampler.  Results
are therefore bit-identical across runs.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .bounds import (
    DependenceSpec,
    _check_int,
    _check_ints,
    auroc_upper,
    tv_tensor_chernoff,
)
from .detector import log_likelihood_ratio, roc_from_scores
from .distributions import (
    Categorical,
    _check_same_support,
    _product_tvs,
    _within_budget,
    chernoff_information,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentRow",
    "run_experiment",
    "sample_iid",
    "sample_noniid",
    "trial_rng",
]

_MACHINE, _HUMAN = 0, 1

# The sample counts numpy's samplers take are C longs.
_MAX_N = np.iinfo(np.int64).max

# One chunk of trials holds at most this many cells, counting the cells one
# trial's sampler holds: k for iid (k the support size), max(n, k) for
# block-dependent; it bounds the sampler's working memory.
_CHUNK_CELLS = 1 << 16


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one simulation run.

    Attributes
    ----------
    m, h : Categorical
        Machine and human sample distributions (shared index space).
    n_values : tuple of int
        Sample-set sizes to evaluate, in increasing order.
    trials_per_class : int
        Number of sample sets drawn per class at each ``n``.
    dependence : DependenceSpec or None
        Optional block-dependence pattern, cycled to cover each ``n`` (see
        :func:`sample_noniid`).  ``None`` means iid sampling.
    seed : int
        Root seed for the per-chunk generator keys.
    """

    m: Categorical
    h: Categorical
    n_values: tuple[int, ...]
    trials_per_class: int
    dependence: DependenceSpec | None = None
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.m, Categorical) or not isinstance(self.h, Categorical):
            raise ValueError("m and h must be Categorical distributions")
        _check_same_support(self.m, self.h)
        object.__setattr__(
            self, "n_values", tuple(_check_ints("n_values", self.n_values, high=_MAX_N))
        )
        trials = _check_int("trials_per_class", self.trials_per_class, high=_MAX_N)
        object.__setattr__(self, "trials_per_class", trials)
        if not isinstance(self.dependence, (DependenceSpec, type(None))):
            raise ValueError("dependence must be a DependenceSpec or None")
        object.__setattr__(self, "seed", _check_int("seed", self.seed, low=0))


@dataclass(frozen=True)
class ExperimentRow:
    """Results at one sample-set size.

    ``auroc_upper_exact`` is a hard ceiling (None when ``support_size ** n``
    exceeds the enumeration budget).  ``auroc_upper_chernoff`` is the same
    ceiling taken at the Chernoff floor on the product TV
    (:func:`tv_tensor_chernoff`), so it never exceeds ``auroc_upper_exact``
    beyond rounding and converges to it as n grows; empirical values may
    legitimately sit above it.

    On block-dependent rows both columns hold the values for ``n`` iid draws:
    ``auroc_upper_exact`` is still a valid ceiling there, but a loose one,
    and ``auroc_upper_chernoff`` bounds nothing about the dependent law.
    """

    n: int
    empirical_auroc: float
    auroc_upper_exact: float | None
    auroc_upper_chernoff: float


def trial_rng(seed: int, n: int, class_index: int, chunk: int) -> np.random.Generator:
    """Generator for one chunk of trials, keyed so chunks never share a stream.

    It is the generator ``np.random.default_rng`` builds from this seed
    sequence, constructed without that function's argument dispatch.
    """
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=(seed, n, class_index, chunk)))
    )


def _chunk_trials(cells_per_trial: int) -> int:
    """Trials per chunk: as many as fit :data:`_CHUNK_CELLS` at ``cells_per_trial`` each.

    An iid trial holds ``k`` cells, its row of one multinomial draw; a
    block-dependent one is counted at ``max(n, k)``, for the copy process's
    ``n`` samples per trial and the ``k``-cell count row.
    """
    return max(1, _CHUNK_CELLS // cells_per_trial)


def sample_iid(
    dist: Categorical, n: int, trials: int, rng: np.random.Generator
) -> np.ndarray:
    """Count vectors of ``trials`` independent sets of ``n`` iid draws.

    Returns a ``(trials, support_size)`` integer matrix whose rows sum to
    ``n``: one multinomial draw per row, a pure function of the generator
    state.
    """
    return rng.multinomial(_check_int("n", n), dist.probs, size=trials)


def _rescale(dep: DependenceSpec, n: int) -> tuple[int, list[tuple[int, float]]]:
    """``dep.blocks`` cycled over ``n`` samples: whole cycles, then a partial one.

    Returns the number of whole cycles and the partial cycle's blocks, the
    last of them truncated to fit (it keeps its correlation).
    """
    cycles, rest = divmod(n, dep.n)
    partial = []
    for c, rho in dep.blocks:
        if rest > 0:
            partial.append((min(c, rest), rho))
            rest -= c
    return cycles, partial


def _block_kinds(dep: DependenceSpec, n: int) -> Counter:
    """Multiplicity of each ``(c, rho)`` block of ``dep`` at ``n``, in first-appearance order."""
    cycles, partial = _rescale(dep, n)
    whole = Counter({block: m * cycles for block, m in Counter(dep.blocks).items()})
    return whole + Counter(partial)  # + drops the kinds of zero whole cycles


def _law_selected(dep: DependenceSpec, n: int, k: int) -> bool:
    """Whether :func:`sample_noniid` draws ``dep`` at ``n`` from the exact block laws.

    True when the law sampler touches no more cells than the copy process
    on a full dependent chunk of ``T = _chunk_trials(max(n, k))`` trials,
    which touches ``T * n``: building each distinct kind's law touches ``k``
    cells per count type of every step, ``k * C(c + k - 1, c - 1)`` in all,
    and the draws one cell per trial and type of the ``C(c + k - 1, c)``.
    Each kind's mixed-radix type keys ``sum_j counts_j * (c + 1)**j`` must
    also fit in int64.

    The count charges the law build to every chunk although a run builds
    its laws once, and near the crossover it can pick the slower sampler.
    It is kept on purpose: the rule picks the sampler, so it is part of the
    stream contract, and any other count would change some rows' streams.
    """
    kinds = _block_kinds(dep, n)
    trials = _chunk_trials(max(n, k))
    cells = sum(
        k * math.comb(c + k - 1, c - 1) + trials * math.comb(c + k - 1, c) for c, _ in kinds
    )
    return cells <= trials * n and all((c + 1) ** k <= 2**63 for c, _ in kinds)


def _block_law(probs: np.ndarray, c: int, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact law of one block's count vector under the copy process.

    The running count vector is a Markov chain: after ``t`` draws with
    counts ``x``, the next draw is index ``j`` with probability
    ``rho * x_j / t + (1 - rho) * p_j``.  Each of the ``c - 1`` steps
    extends every type by every index, and equal types merge on their
    mixed-radix keys ``sum_j x_j * (c + 1)**j``.  Returns the types as an
    ``(A, k)`` int64 matrix (rows in ascending key order) and their masses;
    types of zero mass are dropped.
    """
    radix = (c + 1) ** np.arange(len(probs), dtype=np.int64)
    live = probs > 0
    keys, mass = radix[live], probs[live]
    for t in range(1, c):
        atoms = keys[:, None] // radix % (c + 1)
        step = (mass[:, None] * (rho * atoms / t + (1.0 - rho) * probs)).ravel()
        live = step > 0
        keys, inverse = np.unique(
            (keys[:, None] + radix).ravel()[live], return_inverse=True
        )
        mass = np.bincount(inverse, weights=step[live])
    return keys[:, None] // radix % (c + 1), mass


def _law_sampler(dist: Categorical, dep: DependenceSpec, n: int, law):
    """``draw(trials, rng)``: block-dependent count vectors from the exact block laws.

    ``law(c, rho)`` gives each distinct kind's law under ``dist``'s masses,
    perhaps one built for an earlier row.  Each draw then takes, for every
    kind in first-appearance order, one ``multinomial(multiplicity, law,
    size=trials)`` that counts how many of its blocks take each count type;
    the types' counts add up.
    """
    k = dist.support_size
    kinds = [(m, *law(c, rho)) for (c, rho), m in _block_kinds(dep, n).items()]

    def draw(trials: int, rng: np.random.Generator) -> np.ndarray:
        counts = np.zeros((trials, k), dtype=np.int64)
        for m, atoms, law in kinds:
            counts += rng.multinomial(m, law, size=trials) @ atoms
        return counts

    return draw


def _copy_positions(dep: DependenceSpec, n: int) -> tuple[np.ndarray, ...]:
    """Each of ``n`` positions' offset in its block, and its block's ``rho``.

    One cycle's arrays, built only if a whole cycle fits in ``n``, are tiled
    once per whole cycle; the partial cycle's follow.
    """
    cycles, partial = _rescale(dep, n)
    head, blocks = (dep.n, [*dep.blocks, *partial]) if cycles else (0, partial)
    c = np.array([b[0] for b in blocks], dtype=np.int64)
    offset = np.arange(c.sum()) - np.repeat(np.cumsum(c) - c, c)
    rho = np.repeat([b[1] for b in blocks], c)
    return tuple(np.concatenate([np.tile(a[:head], cycles), a[head:]]) for a in (offset, rho))


def _copy_sampler(dist: Categorical, dep: DependenceSpec, n: int):
    """``draw(trials, rng)``: block-dependent count vectors from the copy process itself.

    The positions, their grouping by block offset and ``dist``'s cdf are
    built once.  Each draw runs the copy process on a ``(trials, n)`` sample
    matrix, one block position at a time across every block and trial, and
    counts each row into a ``(trials, support_size)`` matrix.  One
    ``(3, trials, n)`` array of uniforms is drawn (fresh draws, copy coins,
    copy-target picks; coins and picks of block heads go unused), so the
    result is a pure function of the generator state regardless of how the
    copies resolve.
    """
    offset, rho = _copy_positions(dep, n)
    k = dist.support_size
    start = np.arange(n) - offset  # block head of each position
    # the last index with mass takes every uniform past the cdf below it, so a
    # cdf that ends an ulp under 1.0 sends none to an index without mass
    cdf = np.cumsum(dist.probs)[: np.flatnonzero(dist.probs)[-1]]
    # the positions at block offset i are by_offset[ends[i - 1]:ends[i]]
    by_offset = np.argsort(offset, kind="stable")
    ends = np.cumsum(np.bincount(offset))
    groups = []
    for i in range(1, len(ends)):
        pos = by_offset[ends[i - 1] : ends[i]]
        groups.append((i, pos, start[pos]))

    def draw(trials: int, rng: np.random.Generator) -> np.ndarray:
        u = rng.random((3, trials, n))
        vals = np.searchsorted(cdf, u[0], side="right")
        copies = u[1] < rho
        for i, pos, head in groups:
            targets = head + np.minimum((u[2][:, pos] * i).astype(np.int64), i - 1)
            picked = np.take_along_axis(vals, targets, axis=1)
            vals[:, pos] = np.where(copies[:, pos], picked, vals[:, pos])
        rows = np.arange(trials)[:, None] * k
        return np.bincount((rows + vals).ravel(), minlength=trials * k).reshape(trials, k)

    return draw


def sample_noniid(
    dist: Categorical, dep: DependenceSpec, n: int, trials: int, rng: np.random.Generator
) -> np.ndarray:
    """Count vectors of ``trials`` sets of ``n`` draws with within-block copying.

    The blocks cycle through ``dep.blocks`` until ``n`` samples are covered,
    the final block truncated to fit; they are counted, never listed.
    Blocks are mutually independent.  Inside a block the first sample is a
    fresh draw; each later sample copies a uniformly chosen earlier sample
    of the block with probability ``rho``, else draws fresh.  Returns a
    ``(trials, support_size)`` integer matrix whose rows sum to ``n``.

    Stream convention.  The count types of one block kind ``(c, rho)`` have
    an exact law (:func:`_block_law`), built without random numbers.  When
    building the distinct kinds' laws and drawing a full chunk of trials
    from them touches no more cells than the copy process would, and the
    type keys fit in int64 (:func:`_law_selected`; in practice short blocks
    over small supports), one ``multinomial(multiplicity, law,
    size=trials)`` is drawn per kind, in first-appearance order.  Otherwise
    the copy process runs position by position on one ``(3, trials, n)``
    array of uniforms: fresh draws, copy coins and copy-target picks.
    Either way the result is a pure function of the generator state.  A
    kind's law depends only on ``dist`` and the kind: :func:`run_experiment`
    builds it once per run and class, the copy positions once per row, and
    then draws each chunk from them.
    """
    law = functools.partial(_block_law, dist.probs)
    return _noniid_sampler(dist, dep, _check_int("n", n), law)(trials, rng)


def _noniid_sampler(dist: Categorical, dep: DependenceSpec, n: int, law):
    """``draw(trials, rng)`` for :func:`sample_noniid` at ``n``, laws from ``law(c, rho)``."""
    if _law_selected(dep, n, dist.support_size):
        return _law_sampler(dist, dep, n, law)
    return _copy_sampler(dist, dep, n)


def run_experiment(config: ExperimentConfig) -> tuple[ExperimentRow, ...]:
    """Run the Monte Carlo experiment described by ``config``.

    For each ``n``: draw ``trials_per_class`` sample sets per class (iid, or
    block-dependent when a dependence pattern is set) as count vectors, one
    seeded chunk at a time (see the module docstring), score each chunk with
    :func:`log_likelihood_ratio` against the true pair -- dependent runs are
    still scored with the product-form likelihood -- and compute the
    empirical AUROC of the two score samples.  Returns one row per ``n``.

    Each row also carries the exact AUROC ceiling (when ``support**n`` fits
    the enumeration budget) and its value at the Chernoff TV floor.  The
    exact ceilings come from one enumeration of the count types per run:
    each row grows the levels between the previous row's ``n`` and its own.
    """
    ic = chernoff_information(config.m, config.h)
    trials = config.trials_per_class
    k = config.m.support_size
    # the in-budget sizes are a prefix of the ascending n_values, so the
    # sweep runs dry exactly where the exact column turns blank
    exact = _product_tvs(config.m, config.h, [n for n in config.n_values if _within_budget(k, n)])
    # each class's law of a kind is built by the first row that needs it
    laws = [functools.cache(functools.partial(_block_law, d.probs)) for d in (config.m, config.h)]
    rows = []
    for n in config.n_values:
        step = _chunk_trials(k if config.dependence is None else max(n, k))
        per_class: list[np.ndarray] = []
        for class_index, dist in ((_MACHINE, config.m), (_HUMAN, config.h)):
            if config.dependence is None:
                draw = functools.partial(sample_iid, dist, n)
            else:
                draw = _noniid_sampler(dist, config.dependence, n, laws[class_index])
            scores = np.empty(trials)
            for chunk, lo in enumerate(range(0, trials, step)):
                size = min(step, trials - lo)
                counts = draw(size, trial_rng(config.seed, n, class_index, chunk))
                scores[lo : lo + size] = log_likelihood_ratio(config.m, config.h, counts)
            per_class.append(scores)
        curve = roc_from_scores(per_class[_MACHINE], per_class[_HUMAN])
        tv = next(exact, None)
        rows.append(
            ExperimentRow(
                n=n,
                empirical_auroc=curve.auroc,
                auroc_upper_exact=None if tv is None else auroc_upper(tv),
                auroc_upper_chernoff=auroc_upper(tv_tensor_chernoff(n, ic)),
            )
        )
    return tuple(rows)
