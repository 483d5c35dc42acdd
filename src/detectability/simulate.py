"""Monte Carlo detection experiments against the exact bounds.

Draws repeated sample sets from a machine and a human distribution, scores
each set with the log-likelihood ratio, and reports the empirical AUROC next
to the exact ceiling (when ``support_size ** n`` is within the enumeration
budget) and the Chernoff trend line.

Reproducibility: the trials of each ``(n, class)`` are drawn in fixed-size
chunks, and chunk ``j`` gets its own generator, keyed by
``(seed, n, class_index, j)`` with class index 0 for machine and 1 for human.
A chunk holds at most ``_CHUNK_CELLS`` (2**16) cells, counting ``max(n, k)``
cells per trial for support size ``k``, so it covers ``2**16 // max(n, k)``
trials (at least one).  Each chunk is sampled as a matrix of per-trial count
vectors and scored in one call.  Results are therefore bit-identical across
runs; wall-clock columns are the only nondeterministic output.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .bounds import DependenceSpec, _check_int, auroc_upper, tv_tensor_chernoff
from .detector import log_likelihood_ratio, roc_from_scores
from .distributions import (
    BudgetError,
    Categorical,
    chernoff_information,
    product_tv_exact,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "ExperimentRow",
    "rescale_blocks",
    "run_experiment",
    "sample_iid",
    "sample_noniid",
    "trial_rng",
]

_MACHINE, _HUMAN = 0, 1

# One chunk of trials holds at most this many cells, counting max(n, k) cells
# per trial (k the support size); it bounds the sampler's working memory.
_CHUNK_CELLS = 1 << 16


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one simulation run.

    Attributes
    ----------
    m, h : Categorical
        Machine and human sample distributions (shared index space).
    n_values : tuple of int
        Sample-set sizes to evaluate, strictly ascending.
    trials_per_class : int
        Number of sample sets drawn per class at each ``n``.
    dependence : DependenceSpec or None
        Optional block-dependence pattern; it is rescaled to each ``n``
        (see :func:`rescale_blocks`).  ``None`` means iid sampling.
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
        if self.m.support_size != self.h.support_size:
            raise ValueError("m and h must share a support size")
        ns = tuple(_check_int("n_values", n) for n in self.n_values)
        if len(ns) == 0:
            raise ValueError("n_values must be nonempty")
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("n_values must be strictly ascending")
        object.__setattr__(self, "n_values", ns)
        object.__setattr__(
            self, "trials_per_class", _check_int("trials_per_class", self.trials_per_class)
        )
        if self.dependence is not None and not isinstance(
            self.dependence, DependenceSpec
        ):
            raise ValueError("dependence must be a DependenceSpec or None")
        object.__setattr__(self, "seed", _check_int("seed", self.seed, low=0))


@dataclass(frozen=True)
class ExperimentRow:
    """Results at one sample-set size.

    ``auroc_upper_exact`` is a hard ceiling (None when ``support_size ** n``
    exceeds the enumeration budget).  ``auroc_upper_chernoff`` is the
    leading-order rate estimate; it converges to the ceiling as n grows but
    small-n empirical values may legitimately sit above it.
    """

    n: int
    empirical_auroc: float
    auroc_upper_exact: float | None
    auroc_upper_chernoff: float
    wall_time_seconds: float


@dataclass(frozen=True)
class ExperimentResult:
    """Rows of :func:`run_experiment`, one per requested ``n``."""

    rows: tuple[ExperimentRow, ...]


def trial_rng(seed: int, n: int, class_index: int, chunk: int) -> np.random.Generator:
    """Generator for one chunk of trials, keyed so chunks never share a stream."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=(seed, n, class_index, chunk))
    )


def _chunk_trials(n: int, k: int) -> int:
    """Trials per chunk: as many as fit :data:`_CHUNK_CELLS` at ``max(n, k)`` each."""
    return max(1, _CHUNK_CELLS // max(n, k))


def sample_iid(
    dist: Categorical, n: int, trials: int, rng: np.random.Generator
) -> np.ndarray:
    """Count vectors of ``trials`` independent sets of ``n`` iid draws.

    Returns a ``(trials, support_size)`` integer matrix whose rows sum to
    ``n``: one multinomial draw per row, a pure function of the generator
    state.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    return rng.multinomial(n, dist.probs, size=trials)


def rescale_blocks(dep: DependenceSpec, n: int) -> DependenceSpec:
    """Fit a block pattern to ``n`` samples.

    Cycles through ``dep.blocks`` until ``n`` samples are covered; the final
    block is truncated to fit, keeping its correlation.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    out: list[tuple[int, float]] = []
    total = 0
    while total < n:
        for c, rho in dep.blocks:
            take = min(c, n - total)
            out.append((take, rho))
            total += take
            if total == n:
                break
    return DependenceSpec(out)


def sample_noniid(
    dist: Categorical, dep: DependenceSpec, trials: int, rng: np.random.Generator
) -> np.ndarray:
    """Count vectors of ``trials`` sets of ``dep.n`` draws with within-block copying.

    Blocks are mutually independent.  Inside a block the first sample is a
    fresh draw; each later sample copies a uniformly chosen earlier sample
    of the block with probability ``rho``, else draws fresh.  Consequently
    the conditional mean of sample ``i`` given the block's past is
    ``rho * (past mean) + (1 - rho) * (unconditional mean)``.

    The copy process runs on a ``(trials, dep.n)`` sample matrix, one block
    position at a time across every block and trial; each row is then
    counted into a ``(trials, support_size)`` matrix as in
    :func:`sample_iid`.

    Stream convention: one ``(3, trials, dep.n)`` array of uniforms is
    drawn (fresh draws, copy coins, copy-target picks; coins and picks of
    block heads go unused), so the result is a pure function of the
    generator state regardless of how the copies resolve.
    """
    c = np.array([b[0] for b in dep.blocks], dtype=np.int64)
    rho = np.array([b[1] for b in dep.blocks], dtype=np.float64)
    n = int(c.sum())
    k = dist.support_size
    start = np.repeat(np.cumsum(c) - c, c)  # block head of each position
    offset = np.arange(n) - start

    u = rng.random((3, trials, n))
    vals = np.searchsorted(dist.cdf(), u[0], side="right")
    # cdf[-1] can sit one ulp under 1.0; clamp the overflow bucket
    np.minimum(vals, k - 1, out=vals)
    copies = u[1] < np.repeat(rho, c)
    for i in range(1, int(c.max())):
        pos = np.flatnonzero(offset == i)
        targets = start[pos] + np.minimum((u[2][:, pos] * i).astype(np.int64), i - 1)
        picked = np.take_along_axis(vals, targets, axis=1)
        vals[:, pos] = np.where(copies[:, pos], picked, vals[:, pos])

    rows = np.arange(trials)[:, None] * k
    return np.bincount((rows + vals).ravel(), minlength=trials * k).reshape(trials, k)


def _exact_auroc_bound(m: Categorical, h: Categorical, n: int) -> float | None:
    try:
        return auroc_upper(product_tv_exact(m, h, n))
    except BudgetError:
        return None


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the Monte Carlo experiment described by ``config``.

    For each ``n``: draw ``trials_per_class`` sample sets per class (iid, or
    block-dependent when a dependence pattern is set) as count vectors, one
    seeded chunk at a time (see the module docstring), score each chunk with
    :func:`log_likelihood_ratio` against the true pair -- dependent runs are
    still scored with the product-form likelihood -- and compute the
    empirical AUROC of the two score samples.  Scores are sorted before the
    ROC pass so the row does not depend on trial completion order.

    Each row also carries the exact AUROC ceiling (when ``support**n`` fits
    the enumeration budget) and the Chernoff trend value.
    """
    ic = chernoff_information(config.m, config.h)
    trials = config.trials_per_class
    rows = []
    for n in config.n_values:
        t0 = time.perf_counter()
        step = _chunk_trials(n, config.m.support_size)
        dep_n = (
            rescale_blocks(config.dependence, n)
            if config.dependence is not None
            else None
        )
        per_class: list[np.ndarray] = []
        for class_index, dist in ((_MACHINE, config.m), (_HUMAN, config.h)):
            scores = np.empty(trials)
            for chunk, lo in enumerate(range(0, trials, step)):
                size = min(step, trials - lo)
                rng = trial_rng(config.seed, n, class_index, chunk)
                if dep_n is None:
                    counts = sample_iid(dist, n, size, rng)
                else:
                    counts = sample_noniid(dist, dep_n, size, rng)
                scores[lo : lo + size] = log_likelihood_ratio(config.m, config.h, counts)
            scores.sort()
            per_class.append(scores)
        curve = roc_from_scores(per_class[_MACHINE], per_class[_HUMAN])
        rows.append(
            ExperimentRow(
                n=n,
                empirical_auroc=curve.auroc,
                auroc_upper_exact=_exact_auroc_bound(config.m, config.h, n),
                auroc_upper_chernoff=auroc_upper(tv_tensor_chernoff(n, ic)),
                wall_time_seconds=time.perf_counter() - t0,
            )
        )
    return ExperimentResult(rows=tuple(rows))
