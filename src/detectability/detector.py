"""Likelihood-ratio scoring and empirical ROC construction.

The likelihood-ratio test is the optimal detector between two known
distributions, so its score is the reference statistic throughout: sum the
per-sample log-likelihood ratios, compare against a threshold, and sweep the
threshold to trace an ROC.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import Categorical, _check_same_support

__all__ = [
    "Label",
    "RocCurve",
    "log_likelihood_ratio",
    "roc_from_scores",
]

# Trapezoid area and the rank statistic are two routes to the same AUROC;
# they must agree to this tolerance or the curve is rejected.
AUROC_CONSISTENCY_TOL = 1e-9


class Label(enum.Enum):
    """Provenance of a text sample."""

    MACHINE = "machine"
    HUMAN = "human"


@dataclass(frozen=True)
class RocCurve:
    """An empirical ROC: operating points plus the area under them.

    ``points`` is sorted by false-positive rate, true-positive rate
    nondecreasing, with (0, 0) and (1, 1) always present.  ``auroc`` is the
    tie-aware rank statistic, which the trapezoid integral of ``points``
    reproduces to :data:`AUROC_CONSISTENCY_TOL`.
    """

    points: tuple[tuple[float, float], ...]
    auroc: float


def log_likelihood_ratio(
    m: Categorical, h: Categorical, samples: Sequence[int] | np.ndarray
) -> float | np.ndarray:
    """Sum of per-sample log-likelihood ratios ``log m(s) - log h(s)``.

    Positive values favor ``m`` (machine), negative favor ``h`` (human).
    The sum is additive over concatenated sample lists.

    ``samples`` is either a 1-d list of sample indices, scored as one float,
    or a 2-d ``(sets, support_size)`` matrix of per-index sample counts,
    scored as one float per row.  Both are scored from counts, a row as the
    sum of ``counts[j] * (log m(j) - log h(j))`` that numpy's ``sum(axis=1)``
    gives: in index order below 8 entries, pairwise from 8 on, and never
    reading outside the row, so equal count vectors score bit-equal in a
    matrix of any height.

    Zero-mass conventions: a sample with mass under exactly one distribution
    contributes ``+inf`` (only ``m``) or ``-inf`` (only ``h``); a sample with
    mass under neither is skipped with a warning.  If both infinities occur,
    the joint mass is zero under both models and the evidence cancels to 0.0,
    again with a warning.

    Raises
    ------
    ValueError
        On an empty sample list, an out-of-range index, a negative or
        non-integer count, or when every sample of a set was skipped.
    """
    _check_same_support(m, h)
    k = m.support_size
    arr = np.asarray(samples)
    if arr.size == 0 or arr.ndim not in (1, 2):
        raise ValueError(
            "samples must be a nonempty 1-d sequence of indices or a 2-d "
            "matrix of counts"
        )
    if arr.dtype.kind not in "iu":
        raise ValueError("samples must be integer indices or counts")
    if arr.ndim == 1:
        if arr.min() < 0 or arr.max() >= k:
            raise ValueError("sample index out of range")
        counts = np.bincount(arr.astype(np.int64), minlength=k)[None, :]
    else:
        if arr.shape[1] != k:
            raise ValueError(f"count matrix must have {k} columns, got {arr.shape[1]}")
        if arr.min() < 0:
            raise ValueError("counts must be nonnegative")
        counts = arr

    total = counts @ np.ones(k, dtype=np.int64)  # exact, where sum(axis=1) is slow
    if not total.all():
        raise ValueError("every sample set must be nonempty")
    zero_mass = m._has_zero or h._has_zero
    if zero_mass:
        with np.errstate(invalid="ignore"):
            table = m.log_probs() - h.log_probs()  # -inf - -inf -> nan where both zero
        weights = np.where(np.isfinite(table), table, 0.0)
    else:  # every weight is finite
        weights = m.log_probs() - h.log_probs()
    if k < 8:
        # numpy sums fewer than 8 entries in index order: a column sweep adds
        # the same terms in the same order, without the slow per-row reduction
        scores = counts[:, 0] * weights[0]
        for j in range(1, k):
            scores += counts[:, j] * weights[j]
    else:
        scores = (counts * weights).sum(axis=1)
    if not zero_mass:  # none of the bookkeeping below
        return float(scores[0]) if arr.ndim == 1 else scores
    both_zero = np.isnan(table)
    if both_zero.any():
        skipped = counts[:, both_zero].sum(axis=1)
        if skipped.any():
            warnings.warn(
                f"skipped {int(skipped.sum())} sample(s) with zero mass under "
                "both distributions",
                RuntimeWarning,
                stacklevel=2,
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
            "evidence certain for both sides (joint mass zero under both "
            "models); treating as a tie",
            RuntimeWarning,
            stacklevel=2,
        )
        scores[tie] = 0.0
    return float(scores[0]) if arr.ndim == 1 else scores


def roc_from_scores(
    machine_scores: Sequence[float], human_scores: Sequence[float]
) -> RocCurve:
    """Empirical ROC from scores of known machine and human sample sets.

    Sweeps the decision threshold over every observed score (plus the two
    infinite endpoints), scoring "machine" when ``score >= threshold``.  The
    AUROC is the tie-aware rank statistic ``(#{a > b} + 0.5 #{a == b}) /
    (|A| |B|)``; the trapezoid area of the swept points equals it to
    :data:`AUROC_CONSISTENCY_TOL` by construction, and both are computed so
    a mismatch fails loudly.

    Scores may include ``+-inf`` (certain evidence); NaN is rejected.
    """
    ms = np.sort(np.asarray(machine_scores, dtype=np.float64))
    hs = np.asarray(human_scores, dtype=np.float64)
    if ms.size == 0 or hs.size == 0:
        raise ValueError("both score lists must be nonempty")
    both = np.sort(np.concatenate([ms, hs]))
    if np.isnan(both[-1]):  # NaN sorts last
        raise ValueError("scores must not contain NaN")

    # Thresholds: the distinct scores, ascending.  Below each lie its first
    # position in ``both`` (machine: searchsorted in ``ms``); up to each, the next's.
    first = np.flatnonzero(np.concatenate([[True], both[1:] != both[:-1]]))
    # Row 0 counts machine scores, row 1 human; a last column closes each row
    # with its class size, so ``below[:, 1:]`` is the count up to each threshold.
    below = np.empty((2, first.size + 1), dtype=np.int64)
    m_below, h_below = below[:, :-1]
    m_below[:] = np.searchsorted(ms, both[first])
    np.subtract(first, m_below, out=h_below)
    below[:, -1] = ms.size, hs.size
    # 2U in int64, exact while |A| |B| < 2**62: 2 per human score below, 1 per tie
    u2 = int((below[0, 1:] - m_below) @ (h_below + below[1, 1:]))
    auroc = u2 / (2 * ms.size * hs.size)

    # Threshold sweep, descending; prepend the empty decision rule (0, 0).
    rates = np.zeros((2, first.size + 1))
    tprs, fprs = rates
    rates[:, 1:] = 1.0 - below[:, -2::-1] / below[:, -1:]  # each count over its class size

    # the trapezoid rule, as np.trapezoid sums it
    area = float(((fprs[1:] - fprs[:-1]) * (tprs[1:] + tprs[:-1]) / 2.0).sum())
    if abs(area - auroc) > AUROC_CONSISTENCY_TOL:
        raise AssertionError(
            f"trapezoid area {area!r} and rank AUROC {auroc!r} disagree"
        )
    points = tuple(zip(fprs.tolist(), tprs.tolist()))
    return RocCurve(points=points, auroc=auroc)
