"""Exact machinery for pairs of categorical distributions.

Everything here is finite and exact: categorical distributions over a shared
index space, total variation distance, Chernoff information, the TV distance
between n-fold product (i.i.d. tensor) distributions summed over count types,
and a brute-force minimum-error search over all acceptance regions.  No
sampling, no smoothing; numerical error is limited to float64 rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bounds import _check_int, _check_list, _check_real

__all__ = [
    "BudgetError",
    "Categorical",
    "DimensionError",
    "ENUMERATION_BUDGET",
    "MinErrorResult",
    "chernoff_information",
    "min_error_bruteforce",
    "product_tv_exact",
    "tv_distance",
]

# product_tv_exact refuses support_size ** n above this.  Its cost is the
# C(n + k - 1, n) count types, not the k ** n tuples; the refusal is kept as an
# output contract that fixes where simulate's exact ceiling is blank.
ENUMERATION_BUDGET = 10_000_000

# Probability vectors must sum to 1 within this before renormalization.
PROB_SUM_TOL = 1e-12

# Brute-force region search enumerates 2**support_size subsets.
BRUTEFORCE_MAX_SUPPORT = 20

_ULPS = 4  # the Chernoff floor's assumed bound on numpy's log and exp error, in ulps


class DimensionError(ValueError):
    """Raised when two distributions do not share an index space."""


class BudgetError(ValueError):
    """Raised when an exact enumeration would exceed its size budget."""


class Categorical:
    """A probability distribution over the indices 0..support_size-1.

    Parameters
    ----------
    probs : sequence of float
        Nonnegative masses.  They must sum to 1 within ``1e-12``; inputs
        inside that tolerance are renormalized exactly, anything outside is
        rejected.  Any input but an array must be a list-like iterable of
        finite numbers; a bool or a string is refused, not converted.

    Notes
    -----
    Instances are immutable; the stored array is marked read-only.
    """

    __slots__ = ("probs", "_has_zero", "_log_probs_cache")

    def __init__(self, probs: Sequence[float] | np.ndarray):
        if not isinstance(probs, np.ndarray):
            probs = _check_list("probs", probs, "numbers")
            k = len(probs)
            probs = [_check_real(f"element {i} of {k}", p) for i, p in enumerate(probs, start=1)]
        arr = np.asarray(probs, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("probs must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("probs must be finite")
        if np.any(arr < 0.0):
            raise ValueError("probs must be nonnegative")
        total = float(arr.sum())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(
                f"probs sum to {total!r}, outside tolerance {PROB_SUM_TOL} of 1"
            )
        arr = arr / total
        arr.setflags(write=False)
        self.probs = arr
        self._has_zero = not arr.all()  # read by log_likelihood_ratio
        self._log_probs_cache: np.ndarray | None = None

    def __repr__(self) -> str:
        return f"Categorical({self.probs.tolist()!r})"

    @property
    def support_size(self) -> int:
        return int(self.probs.size)

    @classmethod
    def bernoulli(cls, p: float) -> "Categorical":
        """Two-outcome distribution with mass ``p`` on index 1."""
        p = _check_real("p", p, 0, 1, "[]")
        return cls([1.0 - p, p])

    def log_probs(self) -> np.ndarray:
        """Elementwise natural log of the masses; zeros map to ``-inf``."""
        if self._log_probs_cache is None:
            with np.errstate(divide="ignore"):
                lp = np.log(self.probs)
            lp.setflags(write=False)
            self._log_probs_cache = lp
        return self._log_probs_cache

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Categorical):
            return NotImplemented
        return self.probs.shape == other.probs.shape and bool(
            np.all(self.probs == other.probs)
        )

    def __hash__(self) -> int:
        return hash(self.probs.tobytes())


@dataclass(frozen=True)
class MinErrorResult:
    """Outcome of the brute-force search over acceptance regions.

    Attributes
    ----------
    min_error : float
        Minimum of Type-I + Type-II error over every acceptance region.
    lr_region : tuple of int
        The likelihood-ratio region ``{s : p(s) >= q(s)}``.
    lr_region_error : float
        Error sum attained by ``lr_region``; always within ``1e-12`` of
        ``min_error``.
    """

    min_error: float
    lr_region: tuple[int, ...]
    lr_region_error: float


def _check_same_support(p: Categorical, q: Categorical) -> None:
    if p.support_size != q.support_size:
        raise DimensionError(
            f"support sizes differ: {p.support_size} vs {q.support_size}"
        )


def _within_budget(k: int, n: int) -> bool:
    """Whether ``k ** n`` outcome tuples fit :data:`ENUMERATION_BUDGET`.

    Once false at some ``n`` it stays false for every larger ``n``, so the
    in-budget sizes of an ascending list are a prefix of it.
    """
    # past the budget's bit length k ** n >= 2 ** n is over it: skip the power,
    # which for large n is slow and too long to print
    return k == 1 or (n <= ENUMERATION_BUDGET.bit_length() and k**n <= ENUMERATION_BUDGET)


def tv_distance(p: Categorical, q: Categorical) -> float:
    """Total variation distance between two aligned categoricals.

    Computed as half the L1 distance between the mass vectors.  Symmetric,
    and always in ``[0, 1]``.

    Raises
    ------
    DimensionError
        If the distributions do not share a support size.
    """
    _check_same_support(p, q)
    # rounding can push disjoint supports one ulp past 1
    return min(float(0.5 * np.abs(p.probs - q.probs).sum()), 1.0)


def chernoff_information(p: Categorical, q: Categorical) -> float:
    """Chernoff information ``-min_a f(a)``, ``f(a) = log sum_s p(s)^a q(s)^(1-a)``.

    ``f`` is convex on [0, 1], taken in log space over the common support
    (terms where either mass is zero contribute nothing, the continuous
    extension of the integrand); ``f'`` and ``f''`` are the mean and
    variance of ``d = log p - log q`` under the tilted masses ``∝ q e^(a d)``.
    Bracketed Newton on ``f'`` from the secant root, bisecting where a step
    leaves the bracket or ``f''`` reads 0, stops at a step under 1e-9.  ``-f``
    at any ``a`` is at most the value for the stored masses; it is taken in
    float64 by the shifted log-sum-exp and stepped down by an a-priori bound
    on its rounding error (Higham 2002, *Accuracy and Stability of Numerical
    Algorithms*, ch. 3), so it is a floor wherever numpy's ``log`` and
    ``exp`` are within ``_ULPS`` = 4 ulps.

    Returns
    -------
    float
        Nonnegative; ``0`` when ``p == q``, or whenever the value is under
        the rounding step; ``math.inf`` when the supports are disjoint, in
        which case one sample separates the distributions.

    Raises
    ------
    DimensionError
        If the distributions do not share a support size.
    """
    _check_same_support(p, q)
    if np.array_equal(p.probs, q.probs):  # masses summing an ulp under 1 would give a hair > 0
        return 0.0
    common = (p.probs > 0.0) & (q.probs > 0.0)
    if not common.any():
        return math.inf
    lp, lq = p.log_probs()[common], q.log_probs()[common]
    d = lp - lq

    def slope(alpha: float) -> tuple[float, float]:
        t = lq + alpha * d
        w = np.exp(t - t.max())
        w /= w.sum()
        mean = float(w @ d)
        return mean, float(w @ (d - mean) ** 2)  # centred: E[d^2] - mean^2 can cancel to 0

    (g_lo, _), (g_hi, _) = slope(0.0), slope(1.0)
    lo, hi, step = 0.0, 1.0, 1.0
    alpha = 0.0 if g_lo >= 0.0 else 1.0 if g_hi <= 0.0 else g_lo / (g_lo - g_hi)
    while lo < alpha < hi and abs(step) > 1e-9:
        g, h = slope(alpha)
        lo, hi = (alpha, hi) if g < 0.0 else (lo, alpha)
        step = g / h if h > 0.0 else math.inf  # no curvature seen: bisect
        alpha = alpha - step if abs(step) <= 1e-9 or lo < alpha - step < hi else (lo + hi) / 2
    a = alpha * d
    t = lq + a
    top = t.max()
    s = t - top
    w = np.exp(s)  # the largest is exp(0) = 1, so the sum is at least 1
    ls = np.log(w.sum())
    c = -(top + ls)
    # An a-priori bound on c's rounding error (Higham 2002, ch. 3), each log and
    # exp within _ULPS spacings: per t, the logs' errors weighted by 1 - alpha and
    # alpha, and half a spacing per rounding of d, alpha * d, the add and the shift;
    # for the sum, the exps' errors (against a sum >= 1) and gamma_(k-1) for k
    # nonnegative terms, doubled as -log(1 - x) <= 2x, with 2 eps spare for the
    # margin's own rounding; the final log; a spacing of c for the add and subtract.
    ku = (w.size - 1) * 2.0**-53
    err = _ULPS * ((1 - alpha) * np.spacing(-lq) + alpha * np.spacing(-lp))
    err += np.spacing(np.abs([d, a, t, s])).sum(axis=0) / 2
    err = err.max() + 2 * (_ULPS * np.spacing(w).sum() + ku / (1 - ku))
    return max(0.0, float(c - (err + _ULPS * np.spacing(ls) + np.spacing(abs(c)))))


def product_tv_exact(p: Categorical, q: Categorical, n: int) -> float:
    """Exact TV distance between the n-fold products ``p ⊗ n`` and ``q ⊗ n``.

    Both product masses of an outcome tuple depend only on its count vector
    (its type), so the distance is a sum over the ``C(n + k - 1, n)`` types
    of ``k = support_size`` indices, each weighted by its multinomial
    coefficient, rather than over the ``k ** n`` tuples.  Types are built as
    sorted index tuples, one position at a time, in ``n`` vectorized steps.
    Nondecreasing in ``n``, and clamped to ``[0, 1]``.

    The refusal at ``k ** n > ENUMERATION_BUDGET`` is kept as an output
    contract, not a cost limit: it fixes the rows where ``simulate`` leaves
    ``auroc_upper_exact`` blank.

    Raises
    ------
    DimensionError
        If the distributions do not share a support size.
    BudgetError
        If ``support_size ** n`` exceeds the enumeration budget.
    """
    _check_same_support(p, q)
    n = _check_int("n", n)
    if not _within_budget(p.support_size, n):
        raise BudgetError(
            f"enumeration of {p.support_size}**{n} outcomes exceeds budget {ENUMERATION_BUDGET}"
        )
    return next(_product_tvs(p, q, (n,)))


def _product_tvs(p: Categorical, q: Categorical, ns):
    """Yield :func:`product_tv_exact` at each ``n`` of ``ns``, growing the types once.

    ``ns`` must be ascending and within the enumeration budget; nothing here
    checks either.  The sorted tuples are grown one position per level, and
    each ``n`` sums its final position over level ``n - 1``, so a sweep grows
    the levels of its largest ``n`` once, lazily, between yields; its memory
    is that of the largest ``n`` alone.
    """
    k = p.support_size
    t = 0  # no tuples are built before the first n >= 2
    for n in ns:
        if n == 1 or k == 1:  # one sample, or one outcome: no index arrays needed
            yield tv_distance(p, q)
            continue
        if t == 0:
            # A partial tuple of length t carries its last index, the length of
            # its final run, its multinomial coefficient t!/prod(counts!) and
            # its masses.
            t, last, run, coef = 1, np.arange(k), np.ones(k, dtype=np.int64), np.ones(k)
            pm, qm = p.probs, q.probs
        while t < n - 1:
            t += 1
            width, _, j = _sorted_children(last, k)
            parent = np.repeat(np.arange(last.size), width)
            run = np.where(j == last[parent], run[parent] + 1, 1)
            coef = coef[parent] * t / run
            pm = pm[parent] * p.probs[j]
            qm = qm[parent] * q.probs[j]
            last = j
        # The last position is summed per parent tuple, in place, without
        # building its children's run and coefficient arrays.
        width, start, j = _sorted_children(last, k)
        pj, qj = p.probs[j], q.probs[j]
        del j
        pj *= np.repeat(pm, width)
        qj *= np.repeat(qm, width)
        pj -= qj
        del qj
        np.abs(pj, out=pj)
        pj[start] /= run + 1  # repeating the last index lengthens its run
        total = 0.5 * n * float(coef @ np.add.reduceat(pj, start))
        del pj  # the next level need not share memory with this sum
        yield min(total, 1.0)


def _sorted_children(last: np.ndarray, k: int):
    """Extend each sorted tuple by every index ``j >= last``.

    Returns each tuple's child count, the offset of its first child and the
    appended index of every child, children grouped by tuple.
    """
    width = k - last
    start = np.cumsum(width) - width
    j = np.arange(start[-1] + width[-1])
    j -= np.repeat(start - last, width)
    return width, start, j


def min_error_bruteforce(p: Categorical, q: Categorical) -> MinErrorResult:
    """Search every acceptance region for the minimum total error.

    For a region ``A`` (accept "from p" when the sample lands in ``A``) the
    total error is ``q(A) + p(complement of A)``.  All ``2 ** support_size``
    regions are enumerated, so the support is capped at 20 indices.

    The minimum always equals ``1 - tv_distance(p, q)``, attained by the
    likelihood-ratio region ``{s : p(s) >= q(s)}``; the result carries that
    region, and a consistency check fails loudly if its error is more than
    ``1e-12`` above the enumerated minimum.

    Raises
    ------
    DimensionError
        If the distributions do not share a support size.
    BudgetError
        If the support is larger than 20.
    """
    _check_same_support(p, q)
    k = p.support_size
    if k > BRUTEFORCE_MAX_SUPPORT:
        raise BudgetError(
            f"support {k} exceeds brute-force cap {BRUTEFORCE_MAX_SUPPORT}"
        )
    diff = q.probs - p.probs
    # errors[mask] = 1 + sum_{i in mask} (q_i - p_i); build by subset doubling
    # so bit i of the mask marks inclusion of index i.
    sums = np.zeros(1)
    for d in diff:
        sums = np.concatenate([sums, sums + d])
    errors = 1.0 + sums
    min_error = float(errors.min())

    lr_idx = np.flatnonzero(p.probs >= q.probs)
    lr_mask = int(np.sum(1 << lr_idx)) if lr_idx.size else 0
    lr_error = float(errors[lr_mask])
    if lr_error > min_error + 1e-12:
        raise AssertionError(
            f"likelihood-ratio region misses the minimum: {lr_error} > {min_error}"
        )
    return MinErrorResult(
        min_error=min_error,
        lr_region=tuple(int(i) for i in lr_idx),
        lr_region_error=lr_error,
    )
