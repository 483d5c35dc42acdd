"""Exact machinery for pairs of categorical distributions.

Everything here is finite and exact: categorical distributions over a shared
index space, total variation distance, Chernoff information, enumerated
product (i.i.d. tensor) distributions, and a brute-force minimum-error search
over all acceptance regions.  No sampling, no smoothing; numerical error is
limited to float64 rounding.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import logsumexp

__all__ = [
    "BudgetError",
    "Categorical",
    "DimensionError",
    "ENUMERATION_BUDGET",
    "MinErrorResult",
    "ProductSpec",
    "chernoff_information",
    "min_error_bruteforce",
    "product_tv_exact",
    "tv_distance",
]

# Hard cap on enumerated product support (support_size ** n).
ENUMERATION_BUDGET = 10_000_000

# Probability vectors must sum to 1 within this before renormalization.
PROB_SUM_TOL = 1e-12

# Brute-force region search enumerates 2**support_size subsets.
BRUTEFORCE_MAX_SUPPORT = 20

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi ~ 0.618


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
        rejected.

    Notes
    -----
    Instances are immutable; the stored array is marked read-only.
    """

    __slots__ = ("probs", "_log_probs_cache", "_cdf_cache")

    def __init__(self, probs: Sequence[float] | np.ndarray):
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
        self._log_probs_cache: np.ndarray | None = None
        self._cdf_cache: np.ndarray | None = None

    def __repr__(self) -> str:
        return f"Categorical({self.probs.tolist()!r})"

    @property
    def support_size(self) -> int:
        return int(self.probs.size)

    @classmethod
    def bernoulli(cls, p: float) -> "Categorical":
        """Two-outcome distribution with mass ``p`` on index 1."""
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        return cls([1.0 - p, p])

    @classmethod
    def uniform(cls, k: int) -> "Categorical":
        """Uniform distribution over ``k`` indices."""
        if k < 1:
            raise ValueError("k must be a positive integer")
        return cls(np.full(k, 1.0 / k))

    def log_probs(self) -> np.ndarray:
        """Elementwise natural log of the masses; zeros map to ``-inf``."""
        if self._log_probs_cache is None:
            with np.errstate(divide="ignore"):
                lp = np.log(self.probs)
            lp.setflags(write=False)
            self._log_probs_cache = lp
        return self._log_probs_cache

    def cdf(self) -> np.ndarray:
        """Cumulative mass function, used for inverse-CDF sampling."""
        if self._cdf_cache is None:
            c = np.cumsum(self.probs)
            c.setflags(write=False)
            self._cdf_cache = c
        return self._cdf_cache

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Categorical):
            return NotImplemented
        return self.probs.shape == other.probs.shape and bool(
            np.all(self.probs == other.probs)
        )

    def __hash__(self) -> int:
        return hash(self.probs.tobytes())


@dataclass(frozen=True)
class ProductSpec:
    """The n-fold product ``base ⊗ n`` of a categorical distribution.

    The product is only materialized on demand; :meth:`masses` refuses to
    enumerate more than :data:`ENUMERATION_BUDGET` outcomes.
    """

    base: Categorical
    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", _check_positive_n(self.n))

    @property
    def size(self) -> int:
        """Number of outcome tuples, ``support_size ** n`` (exact int)."""
        return self.base.support_size**self.n

    def masses(self) -> np.ndarray:
        """Enumerate all tuple masses.

        The returned vector is indexed so that tuple ``(s_0, .., s_{n-1})``
        sits at ``sum(s_i * k**(n-1-i))`` for support size ``k``: the ravel
        order of iterated outer products.
        """
        _check_budget(self.size)
        out = self.base.probs.copy()
        for _ in range(self.n - 1):
            out = np.multiply.outer(out, self.base.probs).ravel()
        return out


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


def _check_positive_n(n: int) -> int:
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"n must be a positive integer, got {n!r}") from None
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    return n


def _check_same_support(p: Categorical, q: Categorical) -> None:
    if p.support_size != q.support_size:
        raise DimensionError(
            f"support sizes differ: {p.support_size} vs {q.support_size}"
        )


def _check_budget(size: int) -> None:
    if size > ENUMERATION_BUDGET:
        raise BudgetError(
            f"enumeration of {size} outcomes exceeds budget {ENUMERATION_BUDGET}"
        )


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


def _golden_section_min(f, lo: float, hi: float, tol: float) -> float:
    """Locate the minimizer of a unimodal ``f`` on [lo, hi] within ``tol``."""
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def chernoff_information(
    p: Categorical, q: Categorical, *, alpha_tol: float = 1e-8
) -> float:
    """Chernoff information ``-log min_a sum_s p(s)^a q(s)^(1-a)``.

    The coefficient is evaluated in log space over the common support (terms
    where either mass is zero contribute nothing, the continuous extension of
    the integrand), and minimized over ``a`` in [0, 1] by golden-section
    search; the objective is convex there, so the search also handles minima
    pinned at the endpoints.

    Returns
    -------
    float
        Nonnegative; ``0`` iff ``p == q``; ``math.inf`` when the supports are
        disjoint, in which case one sample separates the distributions.

    Raises
    ------
    DimensionError
        If the distributions do not share a support size.
    """
    _check_same_support(p, q)
    common = (p.probs > 0.0) & (q.probs > 0.0)
    if not common.any():
        return math.inf
    lp = p.log_probs()[common]
    lq = q.log_probs()[common]

    def log_coeff(alpha: float) -> float:
        return float(logsumexp(alpha * lp + (1.0 - alpha) * lq))

    alpha_star = _golden_section_min(log_coeff, 0.0, 1.0, alpha_tol)
    value = -min(log_coeff(alpha_star), log_coeff(0.0), log_coeff(1.0))
    return max(0.0, value)


def product_tv_exact(p: Categorical, q: Categorical, n: int) -> float:
    """Exact TV distance between the n-fold products ``p ⊗ n`` and ``q ⊗ n``.

    Enumerates all ``support_size ** n`` outcome tuples, so it is gated by
    :data:`ENUMERATION_BUDGET`.  Nondecreasing in ``n``.

    Raises
    ------
    DimensionError
        If the distributions do not share a support size.
    BudgetError
        If ``support_size ** n`` exceeds the enumeration budget.
    """
    _check_same_support(p, q)
    n = _check_positive_n(n)
    _check_budget(p.support_size**n)
    pm = p.probs.copy()
    qm = q.probs.copy()
    for _ in range(n - 1):
        pm = np.multiply.outer(pm, p.probs).ravel()
        qm = np.multiply.outer(qm, q.probs).ravel()
    return float(0.5 * np.abs(pm - qm).sum())


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
