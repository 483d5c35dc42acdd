"""Closed-form detection bounds and sample-complexity formulas.

Single-sample total variation ``delta`` between a machine and a human text
distribution caps what any detector can do; collecting ``n`` samples drives
the product-distribution TV toward 1 and detection back toward feasible.
This module turns those facts into numbers: ROC/AUROC ceilings from a TV
value, lower bounds on the product TV, and the smallest ``n`` guaranteeing a
target AUROC, for independent samples and for samples with block-local
dependence.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "BoundCurvePoint",
    "DependenceSpec",
    "auroc_upper",
    "auroc_vs_n_curve",
    "roc_upper_curve",
    "sample_complexity_iid",
    "sample_complexity_noniid",
    "tv_tensor_chernoff",
    "tv_tensor_lower",
]


@dataclass(frozen=True)
class DependenceSpec:
    """Block structure for dependent samples.

    Samples fall into independent blocks; inside block ``j`` (size ``c_j``)
    each sample after the first is, with probability ``rho_j``, a copy of a
    uniformly chosen earlier sample of the block, and otherwise a fresh draw.

    Attributes
    ----------
    blocks : tuple of (int, float)
        ``(c_j, rho_j)`` pairs with ``c_j >= 1`` and ``rho_j`` in [0, 1].
    """

    blocks: tuple[tuple[int, float], ...]

    def __init__(self, blocks: Iterable[Sequence[float]]):
        norm = []
        for b in blocks:
            c, rho = b
            c = _check_int("block size", c)
            rho = float(rho)
            if not 0.0 <= rho <= 1.0:
                raise ValueError(f"block correlation must lie in [0, 1], got {rho!r}")
            norm.append((c, rho))
        if not norm:
            raise ValueError("at least one block is required")
        object.__setattr__(self, "blocks", tuple(norm))

    @property
    def n(self) -> int:
        """Total number of samples covered by the blocks."""
        return sum(c for c, _ in self.blocks)

    @property
    def alpha(self) -> float:
        """Dependence mass ``sum_j (c_j - 1) * rho_j``; 0 iff effectively iid."""
        return float(sum((c - 1) * rho for c, rho in self.blocks))


@dataclass(frozen=True)
class BoundCurvePoint:
    """One point of the AUROC-ceiling-versus-n curve."""

    n: int
    tv_lower: float
    auroc_upper: float


def _check_unit(name: str, x: float, *, low: float = 0.0, high: float = 1.0) -> float:
    x = float(x)
    if not low <= x <= high or math.isnan(x):
        raise ValueError(f"{name} must lie in [{low}, {high}], got {x!r}")
    return x


def _check_int(name: str, n: int, low: int = 1, high: int | None = None) -> int:
    """``n`` as an int in ``low..high``; non-integers (floats, strings, bools) raise."""
    what = "a positive integer" if low == 1 else f"an integer >= {low}"
    if high is not None:
        what = f"an integer in {low}..{high}"
    try:
        if isinstance(n, bool):
            raise TypeError
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"{name} must be {what}, got {n!r}") from None
    if n < low or (high is not None and n > high):
        raise ValueError(f"{name} must be {what}, got {n!r}")
    return n


def _check_ints(
    name: str, values: Iterable[int], low: int = 1, high: int | None = None
) -> list[int]:
    """``values`` as a nonempty, strictly ascending list of :func:`_check_int` ints."""
    out = [_check_int(name, v, low, high) for v in values]
    if not out:
        raise ValueError(f"{name} must be nonempty")
    if any(b <= a for a, b in zip(out, out[1:])):
        raise ValueError(f"{name} must be strictly ascending")
    return out


def _check_delta(delta: float) -> float:
    delta = float(delta)
    if not 0.0 < delta <= 1.0 or math.isnan(delta):
        raise ValueError(f"delta must lie in (0, 1], got {delta!r}")
    return delta


def _check_epsilon(epsilon: float) -> float:
    epsilon = float(epsilon)
    if not 0.5 <= epsilon < 1.0:
        raise ValueError(f"epsilon must lie in [0.5, 1), got {epsilon!r}")
    return epsilon


def roc_upper_curve(
    tv: float, fpr_grid: Sequence[float]
) -> list[tuple[float, float]]:
    """Best achievable ROC at a given TV: ``tpr = min(fpr + tv, 1)``.

    Parameters
    ----------
    tv : float
        Total variation distance, in [0, 1].
    fpr_grid : sequence of float
        False-positive rates, sorted ascending, each in [0, 1].

    Returns
    -------
    list of (fpr, tpr)
        One pair per grid entry; no detector's ROC can cross above it.
    """
    tv = _check_unit("tv", tv)
    grid = [(_check_unit("fpr", f)) for f in fpr_grid]
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("fpr_grid must be sorted ascending")
    return [(f, min(f + tv, 1.0)) for f in grid]


def auroc_upper(tv: float) -> float:
    """AUROC ceiling ``0.5 + tv - tv**2 / 2`` for a given TV distance.

    The area under ``min(fpr + tv, 1)``.  Monotone in ``tv``, with value
    0.5 at ``tv = 0`` (coin flipping) and 1 at ``tv = 1``.
    """
    tv = _check_unit("tv", tv)
    return 0.5 + tv - tv * tv / 2.0


def tv_tensor_lower(n: int, delta: float) -> float:
    """Concentration lower bound ``max(0, 1 - 2 exp(-n delta^2 / 2))``.

    A floor on the TV distance between the n-fold products of any two
    distributions whose means of the decisive statistic differ by ``delta``.
    Clamped at 0 where the exponential term exceeds 1 (small ``n``).
    """
    n = _check_int("n", n)
    delta = _check_delta(delta)
    try:
        rate = n * delta * delta / 2.0
    except OverflowError:  # n is past the float range; the bound is 1.0 past a rate of 40
        rate = math.exp(min(math.log(n) + 2 * math.log(delta) - math.log(2), math.log(40)))
    return max(0.0, 1.0 - 2.0 * math.exp(-rate))


def tv_tensor_chernoff(n: int, chernoff: float) -> float:
    """Asymptotic product-TV estimate ``1 - exp(-n * chernoff)``.

    Drops the subexponential correction, so treat it as a trend line rather
    than a guaranteed bound at small ``n``.  ``chernoff`` may be ``inf``
    (disjoint supports), giving 1 for every ``n``.
    """
    n = _check_int("n", n)
    chernoff = float(chernoff)
    if chernoff < 0.0 or math.isnan(chernoff):
        raise ValueError(f"chernoff must be nonnegative, got {chernoff!r}")
    return 1.0 - math.exp(-n * chernoff)


def _ceil_samples(inputs: str, value) -> int:
    """``ceil(value())``, or a ValueError naming the ``inputs`` if it leaves the float range."""
    try:
        return math.ceil(value())
    except (ZeroDivisionError, OverflowError):
        raise ValueError(f"the sample size at {inputs} is past the float range") from None


def sample_complexity_iid(delta: float, epsilon: float) -> int:
    """Samples needed to push the AUROC ceiling past ``epsilon``, iid case.

    Returns ``ceil(log(2 / (1 - epsilon)) / delta**2)``: plugging the
    returned ``n`` into :func:`tv_tensor_lower` and :func:`auroc_upper`
    yields at least ``epsilon``, and ``n - 1`` does not.

    Parameters
    ----------
    delta : float
        Single-sample TV distance, in (0, 1].
    epsilon : float
        Target AUROC, in [0.5, 1).
    """
    delta = _check_delta(delta)
    epsilon = _check_epsilon(epsilon)
    inputs = f"delta = {delta!r}"
    return _ceil_samples(inputs, lambda: math.log(2.0 / (1.0 - epsilon)) / (delta * delta))


def sample_complexity_noniid(
    delta: float, epsilon: float, dep: DependenceSpec
) -> int:
    """Samples needed for target AUROC under block-dependent sampling.

    With ``gamma = log(8 / (1 - epsilon))`` and dependence mass ``alpha``
    from ``dep``, returns the ceiling of::

        gamma / (2 delta^2) + 2 alpha / delta
            + sqrt(gamma^2 + 8 alpha delta gamma) / (2 delta^2)

    At ``alpha = 0`` this collapses to ``ceil(log(8 / (1 - epsilon)) /
    delta**2)``, which is deliberately looser (constant 8 vs 2) than
    :func:`sample_complexity_iid`; the two formulas come from different
    derivations and are both exposed as published.

    The returned ``n`` exceeds ``2 alpha / delta``, so it always meets the
    concentration precondition ``delta > alpha / n``.
    """
    delta = _check_delta(delta)
    epsilon = _check_epsilon(epsilon)
    if not isinstance(dep, DependenceSpec):
        raise TypeError("dep must be a DependenceSpec")
    gamma = math.log(8.0 / (1.0 - epsilon))
    alpha = dep.alpha
    return _ceil_samples(
        f"delta = {delta!r}, alpha = {alpha!r}",
        lambda: gamma / (2.0 * delta * delta)
        + 2.0 * alpha / delta
        + math.sqrt(gamma * gamma + 8.0 * alpha * delta * gamma) / (2.0 * delta * delta),
    )


def auroc_vs_n_curve(delta: float, n_values: Sequence[int]) -> list[BoundCurvePoint]:
    """AUROC ceiling as a function of the number of samples.

    For each ``n`` the TV floor is ``max(delta, tv_tensor_lower(n, delta))``:
    the product TV can never drop below the single-sample ``delta``, so the
    left end of the curve (n = 1, where the concentration bound clamps to 0)
    is ``delta`` itself.  Both columns are nondecreasing in ``n``.
    """
    delta = _check_delta(delta)
    points = []
    for n in _check_ints("n_values", n_values):
        tv = max(delta, tv_tensor_lower(n, delta))
        points.append(BoundCurvePoint(n=n, tv_lower=tv, auroc_upper=auroc_upper(tv)))
    return points
