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

import json
import math
import numbers
import operator
from collections.abc import Iterable, Mapping, Set
from dataclasses import dataclass
from typing import Any, Sequence

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

    def __init__(self, blocks: Sequence[Sequence[float]]):
        blocks = _check_list("blocks", blocks, "(size, rho) pairs")
        if not blocks:
            raise ValueError("at least one block is required")
        norm = []
        for i, b in enumerate(blocks, start=1):
            where = f"block {i} of {len(blocks)}"
            if not isinstance(b, (list, tuple)) or len(b) != 2:
                raise ValueError(f"{where} must be a (size, rho) pair, got {_shown(b)}")
            _check_real(f"{where}: size", b[0])  # a number, and alpha's (c - 1) * rho fits a float
            c = _check_int(f"{where}: size", b[0])
            norm.append((c, _check_real(f"{where}: rho", b[1], 0, 1, "[]")))
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
    """One point of the curve of the AUROC ceiling at a TV floor versus n.

    ``tv_lower`` is a floor on the n-sample TV that holds for every pair of
    distributions at single-sample TV ``delta``, and ``auroc_upper`` is
    :func:`auroc_upper` at that floor.  Every such pair's n-sample ceiling
    is at least this value, so it is a floor on the ceiling, not a bound on
    any detector: at ``delta = 0.1`` and n = 16 it reads 0.595, where the
    optimal detector for Bern(0.6) vs Bern(0.5), a pair at TV 0.1, reaches
    0.714.
    """

    n: int
    tv_lower: float
    auroc_upper: float


class _DuplicateKey(ValueError):
    """A JSON object names one key twice."""


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object's dict; a repeated key raises, where ``json`` keeps the last."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise _DuplicateKey(f"duplicate key {json.dumps(key)}")
        obj[key] = value
    return obj


def _shown(value: Any) -> str:
    """A rejected value as JSON spells it, or its ``repr`` where JSON cannot."""
    try:
        return json.dumps(value, default=repr)
    except (TypeError, ValueError):  # a key JSON cannot name, or a cycle
        return repr(value)


def _check_list(name: str, values: Any, what: str) -> list:
    """``values`` as a list of ``what``; a mapping, set, string or non-iterable raises."""
    try:
        if isinstance(values, (str, bytes, Mapping, Set)):
            raise TypeError
        items = iter(values)
    except TypeError:  # iter() refuses a 0-d array, which is an Iterable all the same
        raise ValueError(f"{name} must be a list of {what}, got {_shown(values)}") from None
    return list(items)


def _check_real(
    name: str, x: float, low: float = -math.inf, high: float = math.inf, ends: str = "()"
) -> float:
    """``x`` as a float from ``low`` to ``high``; the defaults take any finite float.

    ``ends`` marks each end closed or open: ``"(]"`` means ``low < x <= high``.
    Non-numbers (bools and strings included), NaN and ints past the float range
    raise.  A non-number is shown as JSON spells it: inputs mostly come from JSON.
    """
    # int and float first: they pass without the slower abstract-class check
    if isinstance(x, bool) or not isinstance(x, (int, float, numbers.Real)):
        raise ValueError(f"{name} must be a number, got {_shown(x)}")
    try:
        f = float(x)
    except OverflowError:  # an int past the float range
        raise ValueError(f"{name} must be a finite number, got {x}") from None
    above_low = low <= f if ends[0] == "[" else low < f
    if above_low and (f <= high if ends[1] == "]" else f < high):
        return f
    if (low, high) == (-math.inf, math.inf):
        raise ValueError(f"{name} must be a finite number, got {json.dumps(f)}")
    raise ValueError(f"{name} must lie in {ends[0]}{low}, {high}{ends[1]}, got {f!r}")


def _check_int(name: str, n: int, low: int = 1, high: int | None = None) -> int:
    """``n`` as an int in ``low..high``; non-integers (floats, strings, bools) raise.

    A rejected value is shown as JSON spells it, as in :func:`_check_real`.
    """
    what = "a positive integer" if low == 1 else f"an integer >= {low}"
    if high is not None:
        what = f"an integer in {low}..{high}"
    try:
        if isinstance(n, bool):
            raise TypeError
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"{name} must be {what}, got {_shown(n)}") from None
    if n < low or (high is not None and n > high):
        raise ValueError(f"{name} must be {what}, got {n}")
    return n


def _check_ints(
    name: str, values: Iterable[int], low: int = 1, high: int | None = None
) -> list[int]:
    """``values`` as a nonempty, strictly ascending list of :func:`_check_int` ints."""
    out = [_check_int(name, v, low, high) for v in _check_list(name, values, "integers")]
    if not out:
        raise ValueError(f"{name} must be nonempty")
    if any(b <= a for a, b in zip(out, out[1:])):
        raise ValueError(f"{name} must be strictly ascending")
    return out


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
    tv = _check_real("tv", tv, 0.0, 1.0, "[]")
    grid = _check_list("fpr_grid", fpr_grid, "numbers")
    grid = [_check_real("fpr", f, 0.0, 1.0, "[]") for f in grid]
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("fpr_grid must be sorted ascending")
    return [(f, min(f + tv, 1.0)) for f in grid]


def auroc_upper(tv: float) -> float:
    """AUROC ceiling ``0.5 + tv - tv**2 / 2`` for a given TV distance.

    The area under ``min(fpr + tv, 1)``.  Monotone in ``tv``, with value
    0.5 at ``tv = 0`` (coin flipping) and 1 at ``tv = 1``.
    """
    tv = _check_real("tv", tv, 0.0, 1.0, "[]")
    return 0.5 + tv - tv * tv / 2.0


def tv_tensor_lower(n: int, delta: float) -> float:
    """Concentration lower bound ``max(0, 1 - 2 exp(-n delta^2 / 2))``.

    A floor on the TV distance between the n-fold products of any two
    distributions whose means of the decisive statistic differ by ``delta``.
    Clamped at 0 where the exponential term exceeds 1 (small ``n``).
    """
    n = _check_int("n", n)
    delta = _check_real("delta", delta, 0, 1, "(]")
    try:
        rate = n * delta * delta / 2.0
    except OverflowError:  # n is past the float range; the bound is 1.0 past a rate of 40
        rate = math.exp(min(math.log(n) + 2 * math.log(delta) - math.log(2), math.log(40)))
    return max(0.0, 1.0 - 2.0 * math.exp(-rate))


def tv_tensor_chernoff(n: int, chernoff: float) -> float:
    """Chernoff floor ``1 - exp(-n * chernoff)`` on the product TV.

    A rigorous floor at every ``n``: ``1 - TV_n = sum min(P^n, Q^n)`` is at
    most ``exp(-n * C)`` (Chernoff 1952, since ``min(a, b) <= a^s b^(1-s)``),
    and :func:`chernoff_information` steps its float64 value down by an
    a-priori bound on its rounding, to at most the true ``C``, so it holds
    for the computed value too, up to the rounding of this formula.  It is
    an equality where one mass vector dominates the other on their common
    support.  ``chernoff`` may be ``inf`` (disjoint supports), giving 1 for
    every ``n``.
    """
    n = _check_int("n", n)
    chernoff = _check_real("chernoff", chernoff, 0, math.inf, "[]")
    try:
        rate = n * chernoff
    except OverflowError:  # n is past the float range; the estimate is 1.0 past a rate of 40
        rate = math.exp(min(math.log(n) + math.log(chernoff), math.log(40))) if chernoff else 0.0
    return 1.0 - math.exp(-rate)


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
    delta = _check_real("delta", delta, 0, 1, "(]")
    epsilon = _check_real("epsilon", epsilon, 0.5, 1, "[)")
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
    delta = _check_real("delta", delta, 0, 1, "(]")
    epsilon = _check_real("epsilon", epsilon, 0.5, 1, "[)")
    if not isinstance(dep, DependenceSpec):
        raise ValueError("dep must be a DependenceSpec")
    gamma = math.log(8.0 / (1.0 - epsilon))
    alpha = dep.alpha
    return _ceil_samples(
        f"delta = {delta!r}, alpha = {alpha!r}",
        lambda: gamma / (2.0 * delta * delta)
        + 2.0 * alpha / delta
        + math.sqrt(gamma * gamma + 8.0 * alpha * delta * gamma) / (2.0 * delta * delta),
    )


def auroc_vs_n_curve(delta: float, n_values: Sequence[int]) -> list[BoundCurvePoint]:
    """The AUROC ceiling at a TV floor, as a function of the number of samples.

    For each ``n`` the TV floor is ``max(delta, tv_tensor_lower(n, delta))``:
    the product TV can never drop below the single-sample ``delta``, so the
    left end of the curve (n = 1, where the concentration bound clamps to 0)
    is ``delta`` itself.  Both columns are nondecreasing in ``n``.  The floor
    holds for every pair at TV ``delta``, so ``auroc_upper`` is a floor on
    each such pair's ceiling, not a bound on any detector
    (:class:`BoundCurvePoint`).
    """
    delta = _check_real("delta", delta, 0, 1, "(]")
    points = []
    for n in _check_ints("n_values", n_values):
        tv = max(delta, tv_tensor_lower(n, delta))
        points.append(BoundCurvePoint(n=n, tv_lower=tv, auroc_upper=auroc_upper(tv)))
    return points
