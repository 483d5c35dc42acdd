"""Reference values the benchmark checks the program's outputs against.

Everything here is computed independently of the ``detectability`` package:
Bernoulli questions are answered over count types (the number of ones among
``n`` draws), and n-gram questions over the integer token ids the generator
drew, with exact integer arithmetic where the program uses floats.
"""

from __future__ import annotations

import math

import numpy as np

# The program enumerates support ** n outcomes only up to this many.
ENUMERATION_BUDGET = 10_000_000


def binom_pmf(n: int, p: float) -> np.ndarray:
    """P(K = k) for K ~ Binomial(n, p), k = 0..n, evaluated in log space."""
    k = np.arange(n + 1)
    log_comb = np.array(
        [math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1) for i in k]
    )
    return np.exp(log_comb + k * math.log(p) + (n - k) * math.log1p(-p))


def lr_auroc(p_m: float, p_h: float, n: int, trials: int) -> tuple[float, float]:
    """Exact AUROC of the likelihood-ratio detector and its standard error.

    For a Bernoulli pair the log-likelihood ratio of ``n`` draws is monotone
    in the count of ones, so the detector ranks sample sets by that count.
    The AUROC is ``P(K_m > K_h) + P(K_m = K_h) / 2``.  The standard error is
    that of the Mann-Whitney estimate from ``trials`` sets per class,
    ``[(T - 1)(xi10 + xi01) + xi11] / T**2`` under the square root.
    """
    if p_m == p_h:
        return 0.5, 0.0
    x = binom_pmf(n, p_m)
    y = binom_pmf(n, p_h)
    if p_m < p_h:  # the score falls with the count: reverse the order
        x, y = x[::-1], y[::-1]
    below_y = np.concatenate([[0.0], np.cumsum(y)[:-1]])
    above_x = 1.0 - np.cumsum(x)
    psi_x = below_y + 0.5 * y  # E_Y psi(k, Y)
    psi_y = above_x + 0.5 * x  # E_X psi(X, k)
    theta = float(x @ psi_x)
    xi10 = float(x @ psi_x**2) - theta**2
    xi01 = float(y @ psi_y**2) - theta**2
    xi11 = float(x @ below_y + 0.25 * (x @ y)) - theta**2
    var = ((trials - 1) * (xi10 + xi01) + xi11) / trials**2
    return theta, math.sqrt(max(var, 0.0))


def product_tv(p_m: float, p_h: float, n: int) -> float:
    """TV between the n-fold Bernoulli products, summed over count types."""
    return 0.5 * float(np.abs(binom_pmf(n, p_m) - binom_pmf(n, p_h)).sum())


def auroc_ceiling(tv: float) -> float:
    return 0.5 + tv - tv * tv / 2.0


def chernoff(p: list[float], q: list[float]) -> float:
    """``-min_a log sum p^a q^(1-a)`` by ternary search on the convex objective."""

    def f(a: float) -> float:
        return math.log(sum(x**a * y ** (1.0 - a) for x, y in zip(p, q) if x > 0 and y > 0))

    lo, hi = 0.0, 1.0
    for _ in range(200):
        m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
        if f(m1) <= f(m2):
            hi = m2
        else:
            lo = m1
    return -f((lo + hi) / 2)


def exact_ceiling(p_m: float, p_h: float, n: int) -> float | None:
    """The ``auroc_upper_exact`` value, blank where enumeration is refused."""
    if 2**n > ENUMERATION_BUDGET:
        return None
    return auroc_ceiling(product_tv(p_m, p_h, n))


def sim_refs(p_m: float, p_h: float, n_values, trials: int) -> list[dict]:
    """Per-``n`` references for a Bernoulli ``simulate`` run."""
    refs = []
    for n in n_values:
        auroc, se = lr_auroc(p_m, p_h, n, trials)
        refs.append(
            {"n": n, "lr_auroc": auroc, "se": se, "ceiling": exact_ceiling(p_m, p_h, n)}
        )
    return refs


def _ngram_keys(docs: list[np.ndarray], order: int, radix: int) -> np.ndarray:
    """Sliding n-grams of every document packed into int64 keys."""
    parts = []
    for ids in docs:
        m = ids.size - order + 1
        if m <= 0:
            continue
        key = np.zeros(m, dtype=np.int64)
        for i in range(order):
            key = key * radix + ids[i : i + m]
        parts.append(key)
    return np.concatenate(parts)


def ngram_tv(
    human: list[np.ndarray], machine: list[np.ndarray], order: int, radix: int
) -> dict:
    """Plug-in TV and Jaccard support overlap of two id corpora at one order.

    TV is ``sum |a_g * T_b - b_g * T_a| / (2 T_a T_b)`` over the union of
    n-grams, evaluated in exact integers before the one final division.
    """
    if radix**order >= 2**63:
        raise ValueError("n-gram keys would overflow int64")
    ka, ca = np.unique(_ngram_keys(human, order, radix), return_counts=True)
    kb, cb = np.unique(_ngram_keys(machine, order, radix), return_counts=True)
    ta, tb = int(ca.sum()), int(cb.sum())
    union = np.union1d(ka, kb)
    a = np.zeros(union.size, dtype=np.int64)
    b = np.zeros(union.size, dtype=np.int64)
    a[np.searchsorted(union, ka)] = ca
    b[np.searchsorted(union, kb)] = cb
    num = int(np.abs(a * tb - b * ta).sum(dtype=np.int64))
    inter = int(np.count_nonzero((a > 0) & (b > 0)))
    return {
        "order": order,
        "tv": num / (2 * ta * tb),
        "support_overlap": inter / union.size,
    }
