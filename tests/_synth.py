"""Shared synthetic-data builders for the test suite."""

from __future__ import annotations

import json
import math
import unicodedata
from collections import Counter

import numpy as np

from detectability import (
    Categorical,
    DependenceSpec,
    Document,
    Label,
    OrderRow,
    auroc_upper,
    tv_distance,
)
from detectability.simulate import _block_law


def rescale_blocks(dep: DependenceSpec, n: int) -> DependenceSpec:
    """Reference rescaling: every block of ``dep`` cycled to cover ``n`` samples.

    Cycles through ``dep.blocks`` until ``n`` samples are covered; the final
    block is truncated to fit, keeping its correlation.  Lists one block per
    block of the result, so it is for small ``n`` only.
    """
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


def product_masses(dist: Categorical, n: int) -> np.ndarray:
    """Masses of all k**n outcome tuples, as iterated outer products."""
    out = dist.probs
    for _ in range(n - 1):
        out = np.multiply.outer(out, dist.probs).ravel()
    return out


def copy_process_law(probs, c: int, rho: float) -> dict[tuple[int, ...], float]:
    """Exact count law of one block, summed over every path of the copy process.

    Position 0 is a fresh draw; position ``i > 0`` is a fresh draw with
    probability ``1 - rho`` or, with probability ``rho / i`` each, a copy
    of one of the ``i`` earlier positions.  Types of zero mass are left out.
    """
    law: dict[tuple[int, ...], float] = {}

    def walk(xs: list[int], mass: float) -> None:
        i = len(xs)
        if i == c:
            key = tuple(xs.count(j) for j in range(len(probs)))
            law[key] = law.get(key, 0.0) + mass
            return
        fresh = 1.0 if i == 0 else 1.0 - rho
        for j, p in enumerate(probs):
            walk(xs + [j], mass * fresh * p)
        for s in range(i):
            walk(xs + [xs[s]], mass * rho / i)

    walk([], 1.0)
    return {key: mass for key, mass in law.items() if mass > 0.0}


def copy_counts_by_scan(
    dist: Categorical, dep, trials: int, rng: np.random.Generator
) -> np.ndarray:
    """Reference copy sampler: finds each block offset's positions by a full scan.

    Draws the same ``(3, trials, dep.n)`` uniforms as ``simulate._copy_sampler``'s
    draw and resolves the copies one block offset at a time, so the two agree
    bit for bit; this one costs O(c * n) per call for blocks of length c.
    """
    c = np.array([b[0] for b in dep.blocks], dtype=np.int64)
    rho = np.array([b[1] for b in dep.blocks], dtype=np.float64)
    n, k = int(c.sum()), dist.support_size
    start = np.repeat(np.cumsum(c) - c, c)
    offset = np.arange(n) - start
    u = rng.random((3, trials, n))
    vals = np.minimum(np.searchsorted(np.cumsum(dist.probs), u[0], side="right"), k - 1)
    copies = u[1] < np.repeat(rho, c)
    for i in range(1, int(c.max())):
        pos = np.flatnonzero(offset == i)
        targets = start[pos] + np.minimum((u[2][:, pos] * i).astype(np.int64), i - 1)
        picked = np.take_along_axis(vals, targets, axis=1)
        vals[:, pos] = np.where(copies[:, pos], picked, vals[:, pos])
    return np.stack([np.bincount(row, minlength=k) for row in vals])


def mann_whitney_exact(x: np.ndarray, y: np.ndarray, trials: int) -> tuple[float, float]:
    """Exact AUROC ``P(X > Y) + P(X = Y) / 2`` and the Mann-Whitney standard error.

    ``x`` and ``y`` are the machine and human pmfs over one grid of scores in
    ascending order.  The standard error is that of the estimate from
    ``trials`` sets per class, ``[(T - 1)(xi10 + xi01) + xi11] / T**2`` under
    the square root.
    """
    below_y = np.concatenate([[0.0], np.cumsum(y)[:-1]])
    above_x = 1.0 - np.cumsum(x)
    psi_x = below_y + 0.5 * y  # E_Y psi(s, Y)
    psi_y = above_x + 0.5 * x  # E_X psi(X, s)
    theta = float(x @ psi_x)
    xi10 = float(x @ psi_x**2) - theta**2
    xi01 = float(y @ psi_y**2) - theta**2
    xi11 = float(x @ below_y + 0.25 * (x @ y)) - theta**2
    var = ((trials - 1) * (xi10 + xi01) + xi11) / trials**2
    return theta, math.sqrt(max(var, 0.0))


def block_count_pmf(dist: Categorical, dep) -> np.ndarray:
    """Pmf of the index-1 count of a two-index ``dist`` under block pattern ``dep``.

    Blocks are independent, so the pmf is the convolution of the block laws.
    """
    pmf = np.ones(1)
    for c, rho in dep.blocks:
        atoms, mass = _block_law(dist.probs, c, rho)
        pmf = np.convolve(pmf, np.bincount(atoms[:, 1], weights=mass, minlength=c + 1))
    return pmf


def dependent_lr_auroc(
    m: Categorical, h: Categorical, dep, trials: int
) -> tuple[float, float]:
    """Exact AUROC of the count-LLR detector on block-dependent two-index sets, and its SE.

    The count LLR of a two-index set is linear in its index-1 count, so the
    detector ranks sets by that count (reversed when the score falls with it).
    """
    x, y = block_count_pmf(m, dep), block_count_pmf(h, dep)
    if m.probs[1] * h.probs[0] < h.probs[1] * m.probs[0]:
        x, y = x[::-1], y[::-1]
    return mann_whitney_exact(x, y, trials)


def rand_pair(rng: np.random.Generator, k: int, zero_frac: float = 0.0):
    """Two random categoricals on k indices; optionally zero some masses."""

    def one() -> Categorical:
        p = rng.dirichlet(np.ones(k))
        if zero_frac > 0.0:
            mask = rng.random(k) < zero_frac
            if mask.all():
                mask[rng.integers(k)] = False
            p = np.where(mask, 0.0, p)
            p = p / p.sum()
        return Categorical(p)

    return one(), one()


def unigram_docs(
    rng: np.random.Generator,
    probs: np.ndarray,
    label: Label,
    n_docs: int,
    doc_len: int,
    prefix: str,
) -> list[Document]:
    vocab = np.array([f"t{i:02d}" for i in range(len(probs))])
    docs = []
    for i in range(n_docs):
        toks = vocab[rng.choice(len(probs), size=doc_len, p=probs)]
        docs.append(Document(id=f"{prefix}{i}", text=" ".join(toks), label=label))
    return docs


def markov_docs(
    rng: np.random.Generator,
    trans: np.ndarray,
    label: Label,
    n_docs: int,
    doc_len: int,
    prefix: str,
) -> list[Document]:
    k = trans.shape[0]
    vocab = np.array([f"s{i}" for i in range(k)])
    cum = np.cumsum(trans, axis=1)
    docs = []
    for i in range(n_docs):
        seq = np.empty(doc_len, dtype=np.int64)
        seq[0] = rng.integers(k)
        u = rng.random(doc_len)
        for t in range(1, doc_len):
            seq[t] = np.searchsorted(cum[seq[t - 1]], u[t], side="right")
        seq = np.minimum(seq, k - 1)
        docs.append(Document(id=f"{prefix}{i}", text=" ".join(vocab[seq]), label=label))
    return docs


def write_jsonl(path, docs: list[Document]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for d in docs:
            fh.write(
                json.dumps({"id": d.id, "text": d.text, "label": d.label.value}) + "\n"
            )


def strip_punct(token: str) -> str:
    """``token`` less its edge punctuation (Unicode category P*), a character at a time."""
    start, end = 0, len(token)
    while start < end and unicodedata.category(token[start]).startswith("P"):
        start += 1
    while end > start and unicodedata.category(token[end - 1]).startswith("P"):
        end -= 1
    return token[start:end]


def strip_tokenize(text: str) -> list[str]:
    """Tokenizer reference: strip edge punctuation from every raw token."""
    return [tok for tok in map(strip_punct, text.lower().split()) if tok]


def ngram_counts(docs, order: int) -> dict:
    """Reference n-gram counts: a Counter over token tuples, document by document."""
    counts: Counter = Counter()
    for doc in docs:
        toks = strip_tokenize(doc.text)
        for i in range(len(toks) - order + 1):
            counts[tuple(toks[i : i + order])] += 1
    return dict(counts)


def order_rows(human_docs, machine_docs, orders) -> list[OrderRow]:
    """Reference ``best_auroc_by_order``: both count dicts aligned on their sorted union."""
    rows = []
    for order in orders:
        a = ngram_counts(human_docs, order)
        b = ngram_counts(machine_docs, order)
        for name, counts in (("human", a), ("machine", b)):
            if not counts:
                raise ValueError(f"{name} corpus has no n-grams at order {order}")
        union = sorted(a.keys() | b.keys())
        pa = np.array([a.get(g, 0) for g in union], dtype=np.float64) / sum(a.values())
        pb = np.array([b.get(g, 0) for g in union], dtype=np.float64) / sum(b.values())
        tv = tv_distance(Categorical(pa), Categorical(pb))
        overlap = len(a.keys() & b.keys()) / len(union)
        rows.append(OrderRow(order, tv, auroc_upper(tv), overlap))
    return rows


def vocab_reference(docs, min_df: int) -> tuple[tuple[str, ...], list[int]]:
    """Sorted tokens in at least ``min_df`` documents, with their document frequencies."""
    df: Counter = Counter()
    for doc in docs:
        df.update(set(strip_tokenize(doc.text)))
    kept = tuple(sorted(tok for tok, c in df.items() if c >= min_df))
    return kept, [df[tok] for tok in kept]


def count_csr_reference(docs, tokens) -> tuple[list[int], list[int], list[float]]:
    """``(indptr, indices, data)`` of the term-count matrix, columns sorted per row."""
    column = {tok: i for i, tok in enumerate(tokens)}
    indptr, indices, data = [0], [], []
    for doc in docs:
        tf = Counter(column[t] for t in strip_tokenize(doc.text) if t in column)
        for col in sorted(tf):
            indices.append(col)
            data.append(float(tf[col]))
        indptr.append(len(indices))
    return indptr, indices, data
