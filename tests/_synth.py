"""Shared synthetic-data builders for the test suite."""

from __future__ import annotations

import json
from collections import Counter

import numpy as np

from detectability import (
    Categorical,
    Document,
    Label,
    OrderRow,
    auroc_upper,
    tv_distance,
)
from detectability.corpus import _strip_punct


def product_masses(dist: Categorical, n: int) -> np.ndarray:
    """Masses of all k**n outcome tuples, as iterated outer products."""
    out = dist.probs
    for _ in range(n - 1):
        out = np.multiply.outer(out, dist.probs).ravel()
    return out


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


def strip_tokenize(text: str) -> list[str]:
    """Tokenizer reference: strip edge punctuation from every raw token."""
    return [tok for tok in map(_strip_punct, text.lower().split()) if tok]


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
