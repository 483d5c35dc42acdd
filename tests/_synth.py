"""Shared synthetic-data builders for the test suite."""

from __future__ import annotations

import json

import numpy as np

from detectability import Categorical, Document, Label


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
