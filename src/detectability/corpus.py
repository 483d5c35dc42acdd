"""Corpus ingestion and n-gram distribution estimates.

Documents arrive as JSON Lines (one object per line with ``id``, ``text``,
and ``label``), get tokenized once by a deliberately plain scheme into
integer token ids, and are summarized as n-gram counts.  Counting two
corpora over the union of their n-grams gives a plug-in estimate of the
total variation distance between the underlying text distributions, and
with it an AUROC ceiling for any detector working at that n-gram order.
"""

from __future__ import annotations

import json
import unicodedata
from collections import defaultdict
from dataclasses import dataclass, fields
from itertools import count, islice
from pathlib import Path
from typing import Collection, Iterable, Mapping, Sequence

import numpy as np

from .bounds import _DuplicateKey, _check_int, _check_ints, _unique_keys, auroc_upper
from .detector import Label
from .distributions import Categorical, tv_distance

__all__ = [
    "CorpusParseError",
    "Document",
    "NGramTable",
    "OrderRow",
    "best_auroc_by_order",
    "load_jsonl",
    "ngram_table",
    "tokenize",
]

MAX_ORDER = 6


class CorpusParseError(ValueError):
    """A corpus line failed to parse or validate.

    Attributes
    ----------
    line : int or None
        1-based line number of the offending record, when known.
    """

    def __init__(self, message: str, *, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


@dataclass(frozen=True)
class Document:
    """One text sample with provenance."""

    id: str
    text: str
    label: Label

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise ValueError("field 'id' must be a nonempty string")
        if not isinstance(self.text, str) or not self.text.strip():
            raise ValueError("field 'text' must be nonempty")
        if not isinstance(self.label, Label):
            raise ValueError("field 'label' must be 'human' or 'machine'")


@dataclass(frozen=True)
class NGramTable:
    """Counts of the sliding n-grams of a corpus at one order."""

    order: int
    counts: Mapping[tuple[str, ...], int]
    total: int


def _stripped(words: Collection[str]) -> list[str]:
    """``words`` in order, each stripped of edge punctuation (Unicode category P*)."""
    punct = "".join(c for c in set("".join(words)) if unicodedata.category(c)[0] == "P")
    return [word.strip(punct) for word in words]


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip edge punctuation, drop empties.

    The scheme is deliberately simple and deterministic; "The cat, the CAT."
    becomes ``["the", "cat", "the", "cat"]``.  Interior punctuation (as in
    "don't") survives.
    """
    return [tok for tok in _stripped(text.lower().split()) if tok]


def _encode(docs: Sequence[Document]) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Tokenize every document once into integer ids.

    Returns ``(tokens, ids, lens)``: the sorted distinct tokens, the id of
    every token of every document in document order (an id is the token's
    index in ``tokens``, so id order is string order), and each document's
    token count.  Documents are split one at a time, so the only strings
    held are one document's words and the distinct raw words, each numbered
    as it first appears and put through the rule of :func:`tokenize` once.
    """
    number: defaultdict[str, int] = defaultdict(count().__next__)
    at = [
        np.fromiter(map(number.__getitem__, words), dtype=np.int64, count=len(words))
        for words in (doc.text.lower().split() for doc in docs)
    ]
    lens = np.fromiter(map(len, at), dtype=np.int64, count=len(at))
    # every word, as its number (the empty array lets an empty corpus concatenate)
    at = np.concatenate([np.empty(0, dtype=np.int64), *at])
    stripped = _stripped(number)
    tokens = sorted(set(stripped).difference(("",)))
    # each number's token id, gathered per word; -1 marks a word that strips to nothing
    index = dict(zip(["", *tokens], count(-1)))
    ids = np.fromiter(map(index.__getitem__, stripped), dtype=np.int64, count=len(stripped))[at]
    dropped = ids < 0
    if dropped.any():
        lens -= np.bincount(np.repeat(np.arange(lens.size), lens)[dropped], minlength=lens.size)
        ids = ids[~dropped]
    return tokens, ids, lens


def _ngram_ranks(ids: np.ndarray, lens: np.ndarray, vocab_size: int, max_order: int):
    """Rank the sliding n-grams of every order ``1..max_order``.

    Yields ``(order, starts, rank, size)`` per order: the positions where a
    window fits inside its document, each window's rank among the ``size``
    distinct n-grams of that order, and ``size``.  Ranks follow the sorted
    order of the token tuples: an n-gram's key is its prefix's rank times
    ``vocab_size`` plus its last id, which sorts like the tuple and stays
    below ``len(ids) * vocab_size``.  Every id in ``range(vocab_size)`` must
    occur in ``ids``, as it does in :func:`_encode`'s output.  The generator
    keeps no reference to what it yields, so a caller that drops an order's
    arrays frees them before the next order is ranked.
    """
    # the tokens left in each token's document, itself included
    remaining = np.repeat(np.cumsum(lens), lens)
    remaining -= np.arange(ids.size)
    remaining = remaining.astype(np.min_scalar_type(lens.max(initial=0)))
    # every id occurs, so the ids are the unigrams' ranks
    yield 1, np.arange(ids.size), ids, vocab_size
    # each window's rank at the last order, at its start position; the next
    # order's windows start at a subset of these positions
    rank = ids.copy()
    for order in range(2, max_order + 1):
        yield (order, *_rank_windows(ids, remaining, rank, order, vocab_size))


def _rank_windows(
    ids: np.ndarray, remaining: np.ndarray, rank: np.ndarray, order: int, vocab_size: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """``(starts, rank, size)`` at ``order``, from ``rank`` at ``order - 1``, which it updates."""
    starts = np.flatnonzero(remaining >= order)
    keys = rank[starts]
    keys *= vocab_size
    keys += ids[order - 1 :][starts]
    # one sort ranks the keys: a key's rank is the number of distinct keys
    # below it, written back into the keys' own buffer
    perm = keys.argsort()
    ranked = keys[perm]
    new = ranked[1:] != ranked[:-1]
    ranked[:1] = 0
    ranked[1:] = new
    np.cumsum(ranked, out=ranked)  # in place: a cast from bool would copy
    keys[perm] = ranked
    rank[starts] = keys
    return starts, keys, int(ranked[-1]) + 1 if ranked.size else 0


def ngram_table(docs: Sequence[Document], order: int) -> NGramTable:
    """Count sliding n-grams per document (windows never cross documents)."""
    order = _check_int("order", order, high=MAX_ORDER)
    tokens, ids, lens = _encode(docs)
    # each lower order's arrays are dropped as soon as it is ranked, and the
    # scan's own arrays once the last order is out
    _, starts, rank, size = next(
        islice(_ngram_ranks(ids, lens, len(tokens), order), order - 1, None)
    )
    counts = np.bincount(rank, minlength=size)
    _, first = np.unique(rank, return_index=True)
    # keys in order of first occurrence
    table = {
        tuple(tokens[t] for t in ids[starts[j] : starts[j] + order]): int(counts[rank[j]])
        for j in np.sort(first)
    }
    return NGramTable(order=order, counts=table, total=int(starts.size))


@dataclass(frozen=True)
class OrderRow:
    """TV estimate and AUROC ceiling at one n-gram order.

    ``support_overlap`` is the Jaccard overlap of the two observed n-gram
    sets; low overlap at high orders means the plug-in TV is saturating on
    sparse counts and should be read skeptically.
    """

    order: int
    tv: float
    auroc_upper: float
    support_overlap: float


def best_auroc_by_order(
    human_docs: Sequence[Document],
    machine_docs: Sequence[Document],
    orders: Iterable[int],
) -> list[OrderRow]:
    """Plug-in TV and AUROC ceiling per n-gram order.

    Longer n-grams expose more structure, so the estimated TV (and with it
    the ceiling) is nondecreasing in practice; the overlap column flags when
    that rise is a sparsity artifact.
    """
    orders = _check_ints("orders", orders, high=MAX_ORDER)
    tokens, ids, lens = _encode([*human_docs, *machine_docs])
    human_end = int(lens[: len(human_docs)].sum())
    rows = []
    for order, starts, rank, size in _ngram_ranks(ids, lens, len(tokens), orders[-1]):
        if order in orders:
            # both sides counted over the union, in sorted n-gram order; the
            # starts ascend and the human documents come first
            split = np.searchsorted(starts, human_end)
            ca = np.bincount(rank[:split], minlength=size)
            cb = np.bincount(rank[split:], minlength=size)
        # each array goes as soon as it is used, so the masses and the next
        # order's ranking reuse its room
        del starts, rank
        if order not in orders:
            continue
        if not ca.any() or not cb.any():
            name = "machine" if ca.any() else "human"
            raise ValueError(f"{name} corpus has no n-grams at order {order}")
        # Jaccard overlap of the two observed n-gram sets
        overlap = int(np.count_nonzero((ca > 0) & (cb > 0))) / size
        # each side's masses take the place of its counts
        ca = Categorical(ca / ca.sum())
        cb = Categorical(cb / cb.sum())
        tv = tv_distance(ca, cb)
        del ca, cb
        rows.append(
            OrderRow(order=order, tv=tv, auroc_upper=auroc_upper(tv), support_overlap=overlap)
        )
    return rows


_LABELS = {lab.value: lab for lab in Label}
_FIELDS = tuple(field.name for field in fields(Document))
# One decoder for every line: ``json.loads`` with a hook builds one per call.
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def _parse_line(line: str, line_no: int, seen_ids: set[str]) -> Document:
    """The document on one raw line; every kind of bad line raises :class:`CorpusParseError`."""
    if not line.strip():
        raise CorpusParseError("blank line", line=line_no)
    try:
        line.encode("utf-8")
        if line.startswith("\ufeff"):  # json.loads's own check, which decode() leaves out
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0)
        obj = _DECODER.decode(line)
    except UnicodeEncodeError as exc:
        byte = ord(line[exc.start]) - 0xDC00
        raise CorpusParseError(
            f"byte {byte:#04x} at column {exc.start + 1} is not UTF-8", line=line_no
        ) from None
    except json.JSONDecodeError as exc:
        raise CorpusParseError(
            f"malformed JSON at column {exc.colno}: {exc.msg}", line=line_no
        ) from None
    except _DuplicateKey as exc:
        raise CorpusParseError(str(exc), line=line_no) from None
    except (ValueError, RecursionError) as exc:  # an int past the digit limit, or deep nesting
        raise CorpusParseError(f"unreadable JSON: {exc}", line=line_no) from None
    if not isinstance(obj, dict):
        raise CorpusParseError("record must be a JSON object", line=line_no)
    for name in _FIELDS:
        if name not in obj:
            raise CorpusParseError(f"missing field '{name}'", line=line_no)
    label = obj["label"] if isinstance(obj["label"], str) else None  # a list cannot hash
    try:
        doc = Document(id=obj["id"], text=obj["text"], label=_LABELS.get(label))
    except ValueError as exc:
        raise CorpusParseError(str(exc), line=line_no) from None
    if doc.id in seen_ids:
        raise CorpusParseError(f"duplicate id '{doc.id}'", line=line_no)
    return doc


def load_jsonl(path: str | Path, *, strict: bool = True) -> tuple[list[Document], int]:
    """Read a JSON Lines corpus.

    Each line must be an object with a nonempty string ``id`` (unique within
    the file), nonempty ``text``, and ``label`` of ``"human"`` or
    ``"machine"``; other keys are not read.  A line holding bytes that are
    not UTF-8, or an object that repeats a key, is a bad line.

    Parameters
    ----------
    strict : bool
        When true (default), the first bad line raises
        :class:`CorpusParseError` carrying its line number.  When false,
        bad lines are skipped and counted.

    Returns
    -------
    (documents, skipped)
        ``skipped`` is the number of rejected lines (always 0 in strict
        mode, since rejection raises).
    """
    docs: list[Document] = []
    seen_ids: set[str] = set()
    skipped = 0
    # surrogateescape keeps each undecodable byte, as a lone surrogate, on its line
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                doc = _parse_line(line, line_no, seen_ids)
            except CorpusParseError:
                if strict:
                    raise
                skipped += 1
                continue
            seen_ids.add(doc.id)
            docs.append(doc)
    return docs, skipped
