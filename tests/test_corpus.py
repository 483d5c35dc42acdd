"""Tokenization, n-gram statistics, corpus distances, JSONL loading."""

import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detectability import (
    CorpusParseError,
    Document,
    Label,
    auroc_upper,
    best_auroc_by_order,
    load_jsonl,
    ngram_table,
    tokenize,
)
from detectability.corpus import _encode, _ngram_ranks

from _synth import ngram_counts, order_rows, strip_tokenize, unigram_docs, write_jsonl

# Edge and interior punctuation, Unicode case folding, digits and a NUL.
WORDS = [
    "the", "The", "cat,", "CAT.", "«quoted»", "don't", "—", "...", "naïve",
    "Ünï", "3.5%", "(2024).", "a", "b", "ß", "İstanbul", "ǅ", "¿qué?", "ﬁ",
    "x\x00", "🙂",
]
texts = (
    st.lists(st.sampled_from(WORDS) | st.text(min_size=1, max_size=3), min_size=1, max_size=10)
    .map(" ".join)
    .filter(str.strip)
)


def corpora(label):
    return st.lists(texts, min_size=1, max_size=5).map(
        lambda ts: [doc(t, label=label, id=f"{label.value}{i}") for i, t in enumerate(ts)]
    )


def doc(text, label=Label.HUMAN, id="d0"):
    return Document(id=id, text=text, label=label)


class TestTokenize:
    def test_lowercase_and_punct_stripping(self):
        assert tokenize("The cat, the CAT.") == ["the", "cat", "the", "cat"]

    def test_interior_punctuation_kept(self):
        assert tokenize("don't stop-gap") == ["don't", "stop-gap"]

    def test_edge_punctuation_layers(self):
        assert tokenize('"(hello)," she said...') == ["hello", "she", "said"]

    def test_pure_punctuation_token_dropped(self):
        assert tokenize("yes -- no") == ["yes", "no"]

    def test_empty_and_whitespace(self):
        assert tokenize("") == []
        assert tokenize("   \t\n  ") == []

    def test_unicode_punctuation(self):
        assert tokenize("«quoted» — word…") == ["quoted", "word"]

    def test_numbers_survive(self):
        # % is punctuation, so it strips from the edge like a period would
        assert tokenize("At 3.5% (2024).") == ["at", "3.5", "2024"]

    @settings(max_examples=300, deadline=None)
    @given(st.text() | texts)
    def test_equals_always_strip_reference(self, text):
        assert tokenize(text) == strip_tokenize(text)


# Unicode and astral punctuation, words that strip to nothing, apostrophes.
ENCODE_WORDS = WORDS + [
    "»«", "¿¡—", "it's", "'tis'", "rock'n'roll", "\U00010100word\U00010100",
    "\U0001e95e", "«🙂»", "🙂!", "…",
]
encode_texts = (
    st.lists(
        st.sampled_from(ENCODE_WORDS) | st.text(min_size=1, max_size=3), min_size=1, max_size=10
    )
    .map(" ".join)
    .filter(str.strip)
)


def window_ranks(ids, lens, order):
    """``(starts, rank, size)`` of the sliding ``order``-grams, ranked as sorted id tuples."""
    ends = np.cumsum(lens)
    starts = [s for end, n in zip(ends, lens) for s in range(end - n, end - order + 1)]
    windows = [tuple(ids[s : s + order]) for s in starts]
    index = {w: i for i, w in enumerate(sorted(set(windows)))}
    rank = [index[w] for w in windows]
    return starts, rank, len(index)


def assert_ranks_match_reference(docs):
    """``_ngram_ranks`` on ``docs`` gives :func:`window_ranks`'s ranks at every order 1-6."""
    tokens, ids, lens = _encode(docs)
    got = list(_ngram_ranks(ids, lens, len(tokens), 6))
    assert [g[0] for g in got] == list(range(1, 7))
    for order, starts, rank, size in got:
        want_starts, want_rank, want_size = window_ranks(ids.tolist(), lens.tolist(), order)
        assert starts.tolist() == want_starts
        assert rank.tolist() == want_rank
        assert size == want_size


class TestEncode:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(encode_texts, min_size=1, max_size=6))
    def test_matches_per_document_tokenize(self, texts):
        token_lists = [tokenize(t) for t in texts]
        tokens, ids, lens = _encode([doc(t, id=f"d{i}") for i, t in enumerate(texts)])
        assert tokens == sorted({tok for toks in token_lists for tok in toks})
        assert [tokens[i] for i in ids] == [tok for toks in token_lists for tok in toks]
        assert lens.tolist() == [len(toks) for toks in token_lists]

    def test_empty_document_list(self):
        tokens, ids, lens = _encode([])
        assert tokens == []
        assert ids.dtype == lens.dtype == np.int64
        assert ids.size == lens.size == 0

    def test_peak_memory_per_token_is_bounded(self):
        # 400 documents of 250 tokens over 60 words: a string object and a
        # list slot per token would take about 80 bytes of it
        rng = np.random.default_rng(11)
        words = np.array([f"word{i}" for i in range(60)])
        docs = [doc(" ".join(rng.choice(words, 250)), id=f"d{i}") for i in range(400)]
        tracemalloc.start()
        try:
            _, ids, _ = _encode(docs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ids.size == 100_000
        assert peak / ids.size < 40

    def test_peak_memory_holds_no_token_length_scatter(self):
        # the same corpus: numbering each distinct word once leaves the
        # per-document number arrays, their concatenation and the gathered
        # ids, about 17 bytes a token; an int64 table sized by the token
        # count and scattered by first position took 25
        rng = np.random.default_rng(11)
        words = np.array([f"word{i}" for i in range(60)])
        docs = [doc(" ".join(rng.choice(words, 250)), id=f"d{i}") for i in range(400)]
        tracemalloc.start()
        try:
            _, ids, _ = _encode(docs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ids.size == 100_000
        assert peak / ids.size < 20

    @pytest.mark.parametrize("n_words", [60, 5000])
    def test_scan_peak_memory_per_token_is_bounded(self, n_words):
        # 200 + 200 documents of 250 tokens: ranking every order holds a few
        # token-length arrays at a time, about 50-55 bytes a token with the
        # encoding; np.unique's sort, keys and inverse at once took 123-132
        rng = np.random.default_rng(11)
        words = np.array([f"word{i}" for i in range(n_words)])
        h, m = (
            [doc(" ".join(rng.choice(words, 250)), lab, f"{lab.value}{i}") for i in range(200)]
            for lab in (Label.HUMAN, Label.MACHINE)
        )
        tracemalloc.start()
        try:
            rows = best_auroc_by_order(h, m, [1, 2, 3, 4])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [r.order for r in rows] == [1, 2, 3, 4]
        assert peak / 100_000 < 100

    def test_table_peak_memory_per_token_is_bounded(self):
        # 400 documents of 250 tokens over 2 words, so the few n-grams leave
        # the scan to set the peak: about 50 bytes a token, at any order,
        # when each lower order is dropped as it is ranked; collecting all
        # six orders' arrays took 121 (over 60 words the output dict's 210
        # would hide the scan)
        rng = np.random.default_rng(11)
        words = np.array(["word0", "word1"])
        docs = [doc(" ".join(rng.choice(words, 250)), id=f"d{i}") for i in range(400)]
        tracemalloc.start()
        try:
            table = ngram_table(docs, 6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.total == 400 * 245 and len(table.counts) == 2**6
        assert peak / 100_000 < 90

    def test_astral_punctuation_is_stripped(self):
        tokens, ids, _ = _encode([doc("\U00010100word\U00010100 «🙂» it's ¿¡—")])
        assert [tokens[i] for i in ids] == ["word", "🙂", "it's"]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.lists(st.sampled_from("abc,"), min_size=1, max_size=7), min_size=1, max_size=6)
    )
    def test_ngram_ranks_equal_sorted_tuple_ranks(self, word_lists):
        # documents shorter than the order, and ones that strip to nothing
        docs = [doc(" ".join(w), id=f"d{i}") for i, w in enumerate(word_lists)]
        assert_ranks_match_reference(docs)

    @pytest.mark.parametrize("length", [255, 256, 65_537])
    def test_ngram_ranks_at_the_narrow_dtype_boundaries(self, length):
        # the tokens left in each document are kept in the narrowest unsigned
        # dtype that fits the longest one: uint8 up to 255, uint16 from 256,
        # uint32 past 65,535
        rng = np.random.default_rng(length)
        words = [rng.choice(list("abc"), n) for n in (length, 7, 1)]
        docs = [doc(" ".join(w), id=f"d{i}") for i, w in enumerate(words)]
        assert_ranks_match_reference(docs)


class TestNgramTable:
    def test_unigram_counts(self):
        t = ngram_table([doc("a b a")], 1)
        assert t.order == 1
        assert t.counts == {("a",): 2, ("b",): 1}
        assert t.total == 3

    def test_bigrams_slide_within_doc(self):
        t = ngram_table([doc("a b c")], 2)
        assert t.counts == {("a", "b"): 1, ("b", "c"): 1}
        assert t.total == 2

    def test_windows_never_cross_documents(self):
        t = ngram_table([doc("a b"), doc("c d", id="d1")], 2)
        assert ("b", "c") not in t.counts
        assert t.total == 2

    def test_short_docs_contribute_nothing(self):
        t = ngram_table([doc("a")], 2)
        assert t.total == 0
        assert t.counts == {}

    @settings(max_examples=100, deadline=None)
    @given(corpora(Label.HUMAN), st.integers(1, 6))
    def test_equals_reference_counts(self, docs, order):
        # same keys, counts and key order (first occurrence) as a Counter
        t = ngram_table(docs, order)
        expected = ngram_counts(docs, order)
        assert list(t.counts.items()) == list(expected.items())
        assert t.total == sum(expected.values())

    def test_order_bounds(self):
        with pytest.raises(ValueError):
            ngram_table([doc("a b")], 0)
        with pytest.raises(ValueError):
            ngram_table([doc("a b")], 7)


class TestTvBetweenCorpora:
    def test_hand_value(self):
        # human {a:2, b:1}, machine {a:1, b:2}: half L1 of (2/3,1/3) vs
        # (1/3,2/3) = 1/3
        h = [doc("a a b")]
        m = [doc("a b b", label=Label.MACHINE)]
        assert best_auroc_by_order(h, m, [1])[0].tv == pytest.approx(1 / 3, abs=1e-12)

    def test_identical_corpora_give_zero(self):
        docs_a = [doc("x y z x")]
        docs_b = [doc("x y z x", label=Label.MACHINE)]
        assert best_auroc_by_order(docs_a, docs_b, [1])[0].tv == 0.0
        assert best_auroc_by_order(docs_a, docs_b, [2])[0].tv == 0.0

    def test_disjoint_vocab_gives_one(self):
        h = [doc("a b")]
        m = [doc("c d", label=Label.MACHINE)]
        assert best_auroc_by_order(h, m, [1])[0].tv == 1.0

    def test_empty_side_raises(self):
        h = [doc("a b")]
        m = [doc("c", label=Label.MACHINE)]  # no bigrams
        with pytest.raises(ValueError):
            best_auroc_by_order(h, m, [2])[0].tv


class TestBestAurocByOrder:
    def test_rows_carry_ceiling_and_overlap(self):
        h = [doc("a a b a b")]
        m = [doc("a b b b a", label=Label.MACHINE)]
        rows = best_auroc_by_order(h, m, [1, 2])
        assert [r.order for r in rows] == [1, 2]
        for r in rows:
            assert r.auroc_upper == pytest.approx(auroc_upper(r.tv), abs=1e-12)
            assert 0.0 <= r.support_overlap <= 1.0
        # shared unigram vocabulary {a, b}
        assert rows[0].support_overlap == 1.0

    def test_overlap_flags_sparsity_inflation(self):
        rng = np.random.default_rng(20)
        probs = np.full(30, 1 / 30)
        h = unigram_docs(rng, probs, Label.HUMAN, 40, 60, "h")
        m = unigram_docs(rng, probs, Label.MACHINE, 40, 60, "m")
        rows = best_auroc_by_order(h, m, [1, 2, 3])
        # same unigram model: tv at order 1 stays small, higher orders climb
        # only because the shared-support fraction collapses
        assert rows[0].tv < 0.15 < rows[2].tv
        assert rows[0].support_overlap > 0.95
        assert rows[2].support_overlap < 0.2

    @settings(max_examples=300, deadline=None)
    @given(
        corpora(Label.HUMAN),
        corpora(Label.MACHINE),
        st.lists(st.integers(1, 6), min_size=1, max_size=6, unique=True).map(sorted),
    )
    def test_rows_equal_tuple_reference_exactly(self, h, m, orders):
        try:
            expected = order_rows(h, m, orders)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                best_auroc_by_order(h, m, orders)
            return
        assert best_auroc_by_order(h, m, orders) == expected

    def test_order_validation(self):
        h = [doc("a b")]
        m = [doc("a b", label=Label.MACHINE)]
        with pytest.raises(ValueError):
            best_auroc_by_order(h, m, [])
        with pytest.raises(ValueError):
            best_auroc_by_order(h, m, [1, 1])
        with pytest.raises(ValueError, match="^orders must be a list of integers, got 2$"):
            best_auroc_by_order([], [], 2)


def json_error(text):
    """The message json gives for ``text``, an int past the digit limit or deep nesting."""
    try:
        json.loads(text)
    except (ValueError, RecursionError) as exc:
        return str(exc)
    raise AssertionError("the text decoded")


HUGE_INT_LINE = '{"id": "b", "text": "y", "label": "human", "n": ' + "1" * 5000 + "}"
DEEP_LINE = "[" * 100_000


class TestLoadJsonl:
    def write(self, tmp_path, lines):
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(21)
        docs = unigram_docs(rng, np.array([0.5, 0.5]), Label.HUMAN, 5, 10, "h")
        path = tmp_path / "rt.jsonl"
        write_jsonl(path, docs)
        loaded, skipped = load_jsonl(path)
        assert skipped == 0
        assert loaded == list(docs)

    def test_strict_blank_line(self, tmp_path):
        path = self.write(tmp_path, ['{"id": "a", "text": "x", "label": "human"}', ""])
        # trailing newline after the blank makes the blank line 2
        with pytest.raises(CorpusParseError, match="line 2"):
            load_jsonl(path)

    def test_strict_malformed_json(self, tmp_path):
        path = self.write(tmp_path, ['{"id": "a", "text": "x", "label": "human"}', "{nope"])
        with pytest.raises(CorpusParseError, match="line 2") as exc:
            load_jsonl(path)
        assert exc.value.line == 2

    def test_strict_missing_field(self, tmp_path):
        path = self.write(tmp_path, ['{"id": "a", "text": "x"}'])
        with pytest.raises(CorpusParseError, match="label"):
            load_jsonl(path)

    def test_strict_bad_label(self, tmp_path):
        path = self.write(tmp_path, ['{"id": "a", "text": "x", "label": "robot"}'])
        with pytest.raises(CorpusParseError, match="line 1"):
            load_jsonl(path)

    def test_strict_duplicate_id(self, tmp_path):
        row = '{"id": "a", "text": "x", "label": "human"}'
        path = self.write(tmp_path, [row, row])
        with pytest.raises(CorpusParseError, match="line 2"):
            load_jsonl(path)

    def test_strict_empty_text(self, tmp_path):
        path = self.write(tmp_path, ['{"id": "a", "text": "   ", "label": "human"}'])
        with pytest.raises(CorpusParseError):
            load_jsonl(path)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("", "blank line"),
            (" \t", "blank line"),
            (
                "{nope",
                "malformed JSON at column 2: Expecting property name enclosed in double quotes",
            ),
            ("[1, 2]", "record must be a JSON object"),
            (
                '\ufeff{"id": "b", "text": "y", "label": "human"}',
                "malformed JSON at column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)",
            ),
            ('{"id": "b", "text": "y"}', "missing field 'label'"),
            (
                '{"id": "b", "text": "y", "label": ["human"]}',
                "field 'label' must be 'human' or 'machine'",
            ),
            ('{"id": "a", "text": "y", "label": "human"}', "duplicate id 'a'"),
            ('{"id": "b", "text": "y", "label": "human", "label": "human"}', 'duplicate key "label"'),
            ('{"id": "b", "text": "y", "label": "human", "m": {"k": 1, "k": 2}}', 'duplicate key "k"'),
            pytest.param(
                HUGE_INT_LINE, "unreadable JSON: " + json_error(HUGE_INT_LINE), id="huge-int"
            ),
            pytest.param(DEEP_LINE, "unreadable JSON: " + json_error(DEEP_LINE), id="deep"),
        ],
    )
    def test_each_bad_line_kind_has_one_text_and_one_skip(self, tmp_path, line, message):
        good = '{"id": "a", "text": "x", "label": "human"}'
        path = self.write(tmp_path, [good, line, '{"id": "c", "text": "z", "label": "machine"}'])
        with pytest.raises(CorpusParseError) as exc:
            load_jsonl(path)
        assert (str(exc.value), exc.value.line) == (f"line 2: {message}", 2)
        docs, skipped = load_jsonl(path, strict=False)
        assert skipped == 1
        assert [d.id for d in docs] == ["a", "c"]

    def test_lenient_skips_and_counts(self, tmp_path):
        good = '{"id": "a", "text": "x", "label": "human"}'
        path = self.write(tmp_path, [good, "{broken", '{"id": "b", "text": "y", "label": "machine"}'])
        docs, skipped = load_jsonl(path, strict=False)
        assert skipped == 1
        assert [d.id for d in docs] == ["a", "b"]

    def test_bytes_not_utf8_name_their_line(self, tmp_path):
        # a lone \r still ends a line, as in text mode, so the bad line is 3
        path = tmp_path / "latin1.jsonl"
        path.write_bytes(
            b'{"id": "a", "text": "x", "label": "human"}\r'
            b'{"id": "b", "text": "y", "label": "human"}\r\n'
            b'{"id": "c", "text": "caf\xe9", "label": "human"}\n'
            b'{"id": "d", "text": "z", "label": "machine"}\n'
        )
        with pytest.raises(
            CorpusParseError, match=r"^line 3: byte 0xe9 at column 25 is not UTF-8$"
        ) as exc:
            load_jsonl(path)
        assert exc.value.line == 3
        docs, skipped = load_jsonl(path, strict=False)
        assert skipped == 1
        assert [d.id for d in docs] == ["a", "b", "d"]

    def test_document_validation(self):
        with pytest.raises(ValueError):
            Document(id="", text="x", label="human")
        with pytest.raises(ValueError):
            Document(id="a", text="x", label="bot")

    def test_extra_fields_tolerated(self, tmp_path):
        # keys beyond id, text and label are metadata: kept out of the document, not refused
        path = self.write(
            tmp_path, ['{"id": "a", "text": "x", "label": "human", "source": "w", "lable": 1}']
        )
        docs, _ = load_jsonl(path)
        assert docs == [Document(id="a", text="x", label=Label.HUMAN)]

    def test_error_message_carries_path_context(self, tmp_path):
        path = self.write(tmp_path, ["{bad"])
        with pytest.raises(CorpusParseError) as exc:
            load_jsonl(path)
        assert "line 1" in str(exc.value)
