import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from domainsel import corpus as corpus_mod
from domainsel.corpus import (
    SPLITS,
    DomainCorpus,
    TextPairExample,
    load_domain,
    split,
    tokenize,
    unigram_stats,
)
from domainsel.embed import train_skipgram
from domainsel.errors import ValidationError
from domainsel.ngram_lm import perplexity, train_kn


def make_corpus(n_pos, n_neg, name="toy"):
    examples = []
    for i in range(n_pos):
        examples.append(TextPairExample(f"alpha {i}", f"beta {i}", 1))
    for i in range(n_neg):
        examples.append(TextPairExample(f"gamma {i}", f"delta {i}", 0))
    return DomainCorpus(name=name, examples=tuple(examples))


class TestTokenize:
    def test_punctuation_and_case(self):
        assert tokenize("Hello, World!") == ["hello", "world"]

    def test_digits_kept_separately(self):
        assert tokenize("C++11 rocks") == ["c", "11", "rocks"]

    def test_underscore_is_a_separator(self):
        assert tokenize("snake_case") == ["snake", "case"]

    def test_empty(self):
        assert tokenize("...!?") == []

    def test_each_call_returns_a_new_list(self):
        first = tokenize("Memo me, memo me")
        first.append("mutated")
        second = tokenize("Memo me, memo me")
        assert second == ["memo", "me", "memo", "me"]
        assert second is not tokenize("Memo me, memo me")

    @given(st.text(max_size=80))
    def test_idempotent_on_rejoined_output(self, text):
        once = tokenize(text)
        assert tokenize(" ".join(once)) == once

    @given(st.text(max_size=80))
    def test_tokens_are_lowercase_alnum(self, text):
        for tok in tokenize(text):
            assert tok == tok.lower()
            assert tokenize(tok) == [tok]


class TestLoadDomain:
    def test_jsonl_roundtrip(self, tmp_path):
        p = tmp_path / "d.jsonl"
        rows = [
            {"text_a": "a cat", "text_b": "a feline", "label": 1},
            {"text_a": "a cat", "text_b": "the stock market", "label": 0},
        ]
        p.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        corpus = load_domain(p, format="jsonl", name="d")
        assert corpus.name == "d"
        assert len(corpus.examples) == 2
        assert corpus.examples[0] == TextPairExample("a cat", "a feline", 1)
        assert corpus.examples[1].label == 0

    def test_jsonl_bad_json_names_line(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text('{"text_a": "x", "text_b": "y", "label": 1}\n{oops\n')
        with pytest.raises(ValidationError, match="line 2"):
            load_domain(p, format="jsonl", name="d")

    def test_jsonl_missing_label_names_line(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text('{"text_a": "x", "text_b": "y"}\n')
        with pytest.raises(ValidationError, match="line 1"):
            load_domain(p, format="jsonl", name="d")

    def test_jsonl_label_out_of_range(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text('{"text_a": "x", "text_b": "y", "label": 2}\n')
        with pytest.raises(ValidationError, match="label"):
            load_domain(p, format="jsonl", name="d")

    def test_binarize_threshold_boundary(self, tmp_path):
        p = tmp_path / "d.jsonl"
        rows = [
            {"text_a": "u", "text_b": "v", "score": 3.9},
            {"text_a": "u", "text_b": "v", "score": 4.0},
            {"text_a": "u", "text_b": "v", "score": 4.7},
        ]
        p.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        corpus = load_domain(p, format="jsonl", name="d", binarize_threshold=4.0)
        assert [ex.label for ex in corpus.examples] == [0, 1, 1]

    def test_binarize_requires_score(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text('{"text_a": "u", "text_b": "v", "label": 1}\n')
        with pytest.raises(ValidationError, match="score"):
            load_domain(p, format="jsonl", name="d", binarize_threshold=4.0)

    @pytest.mark.parametrize("score", ["NaN", "Infinity", "-Infinity"])
    def test_jsonl_non_finite_score_names_line(self, tmp_path, score):
        # json.loads reads NaN and Infinity as floats; NaN < t is false, so a
        # NaN score would load as label 1.
        p = tmp_path / "d.jsonl"
        p.write_text('{"text_a": "u", "text_b": "v", "score": 4.5}\n'
                     f'{{"text_a": "u", "text_b": "v", "score": {score}}}\n')
        with pytest.raises(ValidationError, match=r"line 2: score must be finite"):
            load_domain(p, format="jsonl", name="d", binarize_threshold=3.5)

    def test_jsonl_huge_integer_score_loads(self, tmp_path):
        # An int is finite however large; converting it to float would overflow.
        p = tmp_path / "d.jsonl"
        p.write_text('{"text_a": "u", "text_b": "v", "score": 1' + "0" * 400 + "}\n")
        corpus = load_domain(p, format="jsonl", name="d", binarize_threshold=3.5)
        assert [ex.label for ex in corpus.examples] == [1]

    @pytest.mark.parametrize("score", ["nan", "inf"])
    def test_tsv_non_finite_score_names_line(self, tmp_path, score):
        p = tmp_path / "d.tsv"
        p.write_text(f"text_a\ttext_b\tscore\nu\tv\t4.5\nu\tv\t{score}\n")
        with pytest.raises(ValidationError, match=r"line 3: score must be finite"):
            load_domain(p, format="tsv", name="d", binarize_threshold=3.5)

    def test_tsv(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("text_a\ttext_b\tlabel\na cat\ta feline\t1\na cat\tmars\t0\n")
        corpus = load_domain(p, format="tsv", name="d")
        assert [ex.label for ex in corpus.examples] == [1, 0]
        assert corpus.examples[0].text_a == "a cat"

    def test_tsv_score_column_with_threshold(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("text_a\ttext_b\tscore\nu\tv\t3.2\nu\tv\t4.5\n")
        corpus = load_domain(p, format="tsv", name="d", binarize_threshold=4.0)
        assert [ex.label for ex in corpus.examples] == [0, 1]

    def test_tsv_bad_header(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("a\tb\tc\nx\ty\t1\n")
        with pytest.raises(ValidationError, match="header"):
            load_domain(p, format="tsv", name="d")

    def test_tsv_wrong_field_count_names_line(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("text_a\ttext_b\tlabel\nx\ty\t1\nx\ty\n")
        with pytest.raises(ValidationError, match="line 3"):
            load_domain(p, format="tsv", name="d")

    def test_empty_after_tokenization_dropped(self, tmp_path):
        p = tmp_path / "d.jsonl"
        rows = [
            {"text_a": "!!!", "text_b": "ok fine", "label": 1},
            {"text_a": "still here", "text_b": "yes", "label": 0},
        ]
        p.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        corpus = load_domain(p, format="jsonl", name="d")
        assert len(corpus.examples) == 1
        assert corpus.examples[0].text_a == "still here"

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValidationError, match="format"):
            load_domain(tmp_path / "d.csv", format="csv", name="d")


class TestCorpusContainer:
    def test_save_load_roundtrip(self, tmp_path):
        corpus = split(make_corpus(8, 5), seed=3)
        path = tmp_path / "c.json"
        corpus.save(path)
        assert DomainCorpus.load(path) == corpus

    def test_texts_order(self):
        corpus = make_corpus(2, 0)
        assert corpus.texts() == ["alpha 0", "beta 0", "alpha 1", "beta 1"]

    def test_subset_requires_split_assignment(self):
        with pytest.raises(ValidationError, match="no split"):
            make_corpus(3, 3).subset("train")

    def test_mismatched_splits_rejected(self):
        with pytest.raises(ValidationError, match="splits length"):
            DomainCorpus("x", (TextPairExample("a", "b", 1),), splits=("train", "val"))


class TestKeptTokens:
    def test_tokens_align_with_texts(self):
        unsplit = make_corpus(13, 11)
        for corpus, selections in ((unsplit, [None]),
                                   (split(unsplit, seed=4), [None, *SPLITS])):
            for name in selections:
                want = [tuple(tokenize(t)) for t in corpus.texts(name)]
                assert corpus.tokens(name) == want

    def test_equal_words_share_one_string(self, tmp_path):
        """Kept tokens are interned: examples, a split copy, corpora loaded
        from their files and the merged corpus of both hold one string per
        word."""
        corpora = []
        for name, sizes in (("a", (8, 5)), ("b", (8, 8))):
            assigned = split(make_corpus(*sizes, name=name), seed=1)
            assigned.save(tmp_path / f"{name}.json")
            corpora += [assigned, DomainCorpus.load(tmp_path / f"{name}.json")]
        merged = DomainCorpus("global", corpora[1].subset("train") + corpora[3].subset("train"))
        strings = {}
        for corpus in (*corpora, merged):
            for toks in corpus.tokens():
                for token in toks:
                    strings.setdefault(token, set()).add(id(token))
        assert {"alpha", "beta", "gamma", "delta"} <= set(strings)
        assert all(len(ids) == 1 for ids in strings.values())

    def test_each_text_tokenized_once_past_8192_texts(self, monkeypatch):
        """Every text layer reads the tokens kept on the example, so no corpus
        size makes a text tokenize twice."""
        calls: Counter = Counter()
        real = corpus_mod._TOKEN_RE

        class CountingPattern:
            def findall(self, text):
                calls[text] += 1
                return real.findall(text)

        monkeypatch.setattr(corpus_mod, "_TOKEN_RE", CountingPattern())
        corpus = DomainCorpus("big", tuple(
            TextPairExample(f"w{i % 50} a{i} shared", f"w{i * 7 % 50} b{i} shared", i % 2)
            for i in range(4200)
        ))
        unigram_stats(corpus)
        perplexity(train_kn(corpus), corpus)
        train_skipgram(corpus, dim=2, epochs=0)
        assert len(calls) == 8400
        assert set(calls.values()) == {1}


class TestUnigramStats:
    def test_hand_counts(self):
        corpus = DomainCorpus("x", (TextPairExample("a b", "b c", 1),))
        stats = unigram_stats(corpus)
        assert stats.counts == {"a": 1, "b": 2, "c": 1}
        assert stats.total_tokens == 4
        assert stats.example_count == 1
        assert stats.avg_tokens_per_text == 2.0

    def test_split_filter(self):
        corpus = split(make_corpus(30, 30), seed=0)
        full = unigram_stats(corpus)
        parts = [unigram_stats(corpus, s) for s in ("train", "val", "test")]
        assert sum(p.total_tokens for p in parts) == full.total_tokens
        assert sum(p.example_count for p in parts) == full.example_count

    def test_empty_selection_rejected(self):
        corpus = DomainCorpus(
            "x", (TextPairExample("a", "b", 1),), splits=("train",)
        )
        with pytest.raises(ValidationError, match="no examples"):
            unigram_stats(corpus, "val")


class TestSplit:
    def test_sizes_stratified(self):
        corpus = split(make_corpus(50, 50), ratios=(0.8, 0.1, 0.1), seed=7)
        for name, want in (("train", 80), ("val", 10), ("test", 10)):
            idx = corpus.indices(name)
            assert len(idx) == want
            labels = [corpus.examples[i].label for i in idx]
            assert labels.count(1) == want // 2

    def test_deterministic_in_seed(self):
        a = split(make_corpus(40, 20), seed=11)
        b = split(make_corpus(40, 20), seed=11)
        c = split(make_corpus(40, 20), seed=12)
        assert a.splits == b.splits
        assert a.splits != c.splits

    def test_every_example_assigned(self):
        corpus = split(make_corpus(17, 9), seed=2)
        assert all(s in ("train", "val", "test") for s in corpus.splits)

    def test_uneven_counts_all_splits_nonempty(self):
        # Largest-remainder keeps val/test nonempty even for small corpora.
        corpus = split(make_corpus(8, 5), seed=1)
        for name in ("train", "val", "test"):
            assert corpus.indices(name)

    def test_too_few_of_one_label(self):
        with pytest.raises(ValidationError, match="label 0"):
            split(make_corpus(10, 2))

    def test_empty_split_rejected(self):
        # Six of each label take quotas [5, 1, 0]: no example is left for test.
        with pytest.raises(ValidationError,
                           match="corpus 'toy': 12 examples leave the 'test' split empty"):
            split(make_corpus(6, 6))

    def test_bad_ratios(self):
        with pytest.raises(ValidationError, match="sum"):
            split(make_corpus(5, 5), ratios=(0.8, 0.1, 0.2))
        with pytest.raises(ValidationError, match="positive"):
            split(make_corpus(5, 5), ratios=(1.0, 0.0, 0.0))

    @given(st.integers(0, 2**32 - 1))
    def test_partition_property(self, seed):
        corpus = split(make_corpus(13, 11), seed=seed)
        seen = sorted(
            i for name in ("train", "val", "test") for i in corpus.indices(name)
        )
        assert seen == list(range(24))
