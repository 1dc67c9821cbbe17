import itertools
import math

import pytest

from domainsel.corpus import DomainCorpus, TextPairExample
from domainsel.errors import ValidationError
from domainsel.ngram_lm import (
    BOS,
    EOS,
    UNK,
    TrigramLM,
    _train_from_token_lists,
    perplexity,
    train_kn,
)


def corpus_of(texts, name="lmtoy"):
    # Pack texts pairwise; a trailing odd text is paired with itself.
    if len(texts) % 2:
        texts = list(texts) + [texts[-1]]
    examples = tuple(
        TextPairExample(texts[i], texts[i + 1], 1) for i in range(0, len(texts), 2)
    )
    return DomainCorpus(name=name, examples=examples)


@pytest.fixture
def aaa_lm():
    # Exactly one training text "a a a" (the hand-oracle setting).
    return _train_from_token_lists([["a", "a", "a"]], min_count=1, discount=0.75)


class TestTrainKN:
    # Hand-evaluated interpolated KN, D=0.75, on the padded text
    # <s> <s> a a a </s>: vocab {a, <unk>, <s>, </s>}, 4 bigram types,
    # continuation(a)=2, so p1(a)=1.25/4 + (0.75*3/4)*(1/4) = 0.453125.
    def test_vocab(self, aaa_lm):
        assert aaa_lm.vocab == frozenset({"a", UNK, BOS, EOS})

    def test_unigram_hand_values(self, aaa_lm):
        assert aaa_lm._p1["a"] == pytest.approx(0.453125, abs=1e-12)
        assert aaa_lm._p1[UNK] == pytest.approx(0.140625, abs=1e-12)

    def test_bigram_hand_value(self, aaa_lm):
        assert aaa_lm._p2(BOS, "a") == pytest.approx(0.58984375, abs=1e-12)

    def test_trigram_hand_values(self, aaa_lm):
        assert aaa_lm.prob(BOS, BOS, "a") == pytest.approx(0.6923828125, abs=1e-12)
        assert aaa_lm.prob(BOS, BOS, UNK) == pytest.approx(0.0791015625, abs=1e-12)

    def test_seen_beats_unseen_from_start(self, aaa_lm):
        assert aaa_lm.prob(BOS, BOS, "a") > aaa_lm.prob(BOS, BOS, UNK)

    def test_unseen_trigram_positive(self, aaa_lm):
        assert aaa_lm.prob(EOS, EOS, "a") > 0.0
        assert aaa_lm.prob("a", EOS, UNK) > 0.0

    def test_min_count_maps_rare_to_unk(self):
        lm = train_kn(corpus_of(["b b b b", "b b c b"]), min_count=2)
        assert "c" not in lm.vocab
        assert "b" in lm.vocab

    def test_trains_on_train_split_when_assigned(self):
        examples = tuple(
            TextPairExample(f"x{i} y", f"y x{i}", 1) for i in range(6)
        )
        splits = ("train", "train", "train", "train", "val", "test")
        corpus = DomainCorpus("s", examples, splits=splits)
        lm = train_kn(corpus, min_count=1)
        assert "x0" in lm.vocab
        assert "x4" not in lm.vocab  # val-only token

    def test_empty_training_rejected(self):
        with pytest.raises(ValidationError, match="training"):
            train_kn(corpus_of([""]))

    def test_bad_discount(self):
        with pytest.raises(ValidationError, match="discount"):
            train_kn(corpus_of(["a b"]), discount=1.0)


class TestNormalization:
    def normalize_check(self, lm, tol=1e-9):
        # Exhaustive over histories drawn from vocab plus unseen combinations.
        toks = sorted(lm.vocab)
        for u, v in itertools.product(toks, repeat=2):
            total = sum(lm.prob(u, v, w) for w in toks)
            assert total == pytest.approx(1.0, abs=tol), (u, v, total)

    def test_sums_to_one_all_histories(self, aaa_lm):
        self.normalize_check(aaa_lm)

    def test_sums_to_one_richer_corpus(self):
        lm = train_kn(
            corpus_of(
                [
                    "the cat sat on the mat",
                    "the dog sat on the log",
                    "a cat and a dog",
                    "mats and logs",
                ]
            )
        )
        assert len(lm.vocab) <= 50
        self.normalize_check(lm)

    def test_text_final_only_history(self):
        # "b" is seen only before </s>; its trigram history must still
        # produce a proper distribution via backoff.
        lm = train_kn(corpus_of(["a a b", "a a b"]))
        total = sum(lm.prob("a", "b", w) for w in lm.vocab)
        assert total == pytest.approx(1.0, abs=1e-9)


class TestPerplexity:
    def test_ppl_at_least_one(self, aaa_lm):
        assert perplexity(aaa_lm, corpus_of(["a a a"])) >= 1.0
        assert perplexity(aaa_lm, corpus_of(["q w e r t y"])) >= 1.0

    def test_degenerate_language_ppl_below_two(self):
        text = " ".join(["a"] * 64)
        lm = train_kn(corpus_of([text, text]))
        assert perplexity(lm, corpus_of([text])) <= 2.0

    def test_uniform_model_ppl_equals_vocab(self):
        # All-equal counts over a 4-token vocab make every conditional
        # exactly 1/4, so PPL is exactly the vocab size.
        toks = ["a", UNK, BOS, EOS]
        c2 = {(u, v): 1 for u in toks for v in toks}
        c3 = {(u, v, w): 1 for u in toks for v in toks for w in toks}
        lm = TrigramLM(0.75, frozenset(toks), c2, c3)
        for u in toks:
            for v in toks:
                for w in toks:
                    assert lm.prob(u, v, w) == pytest.approx(0.25, abs=1e-15)
        assert perplexity(lm, corpus_of(["a a", "a a a"])) <= 4.0 + 1e-9

    def test_in_domain_below_random_disjoint(self):
        train_texts = ["the cat sat on the mat", "the dog sat on the log"] * 3
        lm = train_kn(corpus_of(train_texts))
        in_domain = perplexity(lm, corpus_of(train_texts))
        random_disjoint = perplexity(
            lm, corpus_of(["zq xv kj pw", "vn mz qx jl", "wk pv zn xq"])
        )
        assert in_domain < random_disjoint

    def test_duplication_invariant(self):
        lm = train_kn(corpus_of(["a b c", "c b a"]))
        once = corpus_of(["a c b", "b a c"])
        twice = corpus_of(["a c b", "b a c", "a c b", "b a c"])
        assert perplexity(lm, once) == perplexity(lm, twice)

    def test_all_unk_is_finite(self, aaa_lm):
        ppl = perplexity(aaa_lm, corpus_of(["zzz yyy xxx"]))
        assert math.isfinite(ppl)
        assert ppl > 1.0

    def test_n_counts_eos_not_bos(self):
        # One 3-token text: N = 4 events. Check via the definition directly.
        lm = train_kn(corpus_of(["a a a", "a a a"]))
        seq = [BOS, BOS, "a", "a", "a", EOS]
        log2_total = sum(
            math.log2(lm.prob(seq[i - 2], seq[i - 1], seq[i]))
            for i in range(2, len(seq))
        )
        expected = 2.0 ** (-log2_total / 4)
        assert perplexity(lm, corpus_of(["a a a"])) == pytest.approx(expected, rel=1e-12)

    def test_split_filter(self):
        examples = (
            TextPairExample("a b", "b a", 1),
            TextPairExample("c c", "c c", 0),
        )
        corpus = DomainCorpus("s", examples, splits=("train", "test"))
        lm = train_kn(corpus)
        assert perplexity(lm, corpus, "test") != perplexity(lm, corpus, "train")


class TestSaveLoad:
    def test_roundtrip_bit_identical(self, tmp_path):
        lm = train_kn(
            corpus_of(["the cat sat", "a dog ran", "the dog sat", "cats and dogs"])
        )
        path = tmp_path / "lm.txt"
        lm.save(path)
        reloaded = TrigramLM.load(path)
        assert reloaded.vocab == lm.vocab
        assert reloaded.discount == lm.discount
        eval_corpus = corpus_of(["the cat ran", "a dog sat on a cat"])
        assert perplexity(reloaded, eval_corpus) == perplexity(lm, eval_corpus)

    def test_header_format(self, tmp_path):
        lm = train_kn(corpus_of(["a a a"]))
        path = tmp_path / "lm.txt"
        lm.save(path)
        header = path.read_text().splitlines()[0]
        assert header == "kn-trigram D=0.75 vocab=4"

    def test_file_is_sorted(self, tmp_path):
        lm = train_kn(corpus_of(["b a c", "c a b"]))
        path = tmp_path / "lm.txt"
        lm.save(path)
        lines = path.read_text().splitlines()[1:]
        by_kind: dict = {}
        for line in lines:
            by_kind.setdefault(line.split()[0], []).append(line)
        for kind, block in by_kind.items():
            assert block == sorted(block), kind

    def test_reject_non_lm_file(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("hello world\n")
        with pytest.raises(ValidationError, match="kn-trigram"):
            TrigramLM.load(path)

    def test_reject_vocab_size_mismatch(self, tmp_path):
        lm = train_kn(corpus_of(["a a a"]))
        path = tmp_path / "lm.txt"
        lm.save(path)
        text = path.read_text().replace("vocab=4", "vocab=5")
        path.write_text(text)
        with pytest.raises(ValidationError, match="vocab"):
            TrigramLM.load(path)
