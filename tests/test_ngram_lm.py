import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from domainsel import ngram_lm
from domainsel.corpus import DomainCorpus, TextPairExample
from domainsel.errors import ValidationError
from domainsel.ngram_lm import (
    BOS,
    EOS,
    UNK,
    TrigramLM,
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


def lm_of_counts(path, vocab, c2, c3, discount=0.75):
    """The model of the given counts, written as a count file and loaded."""
    lines = [f"kn-trigram D={discount!r} vocab={len(vocab)}"]
    lines += [f"v {tok}" for tok in sorted(vocab)]
    lines += [f"2 {' '.join(k)} {c}" for k, c in sorted(c2.items())]
    lines += [f"3 {' '.join(k)} {c}" for k, c in sorted(c3.items())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return TrigramLM.load(path)


# The counts of exactly one training text "a a a", padded to <s> <s> a a a </s>.
AAA_C2 = {(BOS, BOS): 1, (BOS, "a"): 1, ("a", "a"): 2, ("a", EOS): 1}
AAA_C3 = {(BOS, BOS, "a"): 1, (BOS, "a", "a"): 1, ("a", "a", "a"): 1, ("a", "a", EOS): 1}


@pytest.fixture
def aaa_lm(tmp_path):
    # The hand-oracle setting: a model of those counts.
    return lm_of_counts(tmp_path / "aaa.txt", {"a", UNK, BOS, EOS}, AAA_C2, AAA_C3)


class TestTrainKN:
    # Hand-evaluated interpolated KN, D=0.75, on the padded text
    # <s> <s> a a a </s>: vocab {a, <unk>, <s>, </s>}, 4 bigram types,
    # continuation(a)=2, so p1(a)=1.25/4 + (0.75*3/4)*(1/4) = 0.453125.
    def test_vocab(self):
        assert train_kn(corpus_of(["a a a"])).vocab == frozenset({"a", UNK, BOS, EOS})

    def test_counts_each_padded_text(self, saved_counts):
        # corpus_of pairs the one text with itself: two texts "a a a".
        c2, c3 = saved_counts(train_kn(corpus_of(["a a a"])))
        assert c2 == {k: 2 * c for k, c in AAA_C2.items()}
        assert c3 == {k: 2 * c for k, c in AAA_C3.items()}

    def test_unigram_hand_values(self, aaa_lm):
        # </s> never starts a bigram continuation, so after it p = p1.
        assert aaa_lm.prob(EOS, EOS, "a") == pytest.approx(0.453125, abs=1e-12)
        assert aaa_lm.prob(EOS, EOS, UNK) == pytest.approx(0.140625, abs=1e-12)

    def test_bigram_hand_value(self, aaa_lm):
        # (</s>, <s>) is no trigram history, so p(a | </s>, <s>) = p2(a | <s>).
        assert aaa_lm.prob(EOS, BOS, "a") == pytest.approx(0.58984375, abs=1e-12)

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

    def test_uniform_model_ppl_equals_vocab(self, tmp_path):
        # All-equal counts over a 4-token vocab make every conditional
        # exactly 1/4, so PPL is exactly the vocab size.
        toks = ["a", UNK, BOS, EOS]
        c2 = {(u, v): 1 for u in toks for v in toks}
        c3 = {(u, v, w): 1 for u in toks for v in toks for w in toks}
        lm = lm_of_counts(tmp_path / "uniform.txt", set(toks), c2, c3)
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
        with pytest.raises(ValidationError, match="header claims 5 vocab entries, found 4"):
            TrigramLM.load(path)

    def test_reject_count_line_inside_vocabulary_block(self, tmp_path):
        # The loader reads every vocabulary line before the first count line.
        lm = train_kn(corpus_of(["a a a"]))
        path = tmp_path / "lm.txt"
        lm.save(path)
        lines = path.read_text().splitlines(keepends=True)
        count_line = lines.pop(5)  # the first bigram line
        assert count_line.startswith("2 ")
        lines.insert(3, count_line)
        path.write_text("".join(lines))
        with pytest.raises(ValidationError, match="line 4: header claims 4 vocab entries"):
            TrigramLM.load(path)

    def test_reject_vocab_without_padding_tokens(self, tmp_path):
        c2 = {("a", "a"): 1}
        with pytest.raises(ValidationError, match="vocab lacks"):
            lm_of_counts(tmp_path / "lm.txt", {"a"}, c2, {("a", "a", "a"): 1})

    def test_save_load_save_same_bytes(self, tmp_path):
        lm = train_kn(corpus_of(["the cat sat", "a dog ran", "dogs and the cat"]),
                      min_count=1)
        first, second = tmp_path / "first.txt", tmp_path / "second.txt"
        lm.save(first)
        TrigramLM.load(first).save(second)
        assert second.read_bytes() == first.read_bytes()

    def test_codec_memory_is_a_small_multiple_of_the_file(self, tmp_path):
        # 800 texts of 8 tokens over 150 words: a count file of about 12,000
        # lines. Reading holds the key and count arrays and the model built
        # from them, not the file's lines as strings; writing holds one chunk
        # of lines at a time.
        rng = np.random.default_rng(0)
        words = [f"w{i}" for i in range(150)]
        lm = train_kn(corpus_of([" ".join(rng.choice(words, size=8)) for _ in range(800)]))
        first, second = tmp_path / "first.txt", tmp_path / "second.txt"
        lm.save(first)
        size = first.stat().st_size
        assert len(first.read_text().splitlines()) >= 10_000

        reloaded, load_peak = traced_peak(lambda: TrigramLM.load(first))
        _, save_peak = traced_peak(lambda: reloaded.save(second))
        assert load_peak < 8 * size
        assert save_peak < 2 * size
        assert second.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize("line, problem", [
        ("3 a a zzz 1", "malformed"),
        ("3 a a a x", "malformed"),
        (f"3 a a a {2**63}", "malformed"),  # a count no int64 holds
        ("2 <s> <s> 1", "out of order or repeated"),
    ])
    def test_reject_bad_count_line(self, tmp_path, line, problem):
        lm = train_kn(corpus_of(["a a a"]))
        path = tmp_path / "lm.txt"
        lm.save(path)
        path.write_text(path.read_text() + line + "\n")
        with pytest.raises(ValidationError, match=problem):
            TrigramLM.load(path)


def traced_peak(call):
    """call()'s result and the peak of the memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def scalar_perplexity(train_lists, eval_lists, min_count, D=0.75):
    """The dict-of-tuples model scored token by token: per-token math.log2 of
    the interpolated KN formula, then math.fsum."""
    raw = Counter(t for toks in train_lists for t in toks)
    vocab = {w for w, c in raw.items() if c >= min_count} | {UNK, BOS, EOS}

    def padded(toks):
        return [BOS, BOS] + [w if w in vocab else UNK for w in toks] + [EOS]

    c2, c3 = Counter(), Counter()
    for toks in train_lists:
        seq = padded(toks)
        c2.update(zip(seq, seq[1:]))
        c3.update(zip(seq, seq[1:], seq[2:]))
    den3, types3, cont2 = Counter(), Counter(), Counter()
    for (u, v, w), c in c3.items():
        den3[u, v] += c
        types3[u, v] += 1
        cont2[v, w] += 1
    den2, types2 = Counter(), Counter()
    for (v, w), c in cont2.items():
        den2[v] += c
        types2[v] += 1
    cont1 = Counter(w for _, w in c2)
    bigram_types = sum(cont1.values())
    lam1 = D * len(cont1) / bigram_types
    p1 = {w: max(cont1[w] - D, 0.0) / bigram_types + lam1 * (1.0 / len(vocab))
          for w in vocab}

    def p2(v, w):
        if den2[v] == 0:
            return p1[w]
        lam = D * types2[v] / den2[v]
        return max(cont2[v, w] - D, 0.0) / den2[v] + lam * p1[w]

    def p3(u, v, w):
        if den3[u, v] == 0:
            return p2(v, w)
        lam = D * types3[u, v] / den3[u, v]
        return max(c3[u, v, w] - D, 0.0) / den3[u, v] + lam * p2(v, w)

    log2_probs = []
    for toks in eval_lists:
        seq = padded(toks)
        log2_probs += [math.log2(p3(*gram)) for gram in zip(seq, seq[1:], seq[2:])]
    return 2.0 ** (-math.fsum(log2_probs) / len(log2_probs))


# Short texts over a few shared words; the evaluation side adds words no
# training text has, so scoring meets OOVs and unseen histories.
def texts(words):
    return st.lists(st.lists(st.sampled_from(words), min_size=1, max_size=6).map(" ".join),
                    min_size=1, max_size=8)


class TestArrayModel:
    @settings(max_examples=150, deadline=None)
    @given(train=texts(["a", "b", "c", "d"]), held_out=texts(["a", "b", "c", "x", "y"]),
           min_count=st.sampled_from([1, 2]))
    def test_perplexity_equals_scalar_reference_bit_for_bit(self, train, held_out,
                                                            min_count):
        train_corpus, eval_corpus = corpus_of(train), corpus_of(held_out, name="eval")
        lm = train_kn(train_corpus, min_count=min_count)
        expected = scalar_perplexity(train_corpus.tokens(), eval_corpus.tokens(), min_count)
        assert perplexity(lm, eval_corpus) == expected

    def test_scoring_raises_no_floating_point_error(self, aaa_lm):
        # Unseen histories at both orders take the den == 0 branch.
        with np.errstate(all="raise"):
            assert perplexity(aaa_lm, corpus_of(["a", "q w a a", ""])) > 1.0
            assert aaa_lm.prob(EOS, EOS, UNK) > 0.0
            train_kn(corpus_of(["b b c", "c"]), min_count=2)

    def test_arrays_are_read_only(self):
        lm = train_kn(corpus_of(["a b a", "b a b"]))
        for level in (lm._trigram, lm._bigram):
            for array in (level.keys, level.counts, level.hist, level.den, level.types):
                assert not array.flags.writeable
        assert not any(a.flags.writeable for a in (*lm._bigrams, lm._p1))

    def test_vocabulary_over_the_key_bound_rejected(self, tmp_path, monkeypatch):
        lm = train_kn(corpus_of(["a b"]))
        path = tmp_path / "lm.txt"
        lm.save(path)
        monkeypatch.setattr(ngram_lm, "MAX_VOCAB", 4)
        with pytest.raises(ValidationError, match="vocabulary of 5 tokens exceeds 4"):
            train_kn(corpus_of(["a b"]))
        with pytest.raises(ValidationError, match="vocabulary of 5 tokens exceeds 4"):
            TrigramLM.load(path)
        assert train_kn(corpus_of(["a a"])).V == 4
