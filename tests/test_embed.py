import json

import numpy as np
import pytest

from domainsel.corpus import DomainCorpus, TextPairExample, tokenize
from domainsel.embed import (
    LR_END,
    LR_START,
    EmbeddingTable,
    SentenceEmbeddingProvider,
    _draw_negatives,
    _noise_cdf,
    _sgns_loss,
    _sigmoid,
    train_skipgram,
)
from domainsel.errors import ValidationError


def pair_corpus(texts, name="emb"):
    if len(texts) % 2:
        texts = list(texts) + [texts[-1]]
    examples = tuple(
        TextPairExample(texts[i], texts[i + 1], 1) for i in range(0, len(texts), 2)
    )
    return DomainCorpus(name=name, examples=examples)


def cosine(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


@pytest.fixture(scope="module")
def cooccur_table():
    # x and y always co-occur; z lives in separate texts with w.
    texts = ["x y x y x y", "z w z w z w"] * 12
    return train_skipgram(pair_corpus(texts), dim=16, window=2, epochs=5, seed=5)


class TestTrainSkipgram:
    def test_cooccurrence_geometry(self, cooccur_table):
        x = cooccur_table.vector("x")
        y = cooccur_table.vector("y")
        z = cooccur_table.vector("z")
        assert cosine(x, y) > cosine(x, z)

    def test_requested_dim(self):
        table = train_skipgram(pair_corpus(["a b a b", "b a b a"]), dim=8, seed=0)
        assert table.dim == 8
        assert table.matrix.shape == (2, 8)
        for tok in table.tokens:
            assert table.vector(tok).shape == (8,)

    def test_same_seed_identical(self):
        corpus = pair_corpus(["red green blue", "blue green red", "green red blue"])
        a = train_skipgram(corpus, dim=12, seed=42)
        b = train_skipgram(corpus, dim=12, seed=42)
        assert a.tokens == b.tokens
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_different_seed_differs(self):
        corpus = pair_corpus(["red green blue", "blue green red"])
        a = train_skipgram(corpus, dim=12, seed=1)
        b = train_skipgram(corpus, dim=12, seed=2)
        assert not np.array_equal(a.matrix, b.matrix)

    def test_loss_decreases(self):
        texts = ["the quick brown fox jumps over the lazy dog again and again"] * 10
        table = train_skipgram(pair_corpus(texts), dim=16, seed=3)
        assert table.loss_curve[-1] < table.loss_curve[0]

    def test_vocab_too_small(self):
        with pytest.raises(ValidationError, match="2 distinct"):
            train_skipgram(pair_corpus(["solo solo solo"]), dim=4)

    def test_uses_train_split_when_assigned(self):
        examples = tuple(
            TextPairExample("common alpha", "common beta", 1) for _ in range(4)
        ) + (TextPairExample("common heldout", "common heldout", 0),)
        corpus = DomainCorpus("s", examples, splits=("train",) * 4 + ("test",))
        table = train_skipgram(corpus, dim=4, seed=0)
        assert "heldout" not in table


def _reference_skipgram(token_lists, dim, window, negatives, epochs, seed):
    """Per-center training loop: negatives from rng.choice, row-wise np.add.at.

    train_skipgram must reproduce its table and loss curve bit for bit.
    """
    counts = {}
    for toks in token_lists:
        for t in toks:
            counts[t] = counts.get(t, 0) + 1
    vocab = sorted(counts)
    index = {t: i for i, t in enumerate(vocab)}
    ids = [np.array([index[t] for t in toks], dtype=np.int64) for toks in token_lists]
    noise = np.array([counts[t] for t in vocab], dtype=np.float64) ** 0.75
    noise /= noise.sum()

    rng = np.random.default_rng(seed)
    w_in = rng.uniform(-0.5 / dim, 0.5 / dim, size=(len(vocab), dim))
    w_out = np.zeros((len(vocab), dim))
    probe_c, probe_x = [], []
    for seq in ids:
        for i in range(len(seq)):
            for j in range(max(0, i - window), min(len(seq), i + window + 1)):
                if j != i:
                    probe_c.append(seq[i])
                    probe_x.append(seq[j])
    keep = min(len(probe_c), 512)
    pick = rng.choice(len(probe_c), size=keep, replace=False)
    probe = (np.array(probe_c)[pick], np.array(probe_x)[pick],
             rng.choice(len(vocab), size=(keep, negatives), p=noise))
    losses = [_sgns_loss(w_in, w_out, *probe)]

    total_centers = epochs * sum(len(seq) for seq in ids)
    done = 0
    for _epoch in range(epochs):
        for seq in ids:
            for i in range(len(seq)):
                lr = LR_START + (LR_END - LR_START) * (done / total_centers)
                done += 1
                lo, hi = max(0, i - window), min(len(seq), i + window + 1)
                ctx = np.concatenate([seq[lo:i], seq[i + 1 : hi]])
                if len(ctx) == 0:
                    continue
                c = seq[i]
                neg = rng.choice(len(vocab), size=len(ctx) * negatives, p=noise)
                v = w_in[c]
                g_pos = _sigmoid(w_out[ctx] @ v) - 1.0
                g_neg = _sigmoid(w_out[neg] @ v)
                grad_v = g_pos @ w_out[ctx] + g_neg @ w_out[neg]
                np.add.at(w_out, ctx, -lr * g_pos[:, None] * v)
                np.add.at(w_out, neg, -lr * g_neg[:, None] * v)
                w_in[c] = v - lr * grad_v
        losses.append(_sgns_loss(w_in, w_out, *probe))
    return w_in, tuple(losses)


class TestBlockNegativeSampling:
    NOISE = np.array([7.0, 1.0, 3.0, 3.0, 12.0, 2.0]) ** 0.75
    NOISE /= NOISE.sum()

    @pytest.mark.parametrize("seed", [0, 1, 17])
    def test_draws_match_rng_choice(self, seed):
        ours = np.random.default_rng(seed)
        theirs = np.random.default_rng(seed)
        cdf = _noise_cdf(self.NOISE)
        for size in (5, 1, 0, 40, 13, 250):
            np.testing.assert_array_equal(
                _draw_negatives(ours, cdf, size),
                theirs.choice(len(self.NOISE), size=size, p=self.NOISE),
            )

    def test_one_block_equals_consecutive_draws(self):
        cdf = _noise_cdf(self.NOISE)
        sizes = (10, 0, 35, 5)
        block = _draw_negatives(np.random.default_rng(4), cdf, sum(sizes))
        rng = np.random.default_rng(4)
        parts = [rng.choice(len(self.NOISE), size=k, p=self.NOISE) for k in sizes]
        np.testing.assert_array_equal(block, np.concatenate(parts))

    @pytest.mark.parametrize("window,negatives,epochs", [(2, 5, 2), (1, 3, 3), (5, 1, 1)])
    def test_tables_match_per_center_sampling(self, window, negatives, epochs):
        texts = ["x y z x", "solo", "y w w z x y", "z", "w x y z w x y z", "y"]
        table = train_skipgram(pair_corpus(texts), dim=6, window=window,
                               negatives=negatives, epochs=epochs, seed=9)
        token_lists = [tokenize(t) for t in pair_corpus(texts).texts(None)]
        want, want_losses = _reference_skipgram(token_lists, 6, window, negatives,
                                                epochs, seed=9)
        np.testing.assert_array_equal(table.matrix, want)
        assert table.loss_curve == want_losses

    def test_one_token_texts_train_deterministically(self):
        # Centers of 1-token texts have no context and draw no negatives.
        corpus = pair_corpus(["alpha", "beta gamma alpha", "gamma", "beta"] * 3)
        a = train_skipgram(corpus, dim=5, window=2, epochs=2, seed=11)
        b = train_skipgram(corpus, dim=5, window=2, epochs=2, seed=11)
        assert a.tokens == ("alpha", "beta", "gamma")
        assert np.all(np.isfinite(a.matrix))
        np.testing.assert_array_equal(a.matrix, b.matrix)


class TestEmbeddingTableIO:
    def test_roundtrip(self, tmp_path, cooccur_table):
        path = tmp_path / "vec.txt"
        cooccur_table.save(path)
        loaded = EmbeddingTable.load(path, domain=cooccur_table.domain)
        assert loaded.tokens == cooccur_table.tokens
        np.testing.assert_array_equal(loaded.matrix, cooccur_table.matrix)

    def test_header(self, tmp_path, cooccur_table):
        path = tmp_path / "vec.txt"
        cooccur_table.save(path)
        first = path.read_text().splitlines()[0]
        assert first == f"{len(cooccur_table.tokens)} {cooccur_table.dim}"

    def test_bad_component_count(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("1 3\ntok 0.5 0.5\n")
        with pytest.raises(ValidationError, match="line 2"):
            EmbeddingTable.load(path)

    def test_nan_rejected(self):
        with pytest.raises(ValidationError, match="NaN"):
            EmbeddingTable(
                dim=2, domain="x", tokens=("a",), matrix=np.array([[np.nan, 0.0]])
            )


class TestMeanPooled:
    def make_provider(self):
        table = EmbeddingTable(
            dim=2,
            domain="toy",
            tokens=("a", "b", "c"),
            matrix=np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]]),
        )
        return SentenceEmbeddingProvider.mean_pooled(table)

    def test_repeated_token_is_its_vector(self):
        provider = self.make_provider()
        np.testing.assert_array_equal(provider.embed_sentence("a a"), [1.0, 0.0])

    def test_mean_of_two(self):
        provider = self.make_provider()
        np.testing.assert_array_equal(provider.embed_sentence("a b"), [0.5, 0.5])

    def test_oov_skipped(self):
        provider = self.make_provider()
        np.testing.assert_array_equal(provider.embed_sentence("a zzz"), [1.0, 0.0])

    def test_all_oov_zero_vector(self):
        provider = self.make_provider()
        np.testing.assert_array_equal(provider.embed_sentence("zzz qqq"), [0.0, 0.0])

    def test_permutation_invariance_exact(self):
        table = EmbeddingTable(
            dim=3,
            domain="toy",
            tokens=tuple("abcdefg"),
            matrix=np.random.default_rng(0).normal(size=(7, 3)),
        )
        provider = SentenceEmbeddingProvider.mean_pooled(table)
        words = list("a b c d e f g a b c".split())
        base = provider.embed_sentence(" ".join(words))
        rng = np.random.default_rng(1)
        for _ in range(10):
            rng.shuffle(words)
            np.testing.assert_array_equal(
                provider.embed_sentence(" ".join(words)), base
            )


class TestFileLoaded:
    def write_store(self, tmp_path):
        path = tmp_path / "sent.jsonl"
        rows = [
            {"key": "news/train/0/a", "vec": [0.1, 0.2]},
            {"key": "news/train/0/b", "vec": [0.3, 0.4]},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        return path

    def test_lookup(self, tmp_path):
        provider = SentenceEmbeddingProvider.file_loaded(self.write_store(tmp_path))
        assert provider.mode == "file_loaded"
        assert provider.dim == 2
        np.testing.assert_array_equal(
            provider.embed_sentence("news/train/0/b"), [0.3, 0.4]
        )

    def test_miss_names_key(self, tmp_path):
        provider = SentenceEmbeddingProvider.file_loaded(self.write_store(tmp_path))
        with pytest.raises(ValidationError, match="news/train/9/a"):
            provider.embed_sentence("news/train/9/a")

    def test_inconsistent_dim_rejected(self, tmp_path):
        path = tmp_path / "sent.jsonl"
        path.write_text('{"key": "k1", "vec": [1.0]}\n{"key": "k2", "vec": [1.0, 2.0]}\n')
        with pytest.raises(ValidationError, match="line 2"):
            SentenceEmbeddingProvider.file_loaded(path)
