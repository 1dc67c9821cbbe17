import numpy as np
import pytest

from domainsel.corpus import DomainCorpus, TextPairExample, tokenize
from domainsel.embed import (
    LR_END,
    LR_START,
    EmbeddingTable,
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
    """Slow per-pair reference of the per-text update.

    Every center of a text is scored against the weights at the start of the
    text. A center with k contexts draws `negatives` noise ids once, shares
    them across its contexts and weights each by k. Each center takes its own
    step of the linear schedule. Returns the table, the loss curve and
    whether some shared negative equalled one of its center's contexts.
    """
    counts = {}
    for toks in token_lists:
        for t in toks:
            counts[t] = counts.get(t, 0) + 1
    vocab = sorted(counts)
    index = {t: i for i, t in enumerate(vocab)}
    ids = [[index[t] for t in toks] for toks in token_lists]
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
    collided = False
    for _epoch in range(epochs):
        for seq in ids:
            start_in, start_out = w_in.copy(), w_out.copy()
            for i, c in enumerate(seq):
                lr = LR_START + (LR_END - LR_START) * (done / total_centers)
                done += 1
                ctx = [seq[j] for j in range(max(0, i - window), min(len(seq), i + window + 1))
                       if j != i]
                if not ctx:
                    continue
                shared = rng.choice(len(vocab), size=negatives, p=noise)
                collided |= bool(set(ctx) & set(shared.tolist()))
                terms = [(o, _sigmoid(start_in[c] @ start_out[o]) - 1.0) for o in ctx]
                terms += [(n, len(ctx) * _sigmoid(start_in[c] @ start_out[n])) for n in shared]
                for row, g in terms:
                    w_in[c] -= lr * g * start_out[row]
                    w_out[row] -= lr * g * start_in[c]
        losses.append(_sgns_loss(w_in, w_out, *probe))
    return w_in, losses, collided


class TestBlockNegativeSampling:
    NOISE = np.array([7.0, 1.0, 3.0, 3.0, 12.0, 2.0]) ** 0.75
    NOISE /= NOISE.sum()
    # "x y z x" repeats a token; with four words, negatives hit contexts; the
    # one-token texts have no context.
    MIXED_TEXTS = ["x y z x", "solo", "y w w z x y", "z", "w x y z w x y z", "y"]

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
    def test_tables_match_per_pair_reference(self, window, negatives, epochs):
        texts = self.MIXED_TEXTS
        table = train_skipgram(pair_corpus(texts), dim=6, window=window,
                               negatives=negatives, epochs=epochs, seed=9)
        token_lists = [tokenize(t) for t in pair_corpus(texts).texts(None)]
        want, want_losses, collided = _reference_skipgram(
            token_lists, 6, window, negatives, epochs, seed=9)
        assert collided
        np.testing.assert_allclose(table.matrix, want, rtol=1e-12)
        np.testing.assert_allclose(table.loss_curve, want_losses, rtol=1e-12)

    @pytest.mark.parametrize("block", [1, 5])
    def test_block_size_leaves_table_unchanged(self, monkeypatch, block):
        import domainsel.embed as embed_mod

        corpus = pair_corpus(self.MIXED_TEXTS * 3)  # more than one block of texts
        want = train_skipgram(corpus, dim=6, window=2, negatives=3, epochs=2, seed=4)
        monkeypatch.setattr(embed_mod, "TEXTS_PER_BLOCK", block)
        got = train_skipgram(corpus, dim=6, window=2, negatives=3, epochs=2, seed=4)
        assert got.matrix.tobytes() == want.matrix.tobytes()
        assert got.loss_curve == want.loss_curve

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

    def test_saved_bytes_match_per_component_repr(self, tmp_path):
        rng = np.random.default_rng(3)
        matrix = rng.normal(size=(30, 7)) * 10.0 ** rng.integers(-12, 12, size=(30, 7))
        matrix[0, :3] = [0.0, -0.0, 1e-300]
        table = EmbeddingTable(dim=7, domain="r", tokens=tuple(f"w{i}" for i in range(30)),
                               matrix=matrix)
        path = tmp_path / "vec.txt"
        table.save(path)
        want = "30 7\n" + "".join(
            tok + " " + " ".join(repr(float(x)) for x in row) + "\n"
            for tok, row in zip(table.tokens, table.matrix)
        )
        assert path.read_bytes() == want.encode("utf-8")

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


def embed_sentence_reference(table, text):
    """The mean pooling of the former SentenceEmbeddingProvider.embed_sentence."""
    token_ids = [table._index[t] for t in tokenize(text) if t in table]
    if not token_ids:
        return np.zeros(table.dim)
    uniq, cnt = np.unique(np.array(token_ids), return_counts=True)
    return (cnt[:, None] * table.matrix[uniq]).sum(axis=0) / len(token_ids)


class TestMeanPooled:
    def make_table(self):
        return EmbeddingTable(
            dim=2,
            domain="toy",
            tokens=("a", "b", "c"),
            matrix=np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]]),
        )

    def test_repeated_token_is_its_vector(self):
        table = self.make_table()
        np.testing.assert_array_equal(table.sentence_vector("a a"), [1.0, 0.0])

    def test_mean_of_two(self):
        table = self.make_table()
        np.testing.assert_array_equal(table.sentence_vector("a b"), [0.5, 0.5])

    def test_oov_skipped(self):
        table = self.make_table()
        np.testing.assert_array_equal(table.sentence_vector("a zzz"), [1.0, 0.0])

    def test_all_oov_zero_vector(self):
        table = self.make_table()
        np.testing.assert_array_equal(table.sentence_vector("zzz qqq"), [0.0, 0.0])

    def test_permutation_invariance_exact(self):
        table = EmbeddingTable(
            dim=3,
            domain="toy",
            tokens=tuple("abcdefg"),
            matrix=np.random.default_rng(0).normal(size=(7, 3)),
        )
        words = list("a b c d e f g a b c".split())
        base = table.sentence_vector(" ".join(words))
        rng = np.random.default_rng(1)
        for _ in range(10):
            rng.shuffle(words)
            np.testing.assert_array_equal(
                table.sentence_vector(" ".join(words)), base
            )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_equal_to_provider_pooling(self, seed):
        rng = np.random.default_rng(seed)
        vocab = [f"w{i}" for i in range(40)]
        table = EmbeddingTable(
            dim=16, domain="r", tokens=tuple(vocab[:30]),
            matrix=rng.normal(size=(30, 16)) * 10.0 ** rng.uniform(-3, 3, size=(30, 1)),
        )
        texts = [
            " ".join(rng.choice(vocab, size=rng.integers(1, 25))) for _ in range(200)
        ]
        texts += ["", "w35 w39 w30", "w31"]  # no in-table token at all
        for text in texts:
            got = table.sentence_vector(text)
            want = embed_sentence_reference(table, text)
            assert got.tobytes() == want.tobytes(), text
