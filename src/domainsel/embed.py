"""Skipgram word embeddings and mean-pooled sentence vectors.

Word vectors are trained with negative sampling, once on the merged corpus
and once per domain. The pipeline seeds each per-domain table separately
(`child_seed(seed, "table", name)`) over its own vocabulary, so coordinates
are not aligned across domains and the word-vector-variance feature that
compares them carries little signal (ROADMAP item 5). Sentence vectors are
the mean of a trained table's word vectors.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .corpus import DomainCorpus, tokenize
from .errors import ValidationError

log = logging.getLogger(__name__)

LR_START = 0.025
LR_END = 0.0001


@dataclass(frozen=True)
class EmbeddingTable:
    """Token vectors for one domain; immutable once trained."""

    dim: int
    domain: str
    tokens: tuple[str, ...]
    matrix: np.ndarray  # (len(tokens), dim)
    loss_curve: tuple[float, ...] = ()  # diagnostic only, not persisted
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.matrix.shape != (len(self.tokens), self.dim):
            raise ValidationError(
                f"embedding matrix shape {self.matrix.shape} does not match "
                f"{len(self.tokens)} tokens x dim {self.dim}"
            )
        if not np.all(np.isfinite(self.matrix)):
            raise ValidationError("embedding matrix contains NaN/Inf")
        object.__setattr__(self, "_index", {t: i for i, t in enumerate(self.tokens)})

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def vector(self, token: str) -> np.ndarray:
        try:
            return self.matrix[self._index[token]]
        except KeyError:
            raise ValidationError(f"token {token!r} not in embedding table") from None

    def sentence_vector(self, text: str) -> np.ndarray:
        """Mean vector of the text's in-table tokens; zeros when none match."""
        token_ids = [self._index[t] for t in tokenize(text) if t in self._index]
        if not token_ids:
            return np.zeros(self.dim)
        # Canonical accumulation order makes this exactly permutation-invariant.
        uniq, cnt = np.unique(np.array(token_ids), return_counts=True)
        return (cnt[:, None] * self.matrix[uniq]).sum(axis=0) / len(token_ids)

    def save(self, path) -> None:
        """word2vec text format: `<vocab> <dim>` then one token per line."""
        with open(path, "w", encoding="utf-8") as f:
            f.write(f"{len(self.tokens)} {self.dim}\n")
            for tok, row in zip(self.tokens, self.matrix):
                f.write(tok + " " + " ".join(repr(float(x)) for x in row) + "\n")

    @classmethod
    def load(cls, path, domain: str = "") -> "EmbeddingTable":
        with open(path, "r", encoding="utf-8") as f:
            header = f.readline().split()
            if len(header) != 2:
                raise ValidationError(f"{path}: bad word2vec header")
            n, dim = int(header[0]), int(header[1])
            tokens = []
            rows = []
            for lineno, line in enumerate(f, start=2):
                fields = line.rstrip("\n").split(" ")
                if len(fields) != dim + 1:
                    raise ValidationError(f"{path}: line {lineno}: expected {dim} components")
                tokens.append(fields[0])
                rows.append([float(x) for x in fields[1:]])
        if len(tokens) != n:
            raise ValidationError(f"{path}: header claims {n} tokens, found {len(tokens)}")
        return cls(dim=dim, domain=domain, tokens=tuple(tokens), matrix=np.array(rows))


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _sgns_loss(w_in, w_out, centers, contexts, negatives):
    """Negative-sampling objective on a fixed probe batch (lower is better)."""
    pos = np.einsum("ij,ij->i", w_in[centers], w_out[contexts])
    neg = np.einsum("ij,ikj->ik", w_in[centers], w_out[negatives])
    eps = 1e-12
    return float(
        -(np.log(_sigmoid(pos) + eps).sum() + np.log(_sigmoid(-neg) + eps).sum())
    ) / len(centers)


def _noise_cdf(noise):
    """The CDF that `Generator.choice(p=noise)` builds on every call."""
    cdf = noise.cumsum()
    cdf /= cdf[-1]
    return cdf


def _draw_negatives(rng, cdf, n):
    """Draw n noise ids exactly as `rng.choice(len(cdf), size=n, p=noise)` does.

    Consecutive draws concatenate: one draw of a + b ids equals a draw of a
    followed by a draw of b, so a text's negatives can come in one block.
    """
    return cdf.searchsorted(rng.random(n), side="right")


def _contexts(seq, window):
    """Ids within `window` of each position (itself excluded), and their counts.

    Contexts are grouped by center, in position order, and each in position
    order too.
    """
    offsets = np.concatenate([np.arange(-window, 0), np.arange(1, window + 1)])
    j = np.arange(len(seq))[:, None] + offsets
    valid = (j >= 0) & (j < len(seq))
    return seq[j[valid]], valid.sum(axis=1)


def train_skipgram(
    corpus: DomainCorpus,
    dim: int,
    window: int = 5,
    negatives: int = 5,
    epochs: int = 5,
    seed: int = 0,
) -> EmbeddingTable:
    """Skipgram with negative sampling, deterministic for a fixed seed.

    Single-threaded, fixed iteration order over texts. Negatives are drawn
    from the unigram distribution raised to 0.75. The step size decays
    linearly from 0.025 to 0.0001 over all center-word updates.
    """
    split = "train" if corpus.splits is not None else None
    token_lists = [tokenize(t) for t in corpus.texts(split)]
    return _train_skipgram_tokens(token_lists, dim, window, negatives, epochs, seed,
                                  domain=corpus.name)


def _train_skipgram_tokens(token_lists, dim, window, negatives, epochs, seed, domain=""):
    counts: dict[str, int] = {}
    for toks in token_lists:
        for t in toks:
            counts[t] = counts.get(t, 0) + 1
    vocab = sorted(counts)
    if len(vocab) < 2:
        raise ValidationError(f"skipgram needs >= 2 distinct tokens, got {len(vocab)}")
    index = {t: i for i, t in enumerate(vocab)}
    ids = [np.array([index[t] for t in toks], dtype=np.int64) for toks in token_lists]

    freq = np.array([counts[t] for t in vocab], dtype=np.float64)
    noise = freq**0.75
    noise /= noise.sum()

    rng = np.random.default_rng(seed)
    w_in = rng.uniform(-0.5 / dim, 0.5 / dim, size=(len(vocab), dim))
    w_out = np.zeros((len(vocab), dim))

    contexts = [_contexts(seq, window) for seq in ids]

    # Fixed probe batch for the loss curve, drawn before training.
    probe_c = np.concatenate([np.repeat(seq, n) for seq, (_, n) in zip(ids, contexts)])
    probe_x = np.concatenate([ctx for ctx, _ in contexts])
    if len(probe_c) == 0:
        raise ValidationError("skipgram corpus has no context pairs (texts too short)")
    keep = min(len(probe_c), 512)
    pick = rng.choice(len(probe_c), size=keep, replace=False)
    probe_c, probe_x = probe_c[pick], probe_x[pick]
    probe_neg = rng.choice(len(vocab), size=(keep, negatives), p=noise)

    losses = [_sgns_loss(w_in, w_out, probe_c, probe_x, probe_neg)]
    cdf = _noise_cdf(noise)
    # Row-major cells of w_out, so that one 1-D np.add.at applies a center's
    # context rows then its negative rows in the order two row-wise calls would.
    flat_out = w_out.reshape(-1)
    cols = np.arange(dim)
    total_centers = epochs * sum(len(seq) for seq in ids)
    done = 0
    for _epoch in range(epochs):
        for seq, (ctx_all, n_ctx) in zip(ids, contexts):
            # One block of negatives per text, sliced per center in order.
            neg_all = _draw_negatives(rng, cdf, len(ctx_all) * negatives)
            a = 0
            for c, k in zip(seq.tolist(), n_ctx.tolist()):
                lr = LR_START + (LR_END - LR_START) * (done / total_centers)
                done += 1
                if k == 0:
                    continue
                rows = np.concatenate([ctx_all[a : a + k],
                                       neg_all[a * negatives : (a + k) * negatives]])
                a += k
                v = w_in[c]
                out = w_out[rows]
                out_ctx, out_neg = out[:k], out[k:]
                # Two products, not one over `out`: BLAS may sum a row in
                # another order when the matrix has more rows.
                g = _sigmoid(np.concatenate([out_ctx @ v, out_neg @ v]))
                g[:k] -= 1.0  # positive pairs: sigmoid - 1
                grad_v = g[:k] @ out_ctx + g[k:] @ out_neg
                np.add.at(flat_out, (rows[:, None] * dim + cols).ravel(),
                          (-lr * g[:, None] * v).ravel())
                w_in[c] = v - lr * grad_v
        losses.append(_sgns_loss(w_in, w_out, probe_c, probe_x, probe_neg))

    log.debug("skipgram '%s': vocab=%d loss %.4f -> %.4f",
              domain, len(vocab), losses[0], losses[-1])
    return EmbeddingTable(
        dim=dim, domain=domain, tokens=tuple(vocab), matrix=w_in,
        loss_curve=tuple(losses),
    )
