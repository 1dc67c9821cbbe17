"""Skipgram word embeddings and mean-pooled sentence vectors.

Word vectors are trained with negative sampling, once on the merged corpus
and once per domain. The pipeline seeds each per-domain table separately
(`child_seed(seed, "table", name)`) over its own vocabulary, so coordinates
are not aligned across domains and the word-vector-variance feature that
compares them carries little signal (see ROADMAP). Sentence vectors are
the mean of a trained table's word vectors.

Training holds the corpus as one flat array of token ids with per-text
lengths. A token's context count has a closed form, so the (center, context)
pairs are never listed for the whole corpus: the probe batch maps its drawn
pair numbers to tokens arithmetically, and the update slots are laid out one
block of texts at a time. Working memory grows with the token count and
`TEXTS_PER_BLOCK`, not with tokens times 2 * window.
"""
from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .corpus import DomainCorpus
from .errors import ValidationError

log = logging.getLogger(__name__)

LR_START = 0.025
LR_END = 0.0001
# Texts whose update slots are laid out at once. Only one block's slots exist
# at a time, so it bounds their memory; the table is the same for any value.
TEXTS_PER_BLOCK = 16


@dataclass(frozen=True)
class EmbeddingTable:
    """Token vectors for one domain; immutable once trained.

    Tables that `train_skipgram` and `load` return have a read-only matrix,
    so that pipeline jobs can share them.
    """

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

    def sentence_vector(self, tokens) -> np.ndarray:
        """Mean vector of a text's in-table tokens; zeros when none match."""
        token_ids = [self._index[t] for t in tokens if t in self._index]
        if not token_ids:
            return np.zeros(self.dim)
        # Canonical accumulation order makes this exactly permutation-invariant.
        uniq, cnt = np.unique(np.array(token_ids), return_counts=True)
        return (cnt[:, None] * self.matrix[uniq]).sum(axis=0) / len(token_ids)

    def save(self, path) -> None:
        """word2vec text format: `<vocab> <dim>` then one token per line."""
        with open(path, "w", encoding="utf-8") as f:
            f.write(f"{len(self.tokens)} {self.dim}\n")
            for tok, row in zip(self.tokens, self.matrix.tolist()):
                f.write(tok + " " + " ".join(map(repr, row)) + "\n")

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
        matrix = np.array(rows)
        matrix.flags.writeable = False
        return cls(dim=dim, domain=domain, tokens=tuple(tokens), matrix=matrix)


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


def _context_counts(lengths, window):
    """Per token of consecutive texts of `lengths`: how many of its contexts
    (the tokens within `window` of it in its text) lie left of it, and how
    many it has in all."""
    # In place where it can be: these are the embed stage's largest arrays.
    pos = np.arange(int(lengths.sum()))
    pos -= np.repeat(np.cumsum(lengths) - lengths, lengths)
    right = np.repeat(lengths - 1, lengths)
    right -= pos
    left = np.minimum(window, pos, out=pos)
    n_ctx = np.minimum(window, right, out=right)
    n_ctx += left
    return left, n_ctx


def _context_token(center, r, left):
    """The token of the r-th context of each center token: contexts go in
    position order, the `left[center]` ones left of it, then the right ones.

    Numbering pairs center by center, and each center's by r, is the order of
    both the probe draw and the update slots.
    """
    before = left[center]
    return center + r - before + (r >= before)


def _probe_pairs(rng, ids, lengths, window):
    """The (center, context) ids of 512 distinct pairs drawn uniformly, or
    of every pair if there are fewer; pairs are numbered text by text."""
    left, n_ctx = _context_counts(lengths, window)
    pairs = int(n_ctx.sum())
    if pairs == 0:
        raise ValidationError("skipgram corpus has no context pairs (texts too short)")
    pick = rng.choice(pairs, size=min(pairs, 512), replace=False)
    ends = np.cumsum(n_ctx)
    center = ends.searchsorted(pick, side="right")
    return ids[center], ids[_context_token(center, pick - ends[center] + n_ctx[center], left)]


def _slots(ids, lengths, window, negatives):
    """The update slots of a run of texts, text by text.

    `ids` holds the token ids of the texts, one after another, and `lengths`
    their token counts. A text's slots are its (center, context) pairs in
    center order, then `negatives` shared slots per center that has
    contexts, also in center order. Returns, per slot, the center's position
    in the run, its word id, the output row (context ids; shared slots are
    left for the caller's draws), the shared-slot mask and the weight (1 for
    a context, the center's context count k for a shared negative); and
    (first slot, first shared slot, end) of each text that has slots.
    """
    left, n_ctx = _context_counts(lengths, window)
    owner = np.repeat(np.arange(len(n_ctx)), n_ctx)
    r = np.arange(len(owner)) - np.repeat(np.cumsum(n_ctx) - n_ctx, n_ctx)
    ctx = _context_token(owner, r, left)
    active = np.flatnonzero(n_ctx)
    owner = np.concatenate([owner, np.repeat(active, negatives)])
    shared = np.arange(len(owner)) >= len(ctx)
    text = np.repeat(np.arange(len(lengths)), lengths)[owner]
    order = np.argsort(2 * text + shared, kind="stable")
    owner, shared, text = owner[order], shared[order], text[order]
    rows = np.concatenate([ids[ctx], np.zeros(len(active) * negatives, dtype=np.int64)])[order]
    weight = np.where(shared, n_ctx[owner], 1).astype(np.float64)
    per_text = np.bincount(text, minlength=len(lengths))
    ends = np.cumsum(per_text)
    firsts = ends - per_text
    mids = firsts + np.bincount(text[~shared], minlength=len(lengths))
    bounds = [(a, p, b) for a, p, b in zip(firsts.tolist(), mids.tolist(), ends.tolist())
              if b > a]
    return owner, ids[owner], rows, shared, weight, bounds


def train_skipgram(
    corpus: DomainCorpus,
    dim: int,
    window: int = 5,
    negatives: int = 5,
    epochs: int = 5,
    seed: int = 0,
) -> EmbeddingTable:
    """Skipgram with negative sampling, deterministic for a fixed seed.

    Single-threaded, fixed iteration order over texts, one update per text
    (HogBatch; Ji et al., 2016): every center word of a text is scored
    against the weights as they stood at the start of the text, then the
    whole update is applied at once, accumulating over repeated words. A
    center with k contexts draws `negatives` noise words once, from the
    unigram distribution raised to 0.75, and shares them across its
    contexts, each weighted by k so that its expected gradient is that of
    k independent sets. Each center's terms take its own step of a schedule
    that decays linearly from 0.025 to 0.0001 over all center words.
    """
    token_lists = corpus.tokens(corpus.train_split)
    counts = Counter(t for toks in token_lists for t in toks)
    vocab = sorted(counts)
    if len(vocab) < 2:
        raise ValidationError(f"skipgram needs >= 2 distinct tokens, got {len(vocab)}")
    index = {t: i for i, t in enumerate(vocab)}
    # Every text's token ids, one text after another.
    lengths = np.fromiter(map(len, token_lists), dtype=np.int64, count=len(token_lists))
    first_center = np.concatenate([[0], np.cumsum(lengths)])
    per_epoch = int(first_center[-1])
    ids = np.fromiter((index[t] for toks in token_lists for t in toks),
                      dtype=np.int64, count=per_epoch)

    freq = np.array([counts[t] for t in vocab], dtype=np.float64)
    noise = freq**0.75
    noise /= noise.sum()

    rng = np.random.default_rng(seed)
    w_in = rng.uniform(-0.5 / dim, 0.5 / dim, size=(len(vocab), dim))
    w_out = np.zeros((len(vocab), dim))

    # Fixed probe batch for the loss curve, drawn before training.
    probe_c, probe_x = _probe_pairs(rng, ids, lengths, window)
    probe_neg = rng.choice(len(vocab), size=(len(probe_c), negatives), p=noise)

    losses = [_sgns_loss(w_in, w_out, probe_c, probe_x, probe_neg)]
    cdf = _noise_cdf(noise)
    # Flat views: one 1-D np.add.at per table applies a text's update and
    # accumulates over repeated rows.
    flat_in, flat_out = w_in.reshape(-1), w_out.reshape(-1)
    cols = np.arange(dim)
    total_centers = epochs * per_epoch
    for epoch in range(epochs):
        for lo in range(0, len(lengths), TEXTS_PER_BLOCK):
            hi = min(lo + TEXTS_PER_BLOCK, len(lengths))
            owner, centers, rows, shared, weight, bounds = _slots(
                ids[first_center[lo]:first_center[hi]], lengths[lo:hi], window, negatives)
            # One draw for the block equals one per text in turn.
            rows[shared] = _draw_negatives(rng, cdf, int(shared.sum()))
            # Each slot takes its center's step of the linear schedule.
            done = epoch * per_epoch + first_center[lo] + owner
            scale = -(LR_START + (LR_END - LR_START) * (done / total_centers)) * weight
            for a, p, b in bounds:
                r, c = rows[a:b], centers[a:b]
                # Every score and gradient uses the weights at the start of the text.
                u, v = w_out[r], w_in[c]
                g = _sigmoid(np.einsum("ij,ij->i", u, v))
                g[: p - a] -= 1.0  # context slots: sigmoid - 1
                g *= scale[a:b]
                np.add.at(flat_in, (c[:, None] * dim + cols).ravel(), (g[:, None] * u).ravel())
                np.add.at(flat_out, (r[:, None] * dim + cols).ravel(), (g[:, None] * v).ravel())
        losses.append(_sgns_loss(w_in, w_out, probe_c, probe_x, probe_neg))

    log.debug("skipgram '%s': vocab=%d loss %.4f -> %.4f",
              corpus.name, len(vocab), losses[0], losses[-1])
    w_in.flags.writeable = False
    return EmbeddingTable(
        dim=dim, domain=corpus.name, tokens=tuple(vocab), matrix=w_in,
        loss_curve=tuple(losses),
    )
