"""Interpolated Kneser-Ney trigram language model.

Single discount D at orders 3 and 2, continuation counts at the unigram
level, and a uniform 1/|vocab| floor below that, so every query has positive
probability. Texts are padded with two <s> and one </s>; rare training
tokens and evaluation OOVs map to <unk>.

The model stores n-grams as sorted int64 keys over token ids. A token's id
is its position in ``sorted(vocab)``, and an n-gram's key is its ids read as
the digits of a base-|vocab| number: ``v*V + w`` and ``(u*V + v)*V + w``.
Numeric key order is therefore the tuple order of the token strings, which
is the order of the count file's lines.

The count file is the model's only serialized form: a header line, the
vocabulary lines, then the bigram and the trigram lines, each block sorted.
`load` needs the whole vocabulary before the first count line and reads the
file one line at a time; `save` writes a bounded chunk of lines at a time.
"""
from __future__ import annotations

import logging
import math
from collections import Counter
from itertools import chain

import numpy as np

from .corpus import DomainCorpus
from .errors import ValidationError

log = logging.getLogger(__name__)

UNK = "<unk>"
BOS = "<s>"
EOS = "</s>"

_HEADER_PREFIX = "kn-trigram"

# The largest vocabulary V whose V**3, and so every trigram key, fits in int64.
MAX_VOCAB = 2**21 - 1


def token_ids(vocab) -> dict[str, int]:
    """Each token's position in sorted(vocab): the ids that keys are made of."""
    if len(vocab) > MAX_VOCAB:
        raise ValidationError(
            f"vocabulary of {len(vocab)} tokens exceeds {MAX_VOCAB}, the most "
            "whose trigram keys fit in int64"
        )
    return {tok: i for i, tok in enumerate(sorted(vocab))}


def _frozen(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _find(keys, queries):
    """Index of each query in the sorted keys, and whether it is there."""
    i = np.minimum(np.searchsorted(keys, queries), len(keys) - 1)
    return i, keys[i] == queries


class _Level:
    """One interpolated order: counts of sorted keys, and per history (key // V)
    the total count `den` and the number of distinct continuations `types`."""

    def __init__(self, keys, counts, V: int):
        self.keys, self.counts = keys, counts
        self.hist, first = np.unique(keys // V, return_index=True)
        self.den = np.add.reduceat(counts, first)
        self.types = np.diff(first, append=len(keys))
        self.V = V
        _frozen(keys, counts, self.hist, self.den, self.types)

    def interpolate(self, keys, lower, discount: float):
        """p = max(c - D, 0)/den + (D*types/den) * lower, or lower when the
        history has no count."""
        i, seen = _find(self.hist, keys // self.V)
        den = np.where(seen, self.den[i], 0)
        types = np.where(seen, self.types[i], 0)
        j, found = _find(self.keys, keys)
        count = np.where(found, self.counts[j], 0)
        safe = np.where(den == 0, 1, den)
        num = np.maximum(count - discount, 0.0)
        lam = discount * types / safe
        return np.where(den == 0, lower, num / safe + lam * lower)


class TrigramLM:
    """Immutable after construction; safe for concurrent scoring.

    `ids` maps each vocabulary token to its position in the sorted
    vocabulary (see `token_ids`); `bigrams` and `trigrams` are (sorted
    unique keys, counts) pairs of int64 arrays over those ids.
    """

    def __init__(self, discount: float, ids: dict[str, int], bigrams, trigrams):
        if not 0.0 < discount < 1.0:
            raise ValidationError(f"discount must be in (0, 1), got {discount}")
        keys2, keys3 = bigrams[0], trigrams[0]
        if not (len(keys2) and len(keys3)):
            raise ValidationError("kn-trigram model needs bigram and trigram counts")
        self.discount = discount
        self.vocab = frozenset(ids)
        self._ids = ids
        self.V = V = len(ids)
        self._bigrams, self._trigrams = _frozen(*bigrams), trigrams
        # Trigram level: history strength = how often the bigram history is
        # actually continued (histories seen only text-finally back off fully).
        self._trigram = _Level(*trigrams, V)
        # Bigram level uses continuation counts: distinct left contexts.
        self._bigram = _Level(*np.unique(keys3 % (V * V), return_counts=True), V)
        # Unigram continuation counts over bigram types.
        cont1 = np.bincount(keys2 % V, minlength=V)
        bigram_types = len(keys2)
        lam1 = discount * np.count_nonzero(cont1) / bigram_types
        self._p1, = _frozen(np.maximum(cont1 - discount, 0.0) / bigram_types + lam1 * (1.0 / V))

    def _grams(self, keys, n: int):
        """The token tuple of each n-gram key, in key order."""
        tokens = list(self._ids)  # in id order, which is sorted order
        columns = [(keys // self.V**k % self.V).tolist() for k in range(n - 1, -1, -1)]
        return zip(*([tokens[i] for i in column] for column in columns))

    def _probs(self, keys):
        """p(w | u, v) for each trigram key (u*V + v)*V + w."""
        V, D = self.V, self.discount
        p2 = self._bigram.interpolate(keys % (V * V), self._p1[keys % V], D)
        return self._trigram.interpolate(keys, p2, D)

    def prob(self, u: str, v: str, w: str) -> float:
        """p(w | u, v); tokens must already be mapped into the vocab."""
        ids = self._ids
        return float(self._probs(np.array([(ids[u] * self.V + ids[v]) * self.V + ids[w]]))[0])

    def save(self, path) -> None:
        """Sorted plain-text count file; reload reproduces scores exactly."""
        with open(path, "w", encoding="utf-8") as f:
            f.write(f"{_HEADER_PREFIX} D={self.discount!r} vocab={self.V}\n")
            f.writelines(f"v {tok}\n" for tok in self._ids)
            for n, (keys, counts) in ((2, self._bigrams), (3, self._trigrams)):
                for lo in range(0, len(keys), 1024):  # bounds the lines made at once
                    chunk = slice(lo, lo + 1024)
                    f.writelines(f"{n} {' '.join(gram)} {c}\n" for gram, c in
                                 zip(self._grams(keys[chunk], n), counts[chunk].tolist()))

    @classmethod
    def load(cls, path) -> "TrigramLM":
        """Read a count file one line at a time: the vocabulary lines first,
        then each count line straight into its order's keys and counts."""
        with open(path, "r", encoding="utf-8") as f:
            header = f.readline().rstrip("\n").split()
            if (
                len(header) != 3
                or header[0] != _HEADER_PREFIX
                or not header[1].startswith("D=")
                or not header[2].startswith("vocab=")
            ):
                raise ValidationError(f"{path}: not a kn-trigram count file")
            discount = float(header[1][2:])
            vocab_size = int(header[2][6:])
            rows = ((lineno, line.rstrip("\n").split(" "))
                    for lineno, line in enumerate(f, start=2))
            vocab, row = set(), None
            for row in rows:
                if row[1][0] != "v" or len(row[1]) != 2:
                    break
                vocab.add(row[1][1])
            else:
                row = None
            if len(vocab) != vocab_size:
                where = f"line {row[0]}: " if row else ""
                raise ValidationError(f"{path}: {where}header claims {vocab_size} "
                                      f"vocab entries, found {len(vocab)}")
            if not {UNK, BOS, EOS} <= vocab:
                raise ValidationError(f"{path}: vocab lacks {UNK}, {BOS} or {EOS}")
            ids = token_ids(vocab)
            grams = {n: ([], []) for n in (2, 3)}
            for lineno, fields in chain([row] if row else [], rows):
                kind = fields[0]
                if kind not in ("2", "3") or len(fields) != int(kind) + 2:
                    raise ValidationError(f"{path}: line {lineno}: malformed entry")
                keys, counts = grams[int(kind)]
                try:
                    key = 0
                    for tok in fields[1:-1]:
                        key = key * vocab_size + ids[tok]
                    count = int(fields[-1])
                    if not -2**63 <= count < 2**63:
                        raise OverflowError  # no int64 holds it
                except (KeyError, ValueError, OverflowError):
                    raise ValidationError(f"{path}: line {lineno}: malformed entry") from None
                if keys and key <= keys[-1]:
                    raise ValidationError(
                        f"{path}: line {lineno}: entry out of order or repeated")
                keys.append(key)
                counts.append(count)
        return cls(discount, ids, *(tuple(np.array(a, dtype=np.int64) for a in pair)
                                    for pair in grams.values()))


def _padded(ids: dict[str, int], token_lists):
    """Ids of every text padded to <s> <s> ... </s>, end to end, and the
    offset where each text starts."""
    unk, bos, eos = ids[UNK], ids[BOS], ids[EOS]
    flat = np.fromiter(
        chain.from_iterable((bos, bos, *[ids.get(t, unk) for t in toks], eos)
                            for toks in token_lists),
        dtype=np.int64,
    )
    lengths = np.array([len(toks) + 3 for toks in token_lists], dtype=np.int64)
    return flat, np.cumsum(lengths) - lengths


def _ngram_keys(flat, starts, V: int, n: int):
    """Key of every n-gram inside one padded text, in text order."""
    inside = np.ones(len(flat), dtype=bool)
    for k in range(n - 1):
        inside[starts + k] = False
    ends = np.flatnonzero(inside)
    keys = flat[ends - (n - 1)]
    for k in range(n - 2, -1, -1):
        keys = keys * V + flat[ends - k]
    return keys


def train_kn(corpus: DomainCorpus, min_count: int = 1, discount: float = 0.75) -> TrigramLM:
    """Train on the corpus train split (the whole corpus if unsplit)."""
    token_lists = corpus.tokens(corpus.train_split)
    if not token_lists:
        raise ValidationError(f"corpus '{corpus.name}': empty training text set")
    raw = Counter(t for toks in token_lists for t in toks)
    if not raw:
        raise ValidationError("no training tokens")
    ids = token_ids(frozenset(w for w, c in raw.items() if c >= min_count) | {UNK, BOS, EOS})
    flat, starts = _padded(ids, token_lists)
    lm = TrigramLM(discount, ids,
                   *(np.unique(_ngram_keys(flat, starts, len(ids), n), return_counts=True)
                     for n in (2, 3)))
    log.debug(
        "trained kn-trigram for '%s': vocab=%d trigram_types=%d",
        corpus.name, lm.V, len(lm._trigrams[0]),
    )
    return lm


def perplexity(lm: TrigramLM, corpus: DomainCorpus, split: str | None = None) -> float:
    """PPL = 2^(-(1/N) Σ log2 p), N counting every token plus </s>, not <s>."""
    token_lists = corpus.tokens(split)
    if not token_lists:
        raise ValidationError(f"corpus '{corpus.name}': nothing to evaluate")
    flat, starts = _padded(lm._ids, token_lists)
    probs = lm._probs(_ngram_keys(flat, starts, lm.V, 3)).tolist()
    # fsum keeps the average exactly invariant under corpus duplication.
    return 2.0 ** (-math.fsum(map(math.log2, probs)) / len(probs))
