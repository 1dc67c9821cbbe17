"""Interpolated Kneser-Ney trigram language model.

Single discount D at orders 3 and 2, continuation counts at the unigram
level, and a uniform 1/|vocab| floor below that, so every query has positive
probability. Texts are padded with two <s> and one </s>; rare training
tokens and evaluation OOVs map to <unk>.
"""
from __future__ import annotations

import logging
import math
from collections import Counter

from .corpus import DomainCorpus
from .errors import ValidationError

log = logging.getLogger(__name__)

UNK = "<unk>"
BOS = "<s>"
EOS = "</s>"

_HEADER_PREFIX = "kn-trigram"


class TrigramLM:
    """Immutable after construction; safe for concurrent scoring."""

    def __init__(self, discount: float, vocab: frozenset[str], c2, c3):
        if not 0.0 < discount < 1.0:
            raise ValidationError(f"discount must be in (0, 1), got {discount}")
        self.discount = discount
        self.vocab = vocab
        self.c2 = dict(c2)
        self.c3 = dict(c3)
        self._build_derived()

    def _build_derived(self) -> None:
        D = self.discount
        # Trigram level: history strength = how often the bigram history is
        # actually continued (histories seen only text-finally back off fully).
        self._den3: Counter = Counter()
        self._types3: Counter = Counter()
        for (u, v, w), c in self.c3.items():
            self._den3[(u, v)] += c
            self._types3[(u, v)] += 1
        # Bigram level uses continuation counts: distinct left contexts.
        self._cont2: Counter = Counter()
        for (u, v, w) in self.c3:
            self._cont2[(v, w)] += 1
        self._den2: Counter = Counter()
        self._types2: Counter = Counter()
        for (v, w), c in self._cont2.items():
            self._den2[v] += c
            self._types2[v] += 1
        # Unigram continuation counts over bigram types.
        cont1: Counter = Counter()
        for (v, w) in self.c2:
            cont1[w] += 1
        bigram_types = sum(cont1.values())
        t1 = len(cont1)
        floor = 1.0 / len(self.vocab)
        lam1 = D * t1 / bigram_types
        self._p1 = {
            w: max(cont1.get(w, 0) - D, 0.0) / bigram_types + lam1 * floor
            for w in self.vocab
        }

    def map_token(self, token: str) -> str:
        return token if token in self.vocab else UNK

    def _p2(self, v: str, w: str) -> float:
        den = self._den2.get(v, 0)
        if den == 0:
            return self._p1[w]
        num = max(self._cont2.get((v, w), 0) - self.discount, 0.0)
        lam = self.discount * self._types2[v] / den
        return num / den + lam * self._p1[w]

    def prob(self, u: str, v: str, w: str) -> float:
        """p(w | u, v); tokens must already be mapped into the vocab."""
        den = self._den3.get((u, v), 0)
        if den == 0:
            return self._p2(v, w)
        num = max(self.c3.get((u, v, w), 0) - self.discount, 0.0)
        lam = self.discount * self._types3[(u, v)] / den
        return num / den + lam * self._p2(v, w)

    def save(self, path) -> None:
        """Sorted plain-text count file; reload reproduces scores exactly."""
        with open(path, "w", encoding="utf-8") as f:
            f.write(f"{_HEADER_PREFIX} D={self.discount!r} vocab={len(self.vocab)}\n")
            for tok in sorted(self.vocab):
                f.write(f"v {tok}\n")
            for (v, w), c in sorted(self.c2.items()):
                f.write(f"2 {v} {w} {c}\n")
            for (u, v, w), c in sorted(self.c3.items()):
                f.write(f"3 {u} {v} {w} {c}\n")

    @classmethod
    def load(cls, path) -> "TrigramLM":
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
            vocab = set()
            c2: dict = {}
            c3: dict = {}
            for lineno, line in enumerate(f, start=2):
                fields = line.rstrip("\n").split(" ")
                kind = fields[0]
                if kind == "v" and len(fields) == 2:
                    vocab.add(fields[1])
                elif kind == "2" and len(fields) == 4:
                    c2[(fields[1], fields[2])] = int(fields[3])
                elif kind == "3" and len(fields) == 5:
                    c3[(fields[1], fields[2], fields[3])] = int(fields[4])
                else:
                    raise ValidationError(f"{path}: line {lineno}: malformed entry")
        if len(vocab) != vocab_size:
            raise ValidationError(
                f"{path}: header claims {vocab_size} vocab entries, found {len(vocab)}"
            )
        return cls(discount, frozenset(vocab), c2, c3)


def train_kn(corpus: DomainCorpus, min_count: int = 1, discount: float = 0.75) -> TrigramLM:
    """Train on the corpus train split (the whole corpus if unsplit)."""
    token_lists = corpus.tokens(corpus.train_split)
    if not token_lists:
        raise ValidationError(f"corpus '{corpus.name}': empty training text set")
    raw = Counter(t for toks in token_lists for t in toks)
    if not raw:
        raise ValidationError("no training tokens")
    vocab = frozenset(w for w, c in raw.items() if c >= min_count) | {UNK, BOS, EOS}

    c2: Counter = Counter()
    c3: Counter = Counter()
    for toks in token_lists:
        seq = [BOS, BOS] + [w if w in vocab else UNK for w in toks] + [EOS]
        for i in range(1, len(seq)):
            c2[(seq[i - 1], seq[i])] += 1
        for i in range(2, len(seq)):
            c3[(seq[i - 2], seq[i - 1], seq[i])] += 1
    lm = TrigramLM(discount, vocab, c2, c3)
    log.debug(
        "trained kn-trigram for '%s': vocab=%d trigram_types=%d",
        corpus.name, len(lm.vocab), len(lm.c3),
    )
    return lm


def perplexity(lm: TrigramLM, corpus: DomainCorpus, split: str | None = None) -> float:
    """PPL = 2^(-(1/N) Σ log2 p), N counting every token plus </s>, not <s>."""
    token_lists = corpus.tokens(split)
    if not token_lists:
        raise ValidationError(f"corpus '{corpus.name}': nothing to evaluate")
    log2_probs: list[float] = []
    for toks in token_lists:
        seq = [BOS, BOS] + [lm.map_token(w) for w in toks] + [EOS]
        for i in range(2, len(seq)):
            log2_probs.append(math.log2(lm.prob(seq[i - 2], seq[i - 1], seq[i])))
    # fsum keeps the average exactly invariant under corpus duplication.
    return 2.0 ** (-math.fsum(log2_probs) / len(log2_probs))
