"""Synthetic text-pair domains with a planted transfer structure.

Each domain mixes a handful of topic vocabularies. A positive pair draws
one topic for both texts; a negative pair draws two different topics.
Domains whose mixtures overlap share vocabulary and decision structure,
so mixture overlap is a known ground-truth affinity between domains.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .config import child_seed
from .corpus import DomainCorpus, TextPairExample
from .errors import ValidationError

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SyntheticSpec:
    domains: tuple
    topics: tuple  # per topic: tuple of words
    mixtures: tuple  # per domain: weights over topics
    examples_per_domain: int
    tokens_per_text: int
    noise: float
    seed: int

    def __post_init__(self):
        if not self.domains or len(set(self.domains)) != len(self.domains):
            raise ValidationError("domain names must be non-empty and unique")
        if not self.topics or any(len(t) == 0 for t in self.topics):
            raise ValidationError("every topic needs at least one word")
        for topic in self.topics:
            for w in topic:
                if not (w.isalnum() and w == w.lower()):
                    raise ValidationError(
                        f"topic word {w!r} would not survive tokenization"
                    )
        if len(self.mixtures) != len(self.domains):
            raise ValidationError("one mixture per domain required")
        for name, weights in zip(self.domains, self.mixtures):
            if len(weights) != len(self.topics):
                raise ValidationError(f"mixture for {name!r} has wrong length")
            if any(w < 0 for w in weights):
                raise ValidationError(f"mixture for {name!r} has negative weight")
            if abs(sum(weights) - 1.0) > 1e-9:
                raise ValidationError(
                    f"mixture for {name!r} sums to {sum(weights)}, not 1"
                )
        if self.examples_per_domain < 6:
            raise ValidationError("need >= 6 examples per domain (3 per label)")
        if self.tokens_per_text < 1:
            raise ValidationError("tokens_per_text must be >= 1")
        if not 0.0 <= self.noise < 1.0:
            raise ValidationError(f"noise must be in [0,1), got {self.noise}")

    def effective_topics(self, domain: str) -> int:
        weights = self.mixtures[self.domains.index(domain)]
        return sum(w > 0 for w in weights)


def mixture_overlap(spec: SyntheticSpec, a: str, b: str) -> float:
    """Shared topic mass between two domains; 1 for identical mixtures."""
    for name in (a, b):
        if name not in spec.domains:
            raise ValidationError(f"unknown domain {name!r}")
    wa = spec.mixtures[spec.domains.index(a)]
    wb = spec.mixtures[spec.domains.index(b)]
    return float(sum(min(x, y) for x, y in zip(wa, wb)))


def _text(rng, spec: SyntheticSpec, topic_idx: int, noise_pool) -> str:
    low = max(1, spec.tokens_per_text - 3)
    n = int(rng.integers(low, spec.tokens_per_text + 4))
    vocab = spec.topics[topic_idx]
    words = []
    for _ in range(n):
        if spec.noise > 0.0 and rng.random() < spec.noise:
            words.append(noise_pool[int(rng.integers(len(noise_pool)))])
        else:
            words.append(vocab[int(rng.integers(len(vocab)))])
    return " ".join(words)


def synth_domain(spec: SyntheticSpec, name: str) -> DomainCorpus:
    """Generate one domain; deterministic per (spec.seed, name)."""
    if name not in spec.domains:
        raise ValidationError(f"unknown domain {name!r}")
    idx = spec.domains.index(name)
    rng = np.random.default_rng(child_seed(spec.seed, "domain", name))
    weights = np.asarray(spec.mixtures[idx], dtype=np.float64)
    weights = weights / weights.sum()
    noise_pool = sorted({w for topic in spec.topics for w in topic})

    if spec.effective_topics(name) < 2:
        log.warning(
            "domain %s draws from a single topic; negative pairs are "
            "indistinguishable from positives", name,
        )

    examples = []
    for i in range(spec.examples_per_domain):
        label = i % 2
        t_a = int(rng.choice(len(spec.topics), p=weights))
        if label == 1:
            t_b = t_a
        else:
            alt = weights.copy()
            alt[t_a] = 0.0
            if alt.sum() <= 0.0:
                t_b = t_a  # degenerate single-topic mixture
            else:
                t_b = int(rng.choice(len(spec.topics), p=alt / alt.sum()))
        examples.append(
            TextPairExample(
                _text(rng, spec, t_a, noise_pool),
                _text(rng, spec, t_b, noise_pool),
                label,
            )
        )
    return DomainCorpus(name=name, examples=tuple(examples))


def synth_names(n_domains: int) -> tuple:
    """The names of the first n synthetic domains."""
    return tuple(f"syn{i:02d}" for i in range(n_domains))


def spec_from_config(synth_cfg: dict, seed: int) -> SyntheticSpec:
    """Expand the compact config form into an explicit SyntheticSpec.

    Topic vocabularies are disjoint generated word lists; mixtures are
    Dirichlet draws, so topic overlap between domains varies and is known
    exactly from the spec.
    """
    n_domains = synth_cfg["domains"]
    n_topics = synth_cfg["topics"]
    if n_domains < 2 or n_topics < 2:
        raise ValidationError("synthetic config needs >= 2 domains and >= 2 topics")
    domains = synth_names(n_domains)
    topics = tuple(
        tuple(f"t{k:02d}w{i:03d}" for i in range(synth_cfg["words_per_topic"]))
        for k in range(n_topics)
    )
    rng = np.random.default_rng(child_seed(seed, "mixtures"))
    concentration = synth_cfg["mixture_concentration"]
    mixtures = tuple(
        tuple(float(w) for w in rng.dirichlet([concentration] * n_topics))
        for _ in range(n_domains)
    )
    return SyntheticSpec(
        domains=domains,
        topics=topics,
        mixtures=mixtures,
        examples_per_domain=synth_cfg["examples_per_domain"],
        tokens_per_text=synth_cfg["tokens_per_text"],
        noise=synth_cfg["noise"],
        seed=child_seed(seed, "generate"),
    )
