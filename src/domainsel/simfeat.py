"""Ten cross-domain features for an ordered (source, target) domain pair.

f1/f2 unigram coverage ratios, f3/f4 labeled example counts, f5/f6 average
tokens per text, f7 Renyi divergence, f8 KL divergence, f9 perplexity of the
source-trained trigram model on target text, f10 mean L1 distance between
the domains' word vectors over the shared vocabulary (0.0, with a warning,
when the two domains share no token).

Divergences are taken target-from-source (how well the source covers the
target), base 2, on additively smoothed distributions over the union
vocabulary. Everything reads train splits only.
"""
from __future__ import annotations

import csv
import logging
from dataclasses import dataclass

import numpy as np

from .corpus import DomainCorpus, UnigramStats, unigram_stats
from .embed import EmbeddingTable
from .errors import ValidationError
from .ngram_lm import TrigramLM, perplexity

log = logging.getLogger(__name__)

FEATURE_NAMES = ("f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8", "f9", "f10")

DEFAULT_ALPHA = 0.99
DEFAULT_SMOOTHING = 0.5


@dataclass(frozen=True)
class FeatureVector:
    f1: float  # source unigram coverage ratio
    f2: float  # target unigram coverage ratio
    f3: int  # source labeled example count
    f4: int  # target labeled example count
    f5: float  # source avg tokens per text
    f6: float  # target avg tokens per text
    f7: float  # Renyi divergence, bits
    f8: float  # KL divergence, bits
    f9: float  # source LM perplexity on target
    f10: float  # word vector variance

    def __post_init__(self):
        values = self.as_array()
        if not np.all(np.isfinite(values)):
            raise ValidationError(f"non-finite feature value in {values}")
        if not (0.0 <= self.f1 <= 1.0 and 0.0 <= self.f2 <= 1.0):
            raise ValidationError(f"coverage ratios out of [0,1]: {self.f1}, {self.f2}")
        if self.f3 <= 0 or self.f4 <= 0:
            raise ValidationError("example counts must be positive")
        if self.f7 < 0 or self.f8 < 0 or self.f10 < 0:
            raise ValidationError("divergences and vector variance must be >= 0")
        if self.f9 < 1.0:
            raise ValidationError(f"perplexity below 1: {self.f9}")

    def as_array(self) -> np.ndarray:
        return np.array([float(getattr(self, n)) for n in FEATURE_NAMES])


@dataclass(frozen=True)
class UnigramDistribution:
    """Probabilities over an explicit token tuple; strictly positive once
    smoothed, summing to 1."""

    tokens: tuple[str, ...]
    probs: np.ndarray

    def __post_init__(self):
        if len(self.tokens) != len(self.probs):
            raise ValidationError("token/prob length mismatch")
        total = float(self.probs.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(f"probabilities sum to {total}, not 1")
        if np.any(self.probs < 0):
            raise ValidationError("negative probability")


def coverage(source_stats: UnigramStats, target_stats: UnigramStats) -> tuple[float, float]:
    """(f1, f2): shared-unigram fraction of each side's vocabulary."""
    us, ut = source_stats.support, target_stats.support
    if not us or not ut:
        raise ValidationError("coverage needs non-empty unigram supports")
    shared = len(us & ut)
    return shared / len(us), shared / len(ut)


def smoothed_pair(
    stats_a: UnigramStats, stats_b: UnigramStats, eps: float = DEFAULT_SMOOTHING
) -> tuple[UnigramDistribution, UnigramDistribution]:
    """Additive-eps distributions for both domains over the union vocabulary."""
    if eps <= 0:
        raise ValidationError(f"smoothing pseudo-count must be > 0, got {eps}")
    union = sorted(set(stats_a.counts) | set(stats_b.counts))
    ca = np.array([stats_a.counts.get(t, 0) for t in union], dtype=np.float64) + eps
    cb = np.array([stats_b.counts.get(t, 0) for t in union], dtype=np.float64) + eps
    toks = tuple(union)
    return (
        UnigramDistribution(toks, ca / ca.sum()),
        UnigramDistribution(toks, cb / cb.sum()),
    )


def _check_pair(p: UnigramDistribution, q: UnigramDistribution) -> None:
    if p.tokens != q.tokens:
        raise ValidationError("distributions are over different token sets")
    if np.any((p.probs > 0) & (q.probs == 0)):
        raise ValidationError("q has unsmoothed zeros on p's support")


def kl_divergence(p: UnigramDistribution, q: UnigramDistribution) -> float:
    """KL(p from q) in bits; zero exactly when the arrays coincide."""
    _check_pair(p, q)
    mask = p.probs > 0
    pp, qq = p.probs[mask], q.probs[mask]
    # log of the ratio (not difference of logs) so identical inputs give 0.
    return max(0.0, float(np.sum(pp * np.log2(pp / qq))))


def renyi_divergence(p: UnigramDistribution, q: UnigramDistribution, alpha: float) -> float:
    """Renyi divergence of order alpha in bits."""
    if alpha == 1.0:
        raise ValidationError("alpha = 1 is the KL limit; call kl_divergence")
    if alpha <= 0.0:
        raise ValidationError(f"alpha must be positive, got {alpha}")
    _check_pair(p, q)
    mask = p.probs > 0
    pp, qq = p.probs[mask], q.probs[mask]
    # sum p^a q^(1-a) = sum p (q/p)^(1-a); dividing by sum p cancels the
    # renormalization residue so p = q yields exactly 0.
    total = float(np.sum(pp * (qq / pp) ** (1.0 - alpha)) / np.sum(pp))
    return max(0.0, np.log2(total) / (alpha - 1.0))


def word_vector_variance(
    table_s: EmbeddingTable, table_t: EmbeddingTable, shared
) -> float:
    """Mean over shared tokens of the L1 distance between the two vectors."""
    if table_s.dim != table_t.dim:
        raise ValidationError(
            f"embedding dims differ: {table_s.dim} vs {table_t.dim}"
        )
    shared = sorted(shared)
    if not shared:
        raise ValidationError("no shared tokens for word vector variance")
    total = 0.0
    for tok in shared:
        total += float(np.abs(table_s.vector(tok) - table_t.vector(tok)).sum())
    return total / len(shared)


def feature_vector(
    source: DomainCorpus,
    target: DomainCorpus,
    source_table: EmbeddingTable,
    target_table: EmbeddingTable,
    source_lm: TrigramLM,
    alpha: float = DEFAULT_ALPHA,
    eps: float = DEFAULT_SMOOTHING,
    stats: tuple[UnigramStats, UnigramStats] | None = None,
) -> FeatureVector:
    """Assemble f1..f10 for the ordered (source, target) pair, train split only.

    `stats` passes the (source, target) `unigram_stats` of those splits when
    the caller already has them; a matrix of pairs then counts each domain's
    tokens once.
    """
    split_s, split_t = source.train_split, target.train_split
    if stats is None:
        stats = unigram_stats(source, split_s), unigram_stats(target, split_t)
    stats_s, stats_t = stats

    f1, f2 = coverage(stats_s, stats_t)
    p_s, p_t = smoothed_pair(stats_s, stats_t, eps)
    f7 = renyi_divergence(p_t, p_s, alpha)
    f8 = kl_divergence(p_t, p_s)
    f9 = perplexity(source_lm, target, split_t)
    shared = stats_s.support & stats_t.support
    shared = {t for t in shared if t in source_table and t in target_table}
    if not shared:
        log.warning("features %s -> %s: no shared token has both word vectors; "
                    "f10 is 0.0", source.name, target.name)
    f10 = word_vector_variance(source_table, target_table, shared) if shared else 0.0

    return FeatureVector(
        f1=f1,
        f2=f2,
        f3=len(source.indices(split_s)),
        f4=len(target.indices(split_t)),
        f5=stats_s.avg_tokens_per_text,
        f6=stats_t.avg_tokens_per_text,
        f7=f7,
        f8=f8,
        f9=f9,
        f10=f10,
    )


def save_feature_matrix(matrix: dict, path) -> None:
    """CSV with one row per ordered pair; floats carry 17 significant digits."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(("source", "target") + FEATURE_NAMES)
        for (s, t) in sorted(matrix):
            fv = matrix[(s, t)]
            writer.writerow(
                [s, t] + [format(float(getattr(fv, n)), ".17g") for n in FEATURE_NAMES]
            )


def load_feature_matrix(path) -> dict:
    matrix: dict = {}
    header = ["source", "target", *FEATURE_NAMES]
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        if next(reader, None) != header:
            raise ValidationError(f"{path}: line 1: unexpected feature matrix header")
        for line, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValidationError(
                    f"{path}: line {line}: {len(row)} fields, expected {len(header)}"
                )
            try:  # FeatureVector's checks raise ValidationError, a ValueError
                values = {n: float(x) for n, x in zip(FEATURE_NAMES, row[2:])}
                values["f3"], values["f4"] = int(values["f3"]), int(values["f4"])
                matrix[(row[0], row[1])] = FeatureVector(**values)
            except (ValueError, OverflowError) as e:
                raise ValidationError(f"{path}: line {line}: {e}") from None
    return matrix
