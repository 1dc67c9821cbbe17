"""Labeled text-pair corpora: ingestion, tokenization, splits, token statistics.

A domain is one corpus of (text_a, text_b, label) records with label 1 when
the two texts are similar. Everything downstream (language models, embeddings,
similarity features) consumes the immutable :class:`DomainCorpus` built here
and the tokens that each example makes on first use and keeps.
"""
from __future__ import annotations

import json
import logging
import math
import re
import sys
import unicodedata
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError

log = logging.getLogger(__name__)

SPLITS = ("train", "val", "test")

# Word characters minus underscore = alphanumeric runs (Unicode-aware).
_TOKEN_RE = re.compile(r"[^\W_]+")


def tokenize(text: str) -> list[str]:
    """Lowercase, NFC-normalize, and split on runs of non-alphanumerics.

    Pipeline code reads :attr:`TextPairExample.tokens`, which calls this
    once per text.
    """
    return _TOKEN_RE.findall(unicodedata.normalize("NFC", text).lower())


@dataclass(frozen=True)
class TextPairExample:
    text_a: str
    text_b: str
    label: int

    @cached_property
    def tokens(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """The (text_a, text_b) tokens, made on first use and kept.

        Tokens are interned, so the tokens that every example keeps share one
        string per word.
        """
        return tuple(tuple(map(sys.intern, tokenize(t))) for t in (self.text_a, self.text_b))


@dataclass(frozen=True)
class DomainCorpus:
    """Named, ordered collection of examples with optional split assignment.

    ``splits`` is aligned with ``examples``: splits[i] names the split of
    example i. Instances are immutable; operations return new corpora.
    """

    name: str
    examples: tuple[TextPairExample, ...]
    splits: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.splits is not None and len(self.splits) != len(self.examples):
            raise ValidationError(
                f"corpus '{self.name}': splits length {len(self.splits)} "
                f"!= example count {len(self.examples)}"
            )

    @property
    def train_split(self) -> str | None:
        """The split that training and features read: 'train', or None (every
        example) when the corpus has no split assignment."""
        return "train" if self.splits is not None else None

    def indices(self, split: str | None = None) -> list[int]:
        if split is None:
            return list(range(len(self.examples)))
        if split not in SPLITS:
            raise ValidationError(f"unknown split '{split}'")
        if self.splits is None:
            raise ValidationError(f"corpus '{self.name}' has no split assignment")
        return [i for i, s in enumerate(self.splits) if s == split]

    def subset(self, split: str | None = None) -> tuple[TextPairExample, ...]:
        return tuple(self.examples[i] for i in self.indices(split))

    def texts(self, split: str | None = None) -> list[str]:
        """Both texts of every selected example, in example order."""
        return [text for ex in self.subset(split) for text in (ex.text_a, ex.text_b)]

    def tokens(self, split: str | None = None) -> list[tuple[str, ...]]:
        """The tokens of each text of :meth:`texts`, in the same order."""
        return [toks for ex in self.subset(split) for toks in ex.tokens]

    def labels(self, split: str | None = None) -> list[int]:
        return [self.examples[i].label for i in self.indices(split)]

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "examples": [
                {"text_a": ex.text_a, "text_b": ex.text_b, "label": ex.label}
                for ex in self.examples
            ],
            "splits": list(self.splits) if self.splits is not None else None,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "DomainCorpus":
        examples = tuple(
            TextPairExample(e["text_a"], e["text_b"], int(e["label"]))
            for e in obj["examples"]
        )
        splits = tuple(obj["splits"]) if obj.get("splits") is not None else None
        return cls(name=obj["name"], examples=examples, splits=splits)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_json(), f, ensure_ascii=False, indent=1)

    @classmethod
    def load(cls, path) -> "DomainCorpus":
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_json(json.load(f))


@dataclass(frozen=True)
class UnigramStats:
    """Token counts over both texts of each example of one corpus (or split)."""

    counts: dict[str, int]
    total_tokens: int
    example_count: int
    avg_tokens_per_text: float  # total / (2 * example_count)

    @property
    def support(self) -> frozenset[str]:
        return frozenset(self.counts)


def _coerce_label(value, where: str) -> int:
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int) and value in (0, 1):
        return value
    if isinstance(value, float) and value in (0.0, 1.0):
        return int(value)
    raise ValidationError(f"{where}: label must be 0 or 1, got {value!r}")


def _record_to_example(rec: dict, binarize_threshold, where: str) -> TextPairExample:
    text_a = rec.get("text_a")
    text_b = rec.get("text_b")
    if not isinstance(text_a, str) or not isinstance(text_b, str):
        raise ValidationError(f"{where}: record needs string text_a and text_b")
    if binarize_threshold is not None:
        score = rec.get("score")
        if not isinstance(score, (int, float)) or isinstance(score, bool):
            raise ValidationError(f"{where}: numeric score required for binarization")
        if isinstance(score, float) and not math.isfinite(score):
            raise ValidationError(f"{where}: score must be finite, got {score!r}")
        label = 0 if score < binarize_threshold else 1
    else:
        if "label" not in rec:
            raise ValidationError(f"{where}: record has no label")
        label = _coerce_label(rec["label"], where)
    return TextPairExample(text_a, text_b, label)


def _iter_jsonl(path):
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValidationError(f"{path}: line {lineno}: invalid JSON ({e})") from e
            if not isinstance(rec, dict):
                raise ValidationError(f"{path}: line {lineno}: record must be an object")
            yield lineno, rec


def _iter_tsv(path, binarize_threshold):
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().rstrip("\n")
        cols = header.split("\t")
        if len(cols) != 3 or cols[0] != "text_a" or cols[1] != "text_b":
            raise ValidationError(
                f"{path}: line 1: expected header 'text_a<TAB>text_b<TAB>label'"
            )
        value_col = cols[2]
        if value_col not in ("label", "score"):
            raise ValidationError(f"{path}: line 1: third column must be label or score")
        if value_col == "score" and binarize_threshold is None:
            raise ValidationError(f"{path}: score column requires a binarize threshold")
        for lineno, line in enumerate(f, start=2):
            if not line.strip():
                continue
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 3:
                raise ValidationError(
                    f"{path}: line {lineno}: expected 3 tab-separated fields, got {len(fields)}"
                )
            rec: dict = {"text_a": fields[0], "text_b": fields[1]}
            try:
                rec[value_col] = float(fields[2]) if value_col == "score" else int(fields[2])
            except ValueError as e:
                raise ValidationError(f"{path}: line {lineno}: bad {value_col} value") from e
            yield lineno, rec


def load_domain(path, format: str, name: str, binarize_threshold: float | None = None) -> DomainCorpus:
    """Read a jsonl or tsv file into a DomainCorpus, preserving record order.

    With ``binarize_threshold`` t, records must carry a numeric ``score``;
    the label becomes 0 when score < t and 1 otherwise. Records whose texts
    tokenize to nothing are dropped; the dropped count is logged.
    """
    if format == "jsonl":
        records = _iter_jsonl(path)
    elif format == "tsv":
        records = _iter_tsv(path, binarize_threshold)
    else:
        raise ValidationError(f"unknown corpus format '{format}' (expected jsonl or tsv)")

    examples: list[TextPairExample] = []
    rejected = 0
    try:
        for lineno, rec in records:
            ex = _record_to_example(rec, binarize_threshold, f"{path}: line {lineno}")
            if not all(ex.tokens):
                rejected += 1
                continue
            examples.append(ex)
    except OSError as e:  # missing, a directory, unreadable
        raise ValidationError(f"corpus source {path} cannot be read: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise ValidationError(f"corpus source {path} is not UTF-8: {e}") from None
    if rejected:
        log.warning("%s: rejected %d record(s) with empty-after-tokenization text", name, rejected)
    if not examples:
        raise ValidationError(f"{path}: no usable records")
    return DomainCorpus(name=name, examples=tuple(examples))


def unigram_stats(corpus: DomainCorpus, split_filter: str | None = None) -> UnigramStats:
    """Aggregate token counts over both texts of each selected example."""
    token_lists = corpus.tokens(split_filter)
    if not token_lists:
        raise ValidationError(
            f"corpus '{corpus.name}': no examples under split filter {split_filter!r}"
        )
    counts = Counter(t for toks in token_lists for t in toks)
    total = sum(counts.values())
    n = len(token_lists) // 2
    return UnigramStats(
        counts=dict(counts),
        total_tokens=total,
        example_count=n,
        avg_tokens_per_text=total / (2 * n),
    )


def _allocate(n: int, ratios) -> list[int]:
    # Largest-remainder rounding; remainder ties go to the earlier split.
    exact = [n * r for r in ratios]
    base = [math.floor(e) for e in exact]
    order = sorted(range(len(ratios)), key=lambda i: (-(exact[i] - base[i]), i))
    for i in order[: n - sum(base)]:
        base[i] += 1
    return base


def split(corpus: DomainCorpus, ratios=(0.8, 0.1, 0.1), seed: int = 0) -> DomainCorpus:
    """Assign train/val/test splits, stratified by label, deterministic in seed.

    Every split gets at least one example; a corpus too small for that is
    rejected.
    """
    if len(ratios) != 3 or any(r <= 0 for r in ratios):
        raise ValidationError(f"ratios must be three positive numbers, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValidationError(f"ratios must sum to 1, got {ratios} (sum {sum(ratios)})")

    by_label: dict[int, list[int]] = {0: [], 1: []}
    for i, ex in enumerate(corpus.examples):
        by_label[ex.label].append(i)
    for label, idx in by_label.items():
        if len(idx) < 3:
            raise ValidationError(
                f"corpus '{corpus.name}': label {label} has {len(idx)} examples, need >= 3"
            )

    rng = np.random.default_rng(seed)
    assignment = [""] * len(corpus.examples)
    for label in (0, 1):
        idx = np.array(by_label[label])
        rng.shuffle(idx)
        quotas = _allocate(len(idx), ratios)
        pos = 0
        for split_name, quota in zip(SPLITS, quotas):
            for i in idx[pos : pos + quota]:
                assignment[int(i)] = split_name
            pos += quota
    for split_name in SPLITS:
        if split_name not in assignment:
            raise ValidationError(f"corpus '{corpus.name}': {len(assignment)} examples "
                                  f"leave the '{split_name}' split empty")
    return DomainCorpus(name=corpus.name, examples=corpus.examples, splits=tuple(assignment))
