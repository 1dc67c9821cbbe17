"""Meta-models that pick source domains for a target domain.

Two learners over pairwise corpus features: a success predictor (binary
classifier on single source-target feature rows, sources ordered by
predicted probability) and a domain ranker (pairwise preference classifier
whose comparisons are aggregated into an ordering by repeated randomized
quicksort). Evaluation uses leave-one-target-out splits.
"""
from __future__ import annotations

import csv
import logging
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .gbdt import GBDTModel, GBDTParams, gbdt_train_cv
from .simfeat import FEATURE_NAMES, FeatureVector

log = logging.getLogger(__name__)

MULTISORT_REPEATS = 11

RANKER_FEATURE_NAMES = tuple(f"s1_{n}" for n in FEATURE_NAMES) + tuple(
    f"s2_{n}" for n in FEATURE_NAMES
)


@dataclass(frozen=True)
class LotoSplit:
    """One leave-one-target-out split; test rows all share `target`."""

    target: str
    train: tuple
    test: tuple


@dataclass(frozen=True)
class RankerSample:
    """Preference row for an unordered source pair against one target.

    `pair` is lexicographically ordered and `features` stacks the first
    source's ten features before the second's. label is 1 when the first
    source does at least as well on the target as the second.
    """

    target: str
    pair: tuple
    features: np.ndarray
    label: int

    def __post_init__(self):
        s1, s2 = self.pair
        if not s1 < s2:
            raise ValidationError(f"pair must be lexicographically ordered, got {self.pair}")
        if self.target in self.pair:
            raise ValidationError("target cannot appear in its own source pair")
        if self.label not in (0, 1):
            raise ValidationError(f"label must be 0 or 1, got {self.label}")
        if self.features.shape != (20,):
            raise ValidationError(f"expected 20 features, got shape {self.features.shape}")


@dataclass(frozen=True)
class Ordering:
    """Sources for one target, best first, with the score that placed them."""

    target: str
    ranked_sources: tuple
    scores: tuple

    def __post_init__(self):
        if len(self.ranked_sources) != len(set(self.ranked_sources)):
            raise ValidationError(f"duplicate sources in ordering for {self.target}")
        if self.target in self.ranked_sources:
            raise ValidationError(f"target {self.target} listed as its own source")
        if len(self.scores) != len(self.ranked_sources):
            raise ValidationError("scores and ranked_sources must align")


def loto_splits(domains, mode: str = "predictor") -> list[LotoSplit]:
    """One split per domain: its rows as test, every other target's as train.

    predictor rows are ordered (source, target) pairs; ranker rows are
    (s1, s2, target) triples with s1 < s2. Either way each row lands in
    exactly one test set.
    """
    domains = sorted(domains)
    if len(domains) != len(set(domains)):
        raise ValidationError("duplicate domain names")
    if len(domains) < 3:
        raise ValidationError(f"need >= 3 domains, got {len(domains)}")
    if mode not in ("predictor", "ranker"):
        raise ValidationError(f"unknown mode {mode!r}")

    rows = []
    for target in domains:
        others = [d for d in domains if d != target]
        if mode == "predictor":
            rows.extend((source, target) for source in others)
        else:
            rows.extend(
                (others[i], others[j], target)
                for i in range(len(others))
                for j in range(i + 1, len(others))
            )

    splits = []
    for target in domains:
        test = tuple(r for r in rows if r[-1] == target)
        train = tuple(r for r in rows if r[-1] != target)
        splits.append(LotoSplit(target, train, test))
    return splits


def build_ranker_samples(features, f1_means) -> tuple:
    """Turn pairwise features and cross-domain F1 means into preference rows.

    features maps ordered (source, target) pairs to FeatureVector; f1_means
    maps the same keys to the mean F1 a source-trained classifier reached
    on the target.
    """
    targets = sorted({t for _, t in features})
    samples = []
    for target in targets:
        sources = sorted({s for s, t in features if t == target})
        for i in range(len(sources)):
            for j in range(i + 1, len(sources)):
                s1, s2 = sources[i], sources[j]
                for key in ((s1, target), (s2, target)):
                    if key not in f1_means:
                        raise ValidationError(f"missing F1 for pair {key}")
                row = np.concatenate(
                    [features[(s1, target)].as_array(), features[(s2, target)].as_array()]
                )
                label = 1 if f1_means[(s1, target)] >= f1_means[(s2, target)] else 0
                samples.append(RankerSample(target, (s1, s2), row, label))
    return tuple(samples)


def _require(mapping, key, what):
    if key not in mapping:
        raise ValidationError(f"{what} missing for pair {key}")
    return mapping[key]


def _fit(X, y, params: GBDTParams, feature_names) -> GBDTModel:
    """gbdt_train_cv, or, when the train labels hold one class, a model with
    no trees: every row then scores 0.5 and orderings fall back to name
    order."""
    if len(np.unique(y)) == 1:
        return GBDTModel([], params.learning_rate, X.shape[1], feature_names)
    return gbdt_train_cv(X, y, params, feature_names=feature_names)


def success_predictor(features, labels, split: LotoSplit,
                      params: GBDTParams = GBDTParams()):
    """Train on the split's train pairs, order the held-out target's sources.

    features maps ordered (source, target) pairs to FeatureVector, labels
    maps them to the 0/1 success outcome. Returns the fitted model and the
    Ordering for split.target (probability descending, name-lexicographic
    on ties).
    """
    X = np.array(
        [_require(features, pair, "features").as_array() for pair in split.train]
    )
    y = np.array([float(_require(labels, pair, "label")) for pair in split.train])
    model = _fit(X, y, params, FEATURE_NAMES)

    candidates = sorted(source for source, _ in split.test)
    rows = np.array(
        [_require(features, (s, split.target), "features").as_array() for s in candidates]
    )
    probs = model.predict_proba(rows)
    order = sorted(range(len(candidates)), key=lambda i: (-probs[i], candidates[i]))
    ordering = Ordering(
        split.target,
        tuple(candidates[i] for i in order),
        tuple(float(probs[i]) for i in order),
    )
    return model, ordering


def domain_ranker(samples, split: LotoSplit, params: GBDTParams = GBDTParams(),
                  repeats: int = MULTISORT_REPEATS, seed: int = 0):
    """Train the pairwise preference model, aggregate it into an ordering.

    samples are RankerSamples covering every (s1, s2, target) row of the
    split. The comparator asks the model which member of the canonical
    pair is preferred; multi_sort smooths its intransitivities. Returned
    scores are mean positions across sort repeats (lower is better).
    """
    by_key = {(s.pair[0], s.pair[1], s.target): s for s in samples}
    train = [_require(by_key, key, "ranker sample") for key in split.train]
    test = {
        key[:2]: _require(by_key, key, "ranker sample") for key in split.test
    }
    X = np.array([s.features for s in train])
    y = np.array([float(s.label) for s in train])
    model = _fit(X, y, params, RANKER_FEATURE_NAMES)

    # Score every held-out pair once; the comparator only looks them up.
    pairs = list(test)
    probs = model.predict_proba(np.array([test[pair].features for pair in pairs]))
    prob_of = dict(zip(pairs, probs.tolist()))

    def prefers(a: str, b: str) -> bool:
        s1, s2 = (a, b) if a < b else (b, a)
        p = prob_of[(s1, s2)]
        return p >= 0.5 if a == s1 else p < 0.5

    candidates = sorted({s for key in split.test for s in key[:2]})
    ranked = multi_sort(candidates, prefers, repeats=repeats, seed=seed)
    ordering = Ordering(
        split.target,
        tuple(item for item, _ in ranked),
        tuple(pos for _, pos in ranked),
    )
    return model, ordering


def _noisy_quicksort(items: list, less) -> list:
    if len(items) <= 1:
        return list(items)
    pivot, rest = items[0], items[1:]
    left, right = [], []
    # One comparator call per element: a noisy comparator asked twice could
    # route an element into both halves or neither.
    for x in rest:
        (left if less(x, pivot) else right).append(x)
    return _noisy_quicksort(left, less) + [pivot] + _noisy_quicksort(right, less)


def multi_sort(items, noisy_less, repeats: int = MULTISORT_REPEATS, seed: int = 0) -> list:
    """Aggregate repeated randomized quicksorts of a noisy comparator.

    Each repeat quicksorts an independently shuffled copy; items are then
    ranked by mean position across repeats, ties broken by the items'
    natural order. Returns (item, mean_position) pairs, best first.
    """
    if repeats < 1:
        raise ValidationError(f"repeats must be >= 1, got {repeats}")
    items = list(items)
    if len(items) != len(set(items)):
        raise ValidationError("items must be unique")
    rng = np.random.default_rng(seed)
    totals = {item: 0.0 for item in items}
    for _ in range(repeats):
        shuffled = [items[i] for i in rng.permutation(len(items))]
        for pos, item in enumerate(_noisy_quicksort(shuffled, noisy_less)):
            totals[item] += pos
    mean_pos = {item: totals[item] / repeats for item in items}
    return sorted(((it, mean_pos[it]) for it in items), key=lambda t: (t[1], t[0]))


def save_orderings(orderings, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["target", "rank", "source", "score"])
        for ordering in sorted(orderings, key=lambda o: o.target):
            for rank, (source, score) in enumerate(
                zip(ordering.ranked_sources, ordering.scores), start=1
            ):
                writer.writerow([ordering.target, rank, source, format(score, ".17g")])


def load_orderings(path) -> dict:
    rows_by_target: dict[str, list] = {}
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != ["target", "rank", "source", "score"]:
            raise ValidationError(f"unexpected ordering header {header}")
        for row in reader:
            target, rank, source, score = row
            rows_by_target.setdefault(target, []).append(
                (int(rank), source, float(score))
            )
    orderings = {}
    for target, rows in rows_by_target.items():
        rows.sort()
        if [r for r, _, _ in rows] != list(range(1, len(rows) + 1)):
            raise ValidationError(f"ranks for {target} are not contiguous from 1")
        orderings[target] = Ordering(
            target,
            tuple(source for _, source, _ in rows),
            tuple(score for _, _, score in rows),
        )
    return orderings
