"""Meta-models that pick source domains for a target domain.

Two learners over pairwise corpus features, both evaluated with
leave-one-target-out (LOTO) splits and fed by one row path: `loto_rows` maps
every LOTO row key to its feature row and 0/1 label, straight from the
feature matrix, a variant's F1 matrix and the success threshold.

- Success predictor: rows are ordered (source, target) pairs, labelled by
  `success_labels`; sources are ordered by predicted success probability.
- Domain ranker: rows are (s1, s2, target) triples with s1 < s2, s1's ten
  features before s2's, labelled 1 when s1's mean F1 on the target is at
  least s2's; the pairwise preferences are aggregated into an ordering by
  repeated randomized quicksort.

Both fit on a split's train rows and score its held-out rows in one call;
they differ only in how those probabilities become an Ordering.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .downstream import F1Matrix, f1_score, success_labels
from .errors import ValidationError
from .gbdt import GBDTModel, GBDTParams, gbdt_train_cv
from .simfeat import FEATURE_NAMES

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


def loto_rows(domains, mode: str, features, matrix: F1Matrix, threshold: float) -> dict:
    """Every LOTO row of `mode` over `domains`: key -> (feature row, 0/1 label).

    features maps ordered (source, target) pairs to FeatureVector; `threshold`
    feeds the predictor's `success_labels` and is unused by the ranker. A
    pair missing from features or from the matrix raises ValidationError.
    """
    f1 = {(s, t): float(value) for s, row in zip(matrix.domains, matrix.mean)
          for t, value in zip(matrix.domains, row)}
    success = success_labels(matrix, threshold)[1] if mode == "predictor" else None

    def need(mapping, pair, what):
        if pair not in mapping:
            raise ValidationError(f"{what} missing for pair {pair}")
        return mapping[pair]

    rows = {}
    for split in loto_splits(domains, mode):
        for key in split.test:
            *sources, target = key
            pairs = [(s, target) for s in sources]
            x = np.concatenate([need(features, p, "features").as_array() for p in pairs])
            scores = [need(f1, p, "F1") for p in pairs]
            label = success[pairs[0]] if success is not None else scores[0] >= scores[1]
            rows[key] = (x, int(label))
    return rows


def _fit_and_score(rows, split: LotoSplit, params: GBDTParams, feature_names):
    """Fit on the split's train rows, then score its test rows in one call.

    When the train labels hold one class the model has no trees: every row
    then scores 0.5 and orderings fall back to name order. Returns the model,
    the test rows' probabilities in split.test order and their f1/accuracy.
    """
    X = np.array([rows[key][0] for key in split.train])
    y = np.array([float(rows[key][1]) for key in split.train])
    if len(set(y.tolist())) == 1:
        model = GBDTModel([], params.learning_rate, X.shape[1], feature_names)
    else:
        model = gbdt_train_cv(X, y, params, feature_names=feature_names)
    probs = model.predict_proba(np.array([rows[key][0] for key in split.test]))
    predicted = (probs >= 0.5).astype(np.int64)
    truth = np.array([rows[key][1] for key in split.test], dtype=np.int64)
    metrics = {"f1": f1_score(predicted, truth),
               "accuracy": float(np.mean(predicted == truth))}
    return model, probs, metrics


def success_predictor(rows, split: LotoSplit, params: GBDTParams):
    """Train on the split's train pairs, order the held-out target's sources.

    rows come from `loto_rows(..., "predictor", ...)`. Returns the fitted
    model, the Ordering for split.target (probability descending,
    name-lexicographic on ties) and the held-out f1/accuracy.
    """
    model, probs, metrics = _fit_and_score(rows, split, params, FEATURE_NAMES)
    candidates = [source for source, _ in split.test]
    order = sorted(range(len(candidates)), key=lambda i: (-probs[i], candidates[i]))
    ordering = Ordering(
        split.target,
        tuple(candidates[i] for i in order),
        tuple(float(probs[i]) for i in order),
    )
    return model, ordering, metrics


def domain_ranker(rows, split: LotoSplit, params: GBDTParams, repeats: int, seed: int):
    """Train the pairwise preference model, aggregate it into an ordering.

    rows come from `loto_rows(..., "ranker", ...)`. The comparator asks the
    model which member of the canonical pair is preferred; multi_sort
    smooths its intransitivities. Returned scores are mean positions across
    sort repeats (lower is better); also returns the model and the held-out
    f1/accuracy.
    """
    model, probs, metrics = _fit_and_score(rows, split, params, RANKER_FEATURE_NAMES)
    # The comparator only looks up the held-out pairs' scores.
    prob_of = {key[:2]: p for key, p in zip(split.test, probs.tolist())}

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
    return model, ordering, metrics


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


def multi_sort(items, noisy_less, repeats: int, seed: int = 0) -> list:
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
            raise ValidationError(f"{path}: line 1: unexpected ordering header {header}")
        for line, row in enumerate(reader, start=2):
            if len(row) != 4:
                raise ValidationError(f"{path}: line {line}: {len(row)} fields, expected 4")
            target, rank, source, score = row
            try:
                rows_by_target.setdefault(target, []).append(
                    (int(rank), source, float(score))
                )
            except ValueError as e:
                raise ValidationError(f"{path}: line {line}: {e}") from None
    orderings = {}
    for target, rows in rows_by_target.items():
        rows.sort()
        if [r for r, _, _ in rows] != list(range(1, len(rows) + 1)):
            raise ValidationError(f"{path}: ranks for {target} are not contiguous from 1")
        orderings[target] = Ordering(
            target,
            tuple(source for _, source, _ in rows),
            tuple(score for _, _, score in rows),
        )
    return orderings
