"""Gradient-boosted regression trees with logistic loss.

Small-data binary classifier used by the meta models. Exact greedy split
search over observed feature values (split condition x <= v for a training
value v, so predictions are invariant under strictly monotone feature
transforms), second-order leaf weights, gain-based importances. All ties
break deterministically: lowest feature index, then lowest threshold.
"""
from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class GBDTParams:
    trees: int = 200
    depth: int = 3
    learning_rate: float = 0.1
    reg_lambda: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.trees < 1 or self.depth < 1:
            raise ValidationError("trees and depth must be >= 1")
        if self.learning_rate <= 0:
            raise ValidationError("learning_rate must be > 0")
        if not self.reg_lambda >= 0:  # also rejects NaN
            raise ValidationError(f"reg_lambda must be >= 0, got {self.reg_lambda}")


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60, 60)))


def _build_tree(X, g, h, rows, depth, reg_lambda):
    gr, hr = g[rows], h[rows]
    G = float(gr.sum())
    H = float(hr.sum())
    if depth == 0 or len(rows) < 2:
        return {"leaf": -G / (H + reg_lambda)}

    # One split search for all features at once. Each column is ordered by
    # a stable sort of this node's rows, so its prefix sums (and hence the
    # gain bits) are those of a per-feature search over the same rows.
    Xr = X[rows]
    order = np.argsort(Xr, axis=0, kind="stable")
    xs = np.take_along_axis(Xr, order, axis=0)
    GL = np.cumsum(gr[order], axis=0)[:-1]
    HL = np.cumsum(hr[order], axis=0)[:-1]
    GR, HR = G - GL, H - HL
    gains = 0.5 * (
        GL * GL / (HL + reg_lambda)
        + GR * GR / (HR + reg_lambda)
        - G * G / (H + reg_lambda)
    )
    gains = np.where(xs[:-1] < xs[1:], gains, -np.inf)  # cut only between distinct values
    col_best = gains.max(axis=0)
    f = int(np.argmax(col_best))  # first max = lowest feature
    best_gain = float(col_best[f])
    if best_gain <= 0.0:
        return {"leaf": -G / (H + reg_lambda)}
    k = int(np.argmax(gains[:, f]))  # first max = lowest threshold
    threshold = float(xs[k, f])
    left_rows = rows[order[: k + 1, f]]
    right_rows = rows[order[k + 1 :, f]]
    return {
        "feature": f,
        "threshold": threshold,
        "gain": best_gain,
        "left": _build_tree(X, g, h, left_rows, depth - 1, reg_lambda),
        "right": _build_tree(X, g, h, right_rows, depth - 1, reg_lambda),
    }


def _tree_predict(node, X):
    if "leaf" in node:
        return np.full(len(X), node["leaf"])
    go_left = X[:, node["feature"]] <= node["threshold"]
    out = np.empty(len(X))
    out[go_left] = _tree_predict(node["left"], X[go_left])
    out[~go_left] = _tree_predict(node["right"], X[~go_left])
    return out


def _collect_gains(node, acc):
    if "leaf" in node:
        return
    acc[node["feature"]] += node["gain"]
    _collect_gains(node["left"], acc)
    _collect_gains(node["right"], acc)


class GBDTModel:
    def __init__(self, trees, learning_rate, n_features, feature_names=None):
        self.trees = trees
        self.learning_rate = learning_rate
        self.n_features = n_features
        self.feature_names = (
            tuple(feature_names)
            if feature_names is not None
            else tuple(f"x{i}" for i in range(n_features))
        )

    def predict_margin(self, X, n_trees: int | None = None) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValidationError(
                f"model expects (n, {self.n_features}) inputs, got {X.shape}"
            )
        margin = np.zeros(len(X))
        for tree in self.trees[: n_trees if n_trees is not None else len(self.trees)]:
            margin += self.learning_rate * _tree_predict(tree, X)
        return margin

    def predict_proba(self, X) -> np.ndarray:
        return _sigmoid(self.predict_margin(X))

    def predict(self, X) -> np.ndarray:
        return (self.predict_proba(X) >= 0.5).astype(np.int64)

    def feature_importance(self) -> dict[str, float]:
        """Total split gain per feature, normalized to sum 1."""
        gains = np.zeros(self.n_features)
        for tree in self.trees:
            _collect_gains(tree, gains)
        total = gains.sum()
        if total > 0:
            gains = gains / total
        return {name: float(gains[i]) for i, name in enumerate(self.feature_names)}

    def save(self, path) -> None:
        blob = {
            "learning_rate": self.learning_rate,
            "n_features": self.n_features,
            "feature_names": list(self.feature_names),
            "trees": self.trees,
        }
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(blob))  # C encoder; json.dump uses the Python one

    @classmethod
    def load(cls, path) -> "GBDTModel":
        with open(path, "r", encoding="utf-8") as f:
            blob = json.load(f)
        return cls(
            blob["trees"], blob["learning_rate"], blob["n_features"],
            blob["feature_names"],
        )


def _check_training_inputs(X, y):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or len(X) != len(y) or len(X) < 2:
        raise ValidationError(f"need >= 2 aligned rows, got X {X.shape}, y {y.shape}")
    if set(np.unique(y)) != {0.0, 1.0}:
        raise ValidationError("training labels must contain both classes")
    return X, y


def gbdt_train(X, y, params: GBDTParams, feature_names=None,
               n_trees: int | None = None) -> GBDTModel:
    """Fit boosting rounds on logistic loss; fully deterministic."""
    X, y = _check_training_inputs(X, y)
    n_trees = params.trees if n_trees is None else n_trees
    margin = np.zeros(len(X))
    trees = []
    rows = np.arange(len(X))
    for _round in range(n_trees):
        p = _sigmoid(margin)
        g = p - y
        h = p * (1.0 - p)
        tree = _build_tree(X, g, h, rows, params.depth, params.reg_lambda)
        trees.append(tree)
        margin += params.learning_rate * _tree_predict(tree, X)
    return GBDTModel(trees, params.learning_rate, X.shape[1], feature_names)


def _stratified_folds(y, folds, seed):
    rng = np.random.default_rng(seed)
    assignment = np.zeros(len(y), dtype=np.int64)
    for label in (0.0, 1.0):
        idx = np.nonzero(y == label)[0]
        rng.shuffle(idx)
        for pos, row in enumerate(idx):
            assignment[row] = pos % folds
    return assignment


def _logloss(p, y):
    p = np.clip(p, 1e-15, 1.0 - 1e-15)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def gbdt_train_cv(X, y, params: GBDTParams, feature_names=None, folds: int = 5) -> GBDTModel:
    """Select the boosting-round count by stratified CV, then refit fully.

    The fold count shrinks to the minority-class size when that class is
    too small; with fewer than 2 minority examples CV is skipped and the
    full tree budget is used.
    """
    X, y = _check_training_inputs(X, y)
    min_class = int(min(np.sum(y == 0), np.sum(y == 1)))
    folds = min(folds, min_class)
    if folds < 2:
        log.warning("minority class too small for CV; using all %d trees", params.trees)
        return gbdt_train(X, y, params, feature_names)

    assignment = _stratified_folds(y, folds, params.seed)
    losses = np.zeros((folds, params.trees))
    for fold in range(folds):
        tr = assignment != fold
        va = ~tr
        model = gbdt_train(X[tr], y[tr], params, feature_names)
        margin = np.zeros(int(va.sum()))
        for t, tree in enumerate(model.trees):
            margin += params.learning_rate * _tree_predict(tree, X[va])
            losses[fold, t] = _logloss(_sigmoid(margin), y[va])
    mean_loss = losses.mean(axis=0)
    best_rounds = int(np.argmin(mean_loss)) + 1  # first minimum = fewest trees
    log.debug("cv selected %d trees (mean logloss %.4f)", best_rounds, mean_loss.min())
    return gbdt_train(X, y, params, feature_names, n_trees=best_rounds)
