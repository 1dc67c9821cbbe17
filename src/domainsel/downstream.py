"""Text-pair similarity classifier and the cross-domain F1 matrix.

A three-layer dense network is trained on a source domain's pair
representations and evaluated on a target domain's test split; repeating
that over every ordered pair (and every domain with itself) under a few
seeds yields the F1 matrix. Normalizing each transfer score by the
in-domain score of its target gives the success labels the meta models
learn from: a pair succeeds when F1_ST / F1_TT exceeds the threshold
strictly, or, into a target whose in-domain F1 is zero, when F1_ST > 0.

Many of those fits repeat: a plain (`none`) source classifier does not
depend on its target, and every variant's diagonal is the same fit. Both are
the identity-encoded fits, so `cross_domain_matrix` hands exactly those to a
`workspace.Memo`, keyed by the sha256 of each call's input arrays and
settings, which returns the kept model instead of training again; an equal
call already training on another thread is waited for, not repeated.
Training is deterministic, so a kept model is bit-equal to a fresh fit. An
adapted off-diagonal fit is asked for once and never kept, but every fit
takes its initial draw, one per seed and layer widths, from the same memo.
The memo's owner decides how long both live: the pipeline keeps them for one
downstream stage, D x seeds identity fits (about 5 MB at `embed.dim` 128
with the default hidden widths) and one draw per seed and input width.
"""
from __future__ import annotations

import csv
import functools
import hashlib
import json
import logging
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .optim import Adam
from .workspace import Memo

log = logging.getLogger(__name__)

DEFAULT_HIDDEN = (128, 32)
DEFAULT_SUCCESS_THRESHOLD = 0.8


def pair_input(vec_a: np.ndarray, vec_b: np.ndarray) -> np.ndarray:
    """[a ; b ; |a-b| ; a*b] along the last axis: length 4d, or (n, 4d) rows."""
    a = np.asarray(vec_a, dtype=np.float64)
    b = np.asarray(vec_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim not in (1, 2):
        raise ValidationError(
            f"pair_input needs equal 1-d or 2-d shapes, got {a.shape} vs {b.shape}"
        )
    return np.concatenate([a, b, np.abs(a - b), a * b], axis=-1)


def f1_score(predictions, labels) -> float:
    """F1 of class 1; 0 by convention when precision + recall = 0."""
    pred = np.asarray(predictions)
    y = np.asarray(labels)
    if pred.shape != y.shape or pred.ndim != 1 or len(pred) == 0:
        raise ValidationError(
            f"f1_score needs equal-length non-empty 1-d inputs, got {pred.shape} vs {y.shape}"
        )
    tp = int(np.sum((pred == 1) & (y == 1)))
    fp = int(np.sum((pred == 1) & (y == 0)))
    fn = int(np.sum((pred == 0) & (y == 1)))
    return _f1_from_counts(tp, fp, fn)


def _f1_from_counts(tp: int, fp: int, fn: int) -> float:
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2.0 * precision * recall / (precision + recall)


def _forward(params, X: np.ndarray):
    """Hidden activations z1, z2 and class-1 probabilities of X's rows."""
    w1, b1, w2, b2, w3, b3 = params
    z1 = np.tanh(X @ w1.T + b1)
    z2 = np.tanh(z1 @ w2.T + b2)
    return z1, z2, 1.0 / (1.0 + np.exp(-(z2 @ w3.T + b3)[:, 0]))


class PairClassifier:
    """Dense 3-layer net: two tanh hidden layers, sigmoid output.

    Rows are cast to the parameters' dtype (float32 for a trained model), so
    scoring runs the forward pass that validation ran during training.
    """

    def __init__(self, params: list[np.ndarray], input_dim: int, seed: int):
        self.params = params  # [w1, b1, w2, b2, w3, b3]
        self.input_dim = input_dim
        self.seed = seed

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=self.params[0].dtype)
        if X.ndim != 2 or X.shape[1] != self.input_dim:
            raise ValidationError(
                f"classifier expects (n, {self.input_dim}) inputs, got {X.shape}"
            )
        return _forward(self.params, X)[2]

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_proba(X) >= 0.5).astype(np.int64)


def _initial_state(seed: int, d: int, h1: int, h2: int):
    """Initial float32 weights of a (d, h1, h2) classifier and the generator
    state after them.

    The weights are drawn in float64 and rounded, so the generator stream
    does not depend on the training precision. Every fit with the same
    arguments starts from the same draw, so a memo may keep it, keyed by
    them. The arrays are read-only (Adam copies them); restore the state
    into a fresh generator, never mutate it.
    """
    rng = np.random.default_rng(seed)
    draws = (
        rng.normal(0.0, 1.0 / np.sqrt(d), size=(h1, d)),
        np.zeros(h1),
        rng.normal(0.0, 1.0 / np.sqrt(h1), size=(h2, h1)),
        np.zeros(h2),
        rng.normal(0.0, 1.0 / np.sqrt(h2), size=(1, h2)),
        np.zeros(1),
    )
    init = tuple(a.astype(np.float32) for a in draws)
    for a in init:
        a.flags.writeable = False
    return init, rng.bit_generator.state


def train_pair_classifier(
    X_train: np.ndarray,
    y_train: np.ndarray,
    X_val: np.ndarray,
    y_val: np.ndarray,
    seed: int,
    hidden: tuple[int, int] = DEFAULT_HIDDEN,
    max_epochs: int = 50,
    patience: int = 5,
    batch: int = 32,
    lr: float = 1e-3,
    cache: Memo | None = None,
    draws: Memo | None = None,
) -> PairClassifier:
    """Binary cross-entropy training with early stopping on validation F1.

    Trains in float32: the inputs are rounded to float32 once, after the
    checks, and the parameters, gradients and Adam moments are float32.
    Keeps the parameters of the best validation epoch (the untrained state
    counts as epoch 0), so the selected model never scores below it; its
    parameters are read-only. With a `cache`, an equal earlier call's model
    is returned from it, keyed by the float32 inputs (see the module
    docstring); without one, the call trains. A training takes its initial
    draw from `draws`, or makes it without one.
    """
    X_train = np.asarray(X_train, dtype=np.float64)
    y_train = np.asarray(y_train, dtype=np.float64)
    X_val = np.asarray(X_val, dtype=np.float64)
    y_val = np.asarray(y_val, dtype=np.float64)
    if len(X_train) == 0 or len(X_train) != len(y_train):
        raise ValidationError("empty or misaligned training set")
    if len(X_val) == 0 or len(X_val) != len(y_val):
        raise ValidationError("empty or misaligned validation set")
    if X_train.ndim != 2 or X_val.shape[1:] != X_train.shape[1:]:
        raise ValidationError(
            f"training rows {X_train.shape} and validation rows {X_val.shape} differ in width"
        )
    classes = set(y_train.tolist())
    if classes != {0.0, 1.0}:
        raise ValidationError(f"training set must contain both classes, got {classes}")

    X_train, y_train, X_val, y_val = (
        a.astype(np.float32) for a in (X_train, y_train, X_val, y_val))
    settings = (seed, tuple(hidden), max_epochs, patience, batch, lr)
    train = functools.partial(_fit, X_train, y_train, X_val, y_val, *settings, draws)
    if cache is None:
        return train()
    h = hashlib.sha256(repr(settings).encode())
    for a in (X_train, y_train, X_val, y_val):
        h.update(repr(a.shape).encode())
        h.update(np.ascontiguousarray(a))
    return cache.get(h.hexdigest(), train)


def _fit(X_train, y_train, X_val, y_val, seed, hidden, max_epochs, patience, batch, lr,
         draws):
    """The training loop of `train_pair_classifier`, on checked float32
    inputs; the returned parameters are float32 and read-only.

    Every scalar in the loop is a Python number, which leaves a float32
    array float32 under both NumPy 1 value-based casting and NumPy 2 (NEP 50)
    promotion; a float64 NumPy scalar would promote it under NumPy 2.
    """
    n, d = X_train.shape
    key = (seed, d, *hidden)
    init, state = (_initial_state(*key) if draws is None
                   else draws.get(key, lambda: _initial_state(*key)))
    rng = np.random.default_rng(seed)
    rng.bit_generator.state = state
    opt = Adam(init, lr=lr)
    params = opt.params  # views that opt.step updates in place
    w2, w3 = params[2], params[4]
    g_w1, g_b1, g_w2, g_b2, g_w3, g_b3 = opt.grads  # views that opt.step consumes
    y_val = y_val.astype(np.int64)
    positive, negative = y_val == 1, y_val == 0

    def val_f1() -> float:
        pred = _forward(params, X_val)[2] >= 0.5
        return _f1_from_counts(int(np.count_nonzero(pred & positive)),
                               int(np.count_nonzero(pred & negative)),
                               int(np.count_nonzero(positive & ~pred)))

    best_f1 = val_f1()
    best = opt.flat.copy()
    stale = 0
    for epoch in range(max_epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch):
            rows = order[start : start + batch]
            xb, yb = X_train[rows], y_train[rows]
            z1, z2, p = _forward(params, xb)
            g_logit = ((p - yb) / len(rows))[:, None]  # BCE through sigmoid
            np.matmul(g_logit.T, z2, out=g_w3)
            g_logit.sum(axis=0, out=g_b3)
            g_z2 = (g_logit @ w3) * (1.0 - z2 * z2)
            np.matmul(g_z2.T, z1, out=g_w2)
            g_z2.sum(axis=0, out=g_b2)
            g_z1 = (g_z2 @ w2) * (1.0 - z1 * z1)
            np.matmul(g_z1.T, xb, out=g_w1)
            g_z1.sum(axis=0, out=g_b1)
            opt.step()
        score = val_f1()
        if score > best_f1:
            best_f1 = score
            best[...] = opt.flat
            stale = 0
        else:
            stale += 1
            if stale >= patience:
                log.debug("early stop at epoch %d (best val F1 %.3f)", epoch, best_f1)
                break
    params = opt.unflatten(best)
    for p in params:
        p.flags.writeable = False
    return PairClassifier(params, d, seed)


@dataclass(frozen=True)
class F1Matrix:
    """Rows are sources, columns targets; diagonal holds in-domain scores."""

    domains: tuple[str, ...]
    per_seed: dict  # seed -> (D, D) array
    mean: np.ndarray
    variant: str

    def __post_init__(self):
        d = len(self.domains)
        for seed, m in self.per_seed.items():
            if m.shape != (d, d):
                raise ValidationError(f"seed {seed} matrix shape {m.shape} != ({d},{d})")
            if np.any(m < 0) or np.any(m > 1):
                raise ValidationError(f"seed {seed} matrix has entries outside [0,1]")
        expected = np.mean([self.per_seed[s] for s in sorted(self.per_seed)], axis=0)
        if not np.allclose(self.mean, expected, atol=1e-12):
            raise ValidationError("mean matrix is not the mean of per-seed matrices")

    def entry(self, source: str, target: str) -> float:
        i = self.domains.index(source)
        j = self.domains.index(target)
        return float(self.mean[i, j])


def cross_domain_matrix(
    domains,
    data,
    variant: str,
    seeds,
    encoder=None,
    cache: Memo | None = None,
    **train_kwargs,
) -> F1Matrix:
    """Train/evaluate every ordered domain pair under each seed.

    ``data[(domain, split)]`` holds (a, b, labels): the raw sentence vectors
    of both sides of a split's pairs and their labels. A pair trains on the
    source's train and val splits and is scored on the target's test split.
    A `none` pair and every diagonal use the raw vectors; any other pair
    encodes them with ``encoder(source, target)``, a function of (n, d) rows
    that is asked for once per such pair. Every seed trains on the same rows.
    The identity-encoded fits (every `none` pair and every diagonal) go
    through `cache` for reuse; the others are asked for once and train.
    Every training takes its initial draw from `cache` too.
    """
    domains = tuple(domains)
    seeds = tuple(seeds)
    d = len(domains)
    per_seed = {seed: np.zeros((d, d)) for seed in seeds}
    for i, source in enumerate(domains):
        for j, target in enumerate(domains):
            identity = variant == "none" or source == target
            enc = (lambda m: m) if identity else encoder(source, target)
            (X_tr, y_tr), (X_va, y_va), (X_te, y_te) = (
                (pair_input(enc(a), enc(b)), y) for a, b, y in
                (data[(source, "train")], data[(source, "val")], data[(target, "test")]))
            y_te = np.asarray(y_te, dtype=np.int64)
            for seed in seeds:
                clf = train_pair_classifier(X_tr, y_tr, X_va, y_va, seed=seed,
                                            cache=cache if identity else None,
                                            draws=cache, **train_kwargs)
                per_seed[seed][i, j] = f1_score(clf.predict(X_te), y_te)
        log.debug("f1 matrix variant=%s source=%s done", variant, source)
    mean = np.mean([per_seed[s] for s in sorted(per_seed)], axis=0)
    return F1Matrix(domains=domains, per_seed=per_seed, mean=mean, variant=variant)


def success_labels(matrix: F1Matrix, threshold: float = DEFAULT_SUCCESS_THRESHOLD):
    """Normalized transfer scores and strict-threshold success flags.

    Returns (normalized, success): both keyed by ordered (source, target),
    normalized(S,T) = mean F1_ST / mean F1_TT, success iff ratio > threshold.
    A target with zero in-domain F1 has no ratio (it reads inf, or nan for
    F1_ST = 0); a transfer into it succeeds iff F1_ST > 0, that is, iff
    F1_ST > threshold * F1_TT.
    """
    domains = matrix.domains
    in_domain = np.diag(matrix.mean)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = matrix.mean / in_domain
        passed = np.where(in_domain > 0, ratios > threshold, matrix.mean > 0)
    normalized = {}
    success = {}
    for i, s in enumerate(domains):
        for j, t in enumerate(domains):
            normalized[(s, t)] = float(ratios[i, j])
            success[(s, t)] = bool(passed[i, j])
    return normalized, success


def save_f1_matrix(matrix: F1Matrix, directory) -> None:
    """One CSV per seed plus the mean, and a JSON sidecar manifest."""
    def write(path, m):
        with open(path, "w", encoding="utf-8", newline="") as f:
            writer = csv.writer(f)
            writer.writerow([""] + list(matrix.domains))
            for i, s in enumerate(matrix.domains):
                writer.writerow([s] + [format(x, ".17g") for x in m[i]])

    base = f"f1_{matrix.variant}"
    for seed in sorted(matrix.per_seed):
        write(directory / f"{base}_seed{seed}.csv", matrix.per_seed[seed])
    write(directory / f"{base}_mean.csv", matrix.mean)
    manifest = {
        "variant": matrix.variant,
        "seeds": sorted(int(s) for s in matrix.per_seed),
        "domains": list(matrix.domains),
    }
    with open(directory / f"{base}.json", "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=1)


def load_f1_matrix(directory, variant: str) -> F1Matrix:
    base = f"f1_{variant}"
    with open(directory / f"{base}.json", "r", encoding="utf-8") as f:
        manifest = json.load(f)
    domains = tuple(manifest["domains"])

    def read(path):
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or rows[0][1:] != list(domains):
            raise ValidationError(f"{path}: line 1: column header mismatch")
        if len(rows) <= len(domains):
            raise ValidationError(
                f"{path}: line {len(rows) + 1}: file ends before the row of "
                f"domain '{domains[len(rows) - 1]}'"
            )
        if len(rows) > len(domains) + 1:
            raise ValidationError(
                f"{path}: line {len(domains) + 2}: extra row after the last domain"
            )
        out = np.zeros((len(domains), len(domains)))
        for i, row in enumerate(rows[1:]):
            line = i + 2
            if len(row) != len(domains) + 1:
                raise ValidationError(
                    f"{path}: line {line}: {len(row)} fields, expected {len(domains) + 1}"
                )
            if row[0] != domains[i]:
                raise ValidationError(f"{path}: line {line}: row header mismatch")
            try:
                out[i] = [float(x) for x in row[1:]]
            except ValueError as e:
                raise ValidationError(f"{path}: line {line}: {e}") from None
        return out

    per_seed = {s: read(directory / f"{base}_seed{s}.csv") for s in manifest["seeds"]}
    mean = read(directory / f"{base}_mean.csv")
    return F1Matrix(domains=domains, per_seed=per_seed, mean=mean, variant=variant)
