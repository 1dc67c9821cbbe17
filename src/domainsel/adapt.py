"""Domain adaptation encoders bridging source and target feature spaces.

Four variants: `none` passes representations through (plain transfer), `sda`
is a three-layer gradient-trained denoising autoencoder stack with Gaussian
corruption, and `msda` / `msdar` are marginalized stacks solved in closed
form, the latter with a domain-classifier regularizer pulling target
reconstructions toward the source side.

Marginalized corruption is feature dropout with probability p; the bias row
is never dropped. All second-moment matrices are sums over columns.

A trained model is its `arrays`, the tuple that its file stores in order.
"""
from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, fields

import numpy as np

from .config import VARIANTS
from .errors import ComputationError, ValidationError
from .optim import Adam

log = logging.getLogger(__name__)

RIDGE_JITTER = 1e-8
DOMAIN_CLF_PENALTY = 1e-3
REFINE_ROUNDS = 3


@dataclass(frozen=True)
class AdaptConfig:
    variant: str = "none"
    layers: int = 5
    dropout_p: float = 0.6
    lam: float = 1.0
    reg_target: float = 1.0
    noise_scale: float = 1.0
    sda_epochs: int = 30
    sda_batch: int = 32
    sda_lr: float = 1e-3

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValidationError(f"unknown adapt variant '{self.variant}'")
        if self.layers < 1:
            raise ValidationError(f"layers must be >= 1, got {self.layers}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValidationError(f"dropout_p must be in [0,1), got {self.dropout_p}")
        if self.lam < 0:
            raise ValidationError(f"lambda must be >= 0, got {self.lam}")
        if self.noise_scale < 0:
            raise ValidationError(f"noise_scale must be >= 0, got {self.noise_scale}")


# AdaptConfig fields other than `variant`, in declaration order: the settings
# read from the `adapt` config section, and a saved model's "config" keys.
CONFIG_FIELDS = tuple(f.name for f in fields(AdaptConfig) if f.name != "variant")


def _param_shapes(cfg: AdaptConfig, input_dim: int) -> list:
    """Shapes of a model's parameter arrays, in their order in a saved model."""
    d = input_dim
    if cfg.variant == "sda":
        return [[d, d], [d], [d, d], [d], [d]] * cfg.layers
    if cfg.variant in ("msda", "msdar"):
        return [[d, d + 1]] * cfg.layers
    return []


def _with_bias(X: np.ndarray) -> np.ndarray:
    return np.vstack([X, np.ones(X.shape[1])])


def _solve_right(A: np.ndarray, B: np.ndarray, what: str) -> np.ndarray:
    """Solve W A = B for W with A symmetric."""
    try:
        return np.linalg.solve(A.T, B.T).T
    except np.linalg.LinAlgError as e:
        cond = float(np.linalg.cond(A))
        raise ComputationError(
            f"{what}: singular system after jitter (condition estimate {cond:.3e})"
        ) from e


def _jittered(A: np.ndarray) -> np.ndarray:
    """A plus a ridge of RIDGE_JITTER times its mean diagonal entry."""
    return A + (RIDGE_JITTER * np.trace(A) / len(A)) * np.eye(len(A))


def _refined(solve, apply, rhs: np.ndarray) -> np.ndarray:
    """W with apply(W) = rhs, from `solve`, a jittered inverse of `apply`;
    residual refinement removes the jitter's bias from the solution."""
    W = solve(rhs)
    for _ in range(REFINE_ROUNDS):
        residual = rhs - apply(W)
        if np.linalg.norm(residual) < 1e-9:
            break
        W = W + solve(residual)
    return W


def _corruption_moments(Xb: np.ndarray, dropout_p: float):
    """Q (full), P (feature rows) of the marginalized dropout moments of Xb.

    Q = sum_c E[x~ x~^T], P = sum_c E[x x~^T] with independent per-feature
    dropout keeping probability q = 1 - p and the bias row kept always.
    """
    d1, _ = Xb.shape
    q = np.full(d1, 1.0 - dropout_p)
    q[-1] = 1.0
    S = Xb @ Xb.T
    Q = S * np.outer(q, q)
    np.fill_diagonal(Q, q * np.diag(S))
    P = S[: d1 - 1] * q[None, :]
    return Q, P, q


def msda_layer(X: np.ndarray, dropout_p: float) -> np.ndarray:
    """Closed-form marginalized denoising map W (d x (d+1), bias last)."""
    d, n = X.shape
    if n < 2:
        raise ValidationError(f"msda_layer needs >= 2 columns, got {n}")
    Xb = _with_bias(X)
    Q, P, _ = _corruption_moments(Xb, dropout_p)
    Q_j = _jittered(Q)
    return _refined(lambda B: _solve_right(Q_j, B, "msda_layer"), lambda W: W @ Q, P)


def fit_domain_classifier(X_s: np.ndarray, X_t: np.ndarray,
                          penalty: float = DOMAIN_CLF_PENALTY) -> np.ndarray:
    """Ridge linear scorer u with source columns 1, target columns 0."""
    X = np.hstack([X_s, X_t])
    y = np.concatenate([np.ones(X_s.shape[1]), np.zeros(X_t.shape[1])])
    A = X @ X.T + penalty * np.eye(X.shape[0])
    try:
        return np.linalg.solve(A, X @ y)
    except np.linalg.LinAlgError as e:
        raise ComputationError("domain classifier ridge solve failed") from e


def msdar_layer(X_s: np.ndarray, X_t: np.ndarray, cfg: AdaptConfig) -> np.ndarray:
    """Marginalized layer with domain regularization.

    Stationarity of E||X - W x~||^2 + lam * sum_target E(R - u^T W x~)^2:
        W Q + lam u u^T W Q_t = P + lam R u m_t^T =: C
    solved by the rank-one reduction z^T = u^T C (Q + lam |u|^2 Q_t)^{-1},
    W = (C - lam u z^T Q_t) Q^{-1}, then residual-refined so the jittered
    solves still satisfy the unjittered stationarity tightly (`_refined`).
    """
    if X_s.shape[0] != X_t.shape[0]:
        raise ValidationError(
            f"source/target dims differ: {X_s.shape[0]} vs {X_t.shape[0]}"
        )
    if X_s.shape[1] == 0 or X_t.shape[1] == 0:
        raise ValidationError("msdar_layer needs non-empty source and target")
    lam, R = cfg.lam, cfg.reg_target

    Xb = _with_bias(np.hstack([X_s, X_t]))
    Q, P, q = _corruption_moments(Xb, cfg.dropout_p)
    Xb_t = _with_bias(X_t)
    Q_t, _, _ = _corruption_moments(Xb_t, cfg.dropout_p)
    m_t = q * Xb_t.sum(axis=1)
    u = fit_domain_classifier(X_s, X_t)

    C = P + lam * R * np.outer(u, m_t)
    M_j = _jittered(Q + lam * float(u @ u) * Q_t)
    Q_j = _jittered(Q)

    def solve_stationarity(rhs: np.ndarray) -> np.ndarray:
        z = np.linalg.solve(M_j, rhs.T @ u)  # z^T = u^T rhs M^{-1}
        return _solve_right(Q_j, rhs - lam * np.outer(u, z @ Q_t), "msdar_layer")

    return _refined(solve_stationarity,
                    lambda W: W @ Q + lam * np.outer(u, (u @ W) @ Q_t), C)


class AdaptModel:
    """Trained encoder; immutable and safe for concurrent encode calls.

    `arrays` are the parameters in their file order (`_param_shapes`): w1,
    b1, w2, b2, noise_std per sda layer, the map W per marginalized layer;
    a loaded model's are read-only views over the file's bytes.
    `loss_curves` holds an sda model's per-layer training losses (the
    untrained loss, then one per epoch); it is saved with the model and
    never read by `encode`.
    """

    def __init__(self, cfg: AdaptConfig, input_dim: int, arrays, loss_curves=()):
        self.cfg = cfg
        self.variant = cfg.variant
        self.input_dim = input_dim
        self.arrays = tuple(arrays)
        self.loss_curves = loss_curves

    def encode(self, X: np.ndarray) -> np.ndarray:
        if X.ndim != 2 or X.shape[0] != self.input_dim:
            raise ValidationError(
                f"encode expects {self.input_dim} rows, got shape {X.shape}"
            )
        if self.variant == "none":
            return X
        if self.variant == "sda":
            H = X
            for w1, b1 in zip(self.arrays[0::5], self.arrays[1::5]):
                H = np.tanh(w1 @ H + b1[:, None])
            return H
        outputs = [X]
        H = X
        for W in self.arrays:
            out = W @ _with_bias(H)
            outputs.append(out)
            H = np.tanh(out)
        return np.vstack(outputs)

    def save(self, path) -> None:
        """One JSON header line, padded so that the arrays start 8-byte
        aligned, then every parameter array as raw little-endian float64.

        Written in place: `workspace.run_stage` unrecords a job's outputs
        before it rebuilds them, so a write killed halfway is rebuilt.
        """
        header = {
            "variant": self.variant,
            "config": {name: getattr(self.cfg, name) for name in CONFIG_FIELDS},
            "input_dim": self.input_dim,
            "shapes": [list(a.shape) for a in self.arrays],
        }
        if self.loss_curves:
            header["loss_curves"] = [list(curve) for curve in self.loss_curves]
        line = json.dumps(header).encode("utf-8")
        line += b" " * (-(len(line) + 1) % 8) + b"\n"
        with open(path, "wb") as f:
            f.write(line)
            for a in self.arrays:
                f.write(np.ascontiguousarray(a, dtype="<f8"))

    @classmethod
    def load(cls, path) -> "AdaptModel":
        """The model saved at `path`, with read-only arrays over the file's bytes."""
        with open(path, "rb") as f:
            data = f.read()
        end = data.find(b"\n")
        try:
            if end < 0:
                raise ValueError("no header line")
            header = json.loads(data[:end])
            cfg = AdaptConfig(variant=header["variant"], **header["config"])
            input_dim = header["input_dim"]
            if not isinstance(input_dim, int) or input_dim < 1:
                raise ValueError(f"input_dim {input_dim!r}")
            shapes = _param_shapes(cfg, input_dim)
            if header["shapes"] != shapes:
                raise ValueError("array shapes do not match the config")
            curves = [tuple(float(x) for x in curve)
                      for curve in header.get("loss_curves", ())]
        except (ValueError, KeyError, TypeError) as e:
            raise ValidationError(f"{path}: bad adapt model header: {e}") from None
        sizes = [math.prod(shape) for shape in shapes]
        offset = end + 1
        if len(data) - offset != 8 * sum(sizes):
            raise ValidationError(
                f"{path}: {len(data) - offset} bytes of arrays, the header's "
                f"shapes need {8 * sum(sizes)}"
            )
        arrays = []
        for shape, size in zip(shapes, sizes):
            arrays.append(np.frombuffer(data, "<f8", size, offset).reshape(shape))
            offset += 8 * size
        return cls(cfg, input_dim, arrays, curves)


def stack_marginalized(X_s: np.ndarray, X_t: np.ndarray, cfg: AdaptConfig) -> AdaptModel:
    """Greedy closed-form stack; layer k trains on tanh of layer k-1 output."""
    if cfg.variant not in ("msda", "msdar"):
        raise ValidationError(f"stack_marginalized got variant '{cfg.variant}'")
    h_s, h_t = X_s, X_t
    mapping = []
    for _k in range(cfg.layers):
        if cfg.variant == "msda":
            W = msda_layer(np.hstack([h_s, h_t]), cfg.dropout_p)
        else:
            W = msdar_layer(h_s, h_t, cfg)
        if not np.all(np.isfinite(W)):
            raise ComputationError("non-finite marginalized layer weights")
        mapping.append(W)
        h_s = np.tanh(W @ _with_bias(h_s))
        h_t = np.tanh(W @ _with_bias(h_t))
    return AdaptModel(cfg, X_s.shape[0], mapping)


def _dae_loss(w1, b1, w2, b2, H_in, H_ref):
    Z = np.tanh(w1 @ H_in + b1[:, None])
    err = w2 @ Z + b2[:, None] - H_ref
    return float(np.mean(err * err))


def train_sda(X_s: np.ndarray, X_t: np.ndarray, cfg: AdaptConfig, seed: int = 0) -> AdaptModel:
    """Greedy layer-wise denoising autoencoders on the pooled columns.

    Layer k corrupts its input with zero-mean Gaussian noise whose
    per-dimension std is noise_scale times the sample std of that dimension,
    trains tanh hidden / linear output by Adam on squared error, then feeds
    the clean hidden activations to the next layer.
    """
    if cfg.variant != "sda":
        raise ValidationError(f"train_sda got variant '{cfg.variant}'")
    rng = np.random.default_rng(seed)
    H = np.hstack([X_s, X_t])
    d, n = H.shape
    arrays = []
    curves = []
    for k in range(cfg.layers):
        dk = H.shape[0]
        noise_std = cfg.noise_scale * H.std(axis=1)
        w1 = rng.normal(0.0, 1.0 / np.sqrt(dk), size=(dk, dk))
        b1 = np.zeros(dk)
        w2 = rng.normal(0.0, 1.0 / np.sqrt(dk), size=(dk, dk))
        b2 = np.zeros(dk)
        opt = Adam([w1, b1, w2, b2], lr=cfg.sda_lr)
        w1, b1, w2, b2 = opt.params  # views that opt.step updates in place
        g_w1, g_b1, g_w2, g_b2 = opt.grads  # views that opt.step consumes
        curve = [_dae_loss(w1, b1, w2, b2, H, H)]
        # A diverging step overflows to inf and nan; the epoch check names it.
        with np.errstate(over="ignore", invalid="ignore"):
            for _epoch in range(cfg.sda_epochs):
                order = rng.permutation(n)
                for start in range(0, n, cfg.sda_batch):
                    cols = order[start : start + cfg.sda_batch]
                    clean = H[:, cols]
                    noisy = clean + noise_std[:, None] * rng.standard_normal(clean.shape)
                    m = clean.shape[1]
                    A = w1 @ noisy + b1[:, None]
                    Z = np.tanh(A)
                    out = w2 @ Z + b2[:, None]
                    err = out - clean  # d x m
                    g_out = 2.0 * err / (m * dk)
                    np.matmul(g_out, Z.T, out=g_w2)
                    g_out.sum(axis=1, out=g_b2)
                    g_z = (w2.T @ g_out) * (1.0 - Z * Z)
                    np.matmul(g_z, noisy.T, out=g_w1)
                    g_z.sum(axis=1, out=g_b1)
                    opt.step()
                loss = _dae_loss(w1, b1, w2, b2, H, H)
                if not np.isfinite(loss):
                    raise ComputationError(
                        f"sda layer {k}: training diverged; reduce the step size"
                    )
                curve.append(loss)
        curves.append(tuple(curve))
        arrays.extend((w1, b1, w2, b2, noise_std))
        H = np.tanh(w1 @ H + b1[:, None])
    log.debug("sda trained: %s", ["%.4f->%.4f" % (c[0], c[-1]) for c in curves])
    return AdaptModel(cfg, d, arrays, curves)


def encode(model: AdaptModel, X: np.ndarray) -> np.ndarray:
    return model.encode(X)
