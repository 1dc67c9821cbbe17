"""Flat-buffer Adam against the per-array update it replaced.

The reference classes and loops below are copies of the code before Adam
kept its parameters in one buffer; the tests require bit-equal results.
The pair-classifier reference trains in float32, as the classifier does:
its draws are made in float64 and rounded, and its inputs are rounded once.
"""
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes

from domainsel.adapt import AdaptConfig, _dae_loss, train_sda
from domainsel.downstream import (
    PairClassifier,
    _initial_state,
    f1_score,
    train_pair_classifier,
)
from domainsel.optim import Adam
from domainsel.workspace import Memo


class ReferenceAdam:
    """Per-array Adam: updates the arrays it is given in place."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, grads) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)


def reference_train_pair_classifier(X_train, y_train, X_val, y_val, seed,
                                    hidden, max_epochs, patience, batch, lr):
    X_train, y_train, X_val, y_val = (np.asarray(a, dtype=np.float64).astype(np.float32)
                                      for a in (X_train, y_train, X_val, y_val))
    n, d = X_train.shape
    h1, h2 = hidden
    rng = np.random.default_rng(seed)
    params = [
        rng.normal(0.0, 1.0 / np.sqrt(d), size=(h1, d)).astype(np.float32),
        np.zeros(h1, dtype=np.float32),
        rng.normal(0.0, 1.0 / np.sqrt(h1), size=(h2, h1)).astype(np.float32),
        np.zeros(h2, dtype=np.float32),
        rng.normal(0.0, 1.0 / np.sqrt(h2), size=(1, h2)).astype(np.float32),
        np.zeros(1, dtype=np.float32),
    ]
    opt = ReferenceAdam(params, lr=lr)
    model = PairClassifier(params, d, seed)

    def val_f1():
        return f1_score(model.predict(X_val), y_val.astype(np.int64))

    best_f1 = val_f1()
    best_params = [p.copy() for p in params]
    stale = 0
    for _epoch in range(max_epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch):
            rows = order[start : start + batch]
            xb, yb = X_train[rows], y_train[rows]
            m = len(rows)
            w1, b1, w2, b2, w3, b3 = params
            z1 = np.tanh(xb @ w1.T + b1)
            z2 = np.tanh(z1 @ w2.T + b2)
            p = 1.0 / (1.0 + np.exp(-(z2 @ w3.T + b3)))[:, 0]
            g_logit = ((p - yb) / m)[:, None]
            g_w3 = g_logit.T @ z2
            g_b3 = g_logit.sum(axis=0)
            g_z2 = (g_logit @ w3) * (1.0 - z2 * z2)
            g_w2 = g_z2.T @ z1
            g_b2 = g_z2.sum(axis=0)
            g_z1 = (g_z2 @ w2) * (1.0 - z1 * z1)
            g_w1 = g_z1.T @ xb
            g_b1 = g_z1.sum(axis=0)
            opt.step([g_w1, g_b1, g_w2, g_b2, g_w3, g_b3])
        score = val_f1()
        if score > best_f1:
            best_f1 = score
            best_params = [p.copy() for p in params]
            stale = 0
        else:
            stale += 1
            if stale >= patience:
                break
    return best_params


def reference_train_sda(X_s, X_t, cfg, seed):
    rng = np.random.default_rng(seed)
    H = np.hstack([X_s, X_t])
    _, n = H.shape
    arrays, curves = [], []
    for _k in range(cfg.layers):
        dk = H.shape[0]
        noise_std = cfg.noise_scale * H.std(axis=1)
        w1 = rng.normal(0.0, 1.0 / np.sqrt(dk), size=(dk, dk))
        b1 = np.zeros(dk)
        w2 = rng.normal(0.0, 1.0 / np.sqrt(dk), size=(dk, dk))
        b2 = np.zeros(dk)
        opt = ReferenceAdam([w1, b1, w2, b2], lr=cfg.sda_lr)
        curve = [_dae_loss(w1, b1, w2, b2, H, H)]
        for _epoch in range(cfg.sda_epochs):
            order = rng.permutation(n)
            for start in range(0, n, cfg.sda_batch):
                cols = order[start : start + cfg.sda_batch]
                clean = H[:, cols]
                noisy = clean + noise_std[:, None] * rng.standard_normal(clean.shape)
                m = clean.shape[1]
                Z = np.tanh(w1 @ noisy + b1[:, None])
                err = w2 @ Z + b2[:, None] - clean
                g_out = 2.0 * err / (m * dk)
                g_w2 = g_out @ Z.T
                g_b2 = g_out.sum(axis=1)
                g_z = (w2.T @ g_out) * (1.0 - Z * Z)
                g_w1 = g_z @ noisy.T
                g_b1 = g_z.sum(axis=1)
                opt.step([g_w1, g_b1, g_w2, g_b2])
            curve.append(_dae_loss(w1, b1, w2, b2, H, H))
        curves.append(tuple(curve))
        arrays.extend((w1, b1, w2, b2, noise_std))
        H = np.tanh(w1 @ H + b1[:, None])
    return arrays, curves


class TestAdam:
    @settings(max_examples=150, deadline=None)
    @given(
        shapes=st.lists(array_shapes(min_dims=0, max_dims=3, min_side=1, max_side=6),
                        min_size=1, max_size=6),
        steps=st.integers(1, 40),
        lr=st.sampled_from([1e-3, 1e-2, 0.5]),
        seed=st.integers(0, 2**32 - 1),
        dtype=st.sampled_from([np.float64, np.float32]),
    )
    def test_bit_equal_to_per_array_update(self, shapes, steps, lr, seed, dtype):
        rng = np.random.default_rng(seed)
        init = [rng.normal(size=s).astype(dtype) for s in shapes]
        ref = ReferenceAdam([p.copy() for p in init], lr=lr)
        opt = Adam(init, lr=lr)
        assert opt.flat.dtype == opt.m.dtype == opt.v.dtype == dtype
        for _ in range(steps):
            # Scales from 1e-9 to 1e3, with exact zeros, stress every branch
            # of the rounding.
            grads = [(rng.normal(size=s) * 10.0 ** rng.integers(-9, 4)
                      * (rng.random(size=s) < 0.9)).astype(dtype) for s in shapes]
            ref.step(grads)
            for dst, src in zip(opt.grads, grads):
                dst[...] = src
            opt.step()
        for got, want in zip(opt.params, ref.params):
            assert got.shape == want.shape and got.dtype == want.dtype == dtype
            assert got.tobytes() == want.tobytes()

    def test_params_are_views_updated_in_place(self):
        init = [np.ones((3, 2)), np.zeros(4), np.full((1, 1), 2.0)]
        opt = Adam(init, lr=0.1)
        views = list(opt.params)
        for view, a in zip(views, init):
            assert view.shape == a.shape
            assert np.shares_memory(view, opt.flat)
            np.testing.assert_array_equal(view, a)
        for dst, src in zip(opt.grads, [np.ones((3, 2)), -np.ones(4), np.ones((1, 1))]):
            dst[...] = src
        opt.step()
        assert all(p is v for p, v in zip(opt.params, views))
        np.testing.assert_allclose(views[0], 0.9)
        np.testing.assert_allclose(views[1], 0.1)
        # The arrays passed in were copied, not trained.
        np.testing.assert_array_equal(init[0], np.ones((3, 2)))
        np.testing.assert_array_equal(init[1], np.zeros(4))

    def test_grads_are_views_that_step_reads(self):
        opt = Adam([np.ones((3, 2)), np.ones(4)], lr=0.1)
        views = list(opt.grads)
        for g, p in zip(views, opt.params):
            assert g.shape == p.shape
            assert not np.shares_memory(g, opt.flat)
        views[0][...] = 2.0
        views[1][...] = 0.0
        opt.step()
        assert all(g is v for g, v in zip(opt.grads, views))
        # The first Adam step moves each parameter by lr against the sign of
        # its gradient, and not at all where the gradient is zero.
        np.testing.assert_allclose(opt.params[0], 0.9)
        np.testing.assert_array_equal(opt.params[1], np.ones(4))


def classification_set(n, d, seed):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n).astype(np.float64)
    y[:2] = (0.0, 1.0)
    X = rng.normal(size=(n, d)) + 0.7 * y[:, None]
    return X, y


class TestTrainingLoopsBitEqual:
    def test_pair_classifier(self):
        for seed, (n, d), hidden, batch in (
            (0, (50, 5), (8, 4), 32),
            (1, (33, 12), (16, 8), 7),
            (2, (9, 3), (4, 4), 32),
        ):
            X, y = classification_set(n, d, seed)
            Xv, yv = classification_set(20, d, seed + 100)
            kwargs = dict(hidden=hidden, max_epochs=15, patience=4, batch=batch, lr=0.01)
            got = train_pair_classifier(X, y, Xv, yv, seed=seed, **kwargs)
            want = reference_train_pair_classifier(X, y, Xv, yv, seed, **kwargs)
            for a, b in zip(got.params, want):
                assert a.shape == b.shape and a.dtype == b.dtype == np.float32
                assert a.tobytes() == b.tobytes()

    def test_sda(self):
        for seed, (d, n), layers, batch in ((0, (6, 30), 2, 32), (1, (4, 23), 3, 8)):
            rng = np.random.default_rng(seed)
            X_s = rng.normal(size=(d, n)) + 0.5
            X_t = rng.normal(size=(d, n)) - 0.5
            cfg = AdaptConfig(variant="sda", layers=layers, sda_epochs=4,
                              sda_batch=batch, sda_lr=0.01)
            got = train_sda(X_s, X_t, cfg, seed=seed)
            want_arrays, want_curves = reference_train_sda(X_s, X_t, cfg, seed)
            assert got.loss_curves == want_curves
            for a, b in zip(got.arrays, want_arrays, strict=True):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()


def fit_bytes(X, y, Xv, yv, seed, hidden=(8, 4), lr=0.01, draws=None):
    clf = train_pair_classifier(X, y, Xv, yv, seed=seed, hidden=hidden,
                                max_epochs=6, patience=3, batch=8, lr=lr, draws=draws)
    return b"".join(p.tobytes() for p in clf.params)


class TestInitialStateCache:
    """Fits restore an initial draw that a memo keeps; no call history may
    show in the bits."""

    def test_fit_independent_of_call_history(self):
        # Every call below passes no fit cache, so every call trains.
        X, y = classification_set(40, 6, 0)
        Xv, yv = classification_set(20, 6, 100)

        def reference(lr):
            return b"".join(p.tobytes() for p in reference_train_pair_classifier(
                X, y, Xv, yv, 3, hidden=(8, 4), max_epochs=6, patience=3, batch=8, lr=lr))

        want = reference(0.01)
        assert fit_bytes(X, y, Xv, yv, 3) == want  # drawn for this call
        draws = Memo()
        assert fit_bytes(X, y, Xv, yv, 3, draws=draws) == want  # cold
        X9, y9 = classification_set(40, 9, 1)
        Xv9, yv9 = classification_set(20, 9, 101)
        fit_bytes(X, y, Xv, yv, 4, draws=draws)  # another seed
        fit_bytes(X9, y9, Xv9, yv9, 3, draws=draws)  # another input width
        fit_bytes(X, y, Xv, yv, 3, hidden=(5, 3), draws=draws)  # other hidden widths
        assert fit_bytes(X, y, Xv, yv, 3, draws=draws) == want  # warm

        # Four fits that share one initial draw, two at a time.
        lrs = (0.01, 0.02, 0.03, 0.04)
        wants = [reference(lr) for lr in lrs]
        draws = Memo()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(fit_bytes, X, y, Xv, yv, 3, lr=lr, draws=draws)
                           for lr in lrs]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == wants

    def test_cached_arrays_read_only(self):
        init, _ = _initial_state(7, 5, 4, 3)
        assert [a.shape for a in init] == [(4, 5), (4,), (3, 4), (3,), (1, 3), (1,)]
        for a in init:
            assert a.dtype == np.float32
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0.0
        # Training never writes into the kept draw, keyed by
        # (seed, input width, hidden widths).
        X, y = classification_set(30, 5, 2)
        draws = Memo()
        for _ in range(2):
            train_pair_classifier(X, y, X, y, seed=7, hidden=(4, 3), max_epochs=3, lr=0.05,
                                  draws=draws)
            kept, _ = draws.get((7, 5, 4, 3), pytest.fail)
            for a, b in zip(kept, init):
                assert not a.flags.writeable
                assert a.tobytes() == b.tobytes()
