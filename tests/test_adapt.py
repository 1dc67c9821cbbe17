import json
import warnings

import numpy as np
import pytest

from domainsel.adapt import (
    AdaptConfig,
    AdaptModel,
    encode,
    fit_domain_classifier,
    msda_layer,
    msdar_layer,
    stack_marginalized,
    train_sda,
)
from domainsel.errors import ComputationError, ValidationError


def column_moments(X, p):
    """Straight-line per-column corruption moments of the expected loss.

    Built independently of the module: loops columns and assembles each
    E[x~], E[x~ x~^T] from the Bernoulli keep probabilities directly.
    """
    d, n = X.shape
    q = np.concatenate([np.full(d, 1.0 - p), [1.0]])
    Q = np.zeros((d + 1, d + 1))
    P = np.zeros((d, d + 1))
    m = np.zeros(d + 1)
    for c in range(n):
        xb = np.concatenate([X[:, c], [1.0]])
        second = np.outer(q * xb, q * xb)
        np.fill_diagonal(second, q * xb * xb)
        Q += second
        P += np.outer(X[:, c], q * xb)
        m += q * xb
    return Q, P, m


def gd_minimize(grad_fn, curvature_fn, shape, iters=1500):
    """Steepest descent with exact line search on a convex quadratic."""
    W = np.zeros(shape)
    for _ in range(iters):
        G = grad_fn(W)
        c = curvature_fn(G)
        if c <= 1e-30:
            break
        W = W - (np.sum(G * G) / c) * G
    return W


class TestMsdaLayer:
    def test_zero_dropout_identity(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(5, 40))
        W = msda_layer(X, 0.0)
        np.testing.assert_allclose(W[:, :5], np.eye(5), atol=1e-6)
        np.testing.assert_allclose(W[:, 5], np.zeros(5), atol=1e-6)

    def test_matches_gradient_descent_oracle(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(5, 50))
        p = 0.5
        Q, P, _ = column_moments(X, p)

        W_gd = gd_minimize(
            grad_fn=lambda W: W @ Q - P,
            curvature_fn=lambda G: np.sum((G @ Q) * G),
            shape=(5, 6),
        )
        W = msda_layer(X, p)
        assert np.linalg.norm(W - W_gd) < 1e-3

    def test_duplicated_data_invariance(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(4, 30))
        W1 = msda_layer(X, 0.4)
        W2 = msda_layer(np.hstack([X, X]), 0.4)
        assert np.linalg.norm(W1 - W2) < 1e-9

    def test_too_few_columns(self):
        with pytest.raises(ValidationError, match="columns"):
            msda_layer(np.ones((3, 1)), 0.5)

    def test_rank_deficient_input_still_solves(self):
        # Constant feature row makes Q singular without the jitter.
        X = np.vstack([np.ones(20), np.random.default_rng(1).normal(size=(2, 20))])
        W = msda_layer(X, 0.3)
        assert np.all(np.isfinite(W))


class TestDomainClassifier:
    def test_matches_straight_line_ridge(self):
        rng = np.random.default_rng(7)
        X_s = rng.normal(size=(4, 20)) + 1.0
        X_t = rng.normal(size=(4, 25)) - 1.0
        u = fit_domain_classifier(X_s, X_t)
        X = np.hstack([X_s, X_t])
        y = np.concatenate([np.ones(20), np.zeros(25)])
        u_ref = np.linalg.lstsq(
            X @ X.T + 1e-3 * np.eye(4), X @ y, rcond=None
        )[0]
        np.testing.assert_allclose(u, u_ref, atol=1e-9)

    def test_separates_shifted_clouds(self):
        rng = np.random.default_rng(8)
        X_s = rng.normal(size=(3, 60)) + 2.0
        X_t = rng.normal(size=(3, 60)) - 2.0
        u = fit_domain_classifier(X_s, X_t)
        assert np.mean(u @ X_s) > np.mean(u @ X_t)


class TestMsdarLayer:
    def cfg(self, lam=1.0, p=0.6, R=1.0):
        return AdaptConfig(variant="msdar", layers=1, dropout_p=p, lam=lam, reg_target=R)

    def test_lambda_zero_equals_msda(self):
        rng = np.random.default_rng(11)
        X_s = rng.normal(size=(4, 18))
        X_t = rng.normal(size=(4, 12))
        W_r = msdar_layer(X_s, X_t, self.cfg(lam=0.0, p=0.5))
        W_m = msda_layer(np.hstack([X_s, X_t]), 0.5)
        assert np.linalg.norm(W_r - W_m) < 1e-9

    def test_stationarity_residual(self):
        rng = np.random.default_rng(13)
        for trial in range(5):
            X_s = rng.normal(size=(4, 15)) + 0.5
            X_t = rng.normal(size=(4, 15)) - 0.5
            cfg = self.cfg()
            W = msdar_layer(X_s, X_t, cfg)
            Q, P, _ = column_moments(np.hstack([X_s, X_t]), cfg.dropout_p)
            Q_t, _, m_t = column_moments(X_t, cfg.dropout_p)
            u = fit_domain_classifier(X_s, X_t)
            residual = (
                P
                + cfg.lam * cfg.reg_target * np.outer(u, m_t)
                - W @ Q
                - cfg.lam * np.outer(u, (u @ W) @ Q_t)
            )
            assert np.linalg.norm(residual) < 1e-6, trial

    def test_matches_gradient_descent_oracle(self):
        rng = np.random.default_rng(17)
        X_s = rng.normal(size=(4, 16)) + 0.8
        X_t = rng.normal(size=(4, 14)) - 0.8
        cfg = self.cfg(lam=1.0, p=0.6, R=1.0)
        Q, P, _ = column_moments(np.hstack([X_s, X_t]), cfg.dropout_p)
        Q_t, _, m_t = column_moments(X_t, cfg.dropout_p)
        X = np.hstack([X_s, X_t])
        y = np.concatenate([np.ones(16), np.zeros(14)])
        u = np.linalg.solve(X @ X.T + 1e-3 * np.eye(4), X @ y)

        C = P + cfg.lam * cfg.reg_target * np.outer(u, m_t)
        W_gd = gd_minimize(
            grad_fn=lambda W: W @ Q + cfg.lam * np.outer(u, (u @ W) @ Q_t) - C,
            curvature_fn=lambda G: np.sum((G @ Q) * G)
            + cfg.lam * float((u @ G) @ Q_t @ (G.T @ u)),
            shape=(4, 5),
            iters=4000,
        )
        W = msdar_layer(X_s, X_t, cfg)
        assert np.linalg.norm(W - W_gd) < 1e-3

    def test_dim_mismatch(self):
        with pytest.raises(ValidationError, match="dims"):
            msdar_layer(np.ones((3, 5)), np.ones((4, 5)), self.cfg())

    def test_empty_side(self):
        with pytest.raises(ValidationError, match="non-empty"):
            msdar_layer(np.ones((3, 5)), np.ones((3, 0)), self.cfg())


class TestStackMarginalized:
    def test_single_identity_layer(self):
        rng = np.random.default_rng(19)
        X_s = rng.normal(size=(3, 25))
        X_t = rng.normal(size=(3, 25))
        cfg = AdaptConfig(variant="msda", layers=1, dropout_p=0.0)
        model = stack_marginalized(X_s, X_t, cfg)
        out = model.encode(X_s)
        assert out.shape == (6, 25)
        np.testing.assert_array_equal(out[:3], X_s)
        np.testing.assert_allclose(out[3:], X_s, atol=1e-6)

    def test_output_dim_five_layers(self):
        rng = np.random.default_rng(23)
        X_s = rng.normal(size=(16, 40))
        X_t = rng.normal(size=(16, 40))
        cfg = AdaptConfig(variant="msdar", layers=5, dropout_p=0.6, lam=1.0)
        model = stack_marginalized(X_s, X_t, cfg)
        assert model.encode(X_t).shape == (96, 40)  # the input and five layers

    def test_encode_deterministic(self):
        rng = np.random.default_rng(29)
        X_s = rng.normal(size=(6, 30))
        X_t = rng.normal(size=(6, 30))
        cfg = AdaptConfig(variant="msda", layers=3, dropout_p=0.5)
        model = stack_marginalized(X_s, X_t, cfg)
        np.testing.assert_array_equal(model.encode(X_t), model.encode(X_t))

    def test_variant_checked(self):
        with pytest.raises(ValidationError, match="variant"):
            stack_marginalized(np.ones((2, 4)), np.ones((2, 4)),
                               AdaptConfig(variant="sda"))


class TestTrainSda:
    def make_data(self, n=60, d=6, seed=31):
        rng = np.random.default_rng(seed)
        X_s = rng.normal(size=(d, n)) + 0.5
        X_t = rng.normal(size=(d, n)) - 0.5
        return X_s, X_t

    def cfg(self, **over):
        base = dict(variant="sda", layers=3, noise_scale=1.0)
        base.update(over)
        return AdaptConfig(**base)

    def test_loss_decreases_per_layer(self):
        X_s, X_t = self.make_data(n=64)
        model = train_sda(X_s, X_t, self.cfg(), seed=1)
        assert len(model.loss_curves) == 3
        for curve in model.loss_curves:
            assert curve[-1] < curve[0]

    def test_clean_autoencoder_not_worse(self):
        X_s, X_t = self.make_data(n=64)
        noisy = train_sda(X_s, X_t, self.cfg(noise_scale=1.0), seed=2)
        clean = train_sda(X_s, X_t, self.cfg(noise_scale=0.0), seed=2)
        assert clean.loss_curves[0][-1] <= noisy.loss_curves[0][-1]

    def test_encode_deterministic_given_seed(self):
        X_s, X_t = self.make_data()
        a = train_sda(X_s, X_t, self.cfg(), seed=5)
        b = train_sda(X_s, X_t, self.cfg(), seed=5)
        np.testing.assert_array_equal(a.encode(X_t), b.encode(X_t))

    def test_encode_shape_and_range(self):
        X_s, X_t = self.make_data(d=5)
        model = train_sda(X_s, X_t, self.cfg(), seed=3)
        out = model.encode(X_t)
        assert out.shape == X_t.shape
        assert np.all(np.abs(out) <= 1.0)  # tanh range

    def test_variant_checked(self):
        with pytest.raises(ValidationError, match="variant"):
            train_sda(np.ones((2, 4)), np.ones((2, 4)), AdaptConfig(variant="msda"))

    def test_divergence_is_a_named_error_without_warnings(self):
        X_s, X_t = self.make_data()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ComputationError, match="sda layer 0: training diverged"):
                train_sda(X_s, X_t, self.cfg(sda_lr=1e300, sda_epochs=2), seed=0)


class TestEncodeAndPersistence:
    def test_none_is_identity(self):
        X = np.arange(12.0).reshape(3, 4)
        model = AdaptModel(AdaptConfig(variant="none"), 3, ())
        assert encode(model, X) is X

    def test_dim_mismatch_rejected(self):
        model = AdaptModel(AdaptConfig(variant="none"), 3, ())
        with pytest.raises(ValidationError, match="rows"):
            encode(model, np.ones((4, 2)))

    def test_marginalized_roundtrip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(37)
        X_s = rng.normal(size=(5, 30))
        X_t = rng.normal(size=(5, 30))
        for variant in ("msda", "msdar"):
            cfg = AdaptConfig(variant=variant, layers=2, dropout_p=0.6, lam=1.0)
            model = stack_marginalized(X_s, X_t, cfg)
            loaded = self.roundtrip(model, tmp_path)
            assert loaded.variant == variant
            assert loaded.encode(X_t).shape == (15, 30)  # the input and two layers
            assert loaded.loss_curves == []
            assert len(loaded.arrays) == cfg.layers
            for got, want in zip(loaded.arrays, model.arrays, strict=True):
                self.assert_bit_equal_read_only(got, want)
            np.testing.assert_array_equal(loaded.encode(X_t), model.encode(X_t))

    def test_sda_roundtrip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(41)
        X_s = rng.normal(size=(4, 40))
        X_t = rng.normal(size=(4, 40))
        cfg = AdaptConfig(variant="sda", layers=3, noise_scale=0.5, sda_epochs=5)
        model = train_sda(X_s, X_t, cfg, seed=7)
        loaded = self.roundtrip(model, tmp_path)
        assert loaded.cfg == model.cfg
        assert loaded.loss_curves == model.loss_curves
        assert len(loaded.arrays) == 5 * cfg.layers  # w1, b1, w2, b2, noise_std
        for got, want in zip(loaded.arrays, model.arrays, strict=True):
            self.assert_bit_equal_read_only(got, want)
        np.testing.assert_array_equal(loaded.encode(X_t), model.encode(X_t))

    def test_none_roundtrip(self, tmp_path):
        model = AdaptModel(AdaptConfig(variant="none"), 3, ())
        loaded = self.roundtrip(model, tmp_path)
        assert loaded.variant == "none" and loaded.input_dim == 3

    @staticmethod
    def roundtrip(model, tmp_path):
        """Save, load and save again: the second file has the first's bytes."""
        first, second = tmp_path / "first.bin", tmp_path / "second.bin"
        model.save(first)
        loaded = AdaptModel.load(first)
        loaded.save(second)
        assert second.read_bytes() == first.read_bytes()
        return loaded

    @staticmethod
    def assert_bit_equal_read_only(got, want):
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable

    def test_sda_loss_curves_in_the_header(self, tmp_path):
        rng = np.random.default_rng(43)
        cfg = AdaptConfig(variant="sda", layers=2, sda_epochs=3)
        model = train_sda(rng.normal(size=(3, 20)), rng.normal(size=(3, 20)), cfg, seed=1)
        path = tmp_path / "model.bin"
        model.save(path)
        header, _ = path.read_bytes().split(b"\n", 1)
        curves = json.loads(header)["loss_curves"]
        assert curves == [list(curve) for curve in model.loss_curves]
        assert [len(curve) for curve in curves] == [4, 4]  # untrained + 3 epochs
        # The arrays start 8-byte aligned after the header line.
        assert (len(header) + 1) % 8 == 0

    def test_save_writes_its_file_in_place(self, tmp_path):
        """No temporary file and no rename: the workspace unrecords a job's
        outputs before rebuilding them, so a killed write is rebuilt."""
        path = tmp_path / "model.bin"
        path.write_bytes(b"an older model")
        inode = path.stat().st_ino
        model = self.marginalized()
        model.save(path)
        assert path.stat().st_ino == inode
        assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]
        assert AdaptModel.load(path).arrays[1].tobytes() == model.arrays[1].tobytes()

    @staticmethod
    def marginalized():
        rng = np.random.default_rng(47)
        cfg = AdaptConfig(variant="msda", layers=2)
        return stack_marginalized(rng.normal(size=(3, 12)), rng.normal(size=(3, 12)), cfg)

    @pytest.mark.parametrize("damage, message", [
        ("truncated_arrays", "bytes of arrays"),
        ("extra_bytes", "bytes of arrays"),
        ("truncated_header", "bad adapt model header"),
        ("empty", "bad adapt model header"),
        ("not_json", "bad adapt model header"),
        ("missing_key", "bad adapt model header"),
        ("bad_config", "bad adapt model header"),
        ("shapes", "bad adapt model header"),
    ])
    def test_damaged_file_rejected_naming_its_path(self, tmp_path, damage, message):
        path = tmp_path / "model.bin"
        self.marginalized().save(path)
        data = path.read_bytes()
        line, arrays = data.split(b"\n", 1)
        header = json.loads(line)
        if damage == "truncated_arrays":
            data = data[:-3]
        elif damage == "extra_bytes":
            data += bytes(8)
        elif damage == "truncated_header":
            data = line[:20]
        elif damage == "empty":
            data = b""
        elif damage == "not_json":
            data = line.rstrip()[:-1] + b"\n" + arrays  # no closing brace
        else:
            if damage == "missing_key":
                del header["input_dim"]
            elif damage == "bad_config":
                header["config"]["layers"] = 0
            else:  # shapes that hold the same bytes, split differently
                header["shapes"] = [[3, 2], [3, 6]]
            data = json.dumps(header).encode() + b"\n" + arrays
        path.write_bytes(data)
        with pytest.raises(ValidationError, match=message) as info:
            AdaptModel.load(path)
        assert str(path) in str(info.value)

    def test_config_validation(self):
        with pytest.raises(ValidationError, match="dropout"):
            AdaptConfig(variant="msda", dropout_p=1.0)
        with pytest.raises(ValidationError, match="lambda"):
            AdaptConfig(variant="msdar", lam=-0.1)
        with pytest.raises(ValidationError, match="unknown"):
            AdaptConfig(variant="dann")
