import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from domainsel import gbdt
from domainsel.errors import ValidationError
from domainsel.gbdt import (
    GBDTModel,
    GBDTParams,
    _logloss,
    _stratified_folds,
    gbdt_train,
    gbdt_train_cv,
)


def separable_1d():
    x = np.array([[-4.0], [-3.0], [-2.0], [-1.0], [1.0], [2.0], [3.0], [4.0]])
    y = np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=float)
    return x, y


class TestTraining:
    def test_separable_1d_perfect_accuracy(self):
        x, y = separable_1d()
        model = gbdt_train(x, y, GBDTParams(trees=10, depth=1))
        assert np.array_equal(model.predict(x), y.astype(np.int64))

    def test_probabilities_move_toward_labels(self):
        x, y = separable_1d()
        model = gbdt_train(x, y, GBDTParams(trees=50, depth=1))
        p = model.predict_proba(x)
        assert p[y == 1].min() > 0.8
        assert p[y == 0].max() < 0.2

    def test_margin_is_sum_of_scaled_trees(self):
        x, y = separable_1d()
        model = gbdt_train(x, y, GBDTParams(trees=5, depth=2))
        partial = model.predict_margin(x, n_trees=2)
        full = model.predict_margin(x)
        assert not np.allclose(partial, full)
        assert np.allclose(model.predict_proba(x), 1 / (1 + np.exp(-full)))

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 4))
        y = (X[:, 0] + 0.3 * X[:, 1] > 0).astype(float)
        a = gbdt_train(X, y, GBDTParams(trees=20)).predict_proba(X)
        b = gbdt_train(X, y, GBDTParams(trees=20)).predict_proba(X)
        assert np.array_equal(a, b)

    def test_single_class_rejected(self):
        x = np.zeros((4, 2))
        with pytest.raises(ValidationError):
            gbdt_train(x, np.ones(4), GBDTParams())

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValidationError):
            gbdt_train(np.zeros((1, 2)), np.array([1.0]), GBDTParams())

    def test_bad_params_rejected(self):
        with pytest.raises(ValidationError):
            GBDTParams(trees=0)
        with pytest.raises(ValidationError):
            GBDTParams(depth=0)
        with pytest.raises(ValidationError):
            GBDTParams(learning_rate=0.0)

    @pytest.mark.parametrize("reg_lambda", [-1.0, -1e-12, float("nan")])
    def test_negative_reg_lambda_rejected(self, reg_lambda):
        # -1.0 on this 4-row problem used to divide by zero in _build_tree.
        with pytest.raises(ValidationError, match="reg_lambda"):
            gbdt_train(np.array([[0.0], [1.0], [2.0], [3.0]]),
                       np.array([0.0, 0.0, 1.0, 1.0]), GBDTParams(reg_lambda=reg_lambda))

    def test_zero_reg_lambda_accepted(self):
        x, y = separable_1d()
        model = gbdt_train(x, y, GBDTParams(trees=3, reg_lambda=0.0))
        np.testing.assert_array_equal(model.predict(x), y)

    def test_predict_shape_mismatch_rejected(self):
        x, y = separable_1d()
        model = gbdt_train(x, y, GBDTParams(trees=2, depth=1))
        with pytest.raises(ValidationError):
            model.predict(np.zeros((3, 2)))


class TestFirstTreeOracle:
    """Hand-checked first boosting round on the 1-D separable set.

    At margin 0 every p = 0.5, so g = 0.5 - y and h = 0.25. The best
    depth-1 split at x <= -1 gives G_L = 2, G_R = -2, H = 1 each side.
    Leaf values are -G / (H + 1) = -1 on the left, +1 on the right.
    """

    def test_first_tree_leaves(self):
        x, y = separable_1d()
        model = gbdt_train(x, y, GBDTParams(trees=1, depth=1, learning_rate=0.1))
        tree = model.trees[0]
        assert tree["threshold"] == -1.0
        assert tree["left"]["leaf"] == pytest.approx(-1.0)
        assert tree["right"]["leaf"] == pytest.approx(1.0)
        assert np.allclose(model.predict_margin(x), np.where(x[:, 0] <= -1, -0.1, 0.1))

    def test_first_tree_gain(self):
        x, y = separable_1d()
        model = gbdt_train(x, y, GBDTParams(trees=1, depth=1))
        # gain = 0.5 * (4/2 + 4/2 - 0/3) = 2
        assert model.trees[0]["gain"] == pytest.approx(2.0)


class TestTieBreaks:
    def test_equal_gain_prefers_lowest_feature(self):
        # two identical perfectly separating features
        x = np.array([[-1.0, -1.0], [-2.0, -2.0], [1.0, 1.0], [2.0, 2.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        model = gbdt_train(x, y, GBDTParams(trees=1, depth=1))
        assert model.trees[0]["feature"] == 0

    def test_equal_gain_prefers_lowest_threshold(self):
        # y flips between every adjacent pair, so the two balanced cuts
        # x <= 2 and x <= 4 tie; the lower observed value must win
        x = np.array([[1.0], [2.0], [3.0], [4.0], [5.0], [6.0]])
        y = np.array([0.0, 0.0, 1.0, 0.0, 1.0, 1.0])
        model = gbdt_train(x, y, GBDTParams(trees=1, depth=1))
        t = model.trees[0]["threshold"]
        candidates = [
            v for v in (1.0, 2.0, 3.0, 4.0, 5.0)
            if _split_gain(x[:, 0], y, v) == _split_gain(x[:, 0], y, t)
        ]
        assert t == min(candidates)


def _split_gain(x, y, threshold, lam=1.0):
    g = 0.5 - y
    h = np.full(len(y), 0.25)
    left = x <= threshold
    gl, hl = g[left].sum(), h[left].sum()
    gr, hr = g[~left].sum(), h[~left].sum()
    gt, ht = g.sum(), h.sum()
    return 0.5 * (gl**2 / (hl + lam) + gr**2 / (hr + lam) - gt**2 / (ht + lam))


class TestMonotoneInvariance:
    def test_cubing_a_feature_changes_nothing(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(60, 3))
        y = (X[:, 0] - X[:, 2] > 0).astype(float)
        X_test = rng.normal(size=(25, 3))

        base = gbdt_train(X, y, GBDTParams(trees=15, depth=3))
        Xc, Xc_test = X.copy(), X_test.copy()
        Xc[:, 2] = Xc[:, 2] ** 3
        Xc_test[:, 2] = Xc_test[:, 2] ** 3
        cubed = gbdt_train(Xc, y, GBDTParams(trees=15, depth=3))

        assert np.array_equal(base.predict_proba(X_test), cubed.predict_proba(Xc_test))

    def test_monotone_invariance_through_cv(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(50, 2))
        y = (X[:, 1] > 0).astype(float)
        params = GBDTParams(trees=12, depth=2, seed=5)

        base = gbdt_train_cv(X, y, params)
        Xc = X.copy()
        Xc[:, 1] = np.exp(Xc[:, 1])
        cubed = gbdt_train_cv(Xc, y, params)
        Xt = rng.normal(size=(10, 2))
        Xtc = Xt.copy()
        Xtc[:, 1] = np.exp(Xtc[:, 1])
        assert np.array_equal(base.predict_proba(Xt), cubed.predict_proba(Xtc))


class TestImportances:
    def test_importances_sum_to_one(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(50, 5))
        y = (X[:, 1] + 0.5 * X[:, 3] > 0).astype(float)
        model = gbdt_train(X, y, GBDTParams(trees=25))
        imp = model.feature_importance()
        assert abs(sum(imp.values()) - 1.0) < 1e-9
        assert all(v >= 0 for v in imp.values())

    def test_constant_feature_gets_zero(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(40, 3))
        X[:, 1] = 2.5
        y = (X[:, 0] > 0).astype(float)
        model = gbdt_train(X, y, GBDTParams(trees=10), feature_names=["a", "flat", "c"])
        assert model.feature_importance()["flat"] == 0.0

    def test_signal_feature_dominates(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(80, 4))
        y = (X[:, 2] > 0).astype(float)
        imp = gbdt_train(X, y, GBDTParams(trees=20)).feature_importance()
        assert imp["x2"] > 0.9

    def test_no_split_model_gives_zero_importances(self):
        # constant features everywhere: no candidate cuts, every tree is a leaf
        X = np.ones((6, 2))
        y = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
        imp = gbdt_train(X, y, GBDTParams(trees=3)).feature_importance()
        assert set(imp.values()) == {0.0}


class TestCrossValidation:
    def test_cv_never_exceeds_budget_and_is_deterministic(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(60, 3))
        y = (X[:, 0] > 0).astype(float)
        params = GBDTParams(trees=30, seed=2)
        a = gbdt_train_cv(X, y, params)
        b = gbdt_train_cv(X, y, params)
        assert len(a.trees) == len(b.trees) <= 30
        assert np.array_equal(a.predict_proba(X), b.predict_proba(X))

    def test_cv_prunes_on_noise(self):
        # pure label noise: long boosting overfits, CV should cut it short
        rng = np.random.default_rng(14)
        X = rng.normal(size=(60, 2))
        y = rng.integers(0, 2, size=60).astype(float)
        model = gbdt_train_cv(X, y, GBDTParams(trees=100, seed=3))
        assert len(model.trees) < 100

    def test_tiny_minority_class_skips_cv(self):
        X = np.arange(12, dtype=float).reshape(-1, 1)
        y = np.zeros(12)
        y[5] = 1.0
        model = gbdt_train_cv(X, y, GBDTParams(trees=7))
        assert len(model.trees) == 7

    def test_minority_class_shrinks_fold_count(self):
        X = np.arange(20, dtype=float).reshape(-1, 1)
        y = np.zeros(20)
        y[[3, 11, 17]] = 1.0
        model = gbdt_train_cv(X, y, GBDTParams(trees=8), folds=5)
        assert 1 <= len(model.trees) <= 8

    def test_stratified_folds_balance_classes(self):
        y = np.array([0.0] * 10 + [1.0] * 5)
        assignment = _stratified_folds(y, 5, seed=0)
        for fold in range(5):
            assert np.sum((assignment == fold) & (y == 0)) == 2
            assert np.sum((assignment == fold) & (y == 1)) == 1

    def test_logloss_matches_hand_value(self):
        p = np.array([0.9, 0.1])
        y = np.array([1.0, 0.0])
        assert _logloss(p, y) == pytest.approx(-np.log(0.9))


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(30, 3))
        y = (X[:, 0] > 0).astype(float)
        model = gbdt_train(X, y, GBDTParams(trees=8), feature_names=["p", "q", "r"])
        path = tmp_path / "model.json"
        model.save(path)
        back = GBDTModel.load(path)
        assert np.array_equal(model.predict_proba(X), back.predict_proba(X))
        assert back.feature_names == ("p", "q", "r")
        assert back.feature_importance() == model.feature_importance()

    def test_saved_file_is_plain_json(self, tmp_path):
        x, y = separable_1d()
        model = gbdt_train(x, y, GBDTParams(trees=2, depth=1))
        path = tmp_path / "m.json"
        model.save(path)
        blob = json.loads(path.read_text())
        assert blob["n_features"] == 1
        assert len(blob["trees"]) == 2


def _reference_build_tree(X, g, h, rows, depth, reg_lambda):
    """Split search one feature at a time; the vectorized search must match it."""
    G = float(g[rows].sum())
    H = float(h[rows].sum())
    if depth == 0 or len(rows) < 2:
        return {"leaf": -G / (H + reg_lambda)}

    best_gain = 0.0
    best = None
    parent_score = G * G / (H + reg_lambda)
    for f in range(X.shape[1]):
        x = X[rows, f]
        order = np.argsort(x, kind="stable")
        xs = x[order]
        cg = np.cumsum(g[rows][order])
        ch = np.cumsum(h[rows][order])
        cut = np.nonzero(xs[:-1] < xs[1:])[0]
        if len(cut) == 0:
            continue
        GL, HL = cg[cut], ch[cut]
        GR, HR = G - GL, H - HL
        gains = 0.5 * (
            GL * GL / (HL + reg_lambda)
            + GR * GR / (HR + reg_lambda)
            - parent_score
        )
        k = int(np.argmax(gains))
        if gains[k] > best_gain:
            best_gain = float(gains[k])
            best = (f, float(xs[cut[k]]), order, cut[k])

    if best is None:
        return {"leaf": -G / (H + reg_lambda)}
    f, threshold, order, k = best
    left_rows = rows[order[: k + 1]]
    right_rows = rows[order[k + 1 :]]
    return {
        "feature": f,
        "threshold": threshold,
        "gain": best_gain,
        "left": _reference_build_tree(X, g, h, left_rows, depth - 1, reg_lambda),
        "right": _reference_build_tree(X, g, h, right_rows, depth - 1, reg_lambda),
    }


@st.composite
def tied_problems(draw):
    """Small problems full of ties: few distinct values, constant columns,
    duplicate rows, and both classes present."""
    n = draw(st.integers(2, 40))
    n_features = draw(st.integers(1, 20))
    values = st.sampled_from([-1.5, 0.0, 0.25, 1.0, 3.0])
    base = draw(arrays(np.float64, (draw(st.integers(1, n)), n_features), elements=values))
    X = base[draw(arrays(np.int64, n, elements=st.integers(0, len(base) - 1)))]
    for f in draw(st.lists(st.integers(0, n_features - 1), max_size=3)):
        X[:, f] = draw(values)
    y = draw(arrays(np.float64, n, elements=st.sampled_from([0.0, 1.0])))
    y[:2] = [0.0, 1.0]
    params = GBDTParams(trees=draw(st.integers(1, 4)), depth=draw(st.integers(1, 4)),
                        learning_rate=draw(st.sampled_from([0.1, 0.5, 1.0])))
    return X, y, params


class TestVectorizedSplitSearch:
    @settings(max_examples=200, deadline=None)
    @given(tied_problems())
    def test_trees_match_per_feature_search(self, problem):
        X, y, params = problem
        got = gbdt_train(X, y, params).trees
        with mock.patch.object(gbdt, "_build_tree", _reference_build_tree):
            want = gbdt_train(X, y, params).trees
        assert json.dumps(got) == json.dumps(want)
