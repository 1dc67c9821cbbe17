import numpy as np
import pytest
from hypothesis import given, strategies as st

from domainsel.downstream import (
    F1Matrix,
    cross_domain_matrix,
    f1_score,
    load_f1_matrix,
    pair_input,
    save_f1_matrix,
    success_labels,
    train_pair_classifier,
)
from domainsel.errors import ValidationError


class TestPairInput:
    def test_hand_assembly(self):
        out = pair_input(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        np.testing.assert_array_equal(out, [1, 0, 0, 1, 1, 1, 0, 0])

    def test_equal_vectors_zero_diff_block(self):
        a = np.array([0.3, -0.7, 2.0])
        out = pair_input(a, a)
        np.testing.assert_array_equal(out[6:9], np.zeros(3))

    def test_length(self):
        for d in (1, 3, 16):
            out = pair_input(np.ones(d), np.ones(d))
            assert out.shape == (4 * d,)

    def test_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="shapes"):
            pair_input(np.ones(3), np.ones(4))
        with pytest.raises(ValidationError, match="shapes"):
            pair_input(np.ones((5, 3)), np.ones((4, 3)))
        with pytest.raises(ValidationError, match="shapes"):
            pair_input(np.ones((2, 5, 3)), np.ones((2, 5, 3)))

    def test_row_block_matches_rows(self):
        rng = np.random.default_rng(0)
        for n, d in ((1, 1), (4, 3), (7, 16)):
            a, b = rng.normal(size=(n, d)), rng.normal(size=(n, d))
            out = pair_input(a, b)
            assert out.shape == (n, 4 * d)
            for i in range(n):
                np.testing.assert_array_equal(out[i], pair_input(a[i], b[i]))


class TestF1Score:
    def test_perfect(self):
        assert f1_score([1, 0, 1, 0], [1, 0, 1, 0]) == 1.0

    def test_all_positive_on_balanced(self):
        assert f1_score([1, 1, 1, 1], [1, 0, 1, 0]) == pytest.approx(2 / 3)

    def test_degenerate_zero(self):
        assert f1_score([0, 0], [0, 0]) == 0.0
        assert f1_score([0, 0], [1, 1]) == 0.0
        assert f1_score([1, 1], [0, 0]) == 0.0

    def test_hand_mixed(self):
        # tp=1, fp=1, fn=1 -> P=R=0.5 -> F1=0.5
        assert f1_score([1, 1, 0, 0], [1, 0, 1, 0]) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            f1_score([1], [1, 0])

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=40),
           st.randoms())
    def test_permutation_invariant(self, pairs, rnd):
        pred = [p for p, _ in pairs]
        y = [t for _, t in pairs]
        base = f1_score(pred, y)
        order = list(range(len(pairs)))
        rnd.shuffle(order)
        assert f1_score([pred[i] for i in order], [y[i] for i in order]) == base


def separable_set(n, seed, margin=1.0):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n)
    X = rng.normal(size=(n, 2)) * 0.2
    X[:, 0] += np.where(y == 1, margin, -margin)
    return X, y.astype(np.float64)


class TestTrainPairClassifier:
    def test_separable_reaches_perfect_train_f1(self):
        # Validate on the train set so epoch selection tracks train F1.
        X, y = separable_set(80, seed=0)
        clf = train_pair_classifier(X, y, X, y, seed=3, hidden=(16, 8))
        assert f1_score(clf.predict(X), y.astype(int)) == 1.0

    def test_same_seed_identical_params(self):
        X, y = separable_set(60, seed=2)
        Xv, yv = separable_set(20, seed=3)
        a = train_pair_classifier(X, y, Xv, yv, seed=9, hidden=(8, 4))
        b = train_pair_classifier(X, y, Xv, yv, seed=9, hidden=(8, 4))
        for pa, pb in zip(a.params, b.params):
            np.testing.assert_array_equal(pa, pb)

    def test_chosen_epoch_at_least_epoch_zero(self):
        X, y = separable_set(60, seed=4)
        Xv, yv = separable_set(30, seed=5)
        clf = train_pair_classifier(X, y, Xv, yv, seed=11, hidden=(8, 4))
        untrained = train_pair_classifier(
            X, y, Xv, yv, seed=11, hidden=(8, 4), max_epochs=0
        )
        chosen = f1_score(clf.predict(Xv), yv.astype(int))
        epoch0 = f1_score(untrained.predict(Xv), yv.astype(int))
        assert chosen >= epoch0

    def test_single_class_rejected(self):
        X = np.ones((10, 2))
        y = np.ones(10)
        with pytest.raises(ValidationError, match="both classes"):
            train_pair_classifier(X, y, X, y, seed=0)

    def test_probability_range(self):
        X, y = separable_set(40, seed=6)
        clf = train_pair_classifier(X, y, X, y, seed=0, hidden=(4, 4), max_epochs=2)
        p = clf.predict_proba(X)
        assert np.all((p > 0) & (p < 1))

    def test_input_dim_checked(self):
        X, y = separable_set(40, seed=7)
        clf = train_pair_classifier(X, y, X, y, seed=0, hidden=(4, 4), max_epochs=1)
        with pytest.raises(ValidationError, match="expects"):
            clf.predict(np.ones((5, 3)))


def toy_matrix(domains=("A", "B"), seeds=(0, 1), noise=0.0):
    rng = np.random.default_rng(99)

    def pair_data(s, t):
        sep = 1.2 if s == t else 0.6
        Xtr, ytr = separable_set(60, seed=hash((s, t)) % 1000, margin=sep)
        Xv, yv = separable_set(20, seed=hash((t, s)) % 1000, margin=sep)
        Xte, yte = separable_set(30, seed=(hash((s, t)) + 7) % 1000, margin=sep)
        if noise:
            Xte = Xte + rng.normal(scale=noise, size=Xte.shape)
        return Xtr, ytr, Xv, yv, Xte, yte

    return cross_domain_matrix(domains, pair_data, "DT", seeds, hidden=(8, 4),
                               max_epochs=10)


class TestCrossDomainMatrix:
    def test_shape_and_mean_identity(self):
        m = toy_matrix()
        assert m.mean.shape == (2, 2)
        stack = np.stack([m.per_seed[0], m.per_seed[1]])
        np.testing.assert_allclose(m.mean, stack.mean(axis=0), atol=1e-15)

    def test_entries_in_range_and_diagonal_populated(self):
        m = toy_matrix()
        assert np.all(m.mean >= 0) and np.all(m.mean <= 1)
        assert m.mean[0, 0] > 0 and m.mean[1, 1] > 0

    def test_pair_data_called_once_per_ordered_pair(self):
        calls = []

        def pair_data(s, t):
            calls.append((s, t))
            X, y = separable_set(20, seed=len(calls))
            return X, y, X, y, X, y

        cross_domain_matrix(("A", "B", "C"), pair_data, "DT", (0, 1, 2), hidden=(4, 4),
                            max_epochs=1)
        assert sorted(calls) == [(s, t) for s in "ABC" for t in "ABC"]

    def test_entry_accessor(self):
        m = toy_matrix()
        assert m.entry("A", "B") == float(m.mean[0, 1])

    def test_mean_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="mean"):
            F1Matrix(
                domains=("A",),
                per_seed={0: np.array([[0.5]])},
                mean=np.array([[0.9]]),
                variant="DT",
            )

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError, match="outside"):
            F1Matrix(
                domains=("A",),
                per_seed={0: np.array([[1.5]])},
                mean=np.array([[1.5]]),
                variant="DT",
            )


class TestSuccessLabels:
    def matrix_from_mean(self, mean, domains=("A", "B")):
        m = np.asarray(mean, dtype=np.float64)
        return F1Matrix(domains=domains, per_seed={0: m}, mean=m, variant="DT")

    def test_ratio_and_strictness(self):
        m = self.matrix_from_mean([[1.0, 0.81], [0.80, 1.0]])
        normalized, success = success_labels(m, threshold=0.8)
        assert normalized[("A", "B")] == pytest.approx(0.81)
        assert success[("A", "B")] is True
        assert normalized[("B", "A")] == pytest.approx(0.80)
        assert success[("B", "A")] is False  # exactly 0.80 fails

    def test_diagonal_exactly_one(self):
        m = self.matrix_from_mean([[0.7312, 0.5], [0.5, 0.919]])
        normalized, _ = success_labels(m)
        assert normalized[("A", "A")] == 1.0
        assert normalized[("B", "B")] == 1.0

    def test_threshold_sweep(self):
        m = self.matrix_from_mean([[1.0, 0.4], [0.9, 1.0]])
        _, all_success = success_labels(m, threshold=0.0)
        assert all(all_success[k] for k in all_success)
        _, none_success = success_labels(m, threshold=1.0)
        assert not any(none_success[(s, t)] for s, t in none_success if s != t)

    @pytest.mark.parametrize("threshold", [0.0, 0.8, 1.0])
    def test_zero_diagonal_succeeds_iff_transfer_scores(self, threshold):
        # Into a target with zero in-domain F1, success means F1_ST > 0.
        m = self.matrix_from_mean([[1.0, 0.2, 0.0], [0.3, 0.0, 0.0], [0.9, 0.0, 0.5]],
                                  domains=("A", "B", "C"))
        normalized, success = success_labels(m, threshold=threshold)
        assert success[("A", "B")] is True and normalized[("A", "B")] == np.inf
        assert success[("C", "B")] is False and success[("B", "B")] is False
        assert np.isnan(normalized[("B", "B")])
        assert normalized[("B", "A")] == 0.3 and success[("B", "A")] is (0.3 > threshold)
        assert success[("A", "C")] is False and success[("C", "A")] is (0.9 > threshold)


class TestF1MatrixIO:
    def test_roundtrip(self, tmp_path):
        m = toy_matrix()
        save_f1_matrix(m, tmp_path)
        loaded = load_f1_matrix(tmp_path, "DT")
        assert loaded.domains == m.domains
        np.testing.assert_array_equal(loaded.mean, m.mean)
        for seed in m.per_seed:
            np.testing.assert_array_equal(loaded.per_seed[seed], m.per_seed[seed])

    @pytest.mark.parametrize("edit, where", [
        (lambda lines: lines[:-1], r"line 3: file ends before the row of domain 'B'"),
        (lambda lines: lines[:1], r"line 2: file ends before the row of domain 'A'"),
        (lambda lines: [lines[0], lines[1].rsplit(",", 1)[0] + "\r\n", lines[2]],
         r"line 2: 2 fields, expected 3"),
        (lambda lines: lines + [lines[-1]], r"line 4: extra row"),
        (lambda lines: [], r"line 1: column header"),
    ])
    def test_damaged_csv_names_file_and_line(self, tmp_path, edit, where):
        save_f1_matrix(toy_matrix(), tmp_path)
        path = tmp_path / "f1_DT_seed1.csv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(edit(lines)), encoding="utf-8")
        with pytest.raises(ValidationError, match=r"f1_DT_seed1\.csv: " + where):
            load_f1_matrix(tmp_path, "DT")

    def test_files_written(self, tmp_path):
        m = toy_matrix()
        save_f1_matrix(m, tmp_path)
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {"f1_DT_seed0.csv", "f1_DT_seed1.csv", "f1_DT_mean.csv", "f1_DT.json"}
