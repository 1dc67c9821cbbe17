import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, strategies as st

import domainsel.downstream as downstream_mod
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
from domainsel.workspace import Memo


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


def domain_data(domains, sizes=(60, 20, 30)):
    """data[(domain, split)] = (a, b, labels): a separable `a` whose class
    boundary each domain shifts by its index, and an all-zero `b`."""
    data = {}
    for i, domain in enumerate(domains):
        for k, (split, n) in enumerate(zip(("train", "val", "test"), sizes)):
            X, y = separable_set(n, seed=10 * i + k, margin=1.2)
            X[:, 0] += 0.5 * i
            data[(domain, split)] = (X, np.zeros_like(X), y)
    return data


def halving(source, target):
    return lambda m: 0.5 * m


def toy_matrix(domains=("A", "B"), seeds=(0, 1)):
    return cross_domain_matrix(domains, domain_data(domains), "DT", seeds, halving,
                               hidden=(8, 4), max_epochs=10)


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

    def test_encoder_called_once_per_adapted_off_diagonal_pair(self, monkeypatch):
        """An adapted off-diagonal pair trains on its encoded rows without a
        cache; a `none` pair and every diagonal train on the raw rows through
        the cache and never call the encoder."""
        encoded, trained = [], []
        real = downstream_mod.train_pair_classifier

        def encoder(s, t):
            encoded.append((s, t))
            return lambda m: 2.0 * m

        def recorded(X, y, Xv, yv, **kwargs):
            trained.append((X, kwargs["cache"]))
            return real(X, y, Xv, yv, **kwargs)

        monkeypatch.setattr(downstream_mod, "train_pair_classifier", recorded)
        data = domain_data("ABC", sizes=(20, 20, 20))
        cache = Memo()
        seeds = (0, 1, 2)
        for variant in ("DT", "none"):
            encoded.clear()
            trained.clear()
            cross_domain_matrix("ABC", data, variant, seeds, encoder, cache,
                                hidden=(4, 4), max_epochs=1)
            adapted = [] if variant == "none" else [(s, t) for s in "ABC" for t in "ABC"
                                                    if s != t]
            assert encoded == adapted
            pairs = [(s, t) for s in "ABC" for t in "ABC" for _ in seeds]
            assert len(trained) == len(pairs)
            for (s, t), (X, used) in zip(pairs, trained):
                a, b, _ = data[(s, "train")]
                if (s, t) in adapted:
                    assert used is None
                    np.testing.assert_array_equal(X, pair_input(2.0 * a, 2.0 * b))
                else:
                    assert used is cache
                    np.testing.assert_array_equal(X, pair_input(a, b))

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


FIT_SETTINGS = dict(seed=4, hidden=(8, 4), max_epochs=6, patience=3, batch=8, lr=0.01)


def fit_inputs():
    X, y = separable_set(40, seed=21)
    Xv, yv = separable_set(20, seed=22)
    return [X, y, Xv, yv]


def param_bytes(clf) -> bytes:
    return b"".join(p.tobytes() for p in clf.params)


class TestFitCache:
    """An equal call through a memo returns the kept fit; any change to the
    inputs trains, and so does every call without a memo."""

    @pytest.fixture
    def trainings(self, monkeypatch):
        """The fits that really train, one entry each."""
        count = []
        real = downstream_mod._fit

        def counted(*args):
            count.append(1)
            return real(*args)

        monkeypatch.setattr(downstream_mod, "_fit", counted)
        return count

    def test_equal_call_trains_nothing_and_matches_a_fresh_fit(self, trainings):
        cache = Memo()
        first = train_pair_classifier(*fit_inputs(), **FIT_SETTINGS, cache=cache)
        again = train_pair_classifier(*fit_inputs(), **FIT_SETTINGS, cache=cache)
        assert len(trainings) == 1
        assert again is first
        fresh = train_pair_classifier(*fit_inputs(), **FIT_SETTINGS, cache=Memo())
        assert len(trainings) == 2
        assert fresh is not first
        assert param_bytes(fresh) == param_bytes(first)

    @pytest.mark.parametrize("change", [
        "x_element", "x_val_element", "label", "val_label", "shape",
        "seed", "lr", "hidden", "batch", "max_epochs", "patience",
    ])
    def test_any_change_misses(self, trainings, change):
        cache = Memo()
        train_pair_classifier(*fit_inputs(), **FIT_SETTINGS, cache=cache)
        inputs, settings = fit_inputs(), dict(FIT_SETTINGS)
        X, y, Xv, yv = inputs
        if change == "x_element":
            # One float32 step: the smallest change that the fit sees.
            X[7, 1] = np.nextafter(np.float32(X[7, 1]), np.float32(np.inf))
        elif change == "x_val_element":
            Xv[3, 0] += 1.0
        elif change == "label":
            y[5] = 1.0 - y[5]
        elif change == "val_label":
            yv[2] = 1.0 - yv[2]
        elif change == "shape":
            # The same bytes, split at other array boundaries.
            stream = np.concatenate([X.ravel(), y, Xv.ravel(), yv])
            inputs = [stream[:80].reshape(20, 4), stream[80:100],
                      stream[100:164].reshape(16, 4), stream[164:]]
        else:
            settings[change] = {"seed": 5, "lr": 0.02, "hidden": (8, 5), "batch": 9,
                                "max_epochs": 7, "patience": 4}[change]
        train_pair_classifier(*inputs, **settings, cache=cache)
        assert len(trainings) == 2

    def test_change_rounded_away_in_float32_hits(self, trainings):
        # The key hashes the float32 inputs that the fit trains on.
        cache = Memo()
        first = train_pair_classifier(*fit_inputs(), **FIT_SETTINGS, cache=cache)
        X, y, Xv, yv = fit_inputs()
        X[7, 1] = np.nextafter(X[7, 1], np.inf)
        assert X[7, 1] != fit_inputs()[0][7, 1]
        assert train_pair_classifier(X, y, Xv, yv, **FIT_SETTINGS, cache=cache) is first
        assert len(trainings) == 1

    def test_kept_parameters_are_read_only(self):
        clf = train_pair_classifier(*fit_inputs(), **FIT_SETTINGS, cache=Memo())
        for p in clf.params:
            assert p.dtype == np.float32
            assert not p.flags.writeable
            with pytest.raises(ValueError):
                p[...] = 0.0

    def test_scoring_rounds_rows_to_the_parameters_dtype(self):
        clf = train_pair_classifier(*fit_inputs(), **FIT_SETTINGS)
        X = separable_set(30, seed=23)[0]
        assert X.dtype == np.float64
        got = clf.predict_proba(X)
        assert got.dtype == np.float32
        assert got.tobytes() == clf.predict_proba(X.astype(np.float32)).tobytes()

    def test_first_fit_kept_after_more_than_4_mib_of_fits(self, trainings):
        # A memo keeps every fit it made, however many bytes they hold.
        rng = np.random.default_rng(0)
        y = np.tile([0.0, 1.0], 5)
        cache = Memo()
        inputs = [rng.normal(size=(10, 384)) for _ in range(24)]

        def fit(i):
            return train_pair_classifier(inputs[i], y, inputs[i], y, seed=i,
                                         hidden=(128, 32), max_epochs=0, cache=cache)

        fits = [fit(i) for i in range(len(inputs))]
        assert sum(p.nbytes for clf in fits for p in clf.params) > 4 << 20
        assert len(trainings) == len(inputs)
        assert fit(0) is fits[0]
        assert len(trainings) == len(inputs)

    def test_unkept_fit_trains_again(self, trainings):
        first = train_pair_classifier(*fit_inputs(), **FIT_SETTINGS)
        assert not any(p.flags.writeable for p in first.params)
        cache = Memo()
        again = train_pair_classifier(*fit_inputs(), **FIT_SETTINGS, cache=cache)
        assert len(trainings) == 2
        assert param_bytes(again) == param_bytes(first)
        # A call without the cache trains, even while the cache holds its fit.
        third = train_pair_classifier(*fit_inputs(), **FIT_SETTINGS)
        assert len(trainings) == 3
        assert third is not again and param_bytes(third) == param_bytes(first)
        assert train_pair_classifier(*fit_inputs(), **FIT_SETTINGS, cache=cache) is again
        assert len(trainings) == 3

    def test_equal_calls_on_two_threads_return_equal_models(self, trainings):
        cache = Memo()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(train_pair_classifier, *fit_inputs(), **FIT_SETTINGS,
                                       cache=cache)
                           for _ in range(4)]
                models = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(m is models[0] for m in models)
        assert len(trainings) == 1
        assert train_pair_classifier(*fit_inputs(), **FIT_SETTINGS, cache=cache) is models[0]
        assert len(trainings) == 1

    def test_target_independent_matrix_trains_each_source_seed_once(
            self, trainings, monkeypatch):
        calls = []
        real = downstream_mod.train_pair_classifier

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(downstream_mod, "train_pair_classifier", counted)
        cross_domain_matrix("ABC", domain_data("ABC", sizes=(30, 12, 12)), "none", (0, 1),
                            cache=Memo(), hidden=(4, 4), max_epochs=2)
        assert len(calls) == 18
        assert len(trainings) == 6
