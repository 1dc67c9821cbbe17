import numpy as np
import pytest

from domainsel.downstream import F1Matrix, f1_score, success_labels
from domainsel.errors import ValidationError
from domainsel.gbdt import GBDTModel, GBDTParams
from domainsel.meta import (
    LotoSplit,
    Ordering,
    _noisy_quicksort,
    domain_ranker,
    load_orderings,
    loto_rows,
    loto_splits,
    multi_sort,
    save_orderings,
    success_predictor,
)
from domainsel.simfeat import FeatureVector


def make_features(f1):
    return FeatureVector(f1, 0.5, 50, 50, 8.0, 8.0, 0.1, 0.2, 20.0, 0.3)


def f1_matrix(domains, f1, diagonal=1.0):
    """F1Matrix holding f1[(s, t)] off the diagonal."""
    domains = tuple(sorted(domains))
    m = np.array([[diagonal if s == t else f1[(s, t)] for t in domains] for s in domains])
    return F1Matrix(domains=domains, per_seed={0: m}, mean=m, variant="none")


def monotone_world(domains, seed):
    """Pairwise affinities drive both f1 and the success label.

    Returns predictor rows and the affinities; with an in-domain F1 of 1 and
    threshold 0.5, a pair succeeds iff its affinity exceeds 0.5.
    """
    rng = np.random.default_rng(seed)
    features, affinity = {}, {}
    for t in domains:
        for s in domains:
            if s == t:
                continue
            a = float(rng.uniform(0.05, 0.95))
            affinity[(s, t)] = a
            features[(s, t)] = make_features(a)
    rows = loto_rows(domains, "predictor", features, f1_matrix(domains, affinity), 0.5)
    return rows, affinity


class TestLotoSplits:
    def test_eleven_domain_predictor_counts(self):
        splits = loto_splits([f"d{i:02d}" for i in range(11)], "predictor")
        assert len(splits) == 11
        assert all(len(s.train) == 100 and len(s.test) == 10 for s in splits)

    def test_eleven_domain_ranker_counts(self):
        splits = loto_splits([f"d{i:02d}" for i in range(11)], "ranker")
        assert len(splits) == 11
        assert all(len(s.train) == 450 and len(s.test) == 45 for s in splits)

    def test_three_domain_predictor_counts(self):
        splits = loto_splits(["a", "b", "c"], "predictor")
        assert [len(s.train) for s in splits] == [4, 4, 4]
        assert [len(s.test) for s in splits] == [2, 2, 2]

    @pytest.mark.parametrize("mode", ["predictor", "ranker"])
    def test_each_row_in_exactly_one_test_set(self, mode):
        splits = loto_splits(["a", "b", "c", "d", "e"], mode)
        seen = []
        for s in splits:
            seen.extend(s.test)
        all_rows = set(splits[0].train) | set(splits[0].test)
        assert len(seen) == len(set(seen))
        assert set(seen) == all_rows

    @pytest.mark.parametrize("mode", ["predictor", "ranker"])
    def test_train_and_test_never_share_a_target(self, mode):
        for s in loto_splits(["a", "b", "c", "d"], mode):
            assert all(row[-1] == s.target for row in s.test)
            assert all(row[-1] != s.target for row in s.train)

    def test_ranker_pairs_are_canonical(self):
        for s in loto_splits(["a", "b", "c", "d"], "ranker"):
            assert all(s1 < s2 for s1, s2, _ in s.train + s.test)

    def test_too_few_domains_rejected(self):
        with pytest.raises(ValidationError):
            loto_splits(["a", "b"])

    def test_duplicate_domains_rejected(self):
        with pytest.raises(ValidationError):
            loto_splits(["a", "a", "b"])

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError):
            loto_splits(["a", "b", "c"], "listwise")


class TestMultiSort:
    def test_exact_comparator_any_seed(self):
        items = ["pear", "apple", "kiwi", "fig", "lime", "date"]
        for seed in range(10):
            ranked = multi_sort(items, lambda a, b: a < b, repeats=3, seed=seed)
            assert [it for it, _ in ranked] == sorted(items)

    def test_repeats_one_is_a_single_seeded_pass(self):
        # intransitive preferences, so the outcome depends on pivot order
        beats = {("a", "b"), ("b", "c"), ("c", "a")}
        less = lambda x, y: (x, y) in beats
        items = ["a", "b", "c"]
        rng = np.random.default_rng(7)
        shuffled = [items[i] for i in rng.permutation(len(items))]
        expected = _noisy_quicksort(shuffled, less)
        got = multi_sort(items, less, repeats=1, seed=7)
        assert [it for it, _ in got] == expected
        assert [pos for _, pos in got] == [0.0, 1.0, 2.0]

    def test_flip_noise_recovery_rate(self):
        items = ["a", "b", "c", "d", "e"]
        recovered = 0
        for trial in range(100):
            rng = np.random.default_rng(5000 + trial)

            def noisy(x, y):
                truth = x < y
                return (not truth) if rng.random() < 0.1 else truth

            ranked = multi_sort(items, noisy, repeats=15, seed=trial)
            recovered += [it for it, _ in ranked] == items
        assert recovered >= 80

    def test_mean_positions_are_averages(self):
        items = ["a", "b", "c"]
        ranked = multi_sort(items, lambda a, b: a < b, repeats=5, seed=0)
        assert ranked == [("a", 0.0), ("b", 1.0), ("c", 2.0)]

    def test_position_ties_break_lexicographically(self):
        # A comparator that never prefers anything keeps each shuffled order;
        # at seed 2 the two shuffles differ, so both items average 0.5.
        ranked = multi_sort(["b", "a"], lambda a, b: False, repeats=2, seed=2)
        assert ranked == [("a", 0.5), ("b", 0.5)]

    def test_duplicates_rejected(self):
        with pytest.raises(ValidationError):
            multi_sort(["a", "a"], lambda x, y: x < y, repeats=3)

    def test_zero_repeats_rejected(self):
        with pytest.raises(ValidationError):
            multi_sort(["a", "b"], lambda x, y: x < y, repeats=0)


def pair_world(domains, seed):
    """Distinct features and F1 means for every ordered pair of domains."""
    rng = np.random.default_rng(seed)
    pairs = [(s, t) for s in domains for t in domains if s != t]
    features = {p: make_features(float(rng.uniform(0.05, 0.95))) for p in pairs}
    f1 = {p: float(rng.uniform(0.05, 0.95)) for p in pairs}
    return features, f1


class TestRankerSamples:
    def test_canonical_pair_and_label(self):
        domains = ["s1", "s2", "s3", "t"]
        features, f1 = pair_world(domains, seed=0)
        features.update({("s1", "t"): make_features(0.9), ("s3", "t"): make_features(0.5)})
        f1.update({("s1", "t"): 0.2, ("s2", "t"): 0.3, ("s3", "t"): 0.3})
        rows = loto_rows(domains, "ranker", features, f1_matrix(domains, f1), 0.8)
        assert set(rows) == {k for split in loto_splits(domains, "ranker") for k in split.test}
        assert all(s1 < s2 and t not in (s1, s2) for s1, s2, t in rows)
        assert rows[("s1", "s2", "t")][1] == 0
        assert rows[("s2", "s3", "t")][1] == 1  # ties count as "first wins"
        x, _ = rows[("s1", "s3", "t")]
        assert x.shape == (20,) and x[0] == 0.9 and x[10] == 0.5
        np.testing.assert_array_equal(
            x, np.concatenate([features[("s1", "t")].as_array(),
                               features[("s3", "t")].as_array()]))

    def test_missing_f1_rejected(self):
        domains = ["s1", "s2", "s3", "t"]
        features, f1 = pair_world(domains, seed=1)
        matrix = f1_matrix(["s1", "s2", "t"], f1)
        with pytest.raises(ValidationError, match=r"F1 missing for pair \('s3', 's1'\)"):
            loto_rows(domains, "ranker", features, matrix, 0.8)


class TestLotoRows:
    def test_predictor_rows_and_labels(self):
        features, f1 = pair_world(DOMAINS, seed=2)
        matrix = f1_matrix(DOMAINS, f1, diagonal=0.7)
        rows = loto_rows(DOMAINS, "predictor", features, matrix, 0.8)
        success = success_labels(matrix, 0.8)[1]
        assert set(rows) == set(features)
        assert {rows[k][1] for k in rows} == {0, 1}
        for key, (x, label) in rows.items():
            assert label == int(success[key])
            np.testing.assert_array_equal(x, features[key].as_array())

    def test_missing_feature_row_rejected(self):
        features, f1 = pair_world(DOMAINS, seed=3)
        del features[("music", "dvd")]
        with pytest.raises(ValidationError,
                           match=r"features missing for pair \('music', 'dvd'\)"):
            loto_rows(DOMAINS, "predictor", features, f1_matrix(DOMAINS, f1), 0.8)

    @pytest.mark.parametrize("mode", ["predictor", "ranker"])
    def test_metrics_score_the_held_out_rows(self, mode):
        features, f1 = pair_world(DOMAINS, seed=4)
        rows = loto_rows(DOMAINS, mode, features, f1_matrix(DOMAINS, f1, 0.7), 0.8)
        split = loto_splits(DOMAINS, mode)[3]
        if mode == "predictor":
            model, _, metrics = success_predictor(rows, split, FAST)
        else:
            model, _, metrics = domain_ranker(rows, split, FAST, repeats=3, seed=0)
        assert model.trees
        X = np.array([rows[k][0] for k in split.test])
        y = np.array([rows[k][1] for k in split.test])
        predicted = model.predict(X)
        assert metrics == {"f1": f1_score(predicted, y),
                           "accuracy": float(np.mean(predicted == y))}


class TestOrderingType:
    def test_validation(self):
        with pytest.raises(ValidationError):
            Ordering("t", ("a", "a"), (0.1, 0.2))
        with pytest.raises(ValidationError):
            Ordering("t", ("t", "a"), (0.1, 0.2))
        with pytest.raises(ValidationError):
            Ordering("t", ("a", "b"), (0.1,))


DOMAINS = ["books", "dvd", "kitchen", "music", "tools", "toys"]
FAST = GBDTParams(trees=20, depth=2, seed=0)


class TestSuccessPredictor:
    def test_ordering_is_permutation_of_candidates(self):
        rows, _ = monotone_world(DOMAINS, seed=0)
        split = loto_splits(DOMAINS, "predictor")[0]
        model, ordering, _ = success_predictor(rows, split, FAST)
        assert ordering.target == split.target
        assert sorted(ordering.ranked_sources) == sorted(
            d for d in DOMAINS if d != split.target
        )
        assert all(b <= a for a, b in zip(ordering.scores, ordering.scores[1:]))

    def test_importances_named_by_feature(self):
        rows, _ = monotone_world(DOMAINS, seed=1)
        split = loto_splits(DOMAINS, "predictor")[0]
        model, _, _ = success_predictor(rows, split, FAST)
        imp = model.feature_importance()
        assert set(imp) == {f"f{i}" for i in range(1, 11)}
        assert imp["f1"] > 0.9  # only informative feature in this world
        assert abs(sum(imp.values()) - 1.0) < 1e-9

    @pytest.mark.parametrize("label", [0, 1])
    def test_single_class_training_labels_fall_back_to_name_order(self, label):
        rows, _ = monotone_world(DOMAINS, seed=2)
        rows = {k: (x, label) for k, (x, _) in rows.items()}
        split = loto_splits(DOMAINS, "predictor")[0]
        model, ordering, _ = success_predictor(rows, split, FAST)
        assert model.trees == []
        assert ordering.ranked_sources == tuple(d for d in DOMAINS if d != split.target)
        assert set(ordering.scores) == {0.5}
        assert set(model.feature_importance().values()) == {0.0}

    def test_missing_label_rejected(self):
        # A domain absent from the F1 matrix leaves its pairs without a label.
        features, f1 = pair_world(DOMAINS, seed=3)
        matrix = f1_matrix([d for d in DOMAINS if d != "toys"], f1)
        with pytest.raises(ValidationError, match=r"F1 missing for pair \('toys', 'books'\)"):
            loto_rows(DOMAINS, "predictor", features, matrix, 0.8)

    def test_one_scoring_call(self, monkeypatch):
        rows, _ = monotone_world(DOMAINS, seed=4)
        split = loto_splits(DOMAINS, "predictor")[2]
        calls = []
        predict_proba = GBDTModel.predict_proba

        def counting(model, X):
            calls.append(len(X))
            return predict_proba(model, X)

        monkeypatch.setattr(GBDTModel, "predict_proba", counting)
        success_predictor(rows, split, FAST)
        assert calls == [len(split.test)]

    def test_beats_random_ordering_on_monotone_worlds(self):
        predictor_hits = 0
        random_hits = 0
        trials = 0
        for seed in range(20):
            rows, affinity = monotone_world(DOMAINS, seed=100 + seed)
            rng = np.random.default_rng(900 + seed)
            for split in loto_splits(DOMAINS, "predictor"):
                _, ordering, _ = success_predictor(rows, split, FAST)
                truth = max(
                    (d for d in DOMAINS if d != split.target),
                    key=lambda s: affinity[(s, split.target)],
                )
                predictor_hits += ordering.ranked_sources[0] == truth
                random_pick = rng.permutation(
                    [d for d in DOMAINS if d != split.target]
                )[0]
                random_hits += random_pick == truth
                trials += 1
        assert predictor_hits >= random_hits
        assert predictor_hits / trials > 0.4  # far above the 0.2 chance rate


def source_quality_world(domains, seed, f1=None):
    """Affinity depends only on the source, so one global order is correct.

    Returns ranker rows and the source qualities; `f1` replaces every mean F1.
    """
    rng = np.random.default_rng(seed)
    levels = rng.permutation(np.linspace(0.15, 0.9, len(domains)))
    quality = {d: float(q) for d, q in zip(domains, levels)}
    features = {}
    f1_means = {}
    for t in domains:
        for s in domains:
            if s == t:
                continue
            features[(s, t)] = make_features(quality[s])
            f1_means[(s, t)] = quality[s] if f1 is None else f1
    rows = loto_rows(domains, "ranker", features, f1_matrix(domains, f1_means), 0.8)
    return rows, quality


class TestDomainRanker:
    def test_recovers_global_source_order(self):
        rows, quality = source_quality_world(DOMAINS, seed=4)
        split = loto_splits(DOMAINS, "ranker")[2]
        model, ordering, _ = domain_ranker(
            rows, split, GBDTParams(trees=60, depth=3), repeats=11, seed=0
        )
        expected = sorted(
            (d for d in DOMAINS if d != split.target),
            key=lambda d: -quality[d],
        )
        assert list(ordering.ranked_sources) == expected
        assert all(b >= a for a, b in zip(ordering.scores, ordering.scores[1:]))

    def test_ordering_is_permutation(self):
        rows, _ = source_quality_world(DOMAINS, seed=5)
        for split in loto_splits(DOMAINS, "ranker")[:2]:
            _, ordering, _ = domain_ranker(rows, split, FAST, repeats=3, seed=1)
            assert sorted(ordering.ranked_sources) == sorted(
                d for d in DOMAINS if d != split.target
            )

    def test_beats_random_on_concordance(self):
        def concordance(order, score):
            pairs = [
                (order[i], order[j])
                for i in range(len(order))
                for j in range(i + 1, len(order))
            ]
            return sum(score[a] >= score[b] for a, b in pairs) / len(pairs)

        ranker_total = 0.0
        random_total = 0.0
        n = 0
        for seed in range(5):
            rows, quality = source_quality_world(DOMAINS, 200 + seed)
            rng = np.random.default_rng(300 + seed)
            for split in loto_splits(DOMAINS, "ranker"):
                _, ordering, _ = domain_ranker(rows, split, FAST, repeats=5, seed=seed)
                ranker_total += concordance(list(ordering.ranked_sources), quality)
                random_total += concordance(
                    list(rng.permutation([d for d in DOMAINS if d != split.target])),
                    quality,
                )
                n += 1
        assert ranker_total / n > random_total / n

    def test_one_scoring_call_matches_per_pair_comparator(self, monkeypatch):
        rows, _ = source_quality_world(DOMAINS, seed=7)
        split = loto_splits(DOMAINS, "ranker")[1]
        calls = []
        predict_proba = GBDTModel.predict_proba

        def counting(model, X):
            calls.append(len(X))
            return predict_proba(model, X)

        monkeypatch.setattr(GBDTModel, "predict_proba", counting)
        model, ordering, _ = domain_ranker(rows, split, FAST, repeats=5, seed=3)
        assert calls == [len(split.test)]

        def prefers(a, b):
            s1, s2 = sorted((a, b))
            p = float(predict_proba(model, rows[(s1, s2, split.target)][0][None, :])[0])
            return p >= 0.5 if a == s1 else p < 0.5

        candidates = sorted({s for key in split.test for s in key[:2]})
        ranked = multi_sort(candidates, prefers, repeats=5, seed=3)
        assert ordering == Ordering(
            split.target,
            tuple(item for item, _ in ranked),
            tuple(pos for _, pos in ranked),
        )

    def test_tied_preferences_fall_back_to_name_order(self):
        # Every source equally good: each preference label is 1, one class.
        rows, _ = source_quality_world(DOMAINS, seed=6, f1=0.5)
        split = loto_splits(DOMAINS, "ranker")[1]
        model, ordering, _ = domain_ranker(rows, split, FAST, repeats=5, seed=2)
        assert model.trees == []
        others = tuple(d for d in DOMAINS if d != split.target)
        assert ordering.ranked_sources == others
        assert ordering.scores == tuple(float(i) for i in range(len(others)))

    def test_missing_sample_rejected(self):
        # A pair absent from the feature matrix leaves its ranker rows unbuilt.
        features, f1 = pair_world(DOMAINS, seed=6)
        del features[("kitchen", "books")]
        with pytest.raises(ValidationError,
                           match=r"features missing for pair \('kitchen', 'books'\)"):
            loto_rows(DOMAINS, "ranker", features, f1_matrix(DOMAINS, f1), 0.8)


class TestOrderingPersistence:
    def test_round_trip(self, tmp_path):
        orderings = [
            Ordering("t1", ("b", "a", "c"), (0.9, 0.51, 0.1)),
            Ordering("t2", ("a", "c", "b"), (2.0 / 3.0, 1.2, 3.75)),
        ]
        path = tmp_path / "orderings.csv"
        save_orderings(orderings, path)
        back = load_orderings(path)
        assert set(back) == {"t1", "t2"}
        for o in orderings:
            assert back[o.target].ranked_sources == o.ranked_sources
            assert back[o.target].scores == o.scores

    def test_csv_shape(self, tmp_path):
        path = tmp_path / "orderings.csv"
        save_orderings([Ordering("t", ("x", "y"), (0.7, 0.2))], path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "target,rank,source,score"
        assert lines[1].startswith("t,1,x,")
        assert lines[2].startswith("t,2,y,")

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(ValidationError, match="header"):
            load_orderings(path)

    def test_gapped_ranks_rejected(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("target,rank,source,score\nt,1,x,0.5\nt,3,y,0.2\n")
        with pytest.raises(ValidationError, match="contiguous"):
            load_orderings(path)


class TestSplitType:
    def test_fields(self):
        s = LotoSplit("t", (("a", "u"),), (("a", "t"),))
        assert s.target == "t" and len(s.train) == 1
