import numpy as np
import pytest

from domainsel.errors import ValidationError
from domainsel.gbdt import GBDTModel, GBDTParams
from domainsel.meta import (
    LotoSplit,
    Ordering,
    RankerSample,
    _noisy_quicksort,
    build_ranker_samples,
    domain_ranker,
    load_orderings,
    loto_splits,
    multi_sort,
    save_orderings,
    success_predictor,
)
from domainsel.simfeat import FeatureVector


def make_features(f1):
    return FeatureVector(f1, 0.5, 50, 50, 8.0, 8.0, 0.1, 0.2, 20.0, 0.3)


def monotone_world(domains, seed):
    """Pairwise affinities drive both f1 and the success label."""
    rng = np.random.default_rng(seed)
    features, labels, affinity = {}, {}, {}
    for t in domains:
        for s in domains:
            if s == t:
                continue
            a = float(rng.uniform(0.05, 0.95))
            affinity[(s, t)] = a
            features[(s, t)] = make_features(a)
            labels[(s, t)] = int(a > 0.5)
    return features, labels, affinity


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
        # comparator that never prefers anything: every run keeps the
        # shuffled order, so mean positions are close; force an exact tie
        # with repeats=2 and a comparator keyed to an external flag
        calls = {"n": 0}

        def alternating(a, b):
            calls["n"] += 1
            return False

        ranked = multi_sort(["b", "a"], alternating, repeats=2, seed=1)
        if ranked[0][1] == ranked[1][1]:
            assert [it for it, _ in ranked] == ["a", "b"]

    def test_duplicates_rejected(self):
        with pytest.raises(ValidationError):
            multi_sort(["a", "a"], lambda x, y: x < y)

    def test_zero_repeats_rejected(self):
        with pytest.raises(ValidationError):
            multi_sort(["a", "b"], lambda x, y: x < y, repeats=0)


class TestRankerSamples:
    def test_canonical_pair_and_label(self):
        features = {
            ("s1", "t"): make_features(0.9),
            ("s2", "t"): make_features(0.2),
            ("s3", "t"): make_features(0.5),
        }
        f1_means = {("s1", "t"): 0.8, ("s2", "t"): 0.3, ("s3", "t"): 0.3}
        samples = build_ranker_samples(features, f1_means)
        by_pair = {s.pair: s for s in samples}
        assert set(by_pair) == {("s1", "s2"), ("s1", "s3"), ("s2", "s3")}
        assert by_pair[("s1", "s2")].label == 1
        assert by_pair[("s2", "s3")].label == 1  # ties count as "first wins"
        row = by_pair[("s1", "s3")].features
        assert row[0] == 0.9 and row[10] == 0.5

    def test_missing_f1_rejected(self):
        features = {("s1", "t"): make_features(0.9), ("s2", "t"): make_features(0.2)}
        with pytest.raises(ValidationError, match="missing F1"):
            build_ranker_samples(features, {("s1", "t"): 0.8})

    def test_sample_validation(self):
        row = np.zeros(20)
        with pytest.raises(ValidationError):
            RankerSample("t", ("b", "a"), row, 1)
        with pytest.raises(ValidationError):
            RankerSample("a", ("a", "b"), row, 1)
        with pytest.raises(ValidationError):
            RankerSample("t", ("a", "b"), row, 2)
        with pytest.raises(ValidationError):
            RankerSample("t", ("a", "b"), np.zeros(10), 1)


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
        features, labels, _ = monotone_world(DOMAINS, seed=0)
        split = loto_splits(DOMAINS, "predictor")[0]
        model, ordering = success_predictor(features, labels, split, FAST)
        assert ordering.target == split.target
        assert sorted(ordering.ranked_sources) == sorted(
            d for d in DOMAINS if d != split.target
        )
        assert all(b <= a for a, b in zip(ordering.scores, ordering.scores[1:]))

    def test_importances_named_by_feature(self):
        features, labels, _ = monotone_world(DOMAINS, seed=1)
        split = loto_splits(DOMAINS, "predictor")[0]
        model, _ = success_predictor(features, labels, split, FAST)
        imp = model.feature_importance()
        assert set(imp) == {f"f{i}" for i in range(1, 11)}
        assert imp["f1"] > 0.9  # only informative feature in this world
        assert abs(sum(imp.values()) - 1.0) < 1e-9

    def test_single_class_training_labels_error(self):
        features, labels, _ = monotone_world(DOMAINS, seed=2)
        labels = {k: 1 for k in labels}
        split = loto_splits(DOMAINS, "predictor")[0]
        with pytest.raises(ValidationError, match="both classes"):
            success_predictor(features, labels, split, FAST)

    def test_missing_label_rejected(self):
        features, labels, _ = monotone_world(DOMAINS, seed=3)
        split = loto_splits(DOMAINS, "predictor")[0]
        del labels[split.train[0]]
        with pytest.raises(ValidationError, match="label missing"):
            success_predictor(features, labels, split, FAST)

    def test_beats_random_ordering_on_monotone_worlds(self):
        predictor_hits = 0
        random_hits = 0
        trials = 0
        for seed in range(20):
            features, labels, affinity = monotone_world(DOMAINS, seed=100 + seed)
            rng = np.random.default_rng(900 + seed)
            for split in loto_splits(DOMAINS, "predictor"):
                _, ordering = success_predictor(features, labels, split, FAST)
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


def source_quality_world(domains, seed):
    """Affinity depends only on the source, so one global order is correct."""
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
            f1_means[(s, t)] = quality[s]
    return features, f1_means, quality


class TestDomainRanker:
    def test_recovers_global_source_order(self):
        features, f1_means, quality = source_quality_world(DOMAINS, seed=4)
        samples = build_ranker_samples(features, f1_means)
        split = loto_splits(DOMAINS, "ranker")[2]
        model, ordering = domain_ranker(
            samples, split, GBDTParams(trees=60, depth=3), repeats=11, seed=0
        )
        expected = sorted(
            (d for d in DOMAINS if d != split.target),
            key=lambda d: -quality[d],
        )
        assert list(ordering.ranked_sources) == expected
        assert all(b >= a for a, b in zip(ordering.scores, ordering.scores[1:]))

    def test_ordering_is_permutation(self):
        features, f1_means, _ = source_quality_world(DOMAINS, seed=5)
        samples = build_ranker_samples(features, f1_means)
        for split in loto_splits(DOMAINS, "ranker")[:2]:
            _, ordering = domain_ranker(samples, split, FAST, repeats=3, seed=1)
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
            features, f1_means, quality = source_quality_world(DOMAINS, 200 + seed)
            samples = build_ranker_samples(features, f1_means)
            rng = np.random.default_rng(300 + seed)
            for split in loto_splits(DOMAINS, "ranker"):
                _, ordering = domain_ranker(samples, split, FAST, repeats=5, seed=seed)
                ranker_total += concordance(list(ordering.ranked_sources), quality)
                random_total += concordance(
                    list(rng.permutation([d for d in DOMAINS if d != split.target])),
                    quality,
                )
                n += 1
        assert ranker_total / n > random_total / n

    def test_one_scoring_call_matches_per_pair_comparator(self, monkeypatch):
        features, f1_means, _ = source_quality_world(DOMAINS, seed=7)
        samples = build_ranker_samples(features, f1_means)
        split = loto_splits(DOMAINS, "ranker")[1]
        calls = []
        predict_proba = GBDTModel.predict_proba

        def counting(model, X):
            calls.append(len(X))
            return predict_proba(model, X)

        monkeypatch.setattr(GBDTModel, "predict_proba", counting)
        model, ordering = domain_ranker(samples, split, FAST, repeats=5, seed=3)
        assert calls == [len(split.test)]

        by_pair = {s.pair: s for s in samples if s.target == split.target}

        def prefers(a, b):
            s1, s2 = sorted((a, b))
            p = float(predict_proba(model, by_pair[(s1, s2)].features[None, :])[0])
            return p >= 0.5 if a == s1 else p < 0.5

        candidates = sorted({s for key in split.test for s in key[:2]})
        ranked = multi_sort(candidates, prefers, repeats=5, seed=3)
        assert ordering == Ordering(
            split.target,
            tuple(item for item, _ in ranked),
            tuple(pos for _, pos in ranked),
        )

    def test_missing_sample_rejected(self):
        features, f1_means, _ = source_quality_world(DOMAINS, seed=6)
        samples = build_ranker_samples(features, f1_means)
        split = loto_splits(DOMAINS, "ranker")[0]
        with pytest.raises(ValidationError, match="ranker sample missing"):
            domain_ranker(samples[1:], split, FAST)


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
