import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domainsel.downstream import F1Matrix, success_labels
from domainsel.errors import ComputationError, ValidationError
from domainsel.meta import Ordering
from domainsel.report import (
    _principal_components,
    build_table1,
    build_table2,
    crp,
    pca_export,
    top_n,
    true_ordering,
)

TRUE_STATS = [
    "StackOverflow", "AskUbuntu", "Apple", "Unix", "MRPC",
    "SuperUser", "SICK", "Math", "PAWS", "Quora",
]
PRED_STATS = [
    "StackOverflow", "Math", "Apple", "SuperUser", "Unix",
    "AskUbuntu", "SICK", "MRPC", "PAWS", "Quora",
]


def ordering_of(target, names):
    return Ordering(target, tuple(names), tuple(0.9 - 0.05 * i for i in range(len(names))))


def matrix_from_mean(domains, mean, variant="dt"):
    mean = np.asarray(mean, dtype=np.float64)
    return F1Matrix(tuple(domains), {0: mean.copy()}, mean, variant)


def stats_matrix():
    domains = ["Stats"] + sorted(TRUE_STATS)
    d = len(domains)
    mean = np.full((d, d), 0.5)
    np.fill_diagonal(mean, 0.9)
    t = domains.index("Stats")
    for rank, name in enumerate(TRUE_STATS):
        mean[domains.index(name), t] = 0.95 - 0.04 * rank
    return matrix_from_mean(domains, mean)


class TestWorkedExample:
    """Ten-source worked example with hand-computed metric values."""

    def test_true_ordering_recovered(self):
        ordering = true_ordering(stats_matrix(), "Stats")
        assert list(ordering.ranked_sources) == TRUE_STATS

    def test_crp_exactly_half(self):
        pred = ordering_of("Stats", PRED_STATS)
        truth = true_ordering(stats_matrix(), "Stats")
        assert crp(pred, truth) == 0.5

    def test_top_n_values_exact(self):
        pred = ordering_of("Stats", PRED_STATS)
        truth = true_ordering(stats_matrix(), "Stats")
        assert top_n(pred, truth, 1) == 1.0
        assert top_n(pred, truth, 3) == 2 / 3
        assert top_n(pred, truth, 5) == 3 / 5


class TestTrueOrdering:
    def test_distinct_values_strict_sort(self):
        mean = np.array([[0.9, 0.3], [0.7, 0.9]])
        m = matrix_from_mean(["a", "b"], mean)
        assert true_ordering(m, "a").ranked_sources == ("b",)
        assert true_ordering(m, "b").ranked_sources == ("a",)

    def test_equal_values_tie_break_lexicographic(self):
        mean = np.full((3, 3), 0.6)
        np.fill_diagonal(mean, 0.9)
        m = matrix_from_mean(["zed", "yak", "cow"], mean)
        first = true_ordering(m, "yak")
        second = true_ordering(m, "yak")
        assert first.ranked_sources == ("cow", "zed")
        assert first == second

    def test_scores_are_mean_f1(self):
        m = stats_matrix()
        ordering = true_ordering(m, "Stats")
        for s, score in zip(ordering.ranked_sources, ordering.scores):
            assert score == m.entry(s, "Stats")

    def test_unknown_target_rejected(self):
        with pytest.raises(ValidationError):
            true_ordering(stats_matrix(), "nope")


class TestMetricErrors:
    def test_target_mismatch(self):
        with pytest.raises(ValidationError):
            crp(ordering_of("t1", ["a", "b"]), ordering_of("t2", ["a", "b"]))

    def test_candidate_mismatch(self):
        with pytest.raises(ValidationError):
            crp(ordering_of("t", ["a", "b"]), ordering_of("t", ["a", "c"]))

    def test_top_n_out_of_range(self):
        pred = ordering_of("t", ["a", "b"])
        truth = ordering_of("t", ["b", "a"])
        with pytest.raises(ValidationError):
            top_n(pred, truth, 0)
        with pytest.raises(ValidationError):
            top_n(pred, truth, 3)


NAMES = ["ant", "bee", "cat", "dog", "elk", "fox"]


@st.composite
def two_permutations(draw):
    pred = draw(st.permutations(NAMES))
    truth = draw(st.permutations(NAMES))
    return ordering_of("t", pred), ordering_of("t", truth)


class TestMetricProperties:
    @given(two_permutations())
    @settings(max_examples=60, deadline=None)
    def test_ranges_and_full_overlap(self, pair):
        pred, truth = pair
        assert 0.0 <= crp(pred, truth) <= 1.0
        assert top_n(pred, truth, 1) in (0.0, 1.0)
        assert top_n(pred, truth, len(NAMES)) == 1.0

    @given(two_permutations())
    @settings(max_examples=60, deadline=None)
    def test_renaming_invariance(self, pair):
        pred, truth = pair
        alias = {n: f"dom{i}" for i, n in enumerate(NAMES)}
        pred2 = ordering_of("t", [alias[n] for n in pred.ranked_sources])
        truth2 = ordering_of("t", [alias[n] for n in truth.ranked_sources])
        assert crp(pred, truth) == crp(pred2, truth2)
        for n in (1, 3, 5):
            assert top_n(pred, truth, n) == top_n(pred2, truth2, n)

    def test_identity_gives_one(self):
        o = ordering_of("t", NAMES)
        assert crp(o, o) == 1.0

    def test_even_reversal_gives_zero(self):
        pred = ordering_of("t", NAMES[::-1])
        truth = ordering_of("t", NAMES)
        assert crp(pred, truth) == 0.0


def table1_fixture():
    truth_names = NAMES
    preds = {
        "t1": ["bee", "ant", "cat", "dog", "elk", "fox"],
        "t2": list(NAMES),
    }
    orderings, truths, metrics = {}, {}, {}
    for v in ("dt", "msdar"):
        for t, pred in preds.items():
            orderings[(v, t)] = ordering_of(t, pred)
            truths[(v, t)] = ordering_of(t, truth_names)
            metrics[(v, t)] = {"f1": 0.75 if t == "t1" else 0.5, "accuracy": 0.8}
    return orderings, truths, metrics


class TestTable1:
    def test_grid_values(self):
        orderings, truths, metrics = table1_fixture()
        report = build_table1(orderings, truths, metrics)
        assert report.targets == ("t1", "t2")
        assert report.variants == ("dt", "msdar")
        cell = report.rows["t1"]["dt"]
        assert cell["crp"] == 4 / 6
        assert cell["top1"] == 0.0
        assert cell["top3"] == 1.0
        assert cell["f1"] == 0.75
        assert report.rows["t2"]["dt"]["crp"] == 1.0

    def test_average_row_is_column_mean(self):
        orderings, truths, metrics = table1_fixture()
        report = build_table1(orderings, truths, metrics)
        for v in report.variants:
            for m in ("f1", "accuracy", "crp", "top1", "top3", "top5"):
                want = sum(report.rows[t][v][m] for t in report.targets) / 2
                assert abs(report.average[v][m] - want) < 1e-12

    def test_single_target_average_equals_row(self):
        orderings, truths, metrics = table1_fixture()
        keep = {k: v for k, v in orderings.items() if k[1] == "t1"}
        report = build_table1(
            keep,
            {k: v for k, v in truths.items() if k[1] == "t1"},
            {k: v for k, v in metrics.items() if k[1] == "t1"},
        )
        assert report.targets == ("t1",)
        assert report.average == {
            v: report.rows["t1"][v] for v in report.variants
        }

    def test_missing_cell_named(self):
        orderings, truths, metrics = table1_fixture()
        del truths[("msdar", "t2")]
        with pytest.raises(ValidationError, match="msdar.*t2"):
            build_table1(orderings, truths, metrics)

    def test_out_of_range_metric_rejected(self):
        orderings, truths, metrics = table1_fixture()
        metrics[("dt", "t1")] = {"f1": 1.5, "accuracy": 0.5}
        with pytest.raises(ValidationError):
            build_table1(orderings, truths, metrics)

    def test_csv_and_text_shapes(self):
        orderings, truths, metrics = table1_fixture()
        report = build_table1(orderings, truths, metrics)
        lines = report.to_csv().strip().splitlines()
        assert lines[0].startswith("target,dt_f1,dt_accuracy")
        assert len(lines) == 1 + 2 + 1
        assert lines[-1].startswith("AVERAGE,")
        text = report.render()
        assert "[dt]" in text and "[msdar]" in text


def transfer_fixture():
    domains = ["a", "b", "c"]
    mean_dt = np.array([
        [0.90, 0.50, 0.70],
        [0.80, 0.85, 0.30],
        [0.75, 0.20, 0.80],
    ])
    mean_ms = np.array([
        [0.90, 0.75, 0.70],
        [0.85, 0.85, 0.75],
        [0.88, 0.80, 0.80],
    ])
    matrices = {
        "dt": matrix_from_mean(domains, mean_dt, "dt"),
        "msdar": matrix_from_mean(domains, mean_ms, "msdar"),
    }
    success = {v: success_labels(m, 0.8)[1] for v, m in matrices.items()}
    return matrices, success


class TestTable2:
    def test_in_domain_and_cross_means(self):
        matrices, success = transfer_fixture()
        report = build_table2(matrices, success)
        assert report.in_domain == {"a": 0.90, "b": 0.85, "c": 0.80}
        assert report.cross_domain["dt"]["a"] == pytest.approx((0.80 + 0.75) / 2)
        assert report.cross_domain["dt"]["b"] == pytest.approx((0.50 + 0.20) / 2)
        assert report.cross_domain["msdar"]["c"] == pytest.approx((0.70 + 0.75) / 2)

    def test_success_counts(self):
        matrices, success = transfer_fixture()
        report = build_table2(matrices, success)
        # dt ratios vs a: 0.80/0.90 and 0.75/0.90 both < 0.8? 0.888, 0.833 -> both succeed
        assert report.successes["dt"]["a"] == 2
        # dt vs b: 0.50/0.85 and 0.20/0.85 both fail
        assert report.successes["dt"]["b"] == 0
        # dt vs c: 0.70/0.80 = 0.875 ok, 0.30/0.80 fails
        assert report.successes["dt"]["c"] == 1

    def test_saturated_variant_counts_all(self):
        matrices, success = transfer_fixture()
        report = build_table2(matrices, success)
        assert [report.successes["msdar"][d] for d in ("a", "b", "c")] == [2, 2, 2]

    def test_bounds(self):
        matrices, success = transfer_fixture()
        report = build_table2(matrices, success)
        for v in report.variants:
            for d in report.domains:
                assert 0 <= report.successes[v][d] <= len(report.domains) - 1

    def test_domain_mismatch_rejected(self):
        matrices, success = transfer_fixture()
        other = matrix_from_mean(["a", "b", "d"], np.full((3, 3), 0.5), "msdar")
        matrices["msdar"] = other
        with pytest.raises(ValidationError):
            build_table2(matrices, success)

    def test_missing_success_label_rejected(self):
        matrices, success = transfer_fixture()
        del success["dt"][("b", "a")]
        with pytest.raises(ValidationError, match="success label"):
            build_table2(matrices, success)

    def test_csv_and_text_shapes(self):
        matrices, success = transfer_fixture()
        report = build_table2(matrices, success)
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "domain,in_domain_f1,dt_cross_f1,dt_successes,msdar_cross_f1,msdar_successes"
        assert len(lines) == 4
        assert len(report.render().splitlines()) == 4


class TestPCA:
    def test_axis_aligned_components(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 2)) * np.array([5.0, 1.0])
        path = tmp_path / "pca.csv"
        pca_export(X[:100], X[100:], path, "s", "t")
        with path.open(newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["domain", "x", "y"]
        assert len(rows) == 201
        coords = np.array([[float(r[1]), float(r[2])] for r in rows[1:]])
        centered = X - X.mean(axis=0)
        corr = np.corrcoef(coords[:, 0], centered[:, 0])[0, 1]
        assert abs(corr) > 0.999
        assert coords[:, 0].var() >= coords[:, 1].var()

    def test_matches_dense_eigendecomposition(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(80, 5)) @ rng.normal(size=(5, 5))
        comp, var = _principal_components(X, k=2)
        centered = X - X.mean(axis=0)
        cov = centered.T @ centered / (len(X) - 1)
        evals, evecs = np.linalg.eigh(cov)
        for i, ref in enumerate((evecs[:, -1], evecs[:, -2])):
            assert min(
                np.linalg.norm(comp[i] - ref), np.linalg.norm(comp[i] + ref)
            ) < 1e-6
        assert np.allclose(var, evals[::-1][:2], rtol=1e-9)

    def test_variance_ordering(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(120, 4))
        comp, var = _principal_components(X, k=2)
        assert var[0] >= var[1]
        assert abs(np.dot(comp[0], comp[1])) < 1e-8

    def test_zero_variance_rejected(self, tmp_path):
        flat = np.ones((10, 3))
        with pytest.raises(ValidationError, match="zero variance"):
            pca_export(flat, flat, tmp_path / "x.csv")

    def test_rank_one_data_rejected(self, tmp_path):
        line = np.outer(np.arange(12.0), np.array([1.0, 2.0]))
        with pytest.raises(ComputationError, match="rank deficient"):
            pca_export(line[:6], line[6:], tmp_path / "x.csv")

    def test_dim_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            pca_export(np.ones((4, 3)), np.ones((4, 2)), tmp_path / "x.csv")

    def test_deterministic_output(self, tmp_path):
        rng = np.random.default_rng(3)
        Xs, Xt = rng.normal(size=(40, 6)), rng.normal(size=(30, 6))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        pca_export(Xs, Xt, p1)
        pca_export(Xs, Xt, p2)
        assert p1.read_bytes() == p2.read_bytes()
