"""Ordering quality metrics and result tables.

CRP counts exact position matches between a predicted and a true source
ordering; Top-N is the set overlap of their first N entries. Tables
aggregate those metrics per target (with an AVERAGE row) and per domain
(transfer summary). PCA projections of encoded domain pairs are exported
for visual checks.
"""
from __future__ import annotations

import csv
import io
import logging
from dataclasses import dataclass

import numpy as np

from .downstream import F1Matrix
from .errors import ComputationError, ValidationError
from .meta import Ordering

log = logging.getLogger(__name__)

METRIC_COLUMNS = ("f1", "accuracy", "crp", "top1", "top3", "top5")


def true_ordering(matrix: F1Matrix, target: str) -> Ordering:
    """Sources sorted by mean F1 on the target, best first, ties by name."""
    if target not in matrix.domains:
        raise ValidationError(f"unknown target {target!r}")
    sources = [d for d in matrix.domains if d != target]
    scored = sorted(sources, key=lambda s: (-matrix.entry(s, target), s))
    return Ordering(target, tuple(scored), tuple(matrix.entry(s, target) for s in scored))


def _check_comparable(pred: Ordering, truth: Ordering) -> None:
    if pred.target != truth.target:
        raise ValidationError(
            f"orderings for different targets: {pred.target!r} vs {truth.target!r}"
        )
    if set(pred.ranked_sources) != set(truth.ranked_sources):
        raise ValidationError("orderings rank different candidate sets")


def crp(pred: Ordering, truth: Ordering) -> float:
    """Fraction of rank positions where both orderings name the same source."""
    _check_comparable(pred, truth)
    matches = sum(p == t for p, t in zip(pred.ranked_sources, truth.ranked_sources))
    return matches / len(truth.ranked_sources)


def top_n(pred: Ordering, truth: Ordering, n: int) -> float:
    """Overlap of the two top-n source sets, as a fraction of n."""
    _check_comparable(pred, truth)
    if not 1 <= n <= len(truth.ranked_sources):
        raise ValidationError(
            f"n must be in [1, {len(truth.ranked_sources)}], got {n}"
        )
    overlap = set(pred.ranked_sources[:n]) & set(truth.ranked_sources[:n])
    return len(overlap) / n


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@dataclass(frozen=True)
class OrderingReport:
    """Per-target ordering metrics for each variant, plus column means."""

    targets: tuple
    variants: tuple
    rows: dict  # target -> variant -> metric -> float
    average: dict  # variant -> metric -> float

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out)
        header = ["target"] + [
            f"{v}_{m}" for v in self.variants for m in METRIC_COLUMNS
        ]
        writer.writerow(header)
        for target in self.targets:
            writer.writerow(
                [target]
                + [_fmt(self.rows[target][v][m]) for v in self.variants for m in METRIC_COLUMNS]
            )
        writer.writerow(
            ["AVERAGE"]
            + [_fmt(self.average[v][m]) for v in self.variants for m in METRIC_COLUMNS]
        )
        return out.getvalue()

    def render(self) -> str:
        names = list(self.targets) + ["AVERAGE"]
        width = max(len(n) for n in names + ["target"])
        lines = []
        for v in self.variants:
            lines.append(f"[{v}]")
            lines.append(
                "target".ljust(width)
                + "".join(m.rjust(10) for m in METRIC_COLUMNS)
            )
            for target in self.targets:
                lines.append(
                    target.ljust(width)
                    + "".join(f"{self.rows[target][v][m]:10.3f}" for m in METRIC_COLUMNS)
                )
            lines.append(
                "AVERAGE".ljust(width)
                + "".join(f"{self.average[v][m]:10.3f}" for m in METRIC_COLUMNS)
            )
            lines.append("")
        return "\n".join(lines)


def build_table1(orderings, truths, metrics) -> OrderingReport:
    """Assemble the per-target ordering grid for one meta-model mode.

    All three inputs are keyed by (variant, target): predicted Ordering,
    true Ordering, and a mapping with the meta-classifier's own held-out
    "f1" and "accuracy". Every cell of the grid must be present.
    """
    variants = tuple(sorted({v for v, _ in orderings}))
    targets = tuple(sorted({t for _, t in orderings}))
    if not variants or not targets:
        raise ValidationError("no orderings given")

    rows: dict = {}
    for target in targets:
        rows[target] = {}
        for v in variants:
            for name, mapping in (
                ("ordering", orderings), ("truth", truths), ("metrics", metrics),
            ):
                if (v, target) not in mapping:
                    raise ValidationError(
                        f"{name} cell missing for variant {v!r}, target {target!r}"
                    )
            pred, truth = orderings[(v, target)], truths[(v, target)]
            cell = {
                "f1": float(metrics[(v, target)]["f1"]),
                "accuracy": float(metrics[(v, target)]["accuracy"]),
                "crp": crp(pred, truth),
                "top1": top_n(pred, truth, 1),
                "top3": top_n(pred, truth, 3),
                "top5": top_n(pred, truth, 5),
            }
            for m, value in cell.items():
                if not 0.0 <= value <= 1.0:
                    raise ValidationError(
                        f"{m} for variant {v!r}, target {target!r} is {value}, not in [0,1]"
                    )
            rows[target][v] = cell

    average = {
        v: {
            m: sum(rows[t][v][m] for t in targets) / len(targets)
            for m in METRIC_COLUMNS
        }
        for v in variants
    }
    return OrderingReport(targets, variants, rows, average)


@dataclass(frozen=True)
class TransferReport:
    """Per-domain transfer summary: in-domain F1, cross-domain means,
    success counts (out of #domains - 1) for each variant."""

    domains: tuple
    variants: tuple
    in_domain: dict  # domain -> float
    cross_domain: dict  # variant -> domain -> float
    successes: dict  # variant -> domain -> int

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out)
        header = ["domain", "in_domain_f1"]
        for v in self.variants:
            header += [f"{v}_cross_f1", f"{v}_successes"]
        writer.writerow(header)
        for d in self.domains:
            row = [d, _fmt(self.in_domain[d])]
            for v in self.variants:
                row += [_fmt(self.cross_domain[v][d]), str(self.successes[v][d])]
            writer.writerow(row)
        return out.getvalue()

    def render(self) -> str:
        width = max(len(d) for d in self.domains + ("domain",))
        cols = [("in_domain", None)]
        for v in self.variants:
            cols.append((f"{v}_f1", v))
            cols.append((f"{v}_ok", v))
        widths = [max(len(name) + 2, 9) for name, _ in cols]
        header = "domain".ljust(width) + "".join(
            name.rjust(w) for (name, _), w in zip(cols, widths)
        )
        lines = [header]
        for d in self.domains:
            cells = [f"{self.in_domain[d]:.3f}"]
            for v in self.variants:
                cells.append(f"{self.cross_domain[v][d]:.3f}")
                cells.append(str(self.successes[v][d]))
            lines.append(
                d.ljust(width) + "".join(c.rjust(w) for c, w in zip(cells, widths))
            )
        return "\n".join(lines)


def build_table2(matrices, success) -> TransferReport:
    """Summarize transfer per domain from the per-variant F1 matrices.

    matrices maps variant -> F1Matrix; success maps variant -> the 0/1
    success labels keyed by ordered (source, target) pair. The in-domain
    column reads the first variant's diagonal; `cross_domain_matrix` keeps
    that diagonal variant-independent by always scoring self-pairs on raw
    representations.
    """
    variants = tuple(sorted(matrices))
    if not variants:
        raise ValidationError("no matrices given")
    domains = matrices[variants[0]].domains
    for v in variants:
        if matrices[v].domains != domains:
            raise ValidationError(f"matrix for {v!r} covers different domains")
        if v not in success:
            raise ValidationError(f"success labels missing for variant {v!r}")

    in_domain = {d: matrices[variants[0]].entry(d, d) for d in domains}
    for v in variants[1:]:
        drift = max(abs(matrices[v].entry(d, d) - in_domain[d]) for d in domains)
        if drift > 1e-9:
            log.warning("diagonals differ across variants by up to %.3g", drift)

    cross_domain: dict = {}
    successes: dict = {}
    for v in variants:
        cross_domain[v] = {}
        successes[v] = {}
        for t in domains:
            others = [s for s in domains if s != t]
            cross_domain[v][t] = sum(matrices[v].entry(s, t) for s in others) / len(others)
            for s in others:
                if (s, t) not in success[v]:
                    raise ValidationError(f"success label missing for pair {(s, t)}")
            count = int(sum(success[v][(s, t)] for s in others))
            if not 0 <= count <= len(domains) - 1:
                raise ComputationError(f"success count {count} out of range")
            successes[v][t] = count
    return TransferReport(domains, variants, in_domain, cross_domain, successes)


def _principal_components(X: np.ndarray, k: int = 2):
    """Top-k eigenvectors of the sample covariance, largest variance first.

    Each component's largest-magnitude entry is positive. Returns
    (components (k, d), variances (k,)) with components orthonormal.
    """
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    centered = X - X.mean(axis=0)
    cov = centered.T @ centered / max(n - 1, 1)
    total_var = float(np.trace(cov))
    if total_var <= 0.0:
        raise ValidationError("data has zero variance; nothing to project")
    evals, evecs = np.linalg.eigh(cov)
    if d < k or evals[-k] <= total_var * 1e-15:
        raise ComputationError(
            f"covariance is rank deficient; fewer than {k} principal directions exist"
        )
    comp = evecs[:, ::-1][:, :k].T
    signs = np.sign(comp[np.arange(k), np.argmax(np.abs(comp), axis=1)])
    return comp * signs[:, None], evals[::-1][:k]


def pca_export(source_encoded, target_encoded, path,
               source_name: str = "source", target_name: str = "target") -> None:
    """Project both domains' encodings onto their shared top-2 principal
    components and write `domain,x,y` rows."""
    Xs = np.asarray(source_encoded, dtype=np.float64)
    Xt = np.asarray(target_encoded, dtype=np.float64)
    if Xs.ndim != 2 or Xt.ndim != 2 or Xs.shape[1] != Xt.shape[1]:
        raise ValidationError(
            f"encodings must share a feature dim, got {Xs.shape} and {Xt.shape}"
        )
    pooled = np.vstack([Xs, Xt])
    comp, _ = _principal_components(pooled, k=2)
    coords = (pooled - pooled.mean(axis=0)) @ comp.T
    tags = [source_name] * len(Xs) + [target_name] * len(Xt)
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["domain", "x", "y"])
        for tag, (x, y) in zip(tags, coords):
            writer.writerow([tag, _fmt(x), _fmt(y)])
