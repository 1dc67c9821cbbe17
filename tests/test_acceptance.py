"""Acceptance gate: eight criteria, one printed verdict line each.

Lines go to the real stdout so they survive pytest capture. The slow
end-to-end criteria (6, 7) share one module-level world cache.
"""
import csv
import hashlib
import json
import shutil
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import domainsel.pipeline as pipeline_mod
from domainsel.adapt import (
    AdaptConfig,
    fit_domain_classifier,
    msda_layer,
    msdar_layer,
)
from domainsel.config import resolve_config, validate_config
from domainsel.corpus import DomainCorpus, TextPairExample, unigram_stats
from domainsel.downstream import load_f1_matrix
from domainsel.meta import Ordering, loto_splits, multi_sort
from domainsel.ngram_lm import perplexity, train_kn
from domainsel.pipeline import run_pipeline
from domainsel.report import crp, top_n
from domainsel.simfeat import kl_divergence, renyi_divergence, smoothed_pair
from domainsel.synth import mixture_overlap, spec_from_config
from domainsel.workspace import Workspace


# Replayed by conftest.py after capture ends, so the lines survive -q runs.
VERDICT_LINES = []


def _verdict(criterion: int, passed: bool, detail: str) -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}"
    VERDICT_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert passed, line


# --- criterion 1: worked ordering example, zero tolerance ------------------

TRUTH_10 = ["StackOverflow", "AskUbuntu", "Apple", "Unix", "MRPC",
            "SuperUser", "SICK", "Math", "PAWS", "Quora"]
PRED_10 = ["StackOverflow", "Math", "Apple", "SuperUser", "Unix",
           "AskUbuntu", "SICK", "MRPC", "PAWS", "Quora"]


def as_ordering(names):
    return Ordering(target="Stats", ranked_sources=tuple(names),
                    scores=tuple(float(len(names) - i) for i in range(len(names))))


def test_criterion_1_worked_example():
    t0 = time.time()
    truth, pred = as_ordering(TRUTH_10), as_ordering(PRED_10)
    values = (
        crp(truth, pred),
        top_n(truth, pred, 1),
        top_n(truth, pred, 3),
        top_n(truth, pred, 5),
    )
    expected = (0.5, 1.0, 2.0 / 3.0, 3.0 / 5.0)
    elapsed = time.time() - t0
    _verdict(
        1,
        values == expected and elapsed < 1.0,
        f"CRP={values[0]} top1={values[1]} top3={values[2]:.6f} "
        f"top5={values[3]:.6f} ({elapsed:.2f}s)",
    )


# --- criterion 2: LOTO split counts, zero tolerance ------------------------

def test_criterion_2_loto_counts():
    t0 = time.time()
    domains = [f"d{i:02d}" for i in range(11)]
    pred = loto_splits(domains, "predictor")
    rank = loto_splits(domains, "ranker")
    ok = (
        len(pred) == 11
        and all(len(s.train) == 100 and len(s.test) == 10 for s in pred)
        and len(rank) == 11
        and all(len(s.train) == 450 and len(s.test) == 45 for s in rank)
    )
    elapsed = time.time() - t0
    _verdict(
        2,
        ok and elapsed < 1.0,
        f"predictor 11x(100,10), ranker 11x(450,45) ({elapsed:.2f}s)",
    )


# --- criterion 3: closed form vs gradient descent oracle -------------------

def _corruption_moments(X, p):
    """Independent re-derivation of the corruption moments, column by column."""
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


def _gd_minimize(grad_fn, curvature_fn, shape, iters=3000):
    W = np.zeros(shape)
    for _ in range(iters):
        G = grad_fn(W)
        c = curvature_fn(G)
        if c <= 1e-30:
            break
        W = W - (np.sum(G * G) / c) * G
    return W


def test_criterion_3_closed_form_vs_oracle():
    t0 = time.time()
    worst_gd = worst_resid = worst_zero = 0.0
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)
        d = 3 + trial % 6  # never above 8
        p = 0.3 if trial % 2 == 0 else 0.6
        X = rng.normal(size=(d, 50)) + rng.normal(size=(d, 1))

        Q, P, _ = _corruption_moments(X, p)
        W_gd = _gd_minimize(
            grad_fn=lambda W: W @ Q - P,
            curvature_fn=lambda G: np.sum((G @ Q) * G),
            shape=(d, d + 1),
        )
        worst_gd = max(worst_gd, float(np.linalg.norm(msda_layer(X, p) - W_gd)))

        X_s, X_t = X[:, :25], X[:, 25:] - 1.0
        cfg = AdaptConfig(variant="msdar", layers=1, dropout_p=p, lam=1.0,
                          reg_target=1.0)
        W_r = msdar_layer(X_s, X_t, cfg)
        Qj, Pj, _ = _corruption_moments(np.hstack([X_s, X_t]), p)
        Q_t, _, m_t = _corruption_moments(X_t, p)
        u = fit_domain_classifier(X_s, X_t)
        residual = (
            Pj + cfg.lam * cfg.reg_target * np.outer(u, m_t)
            - W_r @ Qj - cfg.lam * np.outer(u, (u @ W_r) @ Q_t)
        )
        worst_resid = max(worst_resid, float(np.linalg.norm(residual)))

        cfg0 = AdaptConfig(variant="msdar", layers=1, dropout_p=p, lam=0.0)
        diff = np.linalg.norm(
            msdar_layer(X_s, X_t, cfg0) - msda_layer(np.hstack([X_s, X_t]), p)
        )
        worst_zero = max(worst_zero, float(diff))
    elapsed = time.time() - t0
    _verdict(
        3,
        worst_gd < 1e-3 and worst_resid < 1e-6 and worst_zero < 1e-9
        and elapsed < 30.0,
        f"max |W-W_gd|={worst_gd:.2e}, max residual={worst_resid:.2e}, "
        f"max |lam0-msda|={worst_zero:.2e} over 20 instances ({elapsed:.1f}s)",
    )


# --- criterion 4: divergence suite ------------------------------------------

class _Counts:
    def __init__(self, counts):
        self.counts = counts


def test_criterion_4_divergences():
    t0 = time.time()
    rng = np.random.default_rng(42)
    identical_zero = True
    nonneg = True
    max_gap = 0.0
    for _ in range(100):
        vocab = [f"w{i}" for i in range(int(rng.integers(20, 200)))]
        ca = {w: int(c) for w, c in zip(vocab, rng.integers(0, 60, len(vocab))) if c}
        cb = {w: int(c) for w, c in zip(vocab, rng.integers(0, 60, len(vocab))) if c}
        if not ca or not cb:
            continue
        p, q = smoothed_pair(_Counts(ca), _Counts(cb))
        kl_pp = kl_divergence(p, p)
        ry_pp = renyi_divergence(p, p, 0.99)
        identical_zero &= kl_pp == 0.0 and ry_pp == 0.0
        kl = kl_divergence(p, q)
        ry = renyi_divergence(p, q, 0.99)
        nonneg &= kl >= 0.0 and ry >= 0.0
        max_gap = max(max_gap, abs(ry - kl))
    elapsed = time.time() - t0
    _verdict(
        4,
        identical_zero and nonneg and max_gap < 0.02 and elapsed < 5.0,
        f"self-divergences exact 0, all >= 0, max |Renyi-KL|={max_gap:.4f} bits "
        f"({elapsed:.1f}s)",
    )


# --- criterion 5: trigram model validity ------------------------------------

def _pair_corpus(name, sentences):
    examples = tuple(
        TextPairExample(a, b, i % 2)
        for i, (a, b) in enumerate(zip(sentences[::2], sentences[1::2]))
    )
    return DomainCorpus(name=name, examples=examples)


def test_criterion_5_kn_validity(saved_counts):
    t0 = time.time()
    rng = np.random.default_rng(7)
    vocab = [f"tok{i}" for i in range(30)]  # fixture vocab stays under 50
    sentences = [
        " ".join(rng.choice(vocab, size=rng.integers(3, 9)))
        for _ in range(60)
    ]
    corpus = _pair_corpus("fixture", sentences)
    lm = train_kn(corpus)
    c3 = saved_counts(lm)[1]
    toks = sorted(lm.vocab)
    assert len(toks) <= 50

    max_dev = 0.0
    for u in toks:
        for v in toks:
            total = sum(lm.prob(u, v, w) for w in toks)
            max_dev = max(max_dev, abs(total - 1.0))

    unseen = 0.0
    for u in toks:
        for v in toks:
            for w in toks:
                if (u, v, w) not in c3:
                    unseen = lm.prob(u, v, w)
                    break
            if unseen:
                break
        if unseen:
            break
    own = perplexity(lm, corpus)
    other_vocab = [f"zzz{i}" for i in range(30)]
    other_sentences = [
        " ".join(rng.choice(other_vocab, size=rng.integers(3, 9)))
        for _ in range(60)
    ]
    other = perplexity(lm, _pair_corpus("disjoint", other_sentences))
    elapsed = time.time() - t0
    _verdict(
        5,
        max_dev < 1e-6 and unseen > 0.0 and own < other and elapsed < 10.0,
        f"max |sum-1|={max_dev:.2e}, unseen p={unseen:.2e} > 0, "
        f"PPL own={own:.1f} < disjoint={other:.1f} ({elapsed:.1f}s)",
    )


# --- criteria 6 and 7: end-to-end synthetic world ---------------------------

# One fixed world (pinned data seed), ten pipeline seeds varying every
# later stage.  The world's mixtures must spread transfer quality enough
# that each leave-one-target-out training set sees both outcome classes.
C6_CONFIG = {
    "data": {"seed": 0,
             "synth": {"domains": 6, "topics": 8, "words_per_topic": 60,
                       "examples_per_domain": 90, "tokens_per_text": 10,
                       "mixture_concentration": 0.15, "noise": 0.02}},
    "embed": {"dim": 16, "epochs": 3},
    "adapt": {"variants": ["none"]},
    "downstream": {"seeds": [0, 1], "max_epochs": 80, "hidden": [8, 4],
                   "patience": 12, "lr": 0.01},
    "meta": {"trees": 60, "depth": 3, "repeats": 11},
}
C6_SEEDS = list(range(10))
_TIMINGS = {}


def _table1_average(path):
    with open(path, encoding="utf-8") as f:
        rows = list(csv.reader(f))
    header, avg = rows[0], rows[-1]
    assert avg[0] == "AVERAGE"
    return {header[i]: float(avg[i]) for i in range(1, len(header))}


@pytest.fixture(scope="module")
def synthetic_worlds(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_worlds")
    t0 = time.time()
    runs = {}
    for seed in C6_SEEDS:
        cfg = resolve_config(validate_config(dict(C6_CONFIG, seed=seed)))
        ws = Workspace(root / f"seed{seed}")
        run_pipeline(ws, cfg)
        runs[seed] = (ws, cfg)
    _TIMINGS["c6"] = time.time() - t0
    return runs


def test_criterion_6_end_to_end(synthetic_worlds):
    hi, lo = [], []
    pred_top1, rank_top1, pred_crp, rank_crp = [], [], [], []
    for seed, (ws, cfg) in synthetic_worlds.items():
        spec = spec_from_config(cfg["data"]["synth"], cfg["data"]["seed"])
        matrix = load_f1_matrix(ws.path("downstream"), "none")
        names = list(matrix.domains)
        pairs = [(s, t) for s in names for t in names if s != t]
        overlaps = [mixture_overlap(spec, s, t) for s, t in pairs]
        med = float(np.median(overlaps))
        for (s, t), o in zip(pairs, overlaps):
            ratio = matrix.entry(s, t) / matrix.entry(t, t)
            (hi if o > med else lo).append(ratio)
        p = _table1_average(ws.path("report/table1_predictor.csv"))
        r = _table1_average(ws.path("report/table1_ranker.csv"))
        pred_top1.append(p["none_top1"])
        rank_top1.append(r["none_top1"])
        pred_crp.append(p["none_crp"])
        rank_crp.append(r["none_crp"])

    a = float(np.mean(hi)) > float(np.mean(lo))
    b = float(np.mean(pred_top1)) > 0.2 and float(np.mean(rank_top1)) > 0.2
    c = float(np.mean(rank_crp)) >= float(np.mean(pred_crp)) - 0.05
    elapsed = _TIMINGS["c6"]
    _verdict(
        6,
        a and b and c and elapsed < 900.0,
        f"(a) norm-F1 hi={np.mean(hi):.3f} > lo={np.mean(lo):.3f}; "
        f"(b) top1 pred={np.mean(pred_top1):.3f}, rank={np.mean(rank_top1):.3f} > 0.2; "
        f"(c) crp rank={np.mean(rank_crp):.3f} vs pred={np.mean(pred_crp):.3f} "
        f"({elapsed:.0f}s for 10 pipeline seeds)",
    )


def _csv_hashes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*.csv"))
    }


def test_criterion_7_determinism(synthetic_worlds, tmp_path, monkeypatch):
    # Open the pool for fits of any size. C6 has one variant, though, so its
    # downstream stage is one job, which runs on the calling thread.
    monkeypatch.setattr(pipeline_mod, "POOL_STEP_WORK", 0)
    t0 = time.time()
    cfg = resolve_config(validate_config(dict(C6_CONFIG, seed=C6_SEEDS[0])))
    runs = {}
    for label, jobs in (("j1", 1), ("j4", 4)):
        ws = Workspace(tmp_path / label)
        run_pipeline(ws, cfg, n_jobs=jobs)
        runs[label] = _csv_hashes(tmp_path / label)
    baseline = _csv_hashes(synthetic_worlds[C6_SEEDS[0]][0].root)
    elapsed = time.time() - t0
    expected = {"features/features.csv", "report/table1_predictor.csv",
                "report/table1_ranker.csv", "report/table2.csv"}
    identical = runs["j1"] == runs["j4"] == baseline and expected <= set(baseline)
    budget = 2 * _TIMINGS.get("c6", 450.0)
    _verdict(
        7,
        identical and elapsed < budget,
        f"{len(baseline)} CSVs byte-identical across reruns and --jobs 1 vs 4 "
        f"({elapsed:.0f}s < 2x criterion 6)",
    )


# --- criterion 8: multi_sort recovery ----------------------------------------

def test_criterion_8_multi_sort():
    t0 = time.time()
    items = ["a", "b", "c", "d", "e"]
    recovered = 0
    for trial in range(100):
        rng = np.random.default_rng(20000 + trial)

        def flip_less(x, y):
            truth = x < y
            return (not truth) if rng.random() < 0.1 else truth

        ranked = multi_sort(items, flip_less, repeats=15, seed=trial)
        recovered += [it for it, _ in ranked] == items

    consistent = all(
        [it for it, _ in multi_sort(items, lambda x, y: x < y,
                                    repeats=15, seed=s)] == items
        for s in range(100)
    )
    elapsed = time.time() - t0
    _verdict(
        8,
        recovered >= 80 and consistent and elapsed < 5.0,
        f"noisy recovery {recovered}/100, consistent comparator 100/100 "
        f"({elapsed:.1f}s)",
    )
