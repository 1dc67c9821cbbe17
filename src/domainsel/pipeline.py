"""Stage implementations over a workspace, in dependency order.

data -> embed -> lm -> features -> adapt -> downstream -> meta -> report.
Each stage is a set of independent jobs keyed to output files; a job runs
only when its outputs are missing or their recorded config hash changed.
Every artifact is reproduced byte-identically from the same config and
seeds, so reruns and parallel runs are interchangeable.
"""
from __future__ import annotations

import json
import logging

import numpy as np

from . import corpus as corpus_mod
from .adapt import AdaptConfig, AdaptModel, encode, stack_marginalized, train_sda
from .config import STAGES, stage_hashes
from .corpus import DomainCorpus, SPLITS
from .downstream import (
    cross_domain_matrix,
    f1_score,
    load_f1_matrix,
    pair_input,
    save_f1_matrix,
    success_labels,
)
from .embed import EmbeddingTable, SentenceEmbeddingProvider, train_skipgram
from .errors import ValidationError
from .gbdt import GBDTModel, GBDTParams
from .meta import (
    build_ranker_samples,
    domain_ranker,
    load_orderings,
    loto_splits,
    save_orderings,
    success_predictor,
)
from .ngram_lm import TrigramLM, train_kn
from .report import build_table1, build_table2, pca_export, true_ordering
from .simfeat import feature_vector, load_feature_matrix, save_feature_matrix
from .synth import child_seed, spec_from_config, synth_domain
from .workspace import Job, StageResult, Workspace, run_stage

log = logging.getLogger(__name__)


def _corpus_path(name: str) -> str:
    return f"corpora/{name}.json"


def domain_names(ws: Workspace) -> list:
    root = ws.path("corpora")
    if not root.exists():
        raise ValidationError("workspace has no corpora; run the data stage first")
    return sorted(p.stem for p in root.glob("*.json"))


def _load_corpora(ws: Workspace) -> dict:
    return {name: DomainCorpus.load(ws.path(_corpus_path(name))) for name in domain_names(ws)}


def _check_name(name: str) -> str:
    if not name or not all(c.isalnum() or c in "-_" for c in name):
        raise ValidationError(
            f"domain name {name!r} must use only letters, digits, '-' or '_'"
        )
    return name


def _data_jobs(ws: Workspace, cfg: dict) -> list:
    data = cfg["data"]
    ratios = tuple(data["split_ratios"])
    seed = data["seed"]
    jobs = []
    if data["mode"] == "synth":
        spec = spec_from_config(data["synth"], seed)

        def make_synth(name):
            def build():
                generated = synth_domain(spec, name)
                assigned = corpus_mod.split(
                    generated, ratios, seed=child_seed(seed, "split", name)
                )
                assigned.save(ws.path(_corpus_path(name)))
            return build

        for name in spec.domains:
            jobs.append(Job([_corpus_path(name)], make_synth(name), note=name))
    else:
        if not data["sources"]:
            raise ValidationError("ingest mode needs at least one data.sources entry")

        def make_ingest(src):
            def build():
                loaded = corpus_mod.load_domain(
                    src["path"], src["format"], src["name"],
                    src.get("binarize_threshold"),
                )
                assigned = corpus_mod.split(
                    loaded, ratios, seed=child_seed(seed, "split", src["name"])
                )
                assigned.save(ws.path(_corpus_path(src["name"])))
            return build

        for src in data["sources"]:
            _check_name(src["name"])
            jobs.append(Job([_corpus_path(src["name"])], make_ingest(src), note=src["name"]))
    return [jobs]


GLOBAL_TABLE = "embeddings/global.txt"


def _table_path(name: str) -> str:
    return f"embeddings/{name}.txt"


def _sentence_path(name: str, split: str, side: str) -> str:
    return f"sentences/{name}_{split}_{side}.npy"


def _embed_jobs(ws: Workspace, cfg: dict) -> list:
    e = cfg["embed"]
    names = domain_names(ws)
    if "global" in names:
        raise ValidationError("domain name 'global' collides with the shared table")
    kwargs = dict(dim=e["dim"], window=e["window"], negatives=e["negatives"],
                  epochs=e["epochs"])

    def build_global():
        corpora = _load_corpora(ws)
        merged = DomainCorpus(
            name="global",
            examples=tuple(ex for name in names for ex in corpora[name].subset("train")),
        )
        table = train_skipgram(merged, seed=child_seed(e["seed"], "global"), **kwargs)
        table.save(ws.path(GLOBAL_TABLE))

    def make_table(name):
        def build():
            loaded = DomainCorpus.load(ws.path(_corpus_path(name)))
            table = train_skipgram(
                loaded, seed=child_seed(e["seed"], "table", name), **kwargs
            )
            table.save(ws.path(_table_path(name)))
        return build

    def make_sentences(name):
        def build():
            provider = SentenceEmbeddingProvider.mean_pooled(
                EmbeddingTable.load(ws.path(GLOBAL_TABLE), domain="global")
            )
            loaded = DomainCorpus.load(ws.path(_corpus_path(name)))
            for split in SPLITS:
                examples = loaded.subset(split)
                if not examples:
                    raise ValidationError(f"domain {name} has no '{split}' examples")
                a = np.array([provider.embed_sentence(ex.text_a) for ex in examples])
                b = np.array([provider.embed_sentence(ex.text_b) for ex in examples])
                np.save(ws.path(_sentence_path(name, split, "a")), a)
                np.save(ws.path(_sentence_path(name, split, "b")), b)
        return build

    tables = [Job([GLOBAL_TABLE], build_global, note="global")]
    tables += [Job([_table_path(n)], make_table(n), note=n) for n in names]
    sentences = [
        Job(
            [_sentence_path(n, s, side) for s in SPLITS for side in ("a", "b")],
            make_sentences(n),
            note=n,
        )
        for n in names
    ]
    return [tables, sentences]


def _lm_path(name: str) -> str:
    return f"lms/{name}.txt"


def _lm_jobs(ws: Workspace, cfg: dict) -> list:
    settings = cfg["lm"]

    def make(name):
        def build():
            loaded = DomainCorpus.load(ws.path(_corpus_path(name)))
            model = train_kn(loaded, min_count=settings["min_count"],
                             discount=settings["discount"])
            model.save(ws.path(_lm_path(name)))
        return build

    return [[Job([_lm_path(n)], make(n), note=n) for n in domain_names(ws)]]


FEATURES_CSV = "features/features.csv"


def _features_jobs(ws: Workspace, cfg: dict) -> list:
    settings = cfg["features"]

    def build():
        corpora = _load_corpora(ws)
        names = sorted(corpora)
        tables = {
            n: EmbeddingTable.load(ws.path(_table_path(n)), domain=n) for n in names
        }
        lms = {n: TrigramLM.load(ws.path(_lm_path(n))) for n in names}
        matrix = {}
        for s in names:
            for t in names:
                if s == t:
                    continue
                matrix[(s, t)] = feature_vector(
                    corpora[s], corpora[t], tables[s], tables[t], lms[s],
                    alpha=settings["alpha"], eps=settings["smoothing"],
                )
        save_feature_matrix(matrix, ws.path(FEATURES_CSV))

    return [[Job([FEATURES_CSV], build, note="features")]]


def _adapt_path(variant: str, s: str, t: str) -> str:
    return f"adapt/{variant}/{s}__{t}.json"


def _load_sentences(ws: Workspace, name: str, split: str):
    a = np.load(ws.path(_sentence_path(name, split, "a")))
    b = np.load(ws.path(_sentence_path(name, split, "b")))
    return a, b


def _adapt_cfg(cfg: dict, variant: str) -> AdaptConfig:
    a = cfg["adapt"]
    return AdaptConfig(
        variant=variant, layers=a["layers"], dropout_p=a["dropout_p"],
        lam=a["lam"], reg_target=a["reg_target"], noise_scale=a["noise_scale"],
        sda_epochs=a["sda_epochs"], sda_batch=a["sda_batch"], sda_lr=a["sda_lr"],
    )


def _adapt_jobs(ws: Workspace, cfg: dict) -> list:
    names = domain_names(ws)
    seed = cfg["adapt"]["seed"]
    jobs = []
    pooled = {}

    def columns(name):
        """Pooled train sentences of a domain as read-only columns, loaded once.

        Shared by every job of this stage; the adapt stage runs them serially.
        """
        if name not in pooled:
            X = np.concatenate(_load_sentences(ws, name, "train"), axis=0).T
            X.flags.writeable = False
            pooled[name] = X
        return pooled[name]

    def make(variant, s, t):
        def build():
            X_s, X_t = columns(s), columns(t)
            settings = _adapt_cfg(cfg, variant)
            if variant == "sda":
                model = train_sda(X_s, X_t, settings,
                                  seed=child_seed(seed, variant, s, t))
            else:
                model = stack_marginalized(X_s, X_t, settings)
            model.save(ws.path(_adapt_path(variant, s, t)))
        return build

    for variant in cfg["adapt"]["variants"]:
        if variant == "none":
            continue
        for s in names:
            for t in names:
                if s != t:
                    jobs.append(
                        Job([_adapt_path(variant, s, t)], make(variant, s, t),
                            note=f"{variant}:{s}->{t}")
                    )
    return [jobs] if jobs else []


def _downstream_outputs(variant: str, seeds) -> list:
    outs = [f"downstream/f1_{variant}_seed{k}.csv" for k in seeds]
    return outs + [f"downstream/f1_{variant}_mean.csv", f"downstream/f1_{variant}.json"]


def _downstream_jobs(ws: Workspace, cfg: dict) -> list:
    d = cfg["downstream"]
    names = domain_names(ws)
    if len(names) < 2:
        raise ValidationError("downstream needs at least 2 domains")

    def make(variant):
        def build():
            corpora = _load_corpora(ws)
            vectors = {
                (n, split): _load_sentences(ws, n, split)
                for n in names for split in SPLITS
            }
            labels = {
                (n, split): np.array(corpora[n].labels(split), dtype=np.float64)
                for n in names for split in SPLITS
            }
            cache = {}

            def pair_data(s, t):
                if (s, t) not in cache:
                    if variant == "none" or s == t:
                        enc = lambda m: m
                    else:
                        model = AdaptModel.load(ws.path(_adapt_path(variant, s, t)))
                        enc = lambda m: encode(model, m.T).T
                    def rows(domain, split):
                        a, b = vectors[(domain, split)]
                        return pair_input(enc(a), enc(b))
                    cache[(s, t)] = (
                        rows(s, "train"), labels[(s, "train")],
                        rows(s, "val"), labels[(s, "val")],
                        rows(t, "test"), labels[(t, "test")],
                    )
                return cache[(s, t)]

            matrix = cross_domain_matrix(
                names, pair_data, variant, d["seeds"],
                hidden=tuple(d["hidden"]), max_epochs=d["max_epochs"],
                patience=d["patience"], batch=d["batch"], lr=d["lr"],
            )
            save_f1_matrix(matrix, ws.path("downstream"), d["success_threshold"])
        return build

    return [[
        Job(_downstream_outputs(v, d["seeds"]), make(v), note=v)
        for v in cfg["adapt"]["variants"]
    ]]


def _orderings_path(mode: str, variant: str) -> str:
    return f"meta/{mode}_{variant}_orderings.csv"


def _meta_report_path(mode: str, variant: str) -> str:
    return f"meta/{mode}_{variant}_report.json"


def _meta_model_path(mode: str, variant: str, target: str) -> str:
    return f"meta/{mode}_{variant}_model_{target}.json"


def _classifier_metrics(model: GBDTModel, X: np.ndarray, y: np.ndarray) -> dict:
    predictions = model.predict(X)
    y = np.asarray(y, dtype=np.int64)
    return {
        "f1": f1_score(predictions, y),
        "accuracy": float(np.mean(predictions == y)),
    }


def _meta_jobs(ws: Workspace, cfg: dict, only_mode: str | None = None,
               only_variant: str | None = None) -> list:
    m = cfg["meta"]
    names = domain_names(ws)
    if len(names) < 3:
        raise ValidationError("meta models need at least 3 domains")

    def make(mode, variant):
        def build():
            features = load_feature_matrix(ws.path(FEATURES_CSV))
            matrix, threshold = load_f1_matrix(ws.path("downstream"), variant)
            params = GBDTParams(
                trees=m["trees"], depth=m["depth"],
                learning_rate=m["learning_rate"],
                seed=child_seed(m["seed"], mode, variant),
            )
            orderings = []
            per_target = {}
            importance = {}
            if mode == "predictor":
                success = success_labels(matrix, threshold)[1]
                labels = {k: int(v) for k, v in success.items() if k[0] != k[1]}
                for split in loto_splits(names, "predictor"):
                    model, ordering = success_predictor(features, labels, split, params)
                    X = np.array([features[p].as_array() for p in split.test])
                    y = np.array([labels[p] for p in split.test])
                    per_target[split.target] = _classifier_metrics(model, X, y)
                    importance[split.target] = model.feature_importance()
                    orderings.append(ordering)
                    model.save(ws.path(_meta_model_path(mode, variant, split.target)))
            else:
                f1_means = {
                    (s, t): matrix.entry(s, t)
                    for s in names for t in names if s != t
                }
                samples = build_ranker_samples(features, f1_means)
                by_key = {(x.pair[0], x.pair[1], x.target): x for x in samples}
                for split in loto_splits(names, "ranker"):
                    model, ordering = domain_ranker(
                        samples, split, params, repeats=m["repeats"],
                        seed=child_seed(m["seed"], mode, variant, split.target),
                    )
                    X = np.array([by_key[k].features for k in split.test])
                    y = np.array([by_key[k].label for k in split.test])
                    per_target[split.target] = _classifier_metrics(model, X, y)
                    importance[split.target] = model.feature_importance()
                    orderings.append(ordering)
                    model.save(ws.path(_meta_model_path(mode, variant, split.target)))
            save_orderings(orderings, ws.path(_orderings_path(mode, variant)))
            with open(ws.path(_meta_report_path(mode, variant)), "w",
                      encoding="utf-8") as f:
                json.dump(
                    {"per_target": per_target, "importance": importance},
                    f, indent=2, sort_keys=True,
                )
        return build

    jobs = []
    for mode in m["modes"]:
        if only_mode and mode != only_mode:
            continue
        for variant in cfg["adapt"]["variants"]:
            if only_variant and variant != only_variant:
                continue
            outputs = [_orderings_path(mode, variant), _meta_report_path(mode, variant)]
            outputs += [_meta_model_path(mode, variant, t) for t in names]
            jobs.append(Job(outputs, make(mode, variant), note=f"{mode}:{variant}"))
    return [jobs]


def _table1_paths(mode: str) -> list:
    return [f"report/table1_{mode}.csv", f"report/table1_{mode}.txt"]


def _pca_path(s: str, t: str) -> str:
    return f"report/pca_{s}__{t}.csv"


def _report_jobs(ws: Workspace, cfg: dict) -> list:
    variants = cfg["adapt"]["variants"]
    modes = cfg["meta"]["modes"]
    names = domain_names(ws)
    # The ordering table reports top-5 hits, so each target needs >= 5
    # candidate sources.
    if modes and len(names) < 6:
        raise ValidationError(
            f"ordering tables need at least 6 domains, got {len(names)}"
        )

    def make_table1(mode):
        def build():
            orderings, truths, metrics = {}, {}, {}
            for variant in variants:
                matrix, _ = load_f1_matrix(ws.path("downstream"), variant)
                predicted = load_orderings(ws.path(_orderings_path(mode, variant)))
                with open(ws.path(_meta_report_path(mode, variant)),
                          encoding="utf-8") as f:
                    per_target = json.load(f)["per_target"]
                for target, ordering in predicted.items():
                    orderings[(variant, target)] = ordering
                    truths[(variant, target)] = true_ordering(matrix, target)
                    metrics[(variant, target)] = per_target[target]
            table = build_table1(orderings, truths, metrics)
            csv_path, txt_path = _table1_paths(mode)
            ws.path(csv_path).write_text(table.to_csv(), encoding="utf-8")
            ws.path(txt_path).write_text(table.render() + "\n", encoding="utf-8")
        return build

    def build_table2_job():
        matrices = {}
        success = {}
        for variant in variants:
            matrix, threshold = load_f1_matrix(ws.path("downstream"), variant)
            matrices[variant] = matrix
            success[variant] = success_labels(matrix, threshold)[1]
        table = build_table2(matrices, success)
        ws.path("report/table2.csv").write_text(table.to_csv(), encoding="utf-8")
        ws.path("report/table2.txt").write_text(table.render() + "\n", encoding="utf-8")

    def make_pca(s, t):
        def build():
            for name in (s, t):
                if name not in names:
                    raise ValidationError(f"pca pair names unknown domain {name!r}")
            a_s, b_s = _load_sentences(ws, s, "train")
            a_t, b_t = _load_sentences(ws, t, "train")
            pca_export(
                np.vstack([a_s, b_s]), np.vstack([a_t, b_t]),
                ws.path(_pca_path(s, t)), source_name=s, target_name=t,
            )
        return build

    def build_summary():
        from .config import config_hash
        payload = {
            "master_seed": cfg["seed"],
            "stage_seeds": {stage: cfg[stage]["seed"] for stage in STAGES},
            "config_hash": config_hash(cfg),
            "stage_hashes": stage_hashes(cfg),
            "domains": names,
        }
        with open(ws.path("report/manifest.json"), "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2, sort_keys=True)

    jobs = [Job(_table1_paths(mode), make_table1(mode), note=f"table1:{mode}")
            for mode in modes]
    jobs.append(Job(["report/table2.csv", "report/table2.txt"], build_table2_job,
                    note="table2"))
    for s, t in cfg["report"]["pca_pairs"]:
        jobs.append(Job([_pca_path(s, t)], make_pca(s, t), note=f"pca:{s}->{t}"))
    jobs.append(Job(["report/manifest.json"], build_summary, note="summary"))
    return [jobs]


# Stages whose jobs run on the `--jobs` thread pool. Threads pay only where
# a job spends its time in numpy calls long enough to run without the GIL:
# the downstream MLP sweeps (one job per variant), and only once batches are
# large. Every other stage is Python loops or many tiny numpy calls, where
# two threads mostly hand the GIL back and forth. Measured on a 2-vCPU host,
# default world with all four variants and 5 MLP epochs, downstream stage
# alone, medians of 6 (3 at 100 examples): at 30 examples per domain it took
# 1.89 s on 2 threads against 1.85 s serial (2.68 s of CPU against 1.83 s);
# at 100 examples per domain, 4.12 s against 4.36 s. With adapt on 2
# threads, traced train_sda time was 1.46 s against 0.24 s serial.
POOLED_STAGES = ("downstream",)

_STAGE_BUILDERS = {
    "data": _data_jobs,
    "embed": _embed_jobs,
    "lm": _lm_jobs,
    "features": _features_jobs,
    "adapt": _adapt_jobs,
    "downstream": _downstream_jobs,
    "meta": _meta_jobs,
    "report": _report_jobs,
}


def run_pipeline(ws: Workspace, resolved: dict, upto: str = "report",
                 n_jobs: int = 1, only_mode: str | None = None,
                 only_variant: str | None = None) -> dict:
    """Run stages through `upto` in dependency order, skipping fresh work.

    Returns {stage: StageResult}. Identical config and seeds produce
    byte-identical artifacts no matter how often or how parallel this runs.
    `n_jobs` threads serve only the stages in POOLED_STAGES; the others run
    their jobs serially.
    `only_mode`/`only_variant` narrow which meta models get built without
    touching stage hashes, so a later full run reuses everything.
    """
    if upto not in STAGES:
        raise ValidationError(f"unknown stage {upto!r}")
    hashes = stage_hashes(resolved)
    results = {}
    for stage in STAGES[: STAGES.index(upto) + 1]:
        combined = StageResult()
        if stage == "meta":
            phases = _meta_jobs(ws, resolved, only_mode, only_variant)
        else:
            phases = _STAGE_BUILDERS[stage](ws, resolved)
        for phase in phases:
            done = run_stage(ws, stage, hashes[stage], phase,
                             n_jobs=n_jobs if stage in POOLED_STAGES else 1,
                             seed=resolved[stage]["seed"])
            combined.built.extend(done.built)
            combined.skipped.extend(done.skipped)
        if stage == "data":
            manifest = ws.load_manifest()
            registered = domain_names(ws)
            if manifest.get("domains") != registered:
                manifest["domains"] = registered
                ws.save_manifest(manifest)
        results[stage] = combined
        log.info("stage %s: %d built, %d fresh", stage,
                 len(combined.built), len(combined.skipped))
    return results
