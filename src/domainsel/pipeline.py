"""Stage implementations over a workspace, in dependency order.

data -> embed -> lm -> features -> adapt -> downstream -> meta -> report.
Each stage runs in phases of independent jobs that write output files. A
builder lists, next to each job, the config values and the workspace files
it reads; the job's key hashes both (file bytes, not timestamps), and the job
runs only when an output is missing or was recorded under another key.
Every artifact is reproduced byte-identically from the same config and
seeds, so reruns and parallel runs are interchangeable.
"""
from __future__ import annotations

import hashlib
import json
import logging
import threading
from functools import partial

import numpy as np

from . import corpus as corpus_mod
from .adapt import (
    CONFIG_FIELDS, AdaptConfig, AdaptModel, encode, stack_marginalized, train_sda,
)
from .config import STAGES, config_hash
from .corpus import DomainCorpus, SPLITS
from .downstream import (
    cross_domain_matrix,
    load_f1_matrix,
    pair_input,
    save_f1_matrix,
    success_labels,
)
from .embed import EmbeddingTable, train_skipgram
from .errors import ValidationError
from .gbdt import GBDTParams
from .meta import (
    domain_ranker,
    load_orderings,
    loto_rows,
    loto_splits,
    save_orderings,
    success_predictor,
)
from .ngram_lm import TrigramLM, train_kn
from .report import build_table1, build_table2, pca_export, true_ordering
from .simfeat import feature_vector, load_feature_matrix, save_feature_matrix
from .synth import child_seed, spec_from_config, synth_domain, synth_names
from .workspace import Job, StageResult, Workspace, run_stage

log = logging.getLogger(__name__)


def _corpus_path(name: str) -> str:
    return f"corpora/{name}.json"


def _check_name(name: str) -> str:
    if not name or not all(c.isalnum() or c in "-_" for c in name):
        raise ValidationError(
            f"domain name {name!r} must use only letters, digits, '-' or '_'"
        )
    return name


def domain_names(cfg: dict) -> list:
    """The configured domains, sorted; other corpora in the workspace are unused."""
    data = cfg["data"]
    if data["mode"] == "synth":
        return sorted(synth_names(data["synth"]["domains"]))
    return sorted(src["name"] for src in data["sources"])


def _sha256(path) -> str | None:
    """Digest of a file's bytes; None if unreadable, so its job still runs
    and reports the problem itself."""
    try:
        with open(path, "rb") as f:
            return hashlib.sha256(f.read()).hexdigest()
    except OSError:
        return None


def _phase_keys(ws: Workspace, stage: str, phase) -> dict:
    """First output -> key of each (job, config values, input relpaths)."""
    digests = {rel: _sha256(ws.path(rel)) for rel in {r for _, _, ins in phase for r in ins}}
    return {job.outputs[0]: config_hash([stage, reads, [[r, digests[r]] for r in inputs]])
            for job, reads, inputs in phase}


def _load_corpora(ws: Workspace, names) -> dict:
    return {name: DomainCorpus.load(ws.path(_corpus_path(name))) for name in names}


def _data_jobs(ws: Workspace, cfg: dict) -> list:
    data = cfg["data"]
    ratios = tuple(data["split_ratios"])
    seed = data["seed"]
    common = {"seed": seed, "split_ratios": data["split_ratios"]}

    def job(name, load, reads):
        def build():
            assigned = corpus_mod.split(load(), ratios, seed=child_seed(seed, "split", name))
            assigned.save(ws.path(_corpus_path(name)))
        return Job([_corpus_path(name)], build, note=name), reads, []

    if data["mode"] == "synth":
        spec = spec_from_config(data["synth"], seed)
        reads = dict(common, synth=data["synth"])
        return [[job(n, partial(synth_domain, spec, n), reads) for n in spec.domains]]
    if not data["sources"]:
        raise ValidationError("ingest mode needs at least one data.sources entry")
    return [[
        job(_check_name(src["name"]),
            partial(corpus_mod.load_domain, src["path"], src["format"], src["name"],
                    src.get("binarize_threshold")),
            dict(common, source=src, source_sha256=_sha256(src["path"])))
        for src in data["sources"]
    ]]


GLOBAL_TABLE = "embeddings/global.txt"


def _table_path(name: str) -> str:
    return f"embeddings/{name}.txt"


def _sentence_path(name: str, split: str, side: str) -> str:
    return f"sentences/{name}_{split}_{side}.npy"


def _embed_jobs(ws: Workspace, cfg: dict) -> list:
    e = cfg["embed"]
    names = domain_names(cfg)
    if "global" in names:
        raise ValidationError("domain name 'global' collides with the shared table")
    kwargs = dict(dim=e["dim"], window=e["window"], negatives=e["negatives"],
                  epochs=e["epochs"])

    def build_global():
        corpora = _load_corpora(ws, names)
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

    shared = {}

    def global_table():
        """The global table, read-only and loaded once.

        Shared by every sentence job of this stage; the embed stage runs them
        serially.
        """
        if not shared:
            table = EmbeddingTable.load(ws.path(GLOBAL_TABLE), domain="global")
            table.matrix.flags.writeable = False
            shared["global"] = table
        return shared["global"]

    def make_sentences(name):
        def build():
            table = global_table()
            loaded = DomainCorpus.load(ws.path(_corpus_path(name)))
            for split in SPLITS:
                examples = loaded.subset(split)
                if not examples:
                    raise ValidationError(f"domain {name} has no '{split}' examples")
                a = np.array([table.sentence_vector(ex.text_a) for ex in examples])
                b = np.array([table.sentence_vector(ex.text_b) for ex in examples])
                np.save(ws.path(_sentence_path(name, split, "a")), a)
                np.save(ws.path(_sentence_path(name, split, "b")), b)
        return build

    tables = [(Job([GLOBAL_TABLE], build_global, note="global"), e,
               [_corpus_path(n) for n in names])]
    tables += [(Job([_table_path(n)], make_table(n), note=n), e, [_corpus_path(n)])
               for n in names]
    sentences = [
        (Job([_sentence_path(n, s, side) for s in SPLITS for side in ("a", "b")],
             make_sentences(n), note=n),
         None, [GLOBAL_TABLE, _corpus_path(n)])
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

    return [[(Job([_lm_path(n)], make(n), note=n), settings, [_corpus_path(n)])
             for n in domain_names(cfg)]]


FEATURES_CSV = "features/features.csv"


def _features_jobs(ws: Workspace, cfg: dict) -> list:
    settings = cfg["features"]
    names = domain_names(cfg)

    def build():
        corpora = _load_corpora(ws, names)
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

    inputs = [path(n) for path in (_corpus_path, _table_path, _lm_path) for n in names]
    return [[(Job([FEATURES_CSV], build, note="features"), settings, inputs)]]


def _adapt_path(variant: str, s: str, t: str) -> str:
    return f"adapt/{variant}/{s}__{t}.json"


def _train_sentences(*names) -> list:
    return [_sentence_path(n, "train", side) for n in names for side in ("a", "b")]


def _load_sentences(ws: Workspace, name: str, split: str):
    a = np.load(ws.path(_sentence_path(name, split, "a")))
    b = np.load(ws.path(_sentence_path(name, split, "b")))
    return a, b


def _adapt_jobs(ws: Workspace, cfg: dict) -> list:
    names = domain_names(cfg)
    seed = cfg["adapt"]["seed"]
    settings = {k: cfg["adapt"][k] for k in CONFIG_FIELDS}
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
            adapt_cfg = AdaptConfig(variant, **settings)
            if variant == "sda":
                model = train_sda(X_s, X_t, adapt_cfg,
                                  seed=child_seed(seed, variant, s, t))
            else:
                model = stack_marginalized(X_s, X_t, adapt_cfg)
            model.save(ws.path(_adapt_path(variant, s, t)))
        return build

    for variant in cfg["adapt"]["variants"]:
        if variant == "none":
            continue
        for s in names:
            for t in names:
                if s != t:
                    jobs.append((
                        Job([_adapt_path(variant, s, t)], make(variant, s, t),
                            note=f"{variant}:{s}->{t}"),
                        dict(settings, variant=variant, seed=seed),
                        _train_sentences(s, t),
                    ))
    return [jobs] if jobs else []


def _downstream_outputs(variant: str, seeds) -> list:
    outs = [f"downstream/f1_{variant}_seed{k}.csv" for k in seeds]
    return outs + [f"downstream/f1_{variant}_mean.csv", f"downstream/f1_{variant}.json"]


def _downstream_jobs(ws: Workspace, cfg: dict) -> list:
    d = cfg["downstream"]
    names = domain_names(cfg)
    if len(names) < 2:
        raise ValidationError("downstream needs at least 2 domains")
    inputs = {}
    lock = threading.Lock()

    def load_inputs() -> dict:
        """Read-only (a, b, labels) per (domain, split), loaded by the first
        variant job to run and shared by the others, also on the pool."""
        with lock:
            if not inputs:
                corpora = _load_corpora(ws, names)
                loaded = {}
                for n in names:
                    for split in SPLITS:
                        a, b = _load_sentences(ws, n, split)
                        y = np.array(corpora[n].labels(split), dtype=np.float64)
                        for arr in (a, b, y):
                            arr.flags.writeable = False
                        loaded[(n, split)] = (a, b, y)
                inputs.update(loaded)
            return inputs

    def make(variant):
        def build():
            data = load_inputs()

            def pair_data(s, t):
                if variant == "none" or s == t:
                    enc = lambda m: m
                else:
                    model = AdaptModel.load(ws.path(_adapt_path(variant, s, t)))
                    enc = lambda m: encode(model, m.T).T

                def rows(domain, split):
                    a, b, y = data[(domain, split)]
                    return pair_input(enc(a), enc(b)), y
                return (*rows(s, "train"), *rows(s, "val"), *rows(t, "test"))

            matrix = cross_domain_matrix(
                names, pair_data, variant, d["seeds"],
                hidden=tuple(d["hidden"]), max_epochs=d["max_epochs"],
                patience=d["patience"], batch=d["batch"], lr=d["lr"],
            )
            save_f1_matrix(matrix, ws.path("downstream"))
        return build

    reads = {k: v for k, v in d.items() if k != "success_threshold"}
    files = [_corpus_path(n) for n in names]
    files += [_sentence_path(n, s, side) for n in names for s in SPLITS for side in ("a", "b")]
    return [[
        (Job(_downstream_outputs(v, d["seeds"]), make(v), note=v), reads,
         files + [_adapt_path(v, s, t) for s in names for t in names if v != "none" and s != t])
        for v in cfg["adapt"]["variants"]
    ]]


def _orderings_path(mode: str, variant: str) -> str:
    return f"meta/{mode}_{variant}_orderings.csv"


def _meta_report_path(mode: str, variant: str) -> str:
    return f"meta/{mode}_{variant}_report.json"


def _meta_model_path(mode: str, variant: str, target: str) -> str:
    return f"meta/{mode}_{variant}_model_{target}.json"


def _meta_jobs(ws: Workspace, cfg: dict, only_mode: str | None = None,
               only_variant: str | None = None) -> list:
    m = cfg["meta"]
    threshold = cfg["downstream"]["success_threshold"]
    names = domain_names(cfg)
    if len(names) < 3:
        raise ValidationError("meta models need at least 3 domains")

    def make(mode, variant):
        def build():
            features = load_feature_matrix(ws.path(FEATURES_CSV))
            matrix = load_f1_matrix(ws.path("downstream"), variant)
            params = GBDTParams(
                trees=m["trees"], depth=m["depth"],
                learning_rate=m["learning_rate"],
                seed=child_seed(m["seed"], mode, variant),
            )
            rows = loto_rows(names, mode, features, matrix, threshold)
            orderings = []
            per_target = {}
            importance = {}
            degenerate = []
            for split in loto_splits(names, mode):
                if mode == "predictor":
                    model, ordering, metrics = success_predictor(rows, split, params)
                else:
                    model, ordering, metrics = domain_ranker(
                        rows, split, params, m["repeats"],
                        child_seed(m["seed"], mode, variant, split.target),
                    )
                if not model.trees:  # every train label is one class
                    log.warning("meta %s:%s: every train label of target %s is %d; "
                                "no trees fitted, its sources are ordered by name",
                                mode, variant, split.target, rows[split.train[0]][1])
                    degenerate.append(split.target)
                per_target[split.target] = metrics
                importance[split.target] = model.feature_importance()
                orderings.append(ordering)
                model.save(ws.path(_meta_model_path(mode, variant, split.target)))
            save_orderings(orderings, ws.path(_orderings_path(mode, variant)))
            with open(ws.path(_meta_report_path(mode, variant)), "w",
                      encoding="utf-8") as f:
                json.dump(
                    {"per_target": per_target, "importance": importance,
                     "degenerate": degenerate},
                    f, indent=2, sort_keys=True,
                )
        return build

    common = {k: m[k] for k in ("trees", "depth", "learning_rate", "seed")}
    reads = {"predictor": dict(common, success_threshold=threshold),
             "ranker": dict(common, repeats=m["repeats"])}
    jobs = []
    for mode in m["modes"]:
        if only_mode and mode != only_mode:
            continue
        for variant in cfg["adapt"]["variants"]:
            if only_variant and variant != only_variant:
                continue
            outputs = [_orderings_path(mode, variant), _meta_report_path(mode, variant)]
            outputs += [_meta_model_path(mode, variant, t) for t in names]
            inputs = [FEATURES_CSV, *_downstream_outputs(variant, cfg["downstream"]["seeds"])]
            jobs.append((Job(outputs, make(mode, variant), note=f"{mode}:{variant}"),
                         reads[mode], inputs))
    return [jobs]


def _table1_paths(mode: str) -> list:
    return [f"report/table1_{mode}.csv", f"report/table1_{mode}.txt"]


def _pca_path(s: str, t: str) -> str:
    return f"report/pca_{s}__{t}.csv"


def _report_jobs(ws: Workspace, cfg: dict) -> list:
    variants = cfg["adapt"]["variants"]
    modes = cfg["meta"]["modes"]
    threshold = cfg["downstream"]["success_threshold"]
    names = domain_names(cfg)
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
                matrix = load_f1_matrix(ws.path("downstream"), variant)
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
        matrices = {v: load_f1_matrix(ws.path("downstream"), v) for v in variants}
        success = {v: success_labels(m, threshold)[1] for v, m in matrices.items()}
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
        payload = {
            "master_seed": cfg["seed"],
            "stage_seeds": {
                stage: cfg[stage]["seed"] for stage in STAGES if "seed" in cfg[stage]
            },
            "config_hash": config_hash(cfg),
            "domains": names,
        }
        with open(ws.path("report/manifest.json"), "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2, sort_keys=True)

    f1_files = [p for v in variants for p in _downstream_outputs(v, cfg["downstream"]["seeds"])]
    jobs = [(Job(_table1_paths(mode), make_table1(mode), note=f"table1:{mode}"), None,
             f1_files + [path(mode, v) for v in variants
                         for path in (_orderings_path, _meta_report_path)])
            for mode in modes]
    jobs.append((Job(["report/table2.csv", "report/table2.txt"], build_table2_job,
                     note="table2"), threshold, f1_files))
    for s, t in cfg["report"]["pca_pairs"]:
        jobs.append((Job([_pca_path(s, t)], make_pca(s, t), note=f"pca:{s}->{t}"), None,
                     _train_sentences(s, t)))
    jobs.append((Job(["report/manifest.json"], build_summary, note="summary"), cfg, []))
    return [jobs]


# Stages whose jobs run on the `--jobs` thread pool. Threads pay only where
# a job spends its time in numpy calls long enough to run without the GIL:
# the downstream MLP sweeps (one job per variant), and only once batches are
# large. Every other stage is Python loops or many tiny numpy calls, where
# two threads mostly hand the GIL back and forth. Measured on a 2-vCPU host,
# default world with all four variants and 5 MLP epochs, downstream stage
# alone, medians of 6 (3 at 100 examples): at 30 examples per domain it took
# 1.89 s on 2 threads against 1.85 s serial (2.68 s of CPU against 1.83 s);
# at 100 examples per domain, 4.12 s against 4.36 s; at 300 (the default),
# the whole `downstream` command on a built workspace took 9.01 s against
# 11.20 s (14.6 s of CPU against 11.1 s, medians of 4, BLAS on one thread).
# With adapt on 2 threads, traced train_sda time was 1.46 s against 0.24 s
# serial.
POOLED_STAGES = ("downstream",)

# Each builder returns its stage's phases, run in order: lists of (job, the
# config values it reads, the workspace files it reads), which key the job.
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
    touching any job's key, so a later full run reuses everything.
    """
    if upto not in STAGES:
        raise ValidationError(f"unknown stage {upto!r}")
    results = {}
    for stage in STAGES[: STAGES.index(upto) + 1]:
        combined = StageResult()
        if stage == "meta":
            phases = _meta_jobs(ws, resolved, only_mode, only_variant)
        else:
            phases = _STAGE_BUILDERS[stage](ws, resolved)
        for phase in phases:
            done = run_stage(ws, stage, _phase_keys(ws, stage, phase),
                             [job for job, _, _ in phase],
                             n_jobs=n_jobs if stage in POOLED_STAGES else 1,
                             seed=resolved[stage].get("seed"))
            combined.built.extend(done.built)
            combined.skipped.extend(done.skipped)
        if stage == "data":
            registered = domain_names(resolved)
            orphans = {p.stem for p in ws.path("corpora").glob("*.json")} - set(registered)
            if orphans:
                log.warning("ignoring corpora of domains not in the config: %s",
                            ", ".join(sorted(orphans)))
            manifest = ws.load_manifest()
            if manifest.get("domains") != registered:
                manifest["domains"] = registered
                ws.save_manifest(manifest)
        results[stage] = combined
        log.info("stage %s: %d built, %d fresh", stage,
                 len(combined.built), len(combined.skipped))
    return results
