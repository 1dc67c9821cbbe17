"""Stage implementations over a workspace, in dependency order.

data -> embed -> lm -> features -> adapt -> downstream -> meta -> report.
Each stage runs in phases of independent jobs that write output files. A
builder lists, next to each job, the config values and the workspace files
it reads; the job's key hashes both (file bytes, not timestamps), and the job
runs only when an output is missing or was recorded under another key.
Every artifact is reproduced byte-identically from the same config and
seeds, so reruns and parallel runs are interchangeable.

A run first `plan`s every stage it reaches, then runs the plan in order. The
input lists of the plan say when each file is last read, and the workspace
stops holding a file's object when that stage ends.
"""
from __future__ import annotations

import json
import logging
from functools import partial

import numpy as np

from . import corpus as corpus_mod
from .adapt import (
    CONFIG_FIELDS, AdaptConfig, AdaptModel, encode, stack_marginalized, train_sda,
)
from .config import STAGES, child_seed, config_hash
from .corpus import DomainCorpus, SPLITS
from .downstream import (
    cross_domain_matrix,
    load_f1_matrix,
    save_f1_matrix,
    success_labels,
)
from .embed import EmbeddingTable, train_skipgram
from .errors import ComputationError, ValidationError
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
from .synth import spec_from_config, synth_domain, synth_names
from .workspace import Job, Memo, StageResult, Workspace, file_sha256, run_stage, wrap_error

log = logging.getLogger(__name__)


def _corpus_path(name: str) -> str:
    return f"corpora/{name}.json"


def domain_names(cfg: dict) -> list:
    """The configured domains, sorted; other corpora in the workspace are unused."""
    data = cfg["data"]
    if data["mode"] == "synth":
        return sorted(synth_names(data["synth"]["domains"]))
    return sorted(src["name"] for src in data["sources"])


def _check_stages(cfg: dict, upto: str) -> None:
    """Config-only preconditions of every stage through `upto`.

    Checked before any job runs, so a config that some stage would reject
    builds nothing; each message names the dotted config key at fault.
    """
    reached = STAGES[: STAGES.index(upto) + 1]
    data = cfg["data"]
    if data["mode"] == "synth":
        key = "data.synth.domains"
        # split() rejects a corpus that leaves a split empty. Synthetic labels
        # alternate from 0, and split() sizes each label's share on its own.
        n = data["synth"]["examples_per_domain"]
        quotas = [corpus_mod._allocate(k, data["split_ratios"]) for k in ((n + 1) // 2, n // 2)]
        empty = [s for s, *sizes in zip(SPLITS, *quotas) if not sum(sizes)]
        if empty:
            raise ValidationError(f"config key 'data.synth.examples_per_domain' is {n}, "
                                  f"which leaves the '{empty[0]}' split empty")
    else:
        key = "data.sources"
        if not data["sources"]:
            raise ValidationError("config key 'data.sources' needs at least one "
                                  "entry in ingest mode")
        for i, src in enumerate(data["sources"]):
            name = src["name"]
            if not (isinstance(name, str) and name
                    and all(c.isalnum() or c in "-_" for c in name)):
                raise ValidationError(
                    f"config key 'data.sources[{i}].name' must use only letters, "
                    f"digits, '-' or '_', got {name!r}"
                )
            if name == "global" and "embed" in reached:
                raise ValidationError(
                    f"config key 'data.sources[{i}].name' is 'global', which "
                    "collides with the shared embedding table"
                )
    names = domain_names(cfg)
    least = {"downstream": 2, "meta": 3}
    if cfg["meta"]["modes"]:
        # The ordering tables report top-5 hits, so each target needs >= 5
        # candidate sources.
        least["report"] = 6
    for stage in reached:
        if len(names) < least.get(stage, 0):
            raise ValidationError(
                f"config key '{key}' gives {len(names)} domains; the {stage} "
                f"stage needs at least {least[stage]}"
            )
    if "report" in reached:
        for i, pair in enumerate(cfg["report"]["pca_pairs"]):
            for name in pair:
                if name not in names:
                    raise ValidationError(
                        f"config key 'report.pca_pairs[{i}]' names {name!r}, "
                        "which is not a configured domain"
                    )


def _phase_keys(ws: Workspace, stage: str, phase) -> dict:
    """First output -> key of each (job, config values, input relpaths).

    Config values given as a function are read here, once the earlier
    phases have written what they derive from.
    """
    digests = {rel: file_sha256(ws.path(rel)) for rel in {r for _, _, ins in phase for r in ins}}
    return {job.outputs[0]: config_hash([stage, reads() if callable(reads) else reads,
                                         [[r, digests[r]] for r in inputs]])
            for job, reads, inputs in phase}


def _keep(ws: Workspace, rel: str, obj) -> None:
    """Save a corpus, table or language model and hand it to later jobs."""
    obj.save(ws.path(rel))
    ws.keep(rel, obj)


def _read_corpus(ws: Workspace, name: str) -> DomainCorpus:
    return ws.read(_corpus_path(name), DomainCorpus.load)


def _load_corpora(ws: Workspace, names) -> dict:
    return {name: _read_corpus(ws, name) for name in names}


def _data_jobs(ws: Workspace, cfg: dict) -> list:
    data = cfg["data"]
    ratios = tuple(data["split_ratios"])
    seed = data["seed"]
    common = {"seed": seed, "split_ratios": data["split_ratios"]}

    def job(name, load, reads):
        def build():
            assigned = corpus_mod.split(load(), ratios, seed=child_seed(seed, "split", name))
            _keep(ws, _corpus_path(name), assigned)
        return Job([_corpus_path(name)], build, note=name), reads, []

    if data["mode"] == "synth":
        spec = spec_from_config(data["synth"], seed)
        reads = dict(common, synth=data["synth"])
        return [[job(n, partial(synth_domain, spec, n), reads) for n in spec.domains]]
    return [[
        job(src["name"],
            partial(corpus_mod.load_domain, src["path"], src["format"], src["name"],
                    src.get("binarize_threshold")),
            dict(common, source=src, source_sha256=file_sha256(src["path"])))
        for src in data["sources"]
    ]]


GLOBAL_TABLE = "embeddings/global.txt"


def _table_path(name: str) -> str:
    return f"embeddings/{name}.txt"


def _sentence_path(name: str, split: str, side: str) -> str:
    return f"sentences/{name}_{split}_{side}.npy"


def _read_table(ws: Workspace, rel: str, domain: str) -> EmbeddingTable:
    return ws.read(rel, partial(EmbeddingTable.load, domain=domain))


def _load_array(path) -> np.ndarray:
    array = np.load(path)
    array.flags.writeable = False
    return array


def _read_sentences(ws: Workspace, name: str, split: str) -> tuple:
    """The read-only (a, b) sentence vectors of a domain's split."""
    return tuple(ws.read(_sentence_path(name, split, side), _load_array)
                 for side in ("a", "b"))


def _embed_jobs(ws: Workspace, cfg: dict) -> list:
    e = cfg["embed"]
    names = domain_names(cfg)
    kwargs = dict(dim=e["dim"], window=e["window"], negatives=e["negatives"],
                  epochs=e["epochs"])

    def build_global():
        corpora = _load_corpora(ws, names)
        merged = DomainCorpus(
            name="global",
            examples=tuple(ex for name in names for ex in corpora[name].subset("train")),
        )
        table = train_skipgram(merged, seed=child_seed(e["seed"], "global"), **kwargs)
        _keep(ws, GLOBAL_TABLE, table)

    def make_table(name):
        def build():
            table = train_skipgram(
                _read_corpus(ws, name), seed=child_seed(e["seed"], "table", name), **kwargs
            )
            _keep(ws, _table_path(name), table)
        return build

    def make_sentences(name):
        def build():
            table = _read_table(ws, GLOBAL_TABLE, "global")
            loaded = _read_corpus(ws, name)
            for split in SPLITS:
                token_lists = loaded.tokens(split)
                a = np.array([table.sentence_vector(t) for t in token_lists[0::2]])
                b = np.array([table.sentence_vector(t) for t in token_lists[1::2]])
                for side, vectors in (("a", a), ("b", b)):
                    rel = _sentence_path(name, split, side)
                    vectors.flags.writeable = False
                    np.save(ws.path(rel), vectors)
                    ws.keep(rel, vectors)
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
            model = train_kn(_read_corpus(ws, name), min_count=settings["min_count"],
                             discount=settings["discount"])
            _keep(ws, _lm_path(name), model)
        return build

    return [[(Job([_lm_path(n)], make(n), note=n), settings, [_corpus_path(n)])
             for n in domain_names(cfg)]]


FEATURES_CSV = "features/features.csv"


def _features_jobs(ws: Workspace, cfg: dict) -> list:
    settings = cfg["features"]
    names = domain_names(cfg)

    def build():
        corpora = _load_corpora(ws, names)
        tables = {n: _read_table(ws, _table_path(n), n) for n in names}
        lms = {n: ws.read(_lm_path(n), TrigramLM.load) for n in names}
        stats = {n: corpus_mod.unigram_stats(corpora[n], "train") for n in names}
        matrix = {}
        for s in names:
            for t in names:
                if s == t:
                    continue
                matrix[(s, t)] = feature_vector(
                    corpora[s], corpora[t], tables[s], tables[t], lms[s],
                    alpha=settings["alpha"], eps=settings["smoothing"],
                    stats=(stats[s], stats[t]),
                )
        save_feature_matrix(matrix, ws.path(FEATURES_CSV))

    inputs = [path(n) for path in (_corpus_path, _table_path, _lm_path) for n in names]
    return [[(Job([FEATURES_CSV], build, note="features"), settings, inputs)]]


def _adapt_path(variant: str, s: str, t: str) -> str:
    return f"adapt/{variant}/{s}__{t}.bin"


def _adapted_pairs(variant: str, names) -> list:
    """The ordered pairs with an adapt model: every off-diagonal pair, unless
    the variant is `none`."""
    return [] if variant == "none" else [(s, t) for s in names for t in names if s != t]


def _train_sentences(*names) -> list:
    return [_sentence_path(n, "train", side) for n in names for side in ("a", "b")]


def _adapt_jobs(ws: Workspace, cfg: dict) -> list:
    """One job per adapted variant: every pair reads train sentences of the
    one global table, which a train edit of any domain retrains."""
    names = domain_names(cfg)
    seed = cfg["adapt"]["seed"]
    settings = {k: cfg["adapt"][k] for k in CONFIG_FIELDS}

    def make(variant):
        def build():
            # Each domain's pooled train sentences, one column per sentence.
            X = {n: np.concatenate(_read_sentences(ws, n, "train")).T for n in names}
            adapt_cfg = AdaptConfig(variant, **settings)
            for s, t in _adapted_pairs(variant, names):
                try:
                    if variant == "sda":
                        model = train_sda(X[s], X[t], adapt_cfg,
                                          seed=child_seed(seed, variant, s, t))
                    else:
                        model = stack_marginalized(X[s], X[t], adapt_cfg)
                except ComputationError as e:
                    raise wrap_error("adapt", f"{variant}:{s}->{t}", e) from e
                model.save(ws.path(_adapt_path(variant, s, t)))
        return build

    jobs = [
        (Job([_adapt_path(v, s, t) for s, t in _adapted_pairs(v, names)], make(v), note=v),
         dict(settings, variant=v, seed=seed), _train_sentences(*names))
        for v in cfg["adapt"]["variants"] if v != "none"
    ]
    return [jobs] if jobs else []


def _downstream_outputs(variant: str, seeds) -> list:
    outs = [f"downstream/f1_{variant}_seed{k}.csv" for k in seeds]
    return outs + [f"downstream/f1_{variant}_mean.csv", f"downstream/f1_{variant}.json"]


def _downstream_jobs(ws: Workspace, cfg: dict) -> list:
    d = cfg["downstream"]
    names = domain_names(cfg)
    fits = Memo()  # identity fits and initial draws, shared by the variant jobs

    def make(variant):
        def build():
            corpora = _load_corpora(ws, names)
            data = {(n, split): (*_read_sentences(ws, n, split),
                                 np.array(corpora[n].labels(split), dtype=np.float64))
                    for n in names for split in SPLITS}

            def encoder(s, t):
                model = AdaptModel.load(ws.path(_adapt_path(variant, s, t)))
                return lambda m: encode(model, m.T).T

            matrix = cross_domain_matrix(
                names, data, variant, d["seeds"], encoder, fits,
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
         files + [_adapt_path(v, s, t) for s, t in _adapted_pairs(v, names)])
        for v in cfg["adapt"]["variants"]
    ]]


def _success_reads(ws: Workspace, variant: str, threshold: float):
    """What a job that labels `variant`'s pairs by `success_labels` reads of
    the threshold: the successful pairs, from the mean F1 it also reads.

    A threshold edit that flips no label then leaves such a job fresh. An
    unreadable F1 matrix gives the threshold itself, so the job runs and
    reports the problem.
    """
    try:
        matrix = load_f1_matrix(ws.path("downstream"), variant)
    except (OSError, ValueError, KeyError):
        return {"success_threshold": threshold}
    success = success_labels(matrix, threshold)[1]
    return sorted([s, t] for (s, t), passed in success.items() if passed)


def _orderings_path(mode: str, variant: str) -> str:
    return f"meta/{mode}_{variant}_orderings.csv"


def _meta_report_path(mode: str, variant: str) -> str:
    return f"meta/{mode}_{variant}_report.json"


def _meta_model_path(mode: str, variant: str, target: str) -> str:
    return f"meta/{mode}_{variant}_model_{target}.json"


def _meta_jobs(ws: Workspace, cfg: dict) -> list:
    m = cfg["meta"]
    threshold = cfg["downstream"]["success_threshold"]
    names = domain_names(cfg)

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

    def predictor_reads(variant):
        return dict(common, success=_success_reads(ws, variant, threshold))

    jobs = []
    for mode in m["modes"]:
        for variant in cfg["adapt"]["variants"]:
            outputs = [_orderings_path(mode, variant), _meta_report_path(mode, variant)]
            outputs += [_meta_model_path(mode, variant, t) for t in names]
            inputs = [FEATURES_CSV, *_downstream_outputs(variant, cfg["downstream"]["seeds"])]
            if mode == "predictor":
                reads = partial(predictor_reads, variant)
            else:
                reads = dict(common, repeats=m["repeats"])
            jobs.append((Job(outputs, make(mode, variant), note=f"{mode}:{variant}"),
                         reads, inputs))
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
            pca_export(
                np.vstack(_read_sentences(ws, s, "train")),
                np.vstack(_read_sentences(ws, t, "train")),
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
                     note="table2"),
                 lambda: {v: _success_reads(ws, v, threshold) for v in variants}, f1_files))
    for s, t in cfg["report"]["pca_pairs"]:
        jobs.append((Job([_pca_path(s, t)], make_pca(s, t), note=f"pca:{s}->{t}"), None,
                     _train_sentences(s, t)))
    jobs.append((Job(["report/manifest.json"], build_summary, note="summary"), cfg, []))
    return [jobs]


# Rows per training step times parameters of the widest pair classifier, at
# and above which the downstream stage runs its variant jobs on the `--jobs`
# threads; below it, and in every other stage, jobs run serially. Threads pay
# only where a job spends its time in numpy calls long enough to run without
# the GIL; the short calls of a small fit mostly hand the GIL back and forth.
# Measured on a 2-vCPU host, BLAS on one thread, all four variants, default
# hidden widths and batch, float32 fits, the downstream stage alone on a
# workspace built through adapt, serial against 2 threads:
#   1.28M  dim 16, 24 train rows (bench transfer)  0.54-0.56 s / 0.57-0.59 s
#   1.71M  defaults (dim 16, 300 examples)         4.05-5.06 s / 3.89-4.94 s,
#          1.4x the CPU
#   2.50M  dim 24, 300 examples                    5.49-6.72 s / 4.41-4.97 s,
#          1.2x the CPU
#   3.28M  dim 32, 300 examples                    8.0-8.6 s / 6.2 s
#   4.86M  dim 48, 300 examples                    11.3-14.2 s / 8.7-8.9 s
# The other stages are Python loops or many tiny numpy calls: with adapt on 2
# threads, traced train_sda time was 1.46 s against 0.24 s serial.
POOL_STEP_WORK = 2_000_000


def step_work(cfg: dict, train_rows: int) -> int:
    """Rows per training step times the parameter count of the widest pair
    classifier the downstream stage trains, given the largest train split."""
    d = cfg["downstream"]
    width = 4 * cfg["embed"]["dim"]  # pair_input of two sentence vectors
    if {"msda", "msdar"} & set(cfg["adapt"]["variants"]):
        width *= cfg["adapt"]["layers"] + 1  # the input and each layer's output
    h1, h2 = d["hidden"]
    return min(d["batch"], train_rows) * ((width + 1) * h1 + (h1 + 1) * h2 + h2 + 1)


def _threads(ws: Workspace, cfg: dict, stage: str, n_jobs: int) -> int:
    """`n_jobs` for a downstream stage whose step work reaches
    POOL_STEP_WORK, else 1."""
    if stage != "downstream" or n_jobs == 1:
        return 1
    corpora = _load_corpora(ws, domain_names(cfg)).values()
    work = step_work(cfg, max(len(c.indices(c.train_split)) for c in corpora))
    if work < POOL_STEP_WORK:
        log.info("stage downstream: step work %d < %d, one thread", work, POOL_STEP_WORK)
        return 1
    return n_jobs


# Each builder returns its stage's phases, run in order: lists of (job, the
# config values it reads, the workspace files it reads), which key the job.
# Values derived from an earlier stage's outputs are given as a function
# that reads them, so that building the phases reads no workspace file.
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


def plan(ws: Workspace, cfg: dict, upto: str = "report") -> list:
    """(stage, phases) of every stage through `upto`, in run order.

    Planning reads no workspace file, so a plan made before the run starts
    is the plan the run executes.
    """
    return [(stage, _STAGE_BUILDERS[stage](ws, cfg))
            for stage in STAGES[: STAGES.index(upto) + 1]]


def _last_uses(stages) -> list:
    """For each planned stage, the workspace files that it or an earlier
    stage lists (as output or input) and that no later stage lists as an
    input: their objects are dead once the stage ends."""
    last = {}
    for i, (_, phases) in enumerate(stages):
        for phase in phases:
            for job, _, inputs in phase:
                last.update(dict.fromkeys((*job.outputs, *inputs), i))
    ends = [[] for _ in stages]
    for rel, i in last.items():
        ends[i].append(rel)
    return ends


def run_pipeline(ws: Workspace, resolved: dict, upto: str = "report",
                 n_jobs: int = 1) -> dict:
    """Run stages through `upto` in dependency order, skipping fresh work.

    Returns {stage: StageResult}. Identical config and seeds produce
    byte-identical artifacts no matter how often or how parallel this runs.
    `n_jobs` is an upper bound: only a downstream stage whose fits are big
    enough (POOL_STEP_WORK) runs its jobs on that many threads; every other
    stage runs its jobs serially.
    The run holds the workspace's lock throughout, and releases each kept
    object when the last stage that reads its file ends.
    """
    if upto not in STAGES:
        raise ValidationError(f"unknown stage {upto!r}")
    _check_stages(resolved, upto)
    stages = plan(ws, resolved, upto)
    dead_after = _last_uses(stages)
    results = {}
    with ws.lock():
        while stages:
            # Popped, so that a stage's phases, and the memo its jobs share,
            # go when the next stage starts.
            stage, phases = stages.pop(0)
            results[stage] = _run_phases(ws, resolved, stage, phases, n_jobs)
            ws.release(dead_after.pop(0))
        if upto == STAGES[-1]:
            # Only a run through report lists every output the config asks for.
            ws.prune(rel for r in results.values() for rel in r.built + r.skipped)
    return results


def _run_phases(ws: Workspace, resolved: dict, stage: str, phases,
                n_jobs: int) -> StageResult:
    """Run one stage's phases in order; what they built and found fresh."""
    combined = StageResult()
    threads = _threads(ws, resolved, stage, n_jobs)
    for phase in phases:
        done = run_stage(ws, stage, _phase_keys(ws, stage, phase),
                         [job for job, _, _ in phase],
                         n_jobs=threads,
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
    log.info("stage %s: %d built, %d fresh", stage,
             len(combined.built), len(combined.skipped))
    return combined
