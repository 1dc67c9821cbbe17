"""End-to-end command line runs on a small synthetic world."""
import hashlib
import json
import logging
import os
import re
import shutil
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

import domainsel
from domainsel.cli import main
from domainsel.config import child_seed, load_config, resolve_config, validate_config
from domainsel.corpus import DomainCorpus
from domainsel.downstream import load_f1_matrix, success_labels
from domainsel.errors import ComputationError
from domainsel.pipeline import run_pipeline
from domainsel.simfeat import load_feature_matrix
from domainsel.synth import SyntheticSpec, spec_from_config, synth_domain
from domainsel.workspace import Memo, Workspace

SMALL_CONFIG = {
    "seed": 3,
    "data": {
        "synth": {
            "domains": 6, "topics": 8, "words_per_topic": 40,
            "examples_per_domain": 80, "tokens_per_text": 8,
            "mixture_concentration": 0.4, "noise": 0.05,
        }
    },
    "embed": {"dim": 8, "epochs": 2},
    "adapt": {"variants": ["none"], "layers": 2},
    "downstream": {"seeds": [0], "max_epochs": 30, "hidden": [16, 8],
                   "patience": 10, "lr": 0.01},
    "meta": {"trees": 15, "repeats": 3},
    "report": {"pca_pairs": [["syn00", "syn01"]]},
}

EXPECTED_REPORTS = [
    "report/table1_predictor.csv", "report/table1_predictor.txt",
    "report/table1_ranker.csv", "report/table1_ranker.txt",
    "report/table2.csv", "report/table2.txt",
    "report/pca_syn00__syn01.csv", "report/manifest.json",
]


def tree_hashes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def tree_dirs(root: Path) -> set:
    return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_dir()}


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """One fully built workspace shared by the read-only tests."""
    root = tmp_path_factory.mktemp("world")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(SMALL_CONFIG))
    ws_path = root / "ws"
    rc = main(["pipeline", "--workspace", str(ws_path), "--config", str(cfg_path)])
    assert rc == 0
    return ws_path, cfg_path


class TestPipeline:
    def test_all_reports_emitted(self, world):
        ws_path, _ = world
        for rel in EXPECTED_REPORTS:
            assert (ws_path / rel).exists(), rel

    def test_manifest_lists_domains_and_artifacts(self, world):
        ws_path, _ = world
        manifest = json.loads((ws_path / "manifest.json").read_text())
        assert manifest["domains"] == [f"syn{i:02d}" for i in range(6)]
        for rel in EXPECTED_REPORTS:
            assert rel in manifest["artifacts"], rel
        assert manifest["artifacts"]["lms/syn00.txt"]["seed"] is None

    def test_report_manifest_carries_seeds_and_hashes(self, world):
        ws_path, cfg_path = world
        summary = json.loads((ws_path / "report" / "manifest.json").read_text())
        resolved = resolve_config(load_config(cfg_path))
        assert summary["master_seed"] == 3
        assert summary["stage_seeds"] == {
            stage: resolved[stage]["seed"] for stage in ("data", "embed", "adapt", "meta")
        }
        assert len(summary["config_hash"]) == 64
        assert "stage_hashes" not in summary

    def test_rerun_recomputes_nothing(self, world):
        ws_path, cfg_path = world
        before = tree_hashes(ws_path)
        resolved = resolve_config(load_config(cfg_path))
        results = run_pipeline(Workspace(ws_path), resolved)
        assert all(r.built == [] for r in results.values())
        assert tree_hashes(ws_path) == before

    def test_every_stage_produced_artifacts(self, world):
        ws_path, _ = world
        manifest = json.loads((ws_path / "manifest.json").read_text())
        stages = {entry["stage"] for entry in manifest["artifacts"].values()}
        assert stages == {"data", "embed", "lm", "features", "downstream",
                          "meta", "report"}

    def test_parallel_run_byte_identical(self, tmp_path, monkeypatch):
        """A --jobs 4 pipeline opens the thread pool and writes the bytes of a
        --jobs 1 one, manifest included."""
        import domainsel.workspace as workspace_mod

        open_pool(monkeypatch)
        pools, real = [], workspace_mod.ThreadPoolExecutor

        def recorded(*args, **kwargs):
            pools.append(kwargs["max_workers"])
            return real(*args, **kwargs)

        monkeypatch.setattr(workspace_mod, "ThreadPoolExecutor", recorded)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(
            merged(tiny_world(6), {"adapt": {"variants": ["none", "msda"]},
                                   "meta": {"trees": 10, "repeats": 3}})))
        hashes, opened = {}, {}
        for jobs in ("1", "4"):
            pools.clear()
            ws = tmp_path / f"ws{jobs}"
            assert main(["pipeline", "--workspace", str(ws), "--config", str(cfg_path),
                         "--jobs", jobs]) == 0
            hashes[jobs], opened[jobs] = tree_hashes(ws), list(pools)
        assert opened == {"1": [], "4": [4]}
        assert "report/manifest.json" in hashes["1"]
        assert hashes["4"] == hashes["1"]

    def test_deleted_lm_regenerates_byte_identically(self, world):
        ws_path, cfg_path = world
        victim = ws_path / "lms" / "syn02.txt"
        original = victim.read_bytes()
        victim.unlink()
        resolved = resolve_config(load_config(cfg_path))
        results = run_pipeline(Workspace(ws_path), resolved)
        rebuilt = [rel for r in results.values() for rel in r.built]
        assert rebuilt == ["lms/syn02.txt"]
        assert victim.read_bytes() == original

    def test_deleted_sentence_file_regenerates_subtree_only(self, world):
        ws_path, cfg_path = world
        victim = ws_path / "sentences" / "syn03_val_b.npy"
        original = victim.read_bytes()
        victim.unlink()
        resolved = resolve_config(load_config(cfg_path))
        results = run_pipeline(Workspace(ws_path), resolved)
        rebuilt = {rel for r in results.values() for rel in r.built}
        assert rebuilt == {
            f"sentences/syn03_{split}_{side}.npy"
            for split in ("train", "val", "test") for side in ("a", "b")
        }
        assert victim.read_bytes() == original


class TestStageCommands:
    def test_synth_stops_at_data(self, world, tmp_path):
        _, cfg_path = world
        ws2 = tmp_path / "ws"
        rc = main(["synth", "--workspace", str(ws2), "--config", str(cfg_path)])
        assert rc == 0
        assert (ws2 / "corpora" / "syn00.json").exists()
        assert not (ws2 / "embeddings").exists()

    def test_stage_artifacts_shared_across_commands(self, world, tmp_path):
        _, cfg_path = world
        ws2 = tmp_path / "ws"
        assert main(["lm", "--workspace", str(ws2), "--config", str(cfg_path)]) == 0
        hashes = tree_hashes(ws2)
        assert main(["features", "--workspace", str(ws2), "--config", str(cfg_path)]) == 0
        after = tree_hashes(ws2)
        unchanged = {k for k in hashes if hashes[k] == after.get(k)}
        assert set(hashes) - {"manifest.json"} <= unchanged

    def test_meta_mode_and_variant_filter(self, world, tmp_path):
        _, cfg_path = world
        ws2 = tmp_path / "ws"
        rc = main(["meta", "--workspace", str(ws2), "--config", str(cfg_path),
                   "--mode", "predictor", "--variant", "dt"])
        assert rc == 0
        assert (ws2 / "meta" / "predictor_none_orderings.csv").exists()
        assert not (ws2 / "meta" / "ranker_none_orderings.csv").exists()
        # A later unfiltered run fills the gap without redoing the rest.
        before = tree_hashes(ws2)
        rc = main(["meta", "--workspace", str(ws2), "--config", str(cfg_path)])
        assert rc == 0
        after = tree_hashes(ws2)
        assert (ws2 / "meta" / "ranker_none_orderings.csv").exists()
        changed = {k for k in before if before[k] != after[k]}
        assert changed <= {"manifest.json"}

    def test_report_out_copies_tables(self, world, tmp_path):
        ws_path, cfg_path = world
        out = tmp_path / "tables"
        rc = main(["report", "--workspace", str(ws_path), "--config", str(cfg_path),
                   "--out", str(out)])
        assert rc == 0
        for name in ("table1_predictor.csv", "table1_ranker.csv", "table2.csv",
                     "pca_syn00__syn01.csv", "manifest.json"):
            assert (out / name).exists(), name

    def test_report_out_copies_only_current_outputs(self, world, tmp_path):
        ws_path, _ = world
        ws2 = tmp_path / "ws"
        shutil.copytree(ws_path, ws2)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(
            dict(SMALL_CONFIG, report={"pca_pairs": [["syn02", "syn03"]]})))
        out = tmp_path / "tables"
        rc = main(["report", "--workspace", str(ws2), "--config", str(cfg_path),
                   "--out", str(out)])
        assert rc == 0
        want = {Path(rel).name for rel in EXPECTED_REPORTS} - {"pca_syn00__syn01.csv"}
        assert {p.name for p in out.iterdir()} == want | {"pca_syn02__syn03.csv"}
        # The full run pruned the projection that the old config asked for.
        assert [p.name for p in (ws2 / "report").glob("pca_*")] == ["pca_syn02__syn03.csv"]
        recorded = json.loads((ws2 / "manifest.json").read_text())["artifacts"]
        assert [rel for rel in recorded if rel.startswith("report/pca_")] == [
            "report/pca_syn02__syn03.csv"]

    def test_only_a_full_run_prunes_and_only_recorded_files(self, world, tmp_path):
        ws_path, cfg_path = world
        ws2 = tmp_path / "ws"
        shutil.copytree(ws_path, ws2)
        old_model = "adapt/msda/syn00__syn01.json"  # an adapt model from before `.bin`
        old_sda = "adapt/sda/syn00__syn01.json"  # one beside a user file
        manifest_path = ws2 / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        for rel in (old_model, old_sda):
            (ws2 / rel).parent.mkdir(parents=True)
            (ws2 / rel).write_text("{}")
            manifest["artifacts"][rel] = {"stage": "adapt", "key": "old", "seed": 5}
        manifest_path.write_text(json.dumps(manifest))
        # User files the manifest never recorded.
        (ws2 / "notes.txt").write_text("mine")
        (ws2 / "adapt" / "sda" / "notes.txt").write_text("also mine")

        def assert_kept():
            assert (ws2 / old_model).exists()
            assert old_model in json.loads(manifest_path.read_text())["artifacts"]

        args = ["--workspace", str(ws2), "--config", str(cfg_path)]
        assert main(["meta", *args]) == 0  # stops before report
        assert_kept()
        assert main(["meta", "--mode", "ranker", *args]) == 0
        assert_kept()
        assert main(["report", *args]) == 0
        assert not (ws2 / old_model).exists() and not (ws2 / old_sda).exists()
        assert (ws2 / "notes.txt").read_text() == "mine"
        assert (ws2 / "adapt" / "sda" / "notes.txt").read_text() == "also mine"
        # Everything else, manifest.json included, is as the cold build left
        # it: the emptied adapt/msda is gone, adapt/sda stays for its user file.
        after = tree_hashes(ws2)
        del after["notes.txt"], after["adapt/sda/notes.txt"]
        assert after == tree_hashes(ws_path)
        assert tree_dirs(ws2) == tree_dirs(ws_path) | {"adapt", "adapt/sda"}

    def test_seed_override_changes_data(self, world, tmp_path):
        ws_path, cfg_path = world
        ws2 = tmp_path / "ws"
        rc = main(["synth", "--workspace", str(ws2), "--config", str(cfg_path),
                   "--seed", "99"])
        assert rc == 0
        a = (ws_path / "corpora" / "syn00.json").read_bytes()
        b = (ws2 / "corpora" / "syn00.json").read_bytes()
        assert a != b


VARIANTS_CONFIG = {
    "seed": 5,
    "data": {
        "synth": {
            "domains": 3, "topics": 4, "words_per_topic": 20,
            "examples_per_domain": 24, "tokens_per_text": 6,
            "mixture_concentration": 0.4, "noise": 0.05,
        }
    },
    "embed": {"dim": 6, "epochs": 1},
    "adapt": {"variants": ["none", "sda", "msda", "msdar"], "layers": 2,
              "sda_epochs": 2},
    "downstream": {"seeds": [0, 1], "max_epochs": 4, "hidden": [8, 4]},
}


def job_threads(monkeypatch) -> list:
    """Record the thread of each downstream variant job."""
    import domainsel.pipeline as pipeline_mod

    seen, real = [], pipeline_mod.cross_domain_matrix

    def recorded(*args, **kwargs):
        seen.append(threading.get_ident())
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline_mod, "cross_domain_matrix", recorded)
    return seen


def open_pool(monkeypatch) -> None:
    """Pool the downstream stage at --jobs > 1 whatever its fit sizes, so
    that a small world still runs its variant jobs on threads."""
    import domainsel.pipeline as pipeline_mod

    monkeypatch.setattr(pipeline_mod, "POOL_STEP_WORK", 0)


def test_all_variants_byte_identical_under_threads(tmp_path, monkeypatch):
    """Downstream trains its variants on the thread pool; bytes must not move."""
    open_pool(monkeypatch)
    threads = job_threads(monkeypatch)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(VARIANTS_CONFIG))
    hashes = {}
    for jobs in ("1", "2"):
        threads.clear()
        ws = tmp_path / f"ws{jobs}"
        rc = main(["downstream", "--workspace", str(ws), "--config", str(cfg_path),
                   "--jobs", jobs])
        assert rc == 0
        hashes[jobs] = tree_hashes(ws)
    # The --jobs 2 variant jobs ran on the pool.
    assert len(threads) == len(VARIANTS_CONFIG["adapt"]["variants"])
    assert threading.get_ident() not in threads
    for variant in VARIANTS_CONFIG["adapt"]["variants"]:
        assert f"downstream/f1_{variant}_mean.csv" in hashes["1"]
    assert any(rel.startswith("adapt/sda/") for rel in hashes["1"])
    assert hashes["2"] == hashes["1"]


def test_failed_downstream_records_the_same_at_any_jobs(tmp_path, monkeypatch, capsys):
    """A failing `msda` job ends `downstream` with exit 2 and leaves the same
    manifest.json bytes at --jobs 1 and on the --jobs 2 pool: the variant
    jobs before it (`none`, `sda`) recorded, `msda` and `msdar` not."""
    import domainsel.pipeline as pipeline_mod

    open_pool(monkeypatch)
    threads, real = {}, pipeline_mod.cross_domain_matrix

    def failing(names, data, variant, *args, **kwargs):
        threads[variant] = threading.get_ident()
        if variant == "msda":
            raise RuntimeError("boom")
        return real(names, data, variant, *args, **kwargs)

    monkeypatch.setattr(pipeline_mod, "cross_domain_matrix", failing)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(VARIANTS_CONFIG))
    manifests = {}
    for jobs in ("1", "2"):
        threads.clear()
        ws = tmp_path / f"ws{jobs}"
        assert main(["downstream", "--workspace", str(ws), "--config", str(cfg_path),
                     "--jobs", jobs]) == 2
        assert "error: stage 'downstream', artifact 'msda': RuntimeError: boom" in \
            capsys.readouterr().err
        assert (threading.get_ident() in threads.values()) == (jobs == "1")
        manifests[jobs] = (ws / "manifest.json").read_bytes()
    recorded = json.loads(manifests["1"])["artifacts"]
    assert {re.match(r"downstream/f1_([a-z]+)", rel)[1] for rel, entry in recorded.items()
            if entry["stage"] == "downstream"} == {"none", "sda"}
    assert manifests["2"] == manifests["1"]


def test_meta_variant_builds_only_its_chain(tmp_path):
    """`meta --variant none` on an all-variant world builds only what its
    models read: no adapt model and no adapted F1 matrix. Each file it
    writes, and its manifest entry, is what an unrestricted build writes,
    so a later unrestricted `meta` ends at the cold build, file for file."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(VARIANTS_CONFIG))
    ws, cold = tmp_path / "ws", tmp_path / "cold"
    assert main(["meta", "--workspace", str(ws), "--config", str(cfg_path),
                 "--variant", "none"]) == 0
    narrowed = tree_hashes(ws)
    assert not (ws / "adapt").exists()
    assert not [rel for rel in narrowed if re.match(r"downstream/f1_(sda|msda|msdar)_", rel)]
    assert {"meta/predictor_none_orderings.csv", "meta/ranker_none_orderings.csv"} <= set(narrowed)
    assert main(["meta", "--workspace", str(cold), "--config", str(cfg_path)]) == 0
    full = tree_hashes(cold)
    del narrowed["manifest.json"]
    assert narrowed == {rel: full[rel] for rel in narrowed}
    recorded = json.loads((ws / "manifest.json").read_text())["artifacts"]
    cold_recorded = json.loads((cold / "manifest.json").read_text())["artifacts"]
    assert recorded == {rel: cold_recorded[rel] for rel in recorded}
    assert main(["meta", "--workspace", str(ws), "--config", str(cfg_path)]) == 0
    assert tree_hashes(ws) == full


def test_pool_rule_by_step_work():
    """The downstream stage pools only where rows per step times the
    parameters of its widest fit reach POOL_STEP_WORK: not at the bench
    transfer world's sizes (dim 16, 24 train rows, all four variants) nor
    at the defaults', but at dim 32 with 240 train rows."""
    from domainsel.pipeline import POOL_STEP_WORK, step_work

    every = {"adapt": {"variants": ["none", "sda", "msda", "msdar"]}}
    transfer, dim32 = (validate_config(dict(every, embed={"dim": dim})) for dim in (16, 32))
    # A 4 x 16 x (5 + 1) = 384-wide input into [128, 32] has 53,441 parameters.
    assert step_work(transfer, 24) == 24 * 53_441
    assert step_work(transfer, 24) < step_work(transfer, 240) < POOL_STEP_WORK
    assert step_work(dim32, 240) >= POOL_STEP_WORK
    # Rows per step stop at the batch; sda alone keeps the 4 x dim input.
    assert step_work(dim32, 10_000) == step_work(dim32, 32)
    sda = validate_config({"adapt": {"variants": ["sda"]}, "embed": {"dim": 32}})
    assert step_work(sda, 240) == 32 * (129 * 128 + 129 * 32 + 33)


def test_small_world_trains_serially_at_jobs_2(tmp_path, monkeypatch, caplog):
    """Below POOL_STEP_WORK, --jobs 2 runs every downstream job on the
    calling thread, one after another, and says so."""
    threads = job_threads(monkeypatch)
    caplog.set_level(logging.INFO)
    _run("downstream", tmp_path / "ws", tmp_path, "2")
    assert threads == [threading.get_ident()] * len(VARIANTS_CONFIG["adapt"]["variants"])
    assert "stage downstream: step work" in caplog.text


def test_downstream_trains_each_distinct_fit_once(tmp_path, monkeypatch):
    """At --jobs 1 and 2, each distinct pair classifier trains once and the
    F1 CSVs keep their bytes. Every identity-encoded call (a `none` pair or a
    diagonal) goes through the stage's one fit cache, and every adapted
    off-diagonal call through none."""
    import domainsel.downstream as downstream_mod
    import domainsel.pipeline as pipeline_mod

    open_pool(monkeypatch)
    trainings, calls, threads = [], [], set()
    job = threading.local()
    real_fit = downstream_mod._fit
    real_train = downstream_mod.train_pair_classifier
    real_matrix = pipeline_mod.cross_domain_matrix

    def counted_fit(*args):
        trainings.append(1)
        return real_fit(*args)

    def recorded_train(*args, **kwargs):
        job.caches.append(kwargs["cache"])
        return real_train(*args, **kwargs)

    def tagged_matrix(names, data, variant, seeds, *args, **kwargs):
        # A variant job makes its calls on one thread, pair by pair, seed by seed.
        threads.add(threading.get_ident())
        job.caches = []
        matrix = real_matrix(names, data, variant, seeds, *args, **kwargs)
        pairs = [(s, t) for s in names for t in names for _ in seeds]
        assert len(job.caches) == len(pairs)
        calls.extend((variant, s, t, c) for (s, t), c in zip(pairs, job.caches))
        return matrix

    monkeypatch.setattr(downstream_mod, "_fit", counted_fit)
    monkeypatch.setattr(downstream_mod, "train_pair_classifier", recorded_train)
    monkeypatch.setattr(pipeline_mod, "cross_domain_matrix", tagged_matrix)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(VARIANTS_CONFIG))
    d = VARIANTS_CONFIG["data"]["synth"]["domains"]
    s = len(VARIANTS_CONFIG["downstream"]["seeds"])
    v = len(VARIANTS_CONFIG["adapt"]["variants"])
    f1, caches = {}, {}
    for jobs in ("1", "2"):
        trainings.clear()
        calls.clear()
        threads.clear()
        ws = tmp_path / f"ws{jobs}"
        rc = main(["downstream", "--workspace", str(ws), "--config", str(cfg_path),
                   "--jobs", jobs])
        assert rc == 0
        assert len(calls) == d * d * s * v
        assert len(trainings) == d * s + (v - 1) * d * (d - 1) * s
        stage = {id(c): c for *_, c in calls if c is not None}
        assert len(stage) == 1
        (caches[jobs],) = stage.values()
        assert isinstance(caches[jobs], Memo)
        for variant, src, tgt, cache in calls:
            identity = variant == "none" or src == tgt
            assert cache is (caches[jobs] if identity else None)
        f1[jobs] = {p.name: p.read_bytes() for p in sorted((ws / "downstream").glob("*.csv"))}
        on_pool = threading.get_ident() not in threads
        assert on_pool == (jobs == "2")
    assert caches["2"] is not caches["1"]  # one cache per downstream stage
    assert len(f1["1"]) == v * (s + 1)
    assert f1["2"] == f1["1"]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_downstream_draws_once_per_seed_and_width(tmp_path, monkeypatch, jobs):
    """Nine seeds and two input widths (`none` and `msda`): the stage makes
    one initial draw per (seed, input width), whatever the number of fits
    that start from it, also with the variant jobs on the pool."""
    import domainsel.downstream as downstream_mod

    open_pool(monkeypatch)
    draws = []
    real = downstream_mod._initial_state

    def counted(seed, d, h1, h2):
        draws.append((seed, d))
        return real(seed, d, h1, h2)

    monkeypatch.setattr(downstream_mod, "_initial_state", counted)
    seeds = list(range(9))
    cfg = dict(VARIANTS_CONFIG, adapt=dict(VARIANTS_CONFIG["adapt"], variants=["none", "msda"]),
               downstream=dict(VARIANTS_CONFIG["downstream"], seeds=seeds))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["downstream", "--workspace", str(tmp_path / "ws"), "--config",
                 str(cfg_path), "--jobs", jobs]) == 0
    widths = {d for _, d in draws}
    assert len(widths) == 2
    assert sorted(draws) == sorted((s, d) for s in seeds for d in widths)


def _count_sentence_loads(monkeypatch):
    """Record each sentence file np.load reads, and the writeable flag of
    every array downstream hands to cross_domain_matrix."""
    import domainsel.pipeline as pipeline_mod

    loads, writeable = [], []
    real_load, real_matrix = np.load, pipeline_mod.cross_domain_matrix

    def counted_load(path, *args, **kwargs):
        if Path(path).parent.name == "sentences":
            loads.append(Path(path).name)
        return real_load(path, *args, **kwargs)

    def checked_matrix(names, data, *args, **kwargs):
        writeable.extend(x.flags.writeable for a, b, _ in data.values() for x in (a, b))
        return real_matrix(names, data, *args, **kwargs)

    monkeypatch.setattr(np, "load", counted_load)
    monkeypatch.setattr(pipeline_mod, "cross_domain_matrix", checked_matrix)
    return loads, writeable


def _run(command, ws, tmp_path, jobs="1"):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(VARIANTS_CONFIG))
    assert main([command, "--workspace", str(ws), "--config", str(cfg_path),
                 "--jobs", jobs]) == 0


def test_adapt_reads_each_domain_once(tmp_path, monkeypatch):
    """Sentence arrays reach adapt and downstream through the workspace
    hand-off: a cold build loads none of them from disk, and the arrays
    downstream is handed are read-only."""
    import domainsel.pipeline as pipeline_mod

    loads, writeable = _count_sentence_loads(monkeypatch)
    stacked = []
    real_stack = pipeline_mod.stack_marginalized

    def counted_stack(X_s, X_t, cfg):
        stacked.append(1)
        return real_stack(X_s, X_t, cfg)

    monkeypatch.setattr(pipeline_mod, "stack_marginalized", counted_stack)
    _run("adapt", tmp_path / "ws", tmp_path)
    assert loads == []
    assert len(stacked) == 12  # msda and msdar, 6 ordered pairs each
    _run("downstream", tmp_path / "cold", tmp_path)
    assert loads == []
    assert writeable and not any(writeable)


def test_failing_adapt_pair_is_named_and_leaves_its_variant_unrecorded(
        tmp_path, monkeypatch, capsys):
    """One job writes every model of a variant. A pair that fails is named
    by variant and pair, and none of that variant's models stay recorded."""
    import domainsel.pipeline as pipeline_mod

    real = pipeline_mod.train_sda
    adapt_seed = resolve_config(validate_config(VARIANTS_CONFIG))["adapt"]["seed"]
    bad_seed = child_seed(adapt_seed, "sda", "syn01", "syn02")

    def failing(X_s, X_t, cfg, seed=0):
        if seed == bad_seed:
            raise ComputationError("sda layer 0: training diverged")
        return real(X_s, X_t, cfg, seed=seed)

    monkeypatch.setattr(pipeline_mod, "train_sda", failing)
    cfg = merged(VARIANTS_CONFIG, {"adapt": {"variants": ["none", "sda", "msda"]}})
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    ws = tmp_path / "ws"
    assert main(["adapt", "--workspace", str(ws), "--config", str(cfg_path)]) == 2
    assert ("stage 'adapt', artifact 'sda:syn01->syn02': ComputationError: "
            "sda layer 0: training diverged") in capsys.readouterr().err
    recorded = json.loads((ws / "manifest.json").read_text())["artifacts"]
    assert not [rel for rel in recorded if rel.startswith("adapt/sda/")]
    assert not list((ws / "adapt" / "sda").glob("*"))


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_downstream_reads_inputs_once(tmp_path, monkeypatch, jobs):
    """Downstream over a workspace built through adapt loads each sentence
    file once, also on the pool, and hands out read-only arrays."""
    open_pool(monkeypatch)
    built = tmp_path / "built"
    _run("adapt", built, tmp_path)
    files = sorted(p.name for p in (built / "sentences").glob("*.npy"))
    assert len(files) == 18  # 3 domains x 3 splits x 2 sides
    loads, writeable = _count_sentence_loads(monkeypatch)
    _run("downstream", built, tmp_path, jobs)
    assert sorted(loads) == files
    assert writeable and not any(writeable)


def test_kept_objects_live_until_their_last_reading_stage(tmp_path, monkeypatch):
    """The workspace lets go of a kept object once no later stage lists its
    file as an input: the global table after embed, the per-domain tables
    and language models after features, the corpora and the sentence
    arrays that only downstream reads after downstream. The arrays that
    the report's projection reads stay through report, never reloaded."""
    import domainsel.pipeline as pipeline_mod

    kept, alive = {}, []
    real_keep, real_stage = Workspace.keep, pipeline_mod.run_stage

    def recorded_keep(self, rel, obj):
        kept[rel] = weakref.ref(obj)
        real_keep(self, rel, obj)

    def recorded_stage(ws, stage, *args, **kwargs):
        alive.append((stage, {rel for rel, ref in kept.items() if ref() is not None}))
        return real_stage(ws, stage, *args, **kwargs)

    monkeypatch.setattr(Workspace, "keep", recorded_keep)
    monkeypatch.setattr(pipeline_mod, "run_stage", recorded_stage)
    loads, _ = _count_sentence_loads(monkeypatch)
    cfg = dict(VARIANTS_CONFIG, meta={"modes": []},
               report={"pca_pairs": [["syn00", "syn01"]]})
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["report", "--workspace", str(tmp_path / "ws"),
                 "--config", str(cfg_path)]) == 0
    # What was alive when each stage started, before its first phase ran;
    # no garbage collection, so a dropped object went with its last reference.
    at_start = {}
    for stage, rels in alive:
        at_start.setdefault(stage, rels)

    def held(stage, prefix):
        return {rel for rel in at_start[stage] if rel.startswith(prefix)}

    names = ["syn00", "syn01", "syn02"]
    tables = {f"embeddings/{n}.txt" for n in names}
    projected = {f"sentences/{n}_train_{side}.npy" for n in names[:2] for side in "ab"}
    assert held("lm", "embeddings/") == tables
    assert held("features", "lms/") == {f"lms/{n}.txt" for n in names}
    assert held("adapt", "embeddings/") == held("adapt", "lms/") == set()
    assert held("adapt", "corpora/") == {f"corpora/{n}.json" for n in names}
    assert len(held("downstream", "sentences/")) == 18
    assert held("meta", "corpora/") == set()
    assert held("meta", "sentences/") == held("report", "sentences/") == projected
    assert loads == []


def readme_quick_start() -> str:
    """The first JSON block of the README's quick start, verbatim."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("## Quick start", 1)[1]
    return section.split("```json\n", 1)[1].split("```", 1)[0]


@pytest.mark.parametrize("config", ["{}", readme_quick_start()], ids=["defaults", "readme"])
def test_documented_config_runs_to_exit_0(tmp_path, caplog, config):
    """One-class LOTO train sets fit no trees, warn, and are listed."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(config)
    ws = tmp_path / "ws"
    assert main(["pipeline", "--workspace", str(ws), "--config", str(cfg_path)]) == 0
    resolved = resolve_config(load_config(cfg_path))
    for mode in resolved["meta"]["modes"]:
        for variant in resolved["adapt"]["variants"]:
            report = json.loads((ws / f"meta/{mode}_{variant}_report.json").read_text())
            degenerate = report["degenerate"]
            assert degenerate == sorted(degenerate)
            warned = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"
                      and f"meta {mode}:{variant}:" in r.getMessage()]
            assert len(warned) == len(degenerate)
            for target in degenerate:
                assert json.loads((ws / f"meta/{mode}_{variant}_model_{target}.json")
                                  .read_text())["trees"] == []
    assert (ws / "report/table1_predictor.csv").exists()


ZERO_F1_CONFIG = {
    "seed": 1,
    "data": {"synth": {"domains": 6, "topics": 4, "words_per_topic": 20,
                       "examples_per_domain": 24, "tokens_per_text": 6}},
    "embed": {"dim": 6, "epochs": 1},
    "downstream": {"seeds": [0], "max_epochs": 3, "hidden": [8, 4]},
    "meta": {"trees": 5},
}


def test_zero_in_domain_f1_runs_to_exit_0(tmp_path):
    """A target with zero in-domain F1 takes F1_ST > 0 as success."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(ZERO_F1_CONFIG))
    ws = tmp_path / "ws"
    assert main(["pipeline", "--workspace", str(ws), "--config", str(cfg_path)]) == 0
    matrix = load_f1_matrix(ws / "downstream", "none")
    zero = [t for j, t in enumerate(matrix.domains) if matrix.mean[j, j] == 0.0]
    assert zero
    success = success_labels(matrix)[1]
    for t in zero:
        for s in matrix.domains:
            assert success[(s, t)] == (matrix.entry(s, t) > 0)


def traced_layer_names(source: str) -> set:
    """Span names that perfbench/traced.py's install() records."""
    pattern = r'tracer\.(?:wrap\([\w.]+,\s*"\w+",\s*|call\(|record\(\w+,\s*)"([\w.]+)"'
    return set(re.findall(pattern, source))


def test_traced_benchmark_hooks_are_all_called(tmp_path):
    """Every name the traced benchmark wraps still exists and is still called."""
    root = Path(__file__).resolve().parents[1]
    traced = root / "perfbench" / "traced.py"
    expected = traced_layer_names(traced.read_text(encoding="utf-8"))
    assert {"meta.success_predictor", "meta.domain_ranker", "meta.multi_sort",
            "gbdt.predict_proba", "workspace.run_stage", "workspace.job"} <= expected
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(VARIANTS_CONFIG))
    out = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, str(traced), str(out), "meta", "--workspace", str(tmp_path / "ws"),
         "--config", str(cfg_path)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    trace = json.loads(out.read_text(encoding="utf-8"))
    layers = trace["layers"]
    assert {name for name in expected if layers.get(name, {}).get("calls", 0) < 1} == set()
    # The exact counts that perfbench/run.py checks: a change that skipped
    # calls at their call sites would fail here before it fails the bench.
    d = VARIANTS_CONFIG["data"]["synth"]["domains"]
    s = len(VARIANTS_CONFIG["downstream"]["seeds"])
    variants = VARIANTS_CONFIG["adapt"]["variants"]
    v = len(variants)
    assert "sda" in variants
    assert layers["downstream.train_pair_classifier"]["calls"] == d * d * s * v
    assert layers["embed.train_skipgram"]["calls"] == d + 1
    assert layers["adapt.train_sda"]["calls"] == d * (d - 1)
    # `none` trains one classifier per (source, seed), every variant shares
    # it on the diagonal, and each adapted pair has its own.
    assert trace["distinct_fits"] == d * s + (v - 1) * d * (d - 1) * s


def test_embed_reads_global_table_once(tmp_path, monkeypatch):
    """Sentence jobs share one read-only global table: the one just trained
    in a cold build, else one load."""
    from domainsel.embed import EmbeddingTable

    loads, writeable = [], []
    real_load = EmbeddingTable.load.__func__
    real_pool = EmbeddingTable.sentence_vector

    def counted_load(cls, path, domain=""):
        loads.append(Path(path).name)
        return real_load(cls, path, domain)

    def checked_pool(self, tokens):
        writeable.append(self.matrix.flags.writeable)
        return real_pool(self, tokens)

    monkeypatch.setattr(EmbeddingTable, "load", classmethod(counted_load))
    monkeypatch.setattr(EmbeddingTable, "sentence_vector", checked_pool)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(VARIANTS_CONFIG))
    ws = tmp_path / "ws"
    args = ["embed", "--workspace", str(ws), "--config", str(cfg_path)]
    assert main(args) == 0
    assert loads == []
    assert writeable and not any(writeable)
    shutil.rmtree(ws / "sentences")
    writeable.clear()
    assert main(args) == 0
    assert loads == ["global.txt"]
    assert writeable and not any(writeable)


def test_features_count_each_domain_once(tmp_path, monkeypatch):
    """The features job takes each domain's unigram stats once and hands
    feature_vector read-only tables, trained in this run or loaded."""
    import domainsel.corpus as corpus_mod
    import domainsel.pipeline as pipeline_mod
    import domainsel.simfeat as simfeat_mod

    stats, writeable = [], []
    real_stats, real_vector = corpus_mod.unigram_stats, pipeline_mod.feature_vector

    def counted_stats(corpus, split_filter=None):
        stats.append(corpus.name)
        return real_stats(corpus, split_filter)

    def checked_vector(source, target, source_table, target_table, *args, **kwargs):
        writeable.extend([source_table.matrix.flags.writeable,
                          target_table.matrix.flags.writeable])
        return real_vector(source, target, source_table, target_table, *args, **kwargs)

    monkeypatch.setattr(corpus_mod, "unigram_stats", counted_stats)
    monkeypatch.setattr(simfeat_mod, "unigram_stats", counted_stats)
    monkeypatch.setattr(pipeline_mod, "feature_vector", checked_vector)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(tiny_world(6)))
    ws = tmp_path / "ws"
    args = ["features", "--workspace", str(ws), "--config", str(cfg_path)]
    names = [f"syn0{i}" for i in range(6)]
    assert main(args) == 0  # cold: the tables trained in this run
    assert sorted(stats) == names
    assert len(writeable) == 2 * 30 and not any(writeable)
    (ws / "features" / "features.csv").unlink()
    stats.clear()
    writeable.clear()
    assert main(args) == 0  # the tables loaded from their files
    assert sorted(stats) == names
    assert len(writeable) == 2 * 30 and not any(writeable)


def test_domains_come_from_config(tmp_path, caplog):
    """Shrinking data.synth.domains drops the orphan corpus from every stage."""
    cfg = json.loads(json.dumps(VARIANTS_CONFIG))
    cfg["adapt"]["variants"] = ["none"]
    cfg["data"]["synth"]["domains"] = 4
    cfg_path = tmp_path / "config.json"
    ws = tmp_path / "ws"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["features", "--workspace", str(ws), "--config", str(cfg_path)]) == 0
    assert "syn03" in (ws / "features" / "features.csv").read_text()
    cfg["data"]["synth"]["domains"] = 3
    cfg_path.write_text(json.dumps(cfg))
    assert main(["features", "--workspace", str(ws), "--config", str(cfg_path)]) == 0
    assert (ws / "corpora" / "syn03.json").exists()
    assert "syn03" not in (ws / "features" / "features.csv").read_text()
    manifest = json.loads((ws / "manifest.json").read_text())
    assert manifest["domains"] == ["syn00", "syn01", "syn02"]
    assert any("syn03" in rec.getMessage() for rec in caplog.records
               if rec.levelname == "WARNING")


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
def test_cli_pins_blas_threads_unless_set(preset, expected):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update({k: preset for k in BLAS_THREAD_VARS if preset})
    env["PYTHONPATH"] = str(Path(domainsel.__file__).parents[1])
    probe = "import os, domainsel.cli; print(*(os.environ[k] for k in %r))" % (
        BLAS_THREAD_VARS,)
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out == [expected] * len(BLAS_THREAD_VARS)


class TestErrors:
    def test_unknown_config_key_names_it(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"embed": {"dimension": 8}}))
        rc = main(["pipeline", "--workspace", str(tmp_path / "ws"),
                   "--config", str(cfg)])
        assert rc == 1
        assert "embed.dimension" in capsys.readouterr().err

    def test_synth_command_with_ingest_config(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "data": {"mode": "ingest",
                     "sources": [{"name": "a", "path": "x.jsonl", "format": "jsonl"}]}
        }))
        rc = main(["synth", "--workspace", str(tmp_path / "ws"), "--config", str(cfg)])
        assert rc == 1
        assert "data.mode 'synth'" in capsys.readouterr().err

    def test_ingest_command_with_synth_config(self, tmp_path, capsys):
        rc = main(["ingest", "--workspace", str(tmp_path / "ws")])
        assert rc == 1
        assert "data.mode 'ingest'" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, key", [
        ({"downstream": {"seeds": [-1]}}, "downstream.seeds"),
        ({"downstream": {"seeds": [0, 0]}}, "downstream.seeds"),
        ({"downstream": {"lr": -0.1}}, "downstream.lr"),
        ({"downstream": {"max_epochs": -1}}, "downstream.max_epochs"),
        ({"downstream": {"patience": 0}}, "downstream.patience"),
        ({"adapt": {"sda_lr": 0}}, "adapt.sda_lr"),
        ({"embed": {"dim": 0}}, "embed.dim"),
        ({"adapt": {"layers": 0}}, "adapt.layers"),
        ({"adapt": {"dropout_p": 1.0}}, "adapt.dropout_p"),
        ({"meta": {"trees": 0}}, "meta.trees"),
        ({"lm": {"discount": 1.5}}, "lm.discount"),
        ({"embed": {"window": 0}}, "embed.window"),
        ({"embed": {"negatives": -1}}, "embed.negatives"),
        ({"embed": {"epochs": -1}}, "embed.epochs"),
        ({"adapt": {"sda_epochs": -2}}, "adapt.sda_epochs"),
        ({"features": {"alpha": 1.0}}, "features.alpha"),
        ({"data": {"synth": {"noise": 1.0}}}, "data.synth.noise"),
        ({"data": {"synth": {"examples_per_domain": 5}}}, "data.synth.examples_per_domain"),
        ({"data": {"synth": {"examples_per_domain": 6}}}, "data.synth.examples_per_domain"),
        ({"data": {"synth": {"examples_per_domain": 12}}}, "data.synth.examples_per_domain"),
        ({"data": {"split_ratios": [1.0, 0.0, 0.0]}}, "data.split_ratios"),
        ({"data": {"split_ratios": [0.5, 0.2, 0.2]}}, "data.split_ratios"),
    ], ids=["negative_seed", "repeated_seed", "negative_lr", "negative_epochs",
            "zero_patience", "zero_sda_lr", "zero_dim", "zero_layers", "full_dropout",
            "zero_trees", "discount_above_1", "zero_window", "negative_negatives",
            "negative_embed_epochs", "negative_sda_epochs", "alpha_1", "full_noise",
            "five_examples", "six_examples_no_val", "twelve_examples_no_test",
            "empty_split", "ratios_sum_below_1"])
    def test_out_of_range_value_names_its_key(self, tmp_path, capsys, edit, key):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(merged(tiny_world(2), edit)))
        ws = tmp_path / "ws"
        rc = main(["downstream", "--workspace", str(ws), "--config", str(cfg)])
        assert rc == 1
        assert f"config key '{key}'" in capsys.readouterr().err
        assert not ws.exists()

    def test_thirteen_examples_fill_every_split(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(
            merged(tiny_world(2), {"data": {"synth": {"examples_per_domain": 13}}})))
        assert main(["downstream", "--workspace", str(tmp_path / "ws"),
                     "--config", str(cfg)]) == 0

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, jobs):
        ws = tmp_path / "ws"
        rc = main(["synth", "--workspace", str(ws), "--jobs", jobs])
        assert rc == 1
        assert "--jobs" in capsys.readouterr().err
        assert not ws.exists()

    def test_meta_variant_not_configured(self, world, tmp_path, capsys):
        _, cfg_path = world
        rc = main(["meta", "--workspace", str(tmp_path / "ws"),
                   "--config", str(cfg_path), "--variant", "msdar"])
        assert rc == 1
        assert "msdar" in capsys.readouterr().err

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under_a_file"])
    def test_workspace_that_cannot_be_a_directory(self, tmp_path, capsys, under):
        (tmp_path / "taken").write_text("mine")
        ws = tmp_path / "taken" / "ws" if under else tmp_path / "taken"
        assert main(["synth", "--workspace", str(ws), "--config", str(self.tiny(tmp_path))]) == 1
        err = capsys.readouterr().err
        assert f"error: workspace {ws} is not a usable directory" in err
        assert (tmp_path / "taken").read_text() == "mine"

    def test_config_that_is_a_directory(self, tmp_path, capsys):
        rc = main(["synth", "--workspace", str(tmp_path / "ws"), "--config", str(tmp_path)])
        assert rc == 1
        assert f"error: config file {tmp_path} cannot be read: Is a directory" in \
            capsys.readouterr().err
        assert not (tmp_path / "ws").exists()

    def test_report_out_that_is_a_file_fails_before_the_build(self, tmp_path, capsys):
        out = tmp_path / "tables"
        out.write_text("mine")
        ws = tmp_path / "ws"
        for target in (out, out / "sub"):
            rc = main(["report", "--workspace", str(ws), "--config", str(self.tiny(tmp_path)),
                       "--out", str(target)])
            assert rc == 1
            assert f"error: --out {target}: {out} is not a directory" in capsys.readouterr().err
            assert not ws.exists()

    @pytest.mark.parametrize("under", [".", "report", "report/..", "new/dir"])
    def test_report_out_inside_the_workspace_fails_before_the_build(
            self, world, tmp_path, capsys, monkeypatch, under):
        """A copy into the workspace would overwrite its own files or its
        manifest; it is refused before the pipeline loads."""
        ws = tmp_path / "ws"
        shutil.copytree(world[0], ws)
        before = tree_hashes(ws)

        def no_build(*args, **kwargs):
            raise AssertionError("the pipeline ran")
        monkeypatch.setattr("domainsel.pipeline.run_pipeline", no_build)
        target = ws / under
        rc = main(["report", "--workspace", str(ws), "--config", str(world[1]),
                   "--out", str(target)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: --out {target} is inside the workspace {ws}\n"
        assert tree_hashes(ws) == before
        assert not (ws / "new").exists()

    @staticmethod
    def tiny(tmp_path) -> Path:
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(tiny_world(2)))
        return cfg

    def test_corrupt_f1_matrix_fails_its_meta_job(self, world, tmp_path, capsys):
        """A damaged F1 file is reported by the job that reads it, not when
        the meta stage derives its job keys from the success labels."""
        ws = tmp_path / "ws"
        shutil.copytree(world[0], ws)
        (ws / "downstream" / "f1_none.json").write_text("{")
        rc = main(["meta", "--workspace", str(ws), "--config", str(world[1])])
        assert rc == 2
        assert "stage 'meta', artifact 'predictor:none'" in capsys.readouterr().err

    @staticmethod
    def damage(path, line, field, value):
        """Rewrite one CSV field of `path` (1-based line, 0-based field)."""
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        fields = lines[line - 1].rstrip("\r\n").split(",")
        fields[field] = value
        lines[line - 1] = ",".join(fields) + "\r\n"
        path.write_text("".join(lines), encoding="utf-8")

    def test_bad_feature_value_names_file_and_line(self, world, tmp_path, capsys):
        ws = tmp_path / "ws"
        shutil.copytree(world[0], ws)
        path = ws / "features" / "features.csv"
        self.damage(path, 4, 5, "abc")
        capsys.readouterr()
        assert main(["meta", "--workspace", str(ws), "--config", str(world[1])]) == 1
        err = capsys.readouterr().err
        assert f"{path}: line 4: could not convert string to float: 'abc'" in err
        assert "Traceback" not in err

    def test_bad_ordering_rank_names_file_and_line(self, world, tmp_path, capsys):
        ws = tmp_path / "ws"
        shutil.copytree(world[0], ws)
        path = ws / "meta" / "ranker_none_orderings.csv"
        self.damage(path, 3, 1, "x")
        capsys.readouterr()
        assert main(["report", "--workspace", str(ws), "--config", str(world[1])]) == 1
        err = capsys.readouterr().err
        assert "stage 'report', artifact 'table1:ranker'" in err
        assert f"{path}: line 3: invalid literal for int() with base 10: 'x'" in err

    def test_truncated_adapt_model_fails_downstream(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(VARIANTS_CONFIG))
        ws = tmp_path / "ws"
        args = ["downstream", "--workspace", str(ws), "--config", str(cfg)]
        assert main(args) == 0
        model = ws / "adapt" / "msda" / "syn00__syn01.bin"
        model.write_bytes(model.read_bytes()[:-5])
        capsys.readouterr()
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "stage 'downstream', artifact 'msda'" in err
        assert str(model) in err and "bytes of arrays" in err
        assert "Traceback" not in err

    def test_builder_crash_exits_2_and_cleans_up(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(SMALL_CONFIG))
        import domainsel.pipeline as pipeline_mod

        def explode(*args, **kwargs):
            raise RuntimeError("induced failure")

        monkeypatch.setattr(pipeline_mod, "train_kn", explode)
        rc = main(["lm", "--workspace", str(tmp_path / "ws"), "--config", str(cfg)])
        assert rc == 2
        assert "induced failure" in capsys.readouterr().err
        assert not list((tmp_path / "ws" / "lms").glob("*.txt"))

    def test_failed_stage_reruns_cleanly(self, tmp_path, monkeypatch):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(SMALL_CONFIG))
        import domainsel.pipeline as pipeline_mod
        real = pipeline_mod.train_kn
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 3:
                raise RuntimeError("transient")
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline_mod, "train_kn", flaky)
        assert main(["lm", "--workspace", str(tmp_path / "ws"), "--config", str(cfg)]) == 2
        monkeypatch.setattr(pipeline_mod, "train_kn", real)
        assert main(["lm", "--workspace", str(tmp_path / "ws"), "--config", str(cfg)]) == 0
        assert len(list((tmp_path / "ws" / "lms").glob("*.txt"))) == 6

    def test_workspace_in_use_by_another_process(self, tmp_path, capsys):
        """A run is refused while another process holds the workspace, and
        builds nothing; once that process is gone the run succeeds and
        leaves no lock file."""
        ws = tmp_path / "ws"
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(VARIANTS_CONFIG))
        args = ["synth", "--workspace", str(ws), "--config", str(cfg)]
        holder = subprocess.Popen(
            [sys.executable, "-c", HOLD_WORKSPACE, str(ws)],
            env=dict(os.environ, PYTHONPATH=str(Path(domainsel.__file__).parents[1])),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            assert holder.stdout.readline() == "held\n"
            assert main(args) == 1
            assert f"workspace {ws} is in use" in capsys.readouterr().err
            assert list(ws.iterdir()) == []
        finally:
            holder.stdin.close()
            holder.stdout.close()
            assert holder.wait(timeout=60) == 0
        assert main(args) == 0
        assert sorted(p.name for p in ws.iterdir()) == ["corpora", "manifest.json"]


HOLD_WORKSPACE = """
import sys
from domainsel.workspace import Workspace
with Workspace(sys.argv[1]).lock():
    print("held", flush=True)
    sys.stdin.read()
"""


def export_jsonl(spec: SyntheticSpec, root: Path) -> list:
    """Write each domain of the spec to root/<name>.jsonl; return the sources."""
    sources = []
    for name in spec.domains:
        path = root / f"{name}.jsonl"
        with open(path, "w", encoding="utf-8") as f:
            for ex in synth_domain(spec, name).examples:
                f.write(json.dumps({"text_a": ex.text_a, "text_b": ex.text_b,
                                    "label": ex.label}) + "\n")
        sources.append({"name": name, "path": str(path), "format": "jsonl"})
    return sources


def export_tsv(spec: SyntheticSpec, root: Path) -> list:
    """Write each domain of the spec to root/<name>.tsv; return the sources."""
    sources = []
    for name in spec.domains:
        path = root / f"{name}.tsv"
        rows = [f"{ex.text_a}\t{ex.text_b}\t{ex.label}\n"
                for ex in synth_domain(spec, name).examples]
        path.write_text("text_a\ttext_b\tlabel\n" + "".join(rows), encoding="utf-8")
        sources.append({"name": name, "path": str(path), "format": "tsv"})
    return sources


@pytest.fixture(scope="module")
def jsonl_world(tmp_path_factory):
    """Three jsonl corpora exported from a tiny generated world."""
    root = tmp_path_factory.mktemp("ingest")
    spec = SyntheticSpec(
        domains=("news", "chat", "law"),
        topics=(
            tuple(f"alpha{i}" for i in range(30)),
            tuple(f"beta{i}" for i in range(30)),
            tuple(f"gamma{i}" for i in range(30)),
        ),
        mixtures=((0.7, 0.2, 0.1), (0.1, 0.7, 0.2), (0.2, 0.1, 0.7)),
        examples_per_domain=60,
        tokens_per_text=8,
        noise=0.05,
        seed=17,
    )
    cfg = {
        "seed": 5,
        "data": {"mode": "ingest", "sources": export_jsonl(spec, root)},
        "embed": {"dim": 8, "epochs": 2},
        "adapt": {"variants": ["none"]},
        "downstream": {"seeds": [0], "max_epochs": 20, "hidden": [16, 8],
                       "patience": 8, "lr": 0.01},
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    return root, cfg_path


class TestIngest:
    def test_ingest_through_downstream(self, jsonl_world):
        root, cfg_path = jsonl_world
        ws = root / "ws"
        rc = main(["downstream", "--workspace", str(ws), "--config", str(cfg_path)])
        assert rc == 0
        assert sorted(p.stem for p in (ws / "corpora").glob("*.json")) == \
            ["chat", "law", "news"]
        assert (ws / "downstream" / "f1_none_mean.csv").exists()

    def test_disjoint_vocabularies_give_zero_f10(self, tmp_path, caplog):
        """Domains that share no token have no word vector to compare: the
        features stage sets f10 to 0.0 and names the pair in a warning."""
        spec = SyntheticSpec(
            domains=("left", "right"),
            topics=tuple(tuple(f"{w}{i}" for i in range(10))
                         for w in ("alpha", "beta", "gamma", "delta")),
            mixtures=((0.5, 0.5, 0.0, 0.0), (0.0, 0.0, 0.5, 0.5)),
            examples_per_domain=30, tokens_per_text=6, noise=0.0, seed=3,
        )
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"data": {"mode": "ingest",
                                            "sources": export_jsonl(spec, tmp_path)},
                                   "embed": {"dim": 4, "epochs": 1}}))
        ws = tmp_path / "ws"
        with caplog.at_level(logging.WARNING, logger="domainsel.simfeat"):
            assert main(["features", "--workspace", str(ws), "--config", str(cfg)]) == 0
        features = load_feature_matrix(ws / "features" / "features.csv")
        assert features[("left", "right")].f10 == features[("right", "left")].f10 == 0.0
        assert "left -> right" in caplog.text and "right -> left" in caplog.text

    def test_missing_source_file_is_validation_error(self, tmp_path, capsys):
        """A source that is missing, a directory or not UTF-8 is bad input:
        exit 1 with the file named, not a failed computation."""
        (tmp_path / "folder.jsonl").mkdir()
        (tmp_path / "latin1.tsv").write_bytes(b"text_a\ttext_b\tlabel\ncaf\xe9\tbar\t1\n")
        cfg = tmp_path / "config.json"
        for source, problem in [("gone.jsonl", "cannot be read: No such file or directory"),
                                ("folder.jsonl", "cannot be read: Is a directory"),
                                ("latin1.tsv", "is not UTF-8")]:
            path = tmp_path / source
            cfg.write_text(json.dumps({
                "data": {"mode": "ingest",
                         "sources": [{"name": "a", "path": str(path),
                                      "format": path.suffix[1:]}]}
            }))
            rc = main(["ingest", "--workspace", str(tmp_path / "ws"), "--config", str(cfg)])
            assert rc == 1
            err = capsys.readouterr().err
            assert f"stage 'data', artifact 'a': corpus source {path} {problem}" in err

    def test_empty_split_fails_in_the_data_stage(self, jsonl_world, tmp_path, capsys):
        """Twelve records (six per label) leave the test split empty: the data
        stage rejects the corpus before any embedding is written."""
        cfg = json.loads(jsonl_world[1].read_text())
        sources = []
        for src in cfg["data"]["sources"][:2]:
            path = tmp_path / Path(src["path"]).name
            path.write_text("".join(Path(src["path"]).read_text().splitlines(True)[:12]))
            sources.append(dict(src, path=str(path)))
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(ingest_edit(cfg, sources)))
        ws = tmp_path / "ws"
        assert main(["downstream", "--workspace", str(ws), "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert "stage 'data'" in err and "leave the 'test' split empty" in err
        assert not (ws / "embeddings").exists() or not any((ws / "embeddings").iterdir())

    @pytest.mark.parametrize("export", [export_jsonl, export_tsv])
    def test_ingest_of_the_synth_corpora_builds_the_same_files(self, export, tmp_path):
        """Synth and ingest are two ways into one pipeline: ingesting the synth
        world's corpora, in corpus order and under the same config, builds
        every workspace file through `features` with the same bytes. Only
        the manifest differs, since the data jobs read different things."""
        cfg = {
            "seed": 4,
            "data": {"synth": {"domains": 3, "topics": 4, "words_per_topic": 20,
                               "examples_per_domain": 40, "tokens_per_text": 6,
                               "mixture_concentration": 0.4, "noise": 0.05}},
            "embed": {"dim": 6, "epochs": 1},
        }
        resolved = resolve_config(validate_config(cfg))
        run_pipeline(Workspace(tmp_path / "synth"), resolved, upto="features")
        data = resolved["data"]
        spec = spec_from_config(data["synth"], data["seed"])
        ingest = dict(cfg, data={"mode": "ingest", "sources": export(spec, tmp_path)})
        run_pipeline(Workspace(tmp_path / "ingest"), resolve_config(validate_config(ingest)),
                     upto="features")
        synth, ingested = tree_hashes(tmp_path / "synth"), tree_hashes(tmp_path / "ingest")
        assert "features/features.csv" in synth and len(synth) > 10
        assert synth.pop("manifest.json") != ingested.pop("manifest.json")
        assert ingested == synth

    def test_deleted_source_row_rebuilds_that_corpus_only(self, jsonl_world, tmp_path):
        _, cfg_path = jsonl_world
        cfg = json.loads(cfg_path.read_text())
        for src in cfg["data"]["sources"]:
            src["path"] = str(shutil.copy(src["path"], tmp_path))
        resolved = resolve_config(validate_config(cfg))
        ws = Workspace(tmp_path / "ws")
        run_pipeline(ws, resolved, upto="data")
        before = ws.path("corpora/chat.json").read_bytes()
        source = tmp_path / "chat.jsonl"
        source.write_text("".join(source.read_text().splitlines(keepends=True)[1:]))
        assert built(run_pipeline(ws, resolved, upto="data")) == {"corpora/chat.json"}
        assert ws.path("corpora/chat.json").read_bytes() != before
        assert built(run_pipeline(ws, resolved, upto="data")) == set()

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_one_text_edit_rebuilds_all_adapt_models_or_none(self, jsonl_world, tmp_path,
                                                             split):
        """Every adapt pair reads train sentences of the one global table, so
        a train text edit of one source rebuilds every model of every adapted
        variant, and a test text edit rebuilds none: the reason each variant
        is one adapt job."""
        _, cfg_path = jsonl_world
        cfg = json.loads(cfg_path.read_text())
        for src in cfg["data"]["sources"]:
            src["path"] = str(shutil.copy(src["path"], tmp_path))
        cfg["adapt"] = {"variants": ["none", "sda", "msda"], "layers": 2, "sda_epochs": 1}
        resolved = resolve_config(validate_config(cfg))
        ws = Workspace(tmp_path / "ws")
        models = set(run_pipeline(ws, resolved, upto="adapt")["adapt"].built)
        assert len(models) == 12  # sda and msda, 6 ordered pairs each
        # Swap the texts of the first record in `split` of one source.
        splits = DomainCorpus.load(ws.path("corpora/law.json")).splits
        source = tmp_path / "law.jsonl"
        lines = source.read_text().splitlines(keepends=True)
        i = splits.index(split)
        record = json.loads(lines[i])
        record["text_a"], record["text_b"] = record["text_b"], record["text_a"]
        lines[i] = json.dumps(record) + "\n"
        source.write_text("".join(lines))
        results = run_pipeline(ws, resolved, upto="adapt")
        assert results["data"].built == ["corpora/law.json"]
        adapt = results["adapt"]
        if split == "train":
            assert (set(adapt.built), adapt.skipped) == (models, [])
        else:
            assert (adapt.built, set(adapt.skipped)) == ([], models)


def built(results) -> set:
    return {rel for r in results.values() for rel in r.built}


def merged(base: dict, edit: dict) -> dict:
    out = json.loads(json.dumps(base))
    for key, value in edit.items():
        out[key] = merged(out.get(key, {}), value) if isinstance(value, dict) else value
    return out


class TestStaleness:
    """Each job reruns when, and only when, a config value or file it reads changed."""

    def rerun(self, world, tmp_path, edit):
        """Rerun a copy of the built world at another path under an edited config."""
        ws = tmp_path / "copy"
        shutil.copytree(world[0], ws)
        resolved = resolve_config(validate_config(merged(SMALL_CONFIG, edit)))
        return ws, resolved, run_pipeline(Workspace(ws), resolved)

    def test_copied_workspace_stays_fresh(self, world, tmp_path):
        ws, _, results = self.rerun(world, tmp_path, {})
        assert built(results) == set()
        assert tree_hashes(ws) == tree_hashes(world[0])

    def test_threshold_edit_retrains_no_pair_classifier(self, world, tmp_path, monkeypatch):
        import domainsel.downstream as downstream_mod
        calls = []
        real = downstream_mod.train_pair_classifier

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(downstream_mod, "train_pair_classifier", counted)
        ws, resolved, results = self.rerun(
            world, tmp_path, {"downstream": {"success_threshold": 0.75}})
        assert calls == []
        rebuilt = built(results)
        assert {rel.split("/")[0] for rel in rebuilt} == {"meta", "report"}
        assert not [rel for rel in rebuilt if "ranker" in rel]
        cold = tmp_path / "cold"
        run_pipeline(Workspace(cold), resolved)
        assert tree_hashes(ws) == tree_hashes(cold)

    @pytest.mark.parametrize("flips", [False, True], ids=["no_flip", "flip"])
    def test_threshold_edit_rebuilds_what_its_labels_change(self, world, tmp_path, flips):
        matrix = load_f1_matrix(world[0] / "downstream", "none")
        normalized, before = success_labels(matrix, 0.8)
        ratios = sorted(r for (s, t), r in normalized.items() if s != t and r < 1.0)
        if flips:
            threshold = 0.75
        else:  # halfway to the nearest ratio above 0.8
            threshold = (0.8 + min(r for r in ratios + [1.0] if r > 0.8)) / 2
        flipped = success_labels(matrix, threshold)[1] != before
        assert flipped == flips
        ws, resolved, results = self.rerun(
            world, tmp_path, {"downstream": {"success_threshold": threshold}})
        labelled = {"report/table2.csv", "report/table2.txt",
                    "meta/predictor_none_orderings.csv", "meta/predictor_none_report.json"}
        if flips:
            assert labelled <= built(results)
        else:
            assert built(results) == {"report/manifest.json"}
        cold = tmp_path / "cold"
        run_pipeline(Workspace(cold), resolved)
        assert tree_hashes(ws) == tree_hashes(cold)  # manifest.json included

    def test_adding_a_variant_rebuilds_no_none_output(self, world, tmp_path):
        _, _, results = self.rerun(world, tmp_path, {"adapt": {"variants": ["none", "msda"]}})
        rebuilt = built(results)
        assert "downstream/f1_msda_mean.csv" in rebuilt
        assert [rel for rel in rebuilt if "_none" in rel] == []

    def test_pca_pair_edit_builds_only_the_new_projection(self, world, tmp_path):
        pairs = SMALL_CONFIG["report"]["pca_pairs"] + [["syn02", "syn03"]]
        _, _, results = self.rerun(world, tmp_path, {"report": {"pca_pairs": pairs}})
        assert built(results) == {"report/pca_syn02__syn03.csv", "report/manifest.json"}

    def test_embed_edit_keeps_corpora_and_lms(self, world, tmp_path):
        _, _, results = self.rerun(world, tmp_path, {"embed": {"dim": 6}})
        assert results["data"].built == [] and results["lm"].built == []
        for stage in ("embed", "features", "downstream", "meta", "report"):
            assert results[stage].built, stage

    def test_master_seed_change_rebuilds_everything(self, world, tmp_path):
        _, _, results = self.rerun(world, tmp_path, {"seed": 4})
        assert all(r.skipped == [] for r in results.values())
        assert built(results) == set(json.loads(
            (world[0] / "manifest.json").read_text())["artifacts"])


def tiny_world(domains: int) -> dict:
    return merged(VARIANTS_CONFIG, {"data": {"synth": {"domains": domains}},
                                    "adapt": {"variants": ["none"]}})


def ingest_edit(cfg: dict, sources) -> dict:
    return merged(cfg, {"data": {"sources": sources}})


# case -> (command, config from the jsonl world's config, key the error names)
UP_FRONT_CASES = {
    "synth_1_domain": ("pipeline", lambda _: tiny_world(1), "data.synth.domains"),
    "synth_5_domains": ("pipeline", lambda _: tiny_world(5), "data.synth.domains"),
    "synth_2_domains_meta": ("meta", lambda _: tiny_world(2), "data.synth.domains"),
    "synth_empty_split_data": (
        "synth",
        lambda _: merged(tiny_world(2), {"data": {"synth": {"examples_per_domain": 12}}}),
        "data.synth.examples_per_domain"),
    "pca_unknown_domain": (
        "pipeline",
        lambda _: dict(tiny_world(6), report={"pca_pairs": [["syn00", "syn09"]]}),
        "report.pca_pairs[0]"),
    "ingest_no_sources": ("pipeline", lambda cfg: ingest_edit(cfg, []), "data.sources"),
    "ingest_bad_name": (
        "ingest",
        lambda cfg: ingest_edit(cfg, [dict(cfg["data"]["sources"][0], name="a b")]),
        "data.sources[0].name"),
    "ingest_number_name": (
        "ingest",
        lambda cfg: ingest_edit(cfg, [dict(cfg["data"]["sources"][0], name=7)]),
        "data.sources[0].name"),
    "ingest_named_global": (
        "embed",
        lambda cfg: ingest_edit(cfg, [dict(cfg["data"]["sources"][0], name="global"),
                                      *cfg["data"]["sources"][1:]]),
        "data.sources[0].name"),
    "ingest_1_domain_downstream": (
        "downstream", lambda cfg: ingest_edit(cfg, cfg["data"]["sources"][:1]),
        "data.sources"),
}


class TestUpFrontChecks:
    """A stage precondition that the config alone breaks fails before any job runs."""

    @pytest.mark.parametrize("case", sorted(UP_FRONT_CASES))
    def test_fails_before_anything_is_built(self, jsonl_world, tmp_path, capsys, case):
        command, make_config, key = UP_FRONT_CASES[case]
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(make_config(json.loads(jsonl_world[1].read_text()))))
        ws = tmp_path / "ws"
        assert main([command, "--workspace", str(ws), "--config", str(cfg)]) == 1
        assert f"config key '{key}'" in capsys.readouterr().err
        assert not (ws / "corpora").exists()
        assert not (ws / "manifest.json").exists()

    @pytest.mark.parametrize("command, domains", [("embed", 5), ("downstream", 2)])
    def test_stages_not_reached_are_not_checked(self, tmp_path, command, domains):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(tiny_world(domains)))
        assert main([command, "--workspace", str(tmp_path / "ws"), "--config", str(cfg)]) == 0


def bench_setup_probe() -> str:
    """SETUP_PROBE, the start-up that perfbench/run.py times, verbatim."""
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "run.py").read_text(
        encoding="utf-8")
    return re.search(r'^SETUP_PROBE = """(.*?)"""', source, re.S | re.M).group(1)


RUN_CLI = """
import runpy
try:
    runpy.run_module("domainsel.cli", run_name="__main__")
except SystemExit as e:
    assert e.code == 0, e.code
"""


NUMPY_MA_CHECK = """
import runpy, sys
import numpy

def masked():
    return {m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma.")}

eager = masked()
try:
    runpy.run_module("domainsel.cli", run_name="__main__")
except SystemExit as e:
    assert e.code == 0, e.code
assert masked() == eager, sorted(masked() - eager)
"""


def test_build_does_not_load_numpy_ma(tmp_path):
    """A cold build through report imports no numpy.ma module that `import
    numpy` did not: NumPy 2 loads it on the first np.unique without
    return_counts, which costs each build time and memory."""
    (tmp_path / "config").write_text(json.dumps(
        merged(tiny_world(6), {"meta": {"trees": 10, "repeats": 3}})))
    env = dict(os.environ, PYTHONPATH=str(Path(domainsel.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_MA_CHECK, "report", "--workspace", "ws",
         "--config", "config"],
        cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.mark.parametrize("code, args", [(bench_setup_probe(), ["config"]),
                                        (RUN_CLI, ["--help"])],
                         ids=["bench_setup_probe", "cli_help"])
def test_startup_does_not_load_numpy(tmp_path, code, args):
    """Argument parsing and config validation stay numpy-free."""
    (tmp_path / "config").write_text(json.dumps(VARIANTS_CONFIG))
    env = dict(os.environ, PYTHONPATH=str(Path(domainsel.__file__).parents[1]))
    check = "\nimport sys\nassert 'numpy' not in sys.modules\n"
    proc = subprocess.run([sys.executable, "-c", code + check, *args], cwd=tmp_path,
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
