"""End-to-end command line runs on a small synthetic world."""
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import domainsel
from domainsel.cli import main
from domainsel.config import load_config, resolve_config, validate_config
from domainsel.downstream import load_f1_matrix, success_labels
from domainsel.pipeline import run_pipeline
from domainsel.synth import SyntheticSpec, synth_domain
from domainsel.workspace import Workspace

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

    def test_parallel_run_byte_identical(self, world, tmp_path):
        ws_path, cfg_path = world
        rc = main(["pipeline", "--workspace", str(tmp_path / "ws2"),
                   "--config", str(cfg_path), "--jobs", "4"])
        assert rc == 0
        assert tree_hashes(tmp_path / "ws2") == tree_hashes(ws_path)

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


def test_all_variants_byte_identical_under_threads(tmp_path):
    """Downstream trains its variants on the thread pool; bytes must not move."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(VARIANTS_CONFIG))
    hashes = {}
    for jobs in ("1", "2"):
        ws = tmp_path / f"ws{jobs}"
        rc = main(["downstream", "--workspace", str(ws), "--config", str(cfg_path),
                   "--jobs", jobs])
        assert rc == 0
        hashes[jobs] = tree_hashes(ws)
    for variant in VARIANTS_CONFIG["adapt"]["variants"]:
        assert f"downstream/f1_{variant}_mean.csv" in hashes["1"]
    assert any(rel.startswith("adapt/sda/") for rel in hashes["1"])
    assert hashes["2"] == hashes["1"]


def test_adapt_reads_each_domain_once(tmp_path, monkeypatch):
    """Adapt jobs share one read-only column block per domain."""
    import domainsel.pipeline as pipeline_mod

    loads, seen = [], []
    real_load = pipeline_mod._load_sentences
    real_stack = pipeline_mod.stack_marginalized

    def counted_load(ws, name, split):
        loads.append((name, split))
        return real_load(ws, name, split)

    def checked_stack(X_s, X_t, cfg):
        seen.append(not X_s.flags.writeable and not X_t.flags.writeable)
        return real_stack(X_s, X_t, cfg)

    monkeypatch.setattr(pipeline_mod, "_load_sentences", counted_load)
    monkeypatch.setattr(pipeline_mod, "stack_marginalized", checked_stack)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(VARIANTS_CONFIG))
    rc = main(["adapt", "--workspace", str(tmp_path / "ws"), "--config", str(cfg_path)])
    assert rc == 0
    assert sorted(loads) == [(f"syn0{i}", "train") for i in range(3)]
    assert seen == [True] * 12  # msda and msdar, 6 ordered pairs each


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
    layers = json.loads(out.read_text(encoding="utf-8"))["layers"]
    assert {name for name in expected if layers.get(name, {}).get("calls", 0) < 1} == set()


def test_embed_reads_global_table_once(tmp_path, monkeypatch):
    """Sentence jobs share one read-only load of the global table."""
    from domainsel.embed import EmbeddingTable

    loads, writeable = [], []
    real_load = EmbeddingTable.load.__func__
    real_pool = EmbeddingTable.sentence_vector

    def counted_load(cls, path, domain=""):
        loads.append(Path(path).name)
        return real_load(cls, path, domain)

    def checked_pool(self, text):
        writeable.append(self.matrix.flags.writeable)
        return real_pool(self, text)

    monkeypatch.setattr(EmbeddingTable, "load", classmethod(counted_load))
    monkeypatch.setattr(EmbeddingTable, "sentence_vector", checked_pool)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(VARIANTS_CONFIG))
    rc = main(["embed", "--workspace", str(tmp_path / "ws"), "--config", str(cfg_path)])
    assert rc == 0
    assert loads == ["global.txt"]
    assert writeable and not any(writeable)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_downstream_reads_inputs_once(tmp_path, monkeypatch, jobs):
    """Downstream's variant jobs share one read-only load of their inputs."""
    import domainsel.pipeline as pipeline_mod

    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(VARIANTS_CONFIG))
    ws = str(tmp_path / "ws")
    assert main(["adapt", "--workspace", ws, "--config", str(cfg_path)]) == 0
    calls, writeable = [], []
    real_load, real_corpora = pipeline_mod._load_sentences, pipeline_mod._load_corpora
    real_matrix = pipeline_mod.cross_domain_matrix

    def counted_load(*args):
        calls.append("sentences")
        return real_load(*args)

    def counted_corpora(*args):
        calls.append("corpora")
        return real_corpora(*args)

    def checked_matrix(names, pair_data, *args, **kwargs):
        def checked(s, t):
            data = pair_data(s, t)
            writeable.extend(y.flags.writeable for y in data[1::2])  # shared labels
            return data
        return real_matrix(names, checked, *args, **kwargs)

    monkeypatch.setattr(pipeline_mod, "_load_sentences", counted_load)
    monkeypatch.setattr(pipeline_mod, "_load_corpora", counted_corpora)
    monkeypatch.setattr(pipeline_mod, "cross_domain_matrix", checked_matrix)
    rc = main(["downstream", "--workspace", ws, "--config", str(cfg_path),
               "--jobs", jobs])
    assert rc == 0
    assert sorted(calls) == ["corpora"] + ["sentences"] * 9  # 3 domains x 3 splits
    assert writeable and not any(writeable)


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
    sources = []
    for name in spec.domains:
        corpus = synth_domain(spec, name)
        path = root / f"{name}.jsonl"
        with open(path, "w", encoding="utf-8") as f:
            for ex in corpus.examples:
                f.write(json.dumps({"text_a": ex.text_a, "text_b": ex.text_b,
                                    "label": ex.label}) + "\n")
        sources.append({"name": name, "path": str(path), "format": "jsonl"})
    cfg = {
        "seed": 5,
        "data": {"mode": "ingest", "sources": sources},
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

    def test_missing_source_file_is_validation_error(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "data": {"mode": "ingest",
                     "sources": [{"name": "a", "path": str(tmp_path / "gone.jsonl"),
                                  "format": "jsonl"}]}
        }))
        rc = main(["ingest", "--workspace", str(tmp_path / "ws"), "--config", str(cfg)])
        assert rc in (1, 2)
        assert "gone.jsonl" in capsys.readouterr().err

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


def built(results) -> set:
    return {rel for r in results.values() for rel in r.built}


def merged(base: dict, edit: dict) -> dict:
    out = json.loads(json.dumps(base))
    for key, value in edit.items():
        out[key] = merged(out[key], value) if isinstance(value, dict) else value
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
