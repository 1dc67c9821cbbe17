"""End-to-end command line runs on a small synthetic world."""
import hashlib
import json
from pathlib import Path

import pytest

from domainsel.cli import main
from domainsel.config import load_config, resolve_config
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
        assert sorted(summary["stage_hashes"]) == sorted(resolved and [
            "data", "embed", "lm", "features", "adapt", "downstream", "meta", "report"
        ])

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
