"""Workspace manifest and job scheduling semantics."""
import json
import logging
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import domainsel
from domainsel.errors import StageError, ValidationError
from domainsel.workspace import Job, Workspace, run_stage


def write_job(ws, rel, text="content"):
    def build():
        ws.path(rel).write_text(text)
    return Job([rel], build, note=rel)


def run_demo(ws, jobs, key, **kwargs):
    """Run jobs as stage 'demo', every job under the same key."""
    return run_stage(ws, "demo", {job.outputs[0]: key for job in jobs}, jobs, **kwargs)


def failing_job(ws, rel, exc):
    def build():
        ws.path(rel).write_text("partial")
        raise exc
    return Job([rel], build, note=rel)


class TestManifest:
    def test_fresh_workspace_default_manifest(self, tmp_path):
        ws = Workspace(tmp_path / "w")
        manifest = ws.load_manifest()
        assert manifest["version"] == 1
        assert manifest["artifacts"] == {}

    def test_save_and_reload(self, tmp_path):
        ws = Workspace(tmp_path / "w")
        manifest = ws.load_manifest()
        manifest["domains"] = ["a"]
        ws.save_manifest(manifest)
        assert Workspace(tmp_path / "w").load_manifest()["domains"] == ["a"]

    def test_corrupt_manifest_rejected(self, tmp_path):
        ws = Workspace(tmp_path / "w")
        ws.save_manifest(ws.load_manifest())
        ws.path("manifest.json").write_text("{broken")
        with pytest.raises(ValidationError, match="manifest"):
            ws.load_manifest()


class TestRunStage:
    def test_builds_then_skips(self, tmp_path):
        ws = Workspace(tmp_path / "w")
        jobs = [write_job(ws, "out/a.txt"), write_job(ws, "out/b.txt")]
        first = run_demo(ws, jobs, "h1")
        assert sorted(first.built) == ["out/a.txt", "out/b.txt"]
        assert first.skipped == []
        second = run_demo(ws, jobs, "h1")
        assert second.built == []
        assert sorted(second.skipped) == ["out/a.txt", "out/b.txt"]

    def test_hash_change_rebuilds_and_logs_stale(self, tmp_path, caplog):
        ws = Workspace(tmp_path / "w")
        run_demo(ws, [write_job(ws, "a.txt")], "h1")
        with caplog.at_level(logging.INFO, logger="domainsel.workspace"):
            result = run_demo(ws, [write_job(ws, "a.txt", "new")], "h2")
        assert result.built == ["a.txt"]
        assert ws.path("a.txt").read_text() == "new"
        assert any("stale" in rec.message for rec in caplog.records)

    def test_deleted_output_rebuilds(self, tmp_path):
        ws = Workspace(tmp_path / "w")
        run_demo(ws, [write_job(ws, "a.txt")], "h1")
        ws.path("a.txt").unlink()
        result = run_demo(ws, [write_job(ws, "a.txt")], "h1")
        assert result.built == ["a.txt"]

    def test_multi_output_job_rebuilds_when_any_output_missing(self, tmp_path):
        ws = Workspace(tmp_path / "w")

        def build():
            ws.path("x.txt").write_text("x")
            ws.path("y.txt").write_text("y")

        job = Job(["x.txt", "y.txt"], build)
        run_demo(ws, [job], "h1")
        ws.path("y.txt").unlink()
        result = run_demo(ws, [job], "h1")
        assert sorted(result.built) == ["x.txt", "y.txt"]

    def test_manifest_records_stage_hash_and_seed(self, tmp_path):
        ws = Workspace(tmp_path / "w")
        run_demo(ws, [write_job(ws, "a.txt")], "h1", seed=7)
        entry = ws.load_manifest()["artifacts"]["a.txt"]
        assert entry == {"stage": "demo", "key": "h1", "seed": 7}

    def test_failed_job_removes_partial_output(self, tmp_path):
        ws = Workspace(tmp_path / "w")
        job = failing_job(ws, "a.txt", RuntimeError("boom"))
        with pytest.raises(StageError, match="boom"):
            run_demo(ws, [job], "h1")
        assert not ws.path("a.txt").exists()
        assert "a.txt" not in ws.load_manifest()["artifacts"]

    def test_validation_error_passes_through_with_context(self, tmp_path):
        ws = Workspace(tmp_path / "w")
        job = failing_job(ws, "a.txt", ValidationError("bad input"))
        with pytest.raises(ValidationError, match="stage 'demo'.*bad input"):
            run_demo(ws, [job], "h1")

    def test_other_errors_become_stage_errors(self, tmp_path):
        ws = Workspace(tmp_path / "w")
        job = failing_job(ws, "a.txt", KeyError("oops"))
        with pytest.raises(StageError, match="KeyError"):
            run_demo(ws, [job], "h1")

    def test_builder_must_produce_outputs(self, tmp_path):
        ws = Workspace(tmp_path / "w")
        job = Job(["never.txt"], lambda: None)
        with pytest.raises(StageError, match="did not produce"):
            run_demo(ws, [job], "h1")

    def test_failure_keeps_other_jobs_results(self, tmp_path):
        ws = Workspace(tmp_path / "w")
        jobs = [write_job(ws, "good.txt"), failing_job(ws, "bad.txt", RuntimeError("x"))]
        with pytest.raises(StageError):
            run_demo(ws, jobs, "h1")
        assert ws.path("good.txt").exists()
        assert "good.txt" in ws.load_manifest()["artifacts"]
        assert "bad.txt" not in ws.load_manifest()["artifacts"]

    def test_parallel_matches_serial(self, tmp_path):
        ws1 = Workspace(tmp_path / "serial")
        ws2 = Workspace(tmp_path / "parallel")
        rels = [f"f{i}.txt" for i in range(8)]
        run_demo(ws1, [write_job(ws1, r, r) for r in rels], "h1")
        run_demo(ws2, [write_job(ws2, r, r) for r in rels], "h1", n_jobs=4)
        for rel in rels:
            assert ws1.path(rel).read_bytes() == ws2.path(rel).read_bytes()
        assert ws1.load_manifest()["artifacts"] == ws2.load_manifest()["artifacts"]

    def test_parallel_failure_raises_and_cleans(self, tmp_path):
        ws = Workspace(tmp_path / "w")
        jobs = [write_job(ws, f"g{i}.txt") for i in range(4)]
        jobs.insert(2, failing_job(ws, "bad.txt", RuntimeError("par")))
        with pytest.raises(StageError, match="par"):
            run_demo(ws, jobs, "h1", n_jobs=3)
        assert not ws.path("bad.txt").exists()

    def test_kill_mid_rebuild_leaves_outputs_unrecorded(self, tmp_path):
        ws = Workspace(tmp_path / "w")

        def build():
            ws.path("a.txt").write_text("a" * 100)
            ws.path("b.txt").write_text("b" * 100)

        run_demo(ws, [Job(["a.txt", "b.txt"], build)], "h1")
        ws.path("b.txt").unlink()
        # The rebuild is killed halfway through writing b.txt.
        child = textwrap.dedent("""
            import os, sys
            from domainsel.workspace import Job, Workspace, run_stage
            ws = Workspace(sys.argv[1])
            def build():
                ws.path("a.txt").write_text("a" * 100)
                with open(ws.path("b.txt"), "w") as f:
                    f.write("b" * 50)
                    f.flush()
                    os._exit(9)
            run_stage(ws, "demo", {"a.txt": "h1"}, [Job(["a.txt", "b.txt"], build)])
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(domainsel.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", child, str(ws.root)], env=env)
        assert proc.returncode == 9
        assert ws.path("b.txt").read_text() == "b" * 50
        assert ws.load_manifest()["artifacts"] == {}
        result = run_demo(ws, [Job(["a.txt", "b.txt"], build)], "h1")
        assert sorted(result.built) == ["a.txt", "b.txt"]
        assert ws.path("b.txt").read_text() == "b" * 100
