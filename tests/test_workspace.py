"""Workspace manifest and job scheduling semantics."""
import json
import logging
import os
import subprocess
import sys
import textwrap
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path

import pytest

import domainsel
import domainsel.workspace as workspace_mod
from domainsel.errors import StageError, ValidationError
from domainsel.workspace import Job, Memo, Workspace, run_stage


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

    def test_prune_deletes_only_recorded_files_inside_the_workspace(self, tmp_path):
        ws = Workspace(tmp_path / "w")
        run_demo(ws, [write_job(ws, "keep.txt"), write_job(ws, "sub/old.txt")], "k")
        outside = tmp_path / "outside.txt"
        outside.write_text("not ours")
        ws.path("user.txt").write_text("mine")
        manifest = ws.load_manifest()
        manifest["artifacts"]["../outside.txt"] = {"stage": "demo", "key": "k", "seed": None}
        ws.save_manifest(manifest)
        ws.prune(["keep.txt"])
        assert sorted(ws.load_manifest()["artifacts"]) == ["keep.txt"]
        assert not ws.path("sub/old.txt").exists()
        assert ws.path("keep.txt").exists() and ws.path("user.txt").exists()
        assert outside.read_text() == "not ours"

    def test_prune_removes_the_directories_it_empties(self, tmp_path):
        ws = Workspace(tmp_path / "w")
        rels = ("keep.txt", "a/b/c/old.txt", "d/e/old.txt", "gone/old.txt")
        run_demo(ws, [write_job(ws, rel) for rel in rels], "k")
        ws.path("d/mine.txt").write_text("mine")
        ws.path("gone/old.txt").unlink()
        ws.path("gone").rmdir()  # removed by hand before the prune
        ws.prune(["keep.txt"])
        left = sorted(p.relative_to(ws.root).as_posix() for p in ws.root.rglob("*"))
        assert left == ["d", "d/mine.txt", "keep.txt", "manifest.json"]


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

    @pytest.mark.parametrize("n_jobs", [1, 2, 3])
    def test_failure_is_chained_from_the_jobs_error(self, tmp_path, n_jobs):
        """A failed stage records exactly the jobs before its first failing
        job, serially and on the pool."""
        ws = Workspace(tmp_path / "w")
        boom = RuntimeError("boom")
        jobs = [write_job(ws, "a.txt"), failing_job(ws, "b.txt", boom), write_job(ws, "c.txt")]
        with pytest.raises(StageError, match="b.txt.*boom") as info:
            run_demo(ws, jobs, "h1", n_jobs=n_jobs)
        assert info.value.__cause__ is boom
        assert sorted(ws.load_manifest()["artifacts"]) == ["a.txt"]

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_stage_error_of_a_job_keeps_its_own_cause(self, tmp_path, n_jobs):
        ws = Workspace(tmp_path / "w")
        inner = RuntimeError("inner")

        def build():
            try:
                raise inner
            except RuntimeError as e:
                raise workspace_mod.wrap_error("demo", "one pair", e) from e
        jobs = [Job(["a.txt"], build), write_job(ws, "b.txt")]
        with pytest.raises(StageError, match="'one pair': RuntimeError: inner") as info:
            run_demo(ws, jobs, "h1", n_jobs=n_jobs)
        assert info.value.__cause__ is inner

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


class TestHandOff:
    """`read` serves the object kept for a file while the file keeps its bytes."""

    def loader(self, loads):
        def load(path):
            loads.append(path.name)
            return {"loaded": path.read_text()}
        return load

    def test_kept_object_served_while_bytes_match(self, tmp_path):
        ws = Workspace(tmp_path)
        ws.path("a.txt").write_text("one")
        kept = {"kept": "one"}
        ws.keep("a.txt", kept)
        loads = []
        assert ws.read("a.txt", self.loader(loads)) is kept
        ws.path("a.txt").write_text("one")  # rewritten with the same bytes
        assert ws.read("a.txt", self.loader(loads)) is kept
        assert loads == []

    def test_rewritten_file_is_reloaded_and_kept(self, tmp_path):
        ws = Workspace(tmp_path)
        ws.path("a.txt").write_text("one")
        ws.keep("a.txt", {"kept": "one"})
        ws.path("a.txt").write_text("two")
        loads = []
        first = ws.read("a.txt", self.loader(loads))
        assert first == {"loaded": "two"}
        assert ws.read("a.txt", self.loader(loads)) is first
        assert loads == ["a.txt"]

    def test_unkept_file_loads_once(self, tmp_path):
        ws = Workspace(tmp_path)
        ws.path("a.txt").write_text("one")
        loads = []
        first = ws.read("a.txt", self.loader(loads))
        assert ws.read("a.txt", self.loader(loads)) is first
        assert loads == ["a.txt"]
        assert Workspace(tmp_path).read("a.txt", self.loader(loads)) == first
        assert loads == ["a.txt", "a.txt"]  # each workspace object keeps its own

    def test_released_file_loads_once_more(self, tmp_path):
        ws = Workspace(tmp_path)
        ws.path("a.txt").write_text("one")
        ws.path("b.txt").write_text("two")
        kept_a, kept_b = {"kept": "one"}, {"kept": "two"}
        ws.keep("a.txt", kept_a)
        ws.keep("b.txt", kept_b)
        ws.release(["a.txt"])
        loads = []
        first = ws.read("a.txt", self.loader(loads))
        assert first == {"loaded": "one"}
        assert ws.read("a.txt", self.loader(loads)) is first
        assert loads == ["a.txt"]
        assert ws.read("b.txt", self.loader(loads)) is kept_b
        assert loads == ["a.txt"]

    def test_concurrent_reads_load_each_file_once(self, tmp_path):
        ws = Workspace(tmp_path)
        names = ["a.txt", "b.txt"]
        for name in names:
            ws.path(name).write_text(name)
        loads = []
        load = self.loader(loads)

        def slow_load(path):
            time.sleep(0.05)  # other threads ask for the file while it loads
            return load(path)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(ws.read, names[i % 2], slow_load) for i in range(16)]
                results = [f.result(timeout=30) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert sorted(loads) == names
        assert all(r is results[i % 2] for i, r in enumerate(results))


def must_not_make():
    raise AssertionError("made again")


class TestMemo:
    """`get` makes each key's value once; a failed make leaves no entry."""

    def test_equal_keys_on_two_threads_make_once(self):
        memo = Memo()
        made = []

        def make():
            made.append(1)
            time.sleep(0.05)  # the other thread asks while the value is made
            return object()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(memo.get, "k", make) for _ in range(4)]
                values = [f.result(timeout=30) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(v is values[0] for v in values)
        assert made == [1]
        assert memo.get("k", must_not_make) is values[0]

    @pytest.mark.parametrize("outcome", ["value", "error"])
    def test_equal_call_waits_for_the_value_in_progress(self, monkeypatch, outcome):
        """A second equal call, made while the first makes its value, gets
        the first call's value (or error) without making it; only a value is
        kept."""
        started, release, waiting = (threading.Event() for _ in range(3))
        made = []

        def make():
            made.append(1)
            started.set()
            assert release.wait(60)
            if outcome == "error":
                raise ValidationError("induced failure")
            return object()

        class Watched(Future):
            def result(self, timeout=None):
                waiting.set()
                return super().result(timeout)

        monkeypatch.setattr(workspace_mod, "Future", Watched)
        memo = Memo()

        def call():
            try:
                return memo.get("k", make)
            except ValidationError as e:
                return e

        with ThreadPoolExecutor(max_workers=2) as pool:
            try:
                first = pool.submit(call)
                assert started.wait(60)
                second = pool.submit(call)
                assert waiting.wait(60)
            finally:
                release.set()
            results = [first.result(timeout=60), second.result(timeout=60)]
        assert made == [1]
        assert results[0] is results[1]
        if outcome == "value":
            assert memo.get("k", must_not_make) is results[0]
        else:
            assert isinstance(results[0], ValidationError)
            assert memo.get("k", lambda: "made again") == "made again"
