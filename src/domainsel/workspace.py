"""Workspace directory with a manifest tracking artifact provenance.

Every artifact records the key of the job that produced it, its stage and
its seed (null for a stage without one). The caller computes each job's key
from everything the job reads (see `pipeline`). A job reruns only when an
output is missing or its recorded key no longer matches; stale artifacts
are logged and rebuilt, never silently reused. Failed jobs delete their
partial outputs; outputs leave the manifest before their job rebuilds them,
so a killed build is redone. A run that lists every output the config asks
for prunes the recorded artifacts that no job listed.

Within a run, a job that saves an object (a corpus, table, language model
or sentence array) can `keep` it, and later jobs `read` it without parsing
the file again, as long as the file still has the bytes it was kept with.
A file that no job kept is loaded by its first `read`, once, also when pool
threads ask for it at the same time. Both go through a `Memo`, the one
mechanism for reuse within a run, which also keeps the downstream stage's
identity fits and initial draws. A kept or read object lives until the run
`release`s its file: `pipeline.run_pipeline` does so when the last stage
whose jobs list the file as an input ends. A `read` after that loads the
file again.

One process writes a workspace at a time: a run holds `lock`, an exclusive
lock on the workspace directory itself, so it leaves no lock file behind.
"""
from __future__ import annotations

import fcntl
import hashlib
import json
import logging
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from .errors import StageError, ValidationError

log = logging.getLogger(__name__)

MANIFEST_NAME = "manifest.json"


def file_sha256(path) -> str | None:
    """Digest of a file's bytes; None if unreadable, so that a job reading
    it still runs and reports the problem itself."""
    try:
        with open(path, "rb") as f:
            return hashlib.sha256(f.read()).hexdigest()
    except OSError:
        return None


class Memo:
    """Values by key, each made once: `get(key, make)` returns the value of
    `key`, calling `make()` only if no call has made it yet.

    A thread that asks for a key another thread is making waits for that
    result, error included. A failed `make` leaves no entry, so a later call
    makes it again. Values are shared, so they must be immutable; they stay
    until their owner `discard`s them or drops the memo: a workspace's files
    until their last reading stage ends, a downstream stage's fits and draws
    until that stage ends.
    """

    def __init__(self):
        self._values = {}
        self._making = {}  # key -> Future of the value another call is making
        self._lock = threading.Lock()

    def get(self, key, make):
        with self._lock:
            if key in self._values:
                return self._values[key]
            pending = self._making.get(key)
            owner = pending is None
            if owner:
                pending = self._making[key] = Future()
        if not owner:
            return pending.result()
        try:
            value = make()
        except BaseException as e:
            with self._lock:
                del self._making[key]
            pending.set_exception(e)
            raise
        with self._lock:
            del self._making[key]
            self._values[key] = value
        pending.set_result(value)
        return value

    def discard(self, match) -> None:
        """Forget the value of every key for which `match(key)` is true; a
        later `get` of such a key makes it again."""
        with self._lock:
            for key in [key for key in self._values if match(key)]:
                del self._values[key]


class Workspace:
    def __init__(self, root):
        self.root = Path(root)
        self._memo = Memo()  # (relpath, sha256 of the file's bytes) -> object

    def path(self, rel: str) -> Path:
        return self.root / rel

    def keep(self, rel: str, obj) -> None:
        """Hand `obj`, just saved to `rel`, to later reads in this run.

        Kept objects are shared, so they must be immutable. The workspace
        holds `obj` until `release` names `rel`: in a pipeline run, until
        the last stage that lists `rel` as an input ends.
        """
        self._memo.get((rel, file_sha256(self.path(rel))), lambda: obj)

    def read(self, rel: str, load):
        """The object saved at `rel` with the file's current bytes: a kept
        or earlier read one, else `load(path)`, which is then kept.

        Threads asking for one file load it once; `load` must not read `rel`
        itself, which would wait for its own result.
        """
        path = self.path(rel)
        return self._memo.get((rel, file_sha256(path)), lambda: load(path))

    def release(self, rels) -> None:
        """Stop holding the objects kept or read for the files `rels`; a
        later `read` of one loads it again."""
        rels = set(rels)
        self._memo.discard(lambda key: key[0] in rels)

    @contextmanager
    def lock(self):
        """Hold the workspace for this process while the block runs.

        The lock is an exclusive `flock` on the workspace directory, so it
        leaves no file behind and ends with the process. A second holder,
        in this process or another, gets a ValidationError naming the
        workspace, and so does a root that cannot be a directory.
        """
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fd = os.open(self.root, os.O_RDONLY)
        except OSError as e:
            raise ValidationError(
                f"workspace {self.root} is not a usable directory: {e.strerror}") from None
        try:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                raise ValidationError(
                    f"workspace {self.root} is in use by another run") from None
            yield
        finally:
            os.close(fd)  # releases the lock

    def load_manifest(self) -> dict:
        path = self.root / MANIFEST_NAME
        if not path.exists():
            return {"version": 1, "domains": [], "artifacts": {}}
        try:
            with open(path, "r", encoding="utf-8") as f:
                manifest = json.load(f)
        except json.JSONDecodeError as e:
            raise ValidationError(f"corrupt workspace manifest {path}: {e}") from e
        manifest.setdefault("domains", [])
        manifest.setdefault("artifacts", {})
        return manifest

    def save_manifest(self, manifest: dict) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.root / MANIFEST_NAME
        tmp = path.with_suffix(".json.tmp")
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(manifest, f, indent=2, sort_keys=True)
            f.write("\n")
        os.replace(tmp, path)

    def prune(self, listed) -> None:
        """Delete and unrecord every artifact the manifest records that is not
        in `listed`, and remove the directories those deletions leave empty.
        Files the manifest never recorded are left alone, and so is an
        entry's file outside the workspace (a hand-edited manifest)."""
        manifest = self.load_manifest()
        artifacts = manifest["artifacts"]
        orphans = sorted(set(artifacts) - set(listed))
        for rel in orphans:
            if Path(rel).is_absolute() or ".." in Path(rel).parts:
                log.warning("unrecording %s: outside the workspace, not deleted", rel)
            else:
                log.info("pruning %s: no job of this run lists it", rel)
                path = self.path(rel)
                path.unlink(missing_ok=True)
                # The directories between the root and the file, innermost first.
                for parent in path.parents[:len(Path(rel).parts) - 1]:
                    if not parent.is_dir() or any(parent.iterdir()):
                        break
                    parent.rmdir()
            del artifacts[rel]
        if orphans:
            self.save_manifest(manifest)


@dataclass
class Job:
    """One unit of stage work; `build` writes exactly `outputs`."""

    outputs: tuple
    build: object  # zero-argument callable
    note: str = ""

    def __post_init__(self):
        self.outputs = tuple(self.outputs)


@dataclass
class StageResult:
    """Output relpaths, partitioned by whether their job ran this time."""

    built: list = field(default_factory=list)
    skipped: list = field(default_factory=list)


def _run_job(ws: Workspace, stage: str, job: Job) -> None:
    for rel in job.outputs:
        ws.path(rel).parent.mkdir(parents=True, exist_ok=True)
    try:
        job.build()
    except Exception:
        for rel in job.outputs:
            try:
                ws.path(rel).unlink()
            except FileNotFoundError:
                pass
        raise
    missing = [rel for rel in job.outputs if not ws.path(rel).exists()]
    if missing:
        raise StageError(stage, missing[0], "builder did not produce its output")


def wrap_error(stage: str, label: str, e: Exception):
    """`e` as the error of the stage's artifact `label`, keeping its exit code."""
    if isinstance(e, ValidationError):
        return ValidationError(f"stage '{stage}', artifact '{label}': {e}")
    if isinstance(e, StageError):
        return e
    return StageError(stage, label, f"{type(e).__name__}: {e}")


def _raise_for(stage: str, job: Job, e: Exception):
    """Raise `e` as `job`'s error, chained from `e`; a StageError already
    names its artifact, and is raised as it is, with its own cause."""
    wrapped = wrap_error(stage, job.note or job.outputs[0], e)
    if wrapped is e:
        raise e
    raise wrapped from e


def run_stage(ws: Workspace, stage: str, keys: dict, jobs,
              n_jobs: int = 1, seed: int | None = None) -> StageResult:
    """Run the stale subset of `jobs`, then record outputs in the manifest.

    `keys` maps each job's first output to that job's key; every output of
    a job is fresh while the manifest holds that key for it.

    Jobs must be independent of each other; with n_jobs > 1 they run on a
    thread pool, which cannot change any numeric output because every job
    derives its randomness from its own recorded seed. Threads pay only for
    jobs that spend their time in long GIL-free numpy calls; see
    `pipeline.POOL_STEP_WORK` for when `pipeline.run_pipeline` passes
    n_jobs > 1.

    Results are recorded in `jobs` order, and a failure raises the error of
    the first failing job (`_raise_for`). A failed stage records exactly the
    jobs before its first failing job, at any n_jobs: no queued job starts
    after the failure, and what a running one writes stays unrecorded, so
    the next run rebuilds it.
    """
    manifest = ws.load_manifest()
    artifacts = manifest["artifacts"]
    result = StageResult()
    pending = []
    for job in jobs:
        key = keys[job.outputs[0]]
        fresh = True
        for rel in job.outputs:
            entry = artifacts.get(rel)
            if entry is None or not ws.path(rel).exists():
                fresh = False
            elif entry.get("key") != key:
                log.info("stale artifact %s (inputs changed); rebuilding", rel)
                fresh = False
        if fresh:
            result.skipped.extend(job.outputs)
        else:
            pending.append(job)

    if not pending:
        log.info("stage %s: up to date (%d artifacts)", stage, len(result.skipped))
        return result

    # Unrecord what is about to be rewritten: a kill mid-write then leaves it
    # to be rebuilt, not recorded as current.
    dropped = [artifacts.pop(rel) for job in pending for rel in job.outputs
               if rel in artifacts]
    if dropped:
        ws.save_manifest(manifest)

    def attempt(job: Job):
        """The job's error, or None once it built its outputs."""
        try:
            _run_job(ws, stage, job)
        except Exception as e:  # noqa: BLE001 - raised in jobs order below
            return e
        return None

    log.info("stage %s: building %d jobs", stage, len(pending))
    pool = ThreadPoolExecutor(max_workers=n_jobs) if n_jobs > 1 and len(pending) > 1 else None
    try:
        for job, error in zip(pending, (pool.map if pool else map)(attempt, pending)):
            if error is not None:
                _raise_for(stage, job, error)
            for rel in job.outputs:
                artifacts[rel] = {"stage": stage, "key": keys[job.outputs[0]], "seed": seed}
            result.built.extend(job.outputs)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
        ws.save_manifest(manifest)
    return result
