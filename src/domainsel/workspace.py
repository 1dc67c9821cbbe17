"""Workspace directory with a manifest tracking artifact provenance.

Every artifact records the key of the job that produced it, its stage and
its seed (null for a stage without one). The caller computes each job's key
from everything the job reads (see `pipeline`). A job reruns only when an
output is missing or its recorded key no longer matches; stale artifacts
are logged and rebuilt, never silently reused. Failed jobs delete their
partial outputs; outputs leave the manifest before their job rebuilds them,
so a killed build is redone.
"""
from __future__ import annotations

import json
import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .errors import StageError, ValidationError

log = logging.getLogger(__name__)

MANIFEST_NAME = "manifest.json"


class Workspace:
    def __init__(self, root):
        self.root = Path(root)

    def path(self, rel: str) -> Path:
        return self.root / rel

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


def _wrap_error(stage: str, job: Job, e: Exception):
    label = job.note or job.outputs[0]
    if isinstance(e, ValidationError):
        return ValidationError(f"stage '{stage}', artifact '{label}': {e}")
    if isinstance(e, StageError):
        return e
    return StageError(stage, str(label), f"{type(e).__name__}: {e}")


def run_stage(ws: Workspace, stage: str, keys: dict, jobs,
              n_jobs: int = 1, seed: int | None = None) -> StageResult:
    """Run the stale subset of `jobs`, then record outputs in the manifest.

    `keys` maps each job's first output to that job's key; every output of
    a job is fresh while the manifest holds that key for it.

    Jobs must be independent of each other; with n_jobs > 1 they run on a
    thread pool, which cannot change any numeric output because every job
    derives its randomness from its own recorded seed. Threads pay only for
    jobs that spend their time in long GIL-free numpy calls, so
    `pipeline.run_pipeline` passes n_jobs to the downstream stage alone
    (see `pipeline.POOLED_STAGES`).
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

    def record(job: Job) -> None:
        for rel in job.outputs:
            artifacts[rel] = {"stage": stage, "key": keys[job.outputs[0]], "seed": seed}
        result.built.extend(job.outputs)

    log.info("stage %s: building %d jobs", stage, len(pending))
    try:
        if n_jobs <= 1 or len(pending) == 1:
            for job in pending:
                try:
                    _run_job(ws, stage, job)
                except Exception as e:
                    raise _wrap_error(stage, job, e) from e
                record(job)
        else:
            with ThreadPoolExecutor(max_workers=n_jobs) as pool:
                futures = [(job, pool.submit(_run_job, ws, stage, job)) for job in pending]
                first_error = None
                for job, future in futures:
                    try:
                        future.result()
                    except Exception as e:  # noqa: BLE001 - rewrapped below
                        if first_error is None:
                            first_error = _wrap_error(stage, job, e)
                    else:
                        record(job)
            if first_error is not None:
                raise first_error
    finally:
        # Completed sibling jobs stay recorded even when one job fails.
        ws.save_manifest(manifest)
    return result
