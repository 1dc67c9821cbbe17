"""Run one domainsel CLI command with spans around each layer's public calls.

Usage: python3 perfbench/traced.py OUT.json CLI_ARGS...

CLI_ARGS are passed to ``domainsel.cli.main`` unchanged and must include
``--workspace DIR``. Each span records name, start, end, parent and thread;
spans stay in memory and are written to OUT.json with per-layer aggregates
when the command returns. The program itself is not edited: every wrapper
replaces the name that the caller looks up (``pipeline`` imports its callees
by name, so ``domainsel.pipeline.train_skipgram`` is patched, not
``domainsel.embed.train_skipgram``).
"""
from __future__ import annotations

import functools
import hashlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import Counter
from pathlib import Path


def file_digests(root: Path) -> dict:
    """sha256 of every file under root, keyed by relative path."""
    if not root.exists():
        return {}
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start_ns, end_ns, parent_id, thread, tag)
        self.counts = Counter()
        self.fit_keys = set()
        self.built = []
        self.skipped = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def new_id(self) -> int:
        with self._lock:
            return next(self._ids)

    def current(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else 0

    def record(self, sid, name, start, end, parent, tag=None) -> None:
        with self._lock:
            self.spans.append((sid, name, start, end, parent, threading.get_ident(), tag))

    def call(self, name, fn, args, kwargs, parent=None, tag=None):
        """Run fn inside a span; parent defaults to this thread's open span."""
        sid = self.new_id()
        if parent is None:
            parent = self.current()
        stack = self._stack()
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.record(sid, name, start, end, parent, tag)

    def wrap(self, owner, attr: str, name: str, before=None):
        """Replace owner.attr with a spanned wrapper; `before` sees bound args."""
        original = getattr(owner, attr)
        signature = inspect.signature(original)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                before(bound.arguments)
            return self.call(name, original, args, kwargs)

        setattr(owner, attr, wrapper)

    def count(self, key: str, n=1) -> None:
        with self._lock:
            self.counts[key] += n

    def add_fit(self, key: str) -> None:
        with self._lock:
            self.fit_keys.add(key)

    def add_stage_result(self, result) -> None:
        with self._lock:
            self.built.extend(result.built)
            self.skipped += len(result.skipped)


def install(tracer: Tracer) -> None:
    import numpy as np

    from domainsel import corpus, downstream, gbdt, meta, pipeline, simfeat, workspace

    def skipgram_words(a):
        c = a["corpus"]
        split = "train" if c.splits is not None else None
        tokens = sum(len(corpus.tokenize(t)) for t in c.texts(split))
        tracer.count("embed.center_words", a["epochs"] * tokens)

    def trees(a):
        tracer.count("gbdt.trees_built", a["params"].trees if a["n_trees"] is None
                     else a["n_trees"])

    def fit_key(a):
        h = hashlib.sha256()
        for key in ("X_train", "y_train", "X_val", "y_val"):
            h.update(np.ascontiguousarray(a[key], dtype=np.float64).tobytes())
        h.update(repr((a["seed"], a["hidden"], a["max_epochs"], a["patience"],
                       a["batch"], a["lr"])).encode())
        tracer.add_fit(h.hexdigest())

    tracer.wrap(pipeline, "train_skipgram", "embed.train_skipgram", skipgram_words)
    tracer.wrap(pipeline, "train_kn", "ngram_lm.train_kn")
    tracer.wrap(simfeat, "perplexity", "ngram_lm.perplexity")
    tracer.wrap(pipeline, "feature_vector", "simfeat.feature_vector")
    tracer.wrap(pipeline, "train_sda", "adapt.train_sda")
    tracer.wrap(pipeline, "stack_marginalized", "adapt.stack_marginalized")
    tracer.wrap(pipeline, "encode", "adapt.encode")
    tracer.wrap(downstream, "train_pair_classifier",
                "downstream.train_pair_classifier", fit_key)
    tracer.wrap(meta, "gbdt_train_cv", "gbdt.gbdt_train_cv")
    tracer.wrap(gbdt, "gbdt_train", "gbdt.gbdt_train", trees)
    tracer.wrap(gbdt.GBDTModel, "predict_proba", "gbdt.predict_proba")
    tracer.wrap(pipeline, "success_predictor", "meta.success_predictor")
    tracer.wrap(pipeline, "domain_ranker", "meta.domain_ranker")

    original_sort = meta.multi_sort

    @functools.wraps(original_sort)
    def multi_sort(items, noisy_less, *args, **kwargs):
        def counted(a, b):
            tracer.count("meta.comparisons")
            return noisy_less(a, b)
        return tracer.call("meta.multi_sort", original_sort,
                           (items, counted) + args, kwargs)

    meta.multi_sort = multi_sort

    original_stage = pipeline.run_stage

    @functools.wraps(original_stage)
    def run_stage(ws, stage, stage_hash, jobs, *args, **kwargs):
        stage_id = tracer.new_id()

        def timed(job):
            def build():
                return tracer.call("workspace.job", job.build, (), {},
                                   parent=stage_id, tag=stage)
            return workspace.Job(job.outputs, build, job.note)

        jobs = [timed(job) for job in jobs]
        # Jobs may run on pool threads, so they name this span as their parent.
        start = time.perf_counter_ns()
        try:
            result = original_stage(ws, stage, stage_hash, jobs, *args, **kwargs)
        finally:
            tracer.record(stage_id, "workspace.run_stage", start,
                          time.perf_counter_ns(), tracer.current(), stage)
        tracer.add_stage_result(result)
        return result

    pipeline.run_stage = run_stage


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover."""
    children = {}
    for s in spans:
        children.setdefault(s[4], []).append((s[2], s[3]))
    out = {}
    for sid, _name, start, end, _parent, _thread, _tag in spans:
        covered, cursor = 0, start
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[sid] = (end - start) - covered
    return out


def summarize(tracer: Tracer, before: dict, after: dict) -> dict:
    selfs = self_times(tracer.spans)
    layers = {}
    stages = Counter()
    bad_self = 0
    for sid, name, start, end, _parent, _thread, tag in tracer.spans:
        dur = end - start
        if not 0 <= selfs[sid] <= dur:
            bad_self += 1
        entry = layers.setdefault(name, {"calls": 0, "busy_ns": 0, "self_ns": 0})
        entry["calls"] += 1
        entry["busy_ns"] += dur
        entry["self_ns"] += selfs[sid]
        if name == "workspace.run_stage":
            stages[tag] += dur
    changed = sum(1 for rel in tracer.built if before.get(rel) != after.get(rel))
    return {
        "layers": layers,
        "stage_ns": dict(stages),
        "counts": dict(tracer.counts),
        "distinct_fits": len(tracer.fit_keys),
        "outputs_built": len(tracer.built),
        "outputs_skipped": tracer.skipped,
        "outputs_changed": changed,
        "bad_self_times": bad_self,
        "spans": [list(s) for s in tracer.spans],
    }


def main(argv) -> int:
    out, cli_args = Path(argv[0]), argv[1:]
    ws = Path(cli_args[cli_args.index("--workspace") + 1])
    tracer = Tracer()
    install(tracer)
    from domainsel import cli

    before = file_digests(ws)
    code = cli.main(cli_args)
    summary = summarize(tracer, before, file_digests(ws))
    summary["exit_code"] = code
    out.write_text(json.dumps(summary), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
