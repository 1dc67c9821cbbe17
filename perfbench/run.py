#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the domainsel pipeline.

Usage (from the repository root):

    python3 perfbench/run.py --workload acceptance --seed 0 --seconds 45 --trace 0

Workloads (each op runs the `domainsel` CLI in one child process):

- acceptance: the acceptance-test world (`C6_CONFIG`) cut to 1 skipgram
  epoch and 10 boosting rounds, built cold into an empty workspace through
  `report` with `--jobs 1`. GBDT and skipgram bound. Its traced run also
  builds the C6 world with 5 boosting rounds, applies four edits (noop,
  threshold, add_msda, delete_one), each to a fresh copy of that workspace,
  and reruns `report`: this measures what the workspace decides not to
  rebuild.
- transfer: the default world with every adaptation variant, built cold
  through `downstream` with `--jobs 2`; the full transfer matrix (skipgram,
  sda, 432 MLP fits) on the workspace thread pool. It stops before `meta`
  because the defaults crash there (one-class success labels).

`--seed` becomes the master `seed` of the generated config; the program sees
only that config. A run repeats its workload's cold build until `--seconds`
have passed (at least twice), then checks outputs:

- every workspace digest equals the first one built for the same code,
  workload and seed, in this run or an earlier run in this checkout;
- transfer outputs at `--jobs 2` equal a `--jobs 1` build;
- each edit equals a cold build of the edited config (noop and delete_one:
  the base build);
- with `--trace 1`, traced outputs equal untraced ones and the tracer's
  exact call counts hold.

The `--jobs 1` and cold reference builds run once per code and seed in a
checkout; later runs are checked against the digests they verified.

A mismatch, an exception or a non-zero exit counts as a failed op.

The last stdout line is one JSON object: `correct`, `attempted`, `failed`
and `metrics`. With `--trace 0`, wall_s, cpu_s and peak_rss_mb are medians
over the run's builds and setup_s the median of nine fresh-process set-ups.
Builds take a few seconds, so a run holds several: on a shared host a vCPU
slows by a third or more for seconds to a minute at a time, which the
median of many short builds absorbs and the fastest of two long ones does
not. `--trace 1` runs the untraced builds and one traced build and reports per-layer metrics from spans recorded by
`traced.py`; the spans of the last traced run stay in `.perfbench/traces/`.
Lines before it record the environment, the artifact digest and the table1
AVERAGE crp/top1 values, which carry no regression bound.

BLAS/OpenMP pools are pinned to one thread in every child, so `--jobs 2`
runs at most two compute threads.
"""
from __future__ import annotations

import argparse
import copy
import csv
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from traced import file_digests

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

THREAD_ENV = {
    name: "1" for name in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
}


def merge(base: dict, edit: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in edit.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


# Copy of C6_CONFIG in tests/test_acceptance.py when this benchmark was
# defined; kept here so that editing the test does not move the benchmark.
C6 = {
    "data": {"seed": 0,
             "synth": {"domains": 6, "topics": 8, "words_per_topic": 60,
                       "examples_per_domain": 90, "tokens_per_text": 10,
                       "mixture_concentration": 0.15, "noise": 0.02}},
    "embed": {"dim": 16, "epochs": 3},
    "adapt": {"variants": ["none"]},
    "downstream": {"seeds": [0, 1], "max_epochs": 80, "hidden": [8, 4],
                   "patience": 12, "lr": 0.01},
    "meta": {"trees": 60, "depth": 3, "repeats": 11},
}

# The C6 world with 1 skipgram epoch instead of 3 and 10 boosting rounds
# instead of 60: a build takes a few seconds, so a run holds several and
# their median is steady. GBDT and skipgram keep most of the time.
ACCEPTANCE = merge(C6, {"embed": {"epochs": 1}, "meta": {"trees": 10}})

# The default world (6 domains x 3 seeds, 8 topics x 100 words) with all four
# variants. Examples and epochs are cut so that a build takes a few seconds
# and a run holds several; the job structure and call counts (432 MLP fits,
# 30 sda fits, 7 skipgram tables) are those of the defaults.
TRANSFER = {
    "data": {"synth": {"domains": 6, "topics": 8, "words_per_topic": 100,
                       "examples_per_domain": 30, "tokens_per_text": 9,
                       "mixture_concentration": 0.4, "noise": 0.05}},
    "embed": {"dim": 16, "epochs": 1},
    "adapt": {"variants": ["none", "sda", "msda", "msdar"], "sda_epochs": 5},
    "downstream": {"seeds": [0, 1, 2], "hidden": [128, 32], "max_epochs": 5},
}

# Config edits that the acceptance workload's traced run applies, each to a
# fresh copy of a workspace built from EDIT_BASE; delete_one removes a meta
# model file instead of editing the config. EDIT_BASE is the C6 world with 5
# boosting rounds; its skipgram epochs stay at 3 as in C6 (with 1 epoch,
# add_msda hits the one-class meta crash at some seeds).
EDIT_BASE = merge(C6, {"meta": {"trees": 5}})
EDITS = {
    "noop": EDIT_BASE,
    "threshold": merge(EDIT_BASE, {"downstream": {"success_threshold": 0.75}}),
    "add_msda": merge(EDIT_BASE, {"adapt": {"variants": ["none", "msda"]}}),
    "delete_one": EDIT_BASE,
}
STAGES = ("data", "embed", "lm", "features", "adapt", "downstream", "meta", "report")

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

LAYER_UNITS = {
    "embed.train_skipgram.calls": "count",
    "embed.train_skipgram.busy_s": "s",
    "embed.train_skipgram.self_s": "s",
    "embed.center_words_per_s": "1/s",
    "ngram_lm.train_kn.busy_s": "s",
    "ngram_lm.perplexity.busy_s": "s",
    "simfeat.feature_vector.calls": "count",
    "simfeat.feature_vector.busy_s": "s",
    "adapt.train_sda.calls": "count",
    "adapt.train_sda.busy_s": "s",
    "adapt.stack_marginalized.calls": "count",
    "adapt.stack_marginalized.busy_s": "s",
    "adapt.encode.calls": "count",
    "downstream.train_pair_classifier.calls": "count",
    "downstream.train_pair_classifier.busy_s": "s",
    "downstream.distinct_fit_ratio": "ratio",
    "gbdt.gbdt_train.calls": "count",
    "gbdt.gbdt_train.busy_s": "s",
    "gbdt.gbdt_train.self_s": "s",
    "gbdt.gbdt_train_cv.busy_s": "s",
    "gbdt.trees_built": "count",
    "gbdt.s_per_tree": "s",
    "gbdt.predict_proba.calls": "count",
    "meta.success_predictor.busy_s": "s",
    "meta.domain_ranker.busy_s": "s",
    "meta.multi_sort.busy_s": "s",
    "meta.comparisons": "count",
    **{f"workspace.stage.{s}.wall_s": "s" for s in STAGES},
    "workspace.outputs_built": "count",
    "workspace.outputs_skipped": "count",
    "workspace.rebuild_useful_ratio": "ratio",
    **{f"workspace.rerun.{e}.wall_s": "s" for e in EDITS},
    "workspace.overlap": "ratio",
    "trace.overhead_s": "s",
}

SETUP_PROBE = """
import sys
import domainsel.cli
from domainsel.config import load_config, resolve_config
resolve_config(load_config(sys.argv[1]))
"""

ENV_PROBE = """
import json, os, platform, numpy as np
blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({
    "nproc": len(os.sched_getaffinity(0)),
    "python": platform.python_version(),
    "numpy": np.__version__,
    "blas": f"{blas.get('name')} {blas.get('version')}",
    "threads": {k: os.environ.get(k) for k in sorted(os.environ) if k.endswith("_THREADS")},
}, sort_keys=True))
"""


class Failure(Exception):
    """An op that exited non-zero or produced wrong outputs."""


def combined(digests: dict) -> str:
    return hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = WORK / f"run-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)
        self.nproc = len(os.sched_getaffinity(0))
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.serial = 0
        # Stored digests are only compared between runs of identical code.
        self.code_hash = hashlib.sha256(Path(__file__).read_bytes() + b"".join(
            p.relative_to(SRC).as_posix().encode() + p.read_bytes()
            for p in sorted(SRC.rglob("*.py"))
        )).hexdigest()

    # -- child processes ---------------------------------------------------

    def spawn(self, argv: list) -> dict:
        """Run argv to completion; wall, user+sys CPU and peak RSS of the child."""
        self.serial += 1
        log = self.work / f"op{self.serial}.log"
        start = time.perf_counter()
        with open(log, "wb") as out:
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=ROOT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
            raise Failure(f"{argv[2:5]} exited {proc.returncode}:\n{tail}")
        return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                "peak_rss_mb": usage.ru_maxrss / 1024.0}

    def write_config(self, cfg: dict, name: str) -> Path:
        path = self.work / f"{name}.json"
        path.write_text(json.dumps(dict(cfg, seed=self.seed), sort_keys=True),
                        encoding="utf-8")
        return path

    def cli(self, command: str, ws: Path, cfg: Path, jobs: int,
            trace_out: Path | None = None) -> dict:
        args = [command, "--workspace", str(ws), "--config", str(cfg),
                "--jobs", str(jobs)]
        if trace_out is None:
            argv = [sys.executable, "-m", "domainsel.cli", *args]
        else:
            argv = [sys.executable, str(HERE / "traced.py"), str(trace_out), *args]
        return self.spawn(argv)

    def attempt(self, fn, *args):
        """Run one op; failures are counted, never dropped."""
        self.attempted += 1
        try:
            return fn(*args)
        except Failure as e:
            self.failed += 1
            self.errors.append(str(e))
            return None

    def check(self, label: str, got: dict, want: dict) -> None:
        if got != want:
            diff = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
            raise Failure(f"{label}: {len(diff)} files differ, e.g. {diff[:5]}")

    # -- digest store across runs -----------------------------------------

    def stored(self, key: str) -> tuple:
        store_path = WORK / "digests.json"
        store = json.loads(store_path.read_text()) if store_path.exists() else {}
        return store, store_path, f"{self.code_hash}:{self.workload}:{self.seed}:{key}"

    def remember(self, key: str, digests: dict) -> None:
        """First digest for (code, workload, seed, key) wins; later ones must match."""
        store, store_path, full = self.stored(key)
        value = combined(digests)
        if store.setdefault(full, value) != value:
            raise Failure(f"{key}: outputs differ from an earlier build with this "
                          "code and seed")
        tmp = store_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(store, sort_keys=True))
        os.replace(tmp, store_path)

    def cold_reference(self, key: str, command: str, cfg: Path, jobs: int) -> None:
        """Check the digests remembered under key against one cold build.

        The build runs once per (code, workload, seed, key) in a checkout;
        later runs are checked against the digest it verified.
        """
        store, _, full = self.stored(key)
        if f"{full}:verified" in store:
            return
        _, digests, ws, _ = self.build(f"ref-{key}", command, cfg, jobs)
        shutil.rmtree(ws)
        self.remember(key, digests)
        self.remember(f"{key}:verified", {})

    # -- workloads ----------------------------------------------------------

    @property
    def jobs(self) -> int:
        return min(2, self.nproc) if self.workload == "transfer" else 1

    def run(self) -> dict:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        env = json.loads(subprocess.run(
            [sys.executable, "-c", ENV_PROBE], env=self.env, check=True,
            capture_output=True, text=True, cwd=ROOT).stdout)
        env["jobs"] = self.jobs
        print(f"env {json.dumps(env, sort_keys=True)}")
        base, command = {"acceptance": (ACCEPTANCE, "report"),
                         "transfer": (TRANSFER, "downstream")}[self.workload]
        return self.run_cold(base, command)

    def setup_probe(self, cfg: Path) -> float:
        """Interpreter start, imports and config validation, in a fresh process."""
        return self.spawn([sys.executable, "-c", SETUP_PROBE, str(cfg)])["wall_s"]

    def timed_rounds(self, one_round) -> list:
        """Repeat one_round until --seconds pass (at least twice); keep successes."""
        rounds = []
        start = time.perf_counter()
        for done in itertools.count(1):
            t0 = time.perf_counter()
            result = one_round()
            if result is not None:
                rounds.append(result)
            now = time.perf_counter()
            if done >= 2 and (now - start) + (now - t0) > self.seconds:
                return rounds

    def build(self, name: str, command: str, cfg: Path, jobs: int,
              traced: bool = False, ws: Path | None = None):
        """One CLI op; returns (usage, digests, workspace, trace summary)."""
        self.serial += 1
        ws = ws or self.work / f"{name}-{self.serial}"
        trace_out = self.work / f"trace-{self.serial}.json" if traced else None
        usage = self.cli(command, ws, cfg, jobs, trace_out)
        trace = None
        if traced:
            trace = json.loads(trace_out.read_text())
            kept = WORK / "traces" / f"{self.workload}-seed{self.seed}-{name}.json"
            kept.parent.mkdir(exist_ok=True)
            os.replace(trace_out, kept)
        return usage, file_digests(ws), ws, trace

    def run_cold(self, base: dict, command: str) -> dict:
        cfg = self.write_config(base, self.workload)
        setups = [self.setup_probe(cfg) for _ in range(9)]
        first = {}

        def one(traced=False):
            usage, digests, ws, trace = self.build(self.workload, command, cfg,
                                                   self.jobs, traced)
            if not first:
                first.update(digests=digests, ws=ws)
            else:
                shutil.rmtree(ws)
            self.check("rebuild", digests, first["digests"])
            return usage, trace

        rounds = [r[0] for r in self.timed_rounds(lambda: self.attempt(one))]
        traced = self.attempt(one, True) if self.trace else None
        edits = {}
        if first:
            self.attempt(self.remember, "cold", first["digests"])
            if self.workload == "transfer":
                self.attempt(self.cold_reference, "cold", command, cfg, 1)
            self.report_lines(first["digests"], first["ws"])
        if self.trace and self.workload == "acceptance":
            edits = self.run_edits()
        if not self.trace:
            return self.end_to_end(rounds, setups)
        return self.layer_metrics(traced, rounds, edits, base)

    def run_edits(self) -> dict:
        """Build EDIT_BASE, then rerun `report` after each edit on a fresh copy.

        Each edit runs once untraced (its wall time) and once traced (what it
        rebuilt). noop and delete_one must reproduce the base build; threshold
        and add_msda must equal a cold build of their config.
        """
        paths = {edit: self.write_config(edit_cfg, edit)
                 for edit, edit_cfg in EDITS.items() if edit != "delete_one"}
        paths["delete_one"] = paths["noop"]
        base = self.attempt(self.build, "base", "report", paths["noop"], 1)
        if base is None:
            return {}
        _, base_digests, base_ws, _ = base
        self.attempt(self.remember, "base", base_digests)
        # The same model for every seed, so that delete_one costs the same.
        victim = min(p for p in base_digests if p.startswith("meta/") and "_model_" in p)
        outputs, walls, traces = {}, {}, []

        def edit_op(edit: str, traced: bool):
            ws = self.work / f"{edit}-{self.serial}"
            shutil.copytree(base_ws, ws)
            if edit == "delete_one":
                (ws / victim).unlink()
            usage, digests, _, trace = self.build(edit, "report", paths[edit], 1,
                                                  traced, ws)
            shutil.rmtree(ws)
            outputs.setdefault(edit, digests)
            self.check(f"edit {edit} vs its first run", digests, outputs[edit])
            if traced:
                traces.append(trace)
            else:
                walls[edit] = usage["wall_s"]

        for edit in EDITS:
            for traced in (False, True):
                self.attempt(edit_op, edit, traced)
        for edit, got in outputs.items():
            if edit in ("noop", "delete_one"):
                self.attempt(self.check, f"edit {edit} vs base build", got, base_digests)
            else:
                self.attempt(self.remember, f"edit:{edit}", got)
                self.attempt(self.cold_reference, f"edit:{edit}", "report", paths[edit], 1)
        return {"walls": walls, "traces": traces}

    # -- reporting ------------------------------------------------------------

    def report_lines(self, digests: dict, ws: Path) -> None:
        """Values with no regression bound; they show when outputs move."""
        print(f"reported {self.workload} seed={self.seed} "
              f"artifact_digest={combined(digests)} files={len(digests)}")
        for path in sorted(ws.glob("report/table1_*.csv")):
            mode = path.stem.split("_", 1)[1]
            with open(path, encoding="utf-8") as f:
                rows = list(csv.reader(f))
            header, avg = rows[0], rows[-1]
            values = " ".join(
                f"table1.{mode}.{h}={v}" for h, v in zip(header[1:], avg[1:])
                if h.endswith(("_crp", "_top1"))
            )
            print(f"reported {self.workload} seed={self.seed} {values}")

    def end_to_end(self, rounds: list, setups: list) -> dict:
        values = {name: statistics.median(r[name] for r in rounds) if rounds else 0.0
                  for name in ("wall_s", "cpu_s", "peak_rss_mb")}
        values["setup_s"] = statistics.median(setups) if setups else 0.0
        return {n: {"value": values[n], "unit": u} for n, u in END_TO_END.items()}

    def layer_metrics(self, traced, rounds: list, edits: dict, cfg: dict) -> dict:
        """Per-layer metrics of the traced cold build; workspace.outputs_* and
        rebuild_useful_ratio come from the traced edits where there are any."""
        traces = [traced[1]] if traced else []
        edit_traces = edits.get("traces", [])
        layers, stage_ns, counts = {}, {}, {}
        distinct = 0
        for t in traces:
            for name, entry in t["layers"].items():
                acc = layers.setdefault(name, {"calls": 0, "busy_ns": 0, "self_ns": 0})
                for k in acc:
                    acc[k] += entry[k]
            for stage, ns in t["stage_ns"].items():
                stage_ns[stage] = stage_ns.get(stage, 0) + ns
            for k, v in t["counts"].items():
                counts[k] = counts.get(k, 0) + v
            distinct += t["distinct_fits"]
        for t in traces + edit_traces:
            if t["bad_self_times"]:
                self.fail(f"tracer self-check: {t['bad_self_times']} spans have "
                          "self time outside [0, span]")
        rebuilt = edit_traces or traces
        built = sum(t["outputs_built"] for t in rebuilt)
        changed = sum(t["outputs_changed"] for t in rebuilt)

        def calls(name):
            return layers.get(name, {}).get("calls", 0)

        def secs(name, key="busy_ns"):
            return layers.get(name, {}).get(key, 0) / 1e9

        def ratio(num, den):
            return num / den if den else 0.0

        m = {}
        for name in ("embed.train_skipgram", "simfeat.feature_vector",
                     "adapt.train_sda", "adapt.stack_marginalized",
                     "downstream.train_pair_classifier", "gbdt.gbdt_train"):
            m[f"{name}.calls"] = calls(name)
            m[f"{name}.busy_s"] = secs(name)
        for name in ("embed.train_skipgram", "gbdt.gbdt_train"):
            m[f"{name}.self_s"] = secs(name, "self_ns")
        for name in ("ngram_lm.train_kn", "ngram_lm.perplexity", "gbdt.gbdt_train_cv",
                     "meta.success_predictor", "meta.domain_ranker", "meta.multi_sort"):
            m[f"{name}.busy_s"] = secs(name)
        m["adapt.encode.calls"] = calls("adapt.encode")
        m["gbdt.predict_proba.calls"] = calls("gbdt.predict_proba")
        m["embed.center_words_per_s"] = ratio(counts.get("embed.center_words", 0),
                                              secs("embed.train_skipgram"))
        m["downstream.distinct_fit_ratio"] = ratio(
            distinct, calls("downstream.train_pair_classifier"))
        m["gbdt.trees_built"] = counts.get("gbdt.trees_built", 0)
        m["gbdt.s_per_tree"] = ratio(secs("gbdt.gbdt_train"), m["gbdt.trees_built"])
        m["meta.comparisons"] = counts.get("meta.comparisons", 0)
        for stage in STAGES:
            m[f"workspace.stage.{stage}.wall_s"] = stage_ns.get(stage, 0) / 1e9
        m["workspace.outputs_built"] = built
        m["workspace.outputs_skipped"] = sum(t["outputs_skipped"] for t in rebuilt)
        m["workspace.rebuild_useful_ratio"] = ratio(changed, built)
        for edit in EDITS:
            m[f"workspace.rerun.{edit}.wall_s"] = edits.get("walls", {}).get(edit, 0.0)
        m["workspace.overlap"] = ratio(secs("workspace.job"), sum(stage_ns.values()) / 1e9)
        m["trace.overhead_s"] = (
            traced[0]["wall_s"] - min(r["wall_s"] for r in rounds)
            if traced and rounds else 0.0)
        if traces:
            self.self_check(m, cfg)
        return {n: {"value": m[n], "unit": u} for n, u in LAYER_UNITS.items()}

    def fail(self, message: str) -> None:
        """A failed check that is not an op of its own."""
        self.attempted += 1
        self.failed += 1
        self.errors.append(message)

    def self_check(self, m: dict, cfg: dict) -> None:
        """Exact call counts implied by the config; a miss means a lost wrapper."""
        domains = cfg["data"]["synth"]["domains"]
        variants = cfg["adapt"]["variants"]
        expected = {
            "embed.train_skipgram.calls": domains + 1,
            "downstream.train_pair_classifier.calls":
                domains * domains * len(cfg["downstream"]["seeds"]) * len(variants),
            "adapt.train_sda.calls": domains * (domains - 1) * ("sda" in variants),
        }
        if self.workload == "transfer":
            expected["gbdt.gbdt_train.calls"] = 0
        elif m["gbdt.gbdt_train.calls"] == 0:
            self.fail("tracer self-check: gbdt_train was never called")
        for name, want in expected.items():
            if m[name] != want:
                self.fail(f"tracer self-check: {name} = {m[name]}, expected {want}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("acceptance", "transfer"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "domainsel" / "__init__.py").is_file():
        print(f"error: no domainsel package under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        metrics = bench.run()
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    for error in bench.errors[:5]:
        print(f"FAILED: {error}", file=sys.stderr)
    if len(bench.errors) > 5:
        print(f"FAILED: {len(bench.errors) - 5} more", file=sys.stderr)
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
