"""Scale smoke: build a 3,000-example-per-domain world staged, one child
process per command (`embed`, then `lm`, then `features`, then `downstream`
on the same workspace), and fail unless each command exits 0 under a
peak-RSS bound.

The skipgram stage's memory should grow with the token count, not with the
number of (center, context) pairs, and the features stage should not hold
the language models' count files as strings; this world is large enough for
either difference to show. The downstream stage (two epochs per pair
classifier here) reads every corpus and sentence array of the world and
must fit under the same bound (see CHANGES.md for the measured peaks).

    python ci/scale_smoke.py

Prints one JSON line with each command's return code, peak RSS and wall
time, and exits 0 on a pass, 1 otherwise. Linux only: each child's peak is
its own `ru_maxrss` from `os.wait4`, read in KiB.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

CONFIG = {"data": {"synth": {"examples_per_domain": 3000}}, "embed": {"epochs": 1},
          "downstream": {"max_epochs": 2}}
COMMANDS = ("embed", "lm", "features", "downstream")
LIMIT_MB = 100
SRC = Path(__file__).resolve().parents[1] / "src"


def run(command: str, workspace: Path, config: Path, env: dict) -> dict:
    """Run one CLI command in a child; its return code, peak RSS and wall time."""
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-m", "domainsel.cli", command,
         "--workspace", str(workspace), "--config", str(config)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait
    return {"command": command, "returncode": child.returncode,
            "peak_rss_mb": round(usage.ru_maxrss / 1024.0, 1),
            "wall_s": round(time.perf_counter() - start, 2)}


def main() -> int:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(CONFIG))
        for command in COMMANDS:
            results.append(run(command, Path(tmp) / "ws", config, env))
            if results[-1]["returncode"] != 0:
                break
    ok = len(results) == len(COMMANDS) and all(
        r["returncode"] == 0 and r["peak_rss_mb"] < LIMIT_MB for r in results)
    print(json.dumps({"commands": results, "limit_mb": LIMIT_MB, "ok": ok}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
