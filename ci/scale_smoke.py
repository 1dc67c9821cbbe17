"""Scale smoke: build a 3,000-example-per-domain world through `embed` in a
child process and fail unless it exits 0 under a peak-RSS bound.

The skipgram stage's memory should grow with the token count, not with the
number of (center, context) pairs; this world is large enough for the
difference to show (see CHANGES.md for the measured peaks).

    python ci/scale_smoke.py

Prints one JSON line and exits 0 on a pass, 1 otherwise. Linux only:
`ru_maxrss` is read in KiB.
"""
from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

CONFIG = {"data": {"synth": {"examples_per_domain": 3000}}, "embed": {"epochs": 1}}
LIMIT_MB = 100
SRC = Path(__file__).resolve().parents[1] / "src"


def main() -> int:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(CONFIG))
        start = time.perf_counter()
        rc = subprocess.run(
            [sys.executable, "-m", "domainsel.cli", "embed",
             "--workspace", str(Path(tmp) / "ws"), "--config", str(config)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ).returncode
        wall = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    ok = rc == 0 and peak_mb < LIMIT_MB
    print(json.dumps({"returncode": rc, "peak_rss_mb": round(peak_mb, 1),
                      "limit_mb": LIMIT_MB, "wall_s": round(wall, 2), "ok": ok}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
