"""Byte identity across commits: two small worlds keep their recorded bytes.

`tests/digests/<world>.json` holds the sha256 of every workspace file that
a cold `--jobs 1` build of the world writes, `manifest.json` included, and
the environment it was built in (Python, NumPy and BLAS versions, machine).
The test rebuilds each world and compares. Float bytes can depend on that
environment, so where it differs from the recorded one the test builds
twice and compares the two builds instead, and the terminal summary names
both environments: the cross-commit check was skipped, not passed.

A change that moves bytes on purpose regenerates both files with

    PYTHONPATH=src python tests/test_digests.py

which prints to stdout, per world, the paths whose sha256 differs from the
record it overwrites; CHANGES.md lists them.
"""
import hashlib
import json
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest

from domainsel.cli import main

DIGESTS = Path(__file__).resolve().parent / "digests"

# world -> (command, config). "acceptance" is the bench acceptance world
# (perfbench/run.py's ACCEPTANCE at seed 0), "variants" is VARIANTS_CONFIG
# of tests/test_cli.py; both copied here so that editing either source
# does not move the recorded bytes.
WORLDS = {
    "acceptance": ("report", {
        "seed": 0,
        "data": {"seed": 0,
                 "synth": {"domains": 6, "topics": 8, "words_per_topic": 60,
                           "examples_per_domain": 90, "tokens_per_text": 10,
                           "mixture_concentration": 0.15, "noise": 0.02}},
        "embed": {"dim": 16, "epochs": 1},
        "adapt": {"variants": ["none"]},
        "downstream": {"seeds": [0, 1], "max_epochs": 80, "hidden": [8, 4],
                       "patience": 12, "lr": 0.01},
        "meta": {"trees": 10, "depth": 3, "repeats": 11},
    }),
    "variants": ("meta", {
        "seed": 5,
        "data": {"synth": {"domains": 3, "topics": 4, "words_per_topic": 20,
                           "examples_per_domain": 24, "tokens_per_text": 6,
                           "mixture_concentration": 0.4, "noise": 0.05}},
        "embed": {"dim": 6, "epochs": 1},
        "adapt": {"variants": ["none", "sda", "msda", "msdar"], "layers": 2,
                  "sda_epochs": 2},
        "downstream": {"seeds": [0, 1], "max_epochs": 4, "hidden": [8, 4]},
    }),
}

# Terminal summary lines, replayed by conftest.py after capture ends.
SKIPPED_LINES = []


def environment() -> dict:
    """What float bytes may depend on besides the code."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except TypeError:  # NumPy before 1.25 prints its config only
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "machine": platform.machine()}


def build(world: str, root: Path) -> dict:
    """sha256 of every file of a cold `--jobs 1` build of `world`."""
    command, config = WORLDS[world]
    root.mkdir(parents=True)
    cfg = root / "config.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    ws = root / "ws"
    assert main([command, "--workspace", str(ws), "--config", str(cfg), "--jobs", "1"]) == 0
    return {p.relative_to(ws).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(ws.rglob("*")) if p.is_file()}


def moved(got: dict, want: dict) -> list:
    return sorted(rel for rel in got.keys() | want.keys() if got.get(rel) != want.get(rel))


@pytest.mark.parametrize("world", sorted(WORLDS))
def test_world_keeps_recorded_bytes(world, tmp_path):
    recorded = json.loads((DIGESTS / f"{world}.json").read_text(encoding="utf-8"))
    got = build(world, tmp_path / "first")
    here = environment()
    if recorded["environment"] == here:
        files = moved(got, recorded["files"])
        assert not files, (f"{len(files)} files moved, e.g. {files[:5]}; if on purpose, "
                           "regenerate with: PYTHONPATH=src python tests/test_digests.py")
        return
    files = moved(build(world, tmp_path / "second"), got)
    assert not files, f"two builds differ in {len(files)} files, e.g. {files[:5]}"
    SKIPPED_LINES.append(
        f"{world}: cross-commit check skipped, two builds compared instead; "
        f"recorded in {json.dumps(recorded['environment'], sort_keys=True)}, "
        f"running in {json.dumps(here, sort_keys=True)}")


if __name__ == "__main__":
    for name in sorted(WORLDS):
        with tempfile.TemporaryDirectory() as tmp:
            files = build(name, Path(tmp) / "build")
        path = DIGESTS / f"{name}.json"
        old = json.loads(path.read_text(encoding="utf-8"))["files"] if path.exists() else {}
        record = {"environment": environment(), "files": files}
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        changed = moved(files, old)
        print(f"{name}: {len(files)} files, {len(changed)} moved")
        for rel in changed:
            print(f"  {rel}")
