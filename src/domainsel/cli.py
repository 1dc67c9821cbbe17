"""Command line entry point.

Every subcommand runs the pipeline up to its stage, reusing artifacts
whose inputs have not changed. Exit codes: 0 success, 1 invalid input or
config or a workspace that another run holds, 2 a computation failed.
Argument and config errors exit before numpy loads: the pipeline is
imported only once they are checked, and it checks the config-only
preconditions of every stage the command reaches before it builds anything.
"""
from __future__ import annotations

import argparse
import logging
import os
import shutil
import sys
from pathlib import Path

# One BLAS thread per worker unless the user set otherwise; numpy reads these
# when it loads. A BLAS pool under each `--jobs` thread oversubscribes the
# cores: on 2 vCPUs the 300-example downstream took 16.3 s at --jobs 2 unpinned
# against 7.9 s pinned. The `--jobs` threads serve only a downstream stage
# whose fits reach `pipeline.POOL_STEP_WORK` (rows per step times parameters);
# the measured table that places it is next to the constant and in the README.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from .config import META_MODES, load_config, resolve_config, validate_config
from .errors import ComputationError, ValidationError
from .workspace import Workspace

log = logging.getLogger(__name__)

# CLI stage names; `ingest` and `synth` are the two faces of the data stage.
_STAGE_OF = {
    "ingest": "data",
    "synth": "data",
    "embed": "embed",
    "lm": "lm",
    "features": "features",
    "adapt": "adapt",
    "downstream": "downstream",
    "meta": "meta",
    "report": "report",
    "pipeline": "report",
}

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--workspace", required=True, metavar="DIR",
                        help="artifact directory, created if missing")
    common.add_argument("--config", metavar="FILE",
                        help="JSON config; defaults apply when omitted")
    common.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="at most N worker threads, at least 1; only a "
                             "downstream stage with big enough fits uses them")
    common.add_argument("--seed", type=int, default=None, metavar="N",
                        help="override the master seed")

    parser = argparse.ArgumentParser(
        prog="domainsel",
        description="Source selection for cross-domain sentence pair transfer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("ingest", parents=[common],
                   help="load labeled corpora from data.sources")
    sub.add_parser("synth", parents=[common],
                   help="generate the synthetic topic-mixture corpora")
    sub.add_parser("embed", parents=[common], help="train word and sentence vectors")
    sub.add_parser("lm", parents=[common], help="train per-domain trigram models")
    sub.add_parser("features", parents=[common],
                   help="compute pairwise similarity features")
    sub.add_parser("adapt", parents=[common],
                   help="train representation adapters per domain pair")
    sub.add_parser("downstream", parents=[common],
                   help="train pair classifiers and build transfer F1 matrices")
    meta = sub.add_parser("meta", parents=[common],
                          help="train transfer success predictors and rankers")
    meta.add_argument("--mode", choices=META_MODES,
                      help="restrict to one meta model family")
    meta.add_argument("--variant", help="restrict to one representation variant")
    report = sub.add_parser("report", parents=[common],
                            help="emit evaluation tables and projections")
    report.add_argument("--out", metavar="DIR",
                        help="also copy the report files to this directory")
    sub.add_parser("pipeline", parents=[common], help="run every stage in order")
    return parser


def _load(args) -> dict:
    cfg = load_config(args.config) if args.config else validate_config({})
    return resolve_config(cfg, seed_override=args.seed)


def _narrow_meta(resolved: dict, args) -> None:
    """Narrow `adapt.variants` and `meta.modes` to `meta --variant/--mode`.
    No job key reads either list, so a later full run reuses what this builds."""
    if args.variant:
        # `dt` is plain transfer with no adaptation, which is variant `none`.
        variant = "none" if args.variant == "dt" else args.variant
        if variant not in resolved["adapt"]["variants"]:
            raise ValidationError(
                f"variant {args.variant!r} is not in adapt.variants"
            )
        resolved["adapt"]["variants"] = [variant]
    if args.mode:
        if args.mode not in resolved["meta"]["modes"]:
            raise ValidationError(f"mode {args.mode!r} is not in meta.modes")
        resolved["meta"]["modes"] = [args.mode]


def _copy_report(ws: Workspace, outputs, out_dir: str) -> None:
    """Copy the report stage's current outputs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for rel in sorted(outputs):
        shutil.copyfile(ws.path(rel), out / Path(rel).name)


def run(args) -> int:
    if args.jobs < 1:
        raise ValidationError(f"--jobs must be >= 1, got {args.jobs}")
    resolved = _load(args)
    mode = resolved["data"]["mode"]
    if args.command in ("ingest", "synth") and mode != args.command:
        raise ValidationError(
            f"the {args.command} command needs data.mode '{args.command}', "
            f"but the config says '{mode}'"
        )
    if args.command == "meta":
        _narrow_meta(resolved, args)
    if args.command == "report" and args.out:
        # The copy's directory: an existing one, or a path mkdir can make.
        out = Path(args.out)
        first = next(p for p in (out, *out.parents) if p.exists())
        if not first.is_dir():
            raise ValidationError(f"--out {args.out}: {first} is not a directory")
        # A copy into the workspace would overwrite the files it copies, or
        # its manifest.
        out = out.resolve()
        if Path(args.workspace).resolve() in (out, *out.parents):
            raise ValidationError(f"--out {args.out} is inside the workspace {args.workspace}")
    from .pipeline import run_pipeline  # loads numpy; the checks above do not

    ws = Workspace(args.workspace)
    results = run_pipeline(ws, resolved, upto=_STAGE_OF[args.command], n_jobs=args.jobs)
    if args.command == "report" and args.out:
        report = results["report"]
        _copy_report(ws, report.built + report.skipped, args.out)
    return 0


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        return run(args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ComputationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
