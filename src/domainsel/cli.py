"""Command line entry point.

Every subcommand runs the pipeline up to its stage, reusing artifacts
whose inputs have not changed. Exit codes: 0 success, 1 invalid input or
config, 2 a computation failed.
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
# against 7.9 s pinned.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from .config import META_MODES, load_config, resolve_config, validate_config
from .errors import ComputationError, ValidationError
from .pipeline import run_pipeline
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

# `dt` is the plain decision-tree baseline: meta models over unadapted
# representations.
_VARIANT_ALIASES = {"dt": "none"}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--workspace", required=True, metavar="DIR",
                        help="artifact directory, created if missing")
    common.add_argument("--config", metavar="FILE",
                        help="JSON config; defaults apply when omitted")
    common.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker threads for the downstream stage, at least 1")
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


def _meta_restriction(resolved: dict, args) -> tuple:
    only_mode = args.mode
    only_variant = None
    if args.variant:
        only_variant = _VARIANT_ALIASES.get(args.variant, args.variant)
        if only_variant not in resolved["adapt"]["variants"]:
            raise ValidationError(
                f"variant {args.variant!r} is not in adapt.variants"
            )
    if only_mode and only_mode not in resolved["meta"]["modes"]:
        raise ValidationError(f"mode {only_mode!r} is not in meta.modes")
    return only_mode, only_variant


def _copy_report(ws: Workspace, out_dir: str) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for path in sorted(ws.path("report").iterdir()):
        shutil.copyfile(path, out / path.name)


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
    only_mode = only_variant = None
    if args.command == "meta":
        only_mode, only_variant = _meta_restriction(resolved, args)
    ws = Workspace(args.workspace)
    run_pipeline(ws, resolved, upto=_STAGE_OF[args.command], n_jobs=args.jobs,
                 only_mode=only_mode, only_variant=only_variant)
    if args.command == "report" and args.out:
        _copy_report(ws, args.out)
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
