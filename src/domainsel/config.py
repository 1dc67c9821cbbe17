"""Pipeline configuration: schema, validation, seeds, and hashing.

One JSON file drives every stage. Unknown keys are rejected by name, and all
randomness flows from the master seed (each stage that draws random numbers
has a `seed` that may pin its own). `config_hash` digests canonical JSON; the
pipeline keys each job by the hash of the config values and files it reads.
"""
from __future__ import annotations

import copy
import hashlib
import json

from .adapt import VARIANTS
from .errors import ValidationError
from .synth import child_seed

STAGES = (
    "data", "embed", "lm", "features", "adapt", "downstream", "meta", "report",
)

META_MODES = ("predictor", "ranker")

DEFAULT_CONFIG = {
    "seed": 0,
    "data": {
        "seed": None,
        "mode": "synth",
        "sources": [],
        "synth": {
            "domains": 6,
            "topics": 8,
            "words_per_topic": 100,
            "examples_per_domain": 300,
            "tokens_per_text": 9,
            "mixture_concentration": 0.4,
            "noise": 0.05,
        },
        "split_ratios": [0.8, 0.1, 0.1],
    },
    "embed": {
        "seed": None,
        "dim": 16,
        "window": 5,
        "negatives": 5,
        "epochs": 5,
    },
    "lm": {
        "min_count": 1,
        "discount": 0.75,
    },
    "features": {
        "alpha": 0.99,
        "smoothing": 0.5,
    },
    "adapt": {
        "seed": None,
        "variants": ["none"],
        "layers": 5,
        "dropout_p": 0.6,
        "lam": 1.0,
        "reg_target": 1.0,
        "noise_scale": 1.0,
        "sda_epochs": 30,
        "sda_batch": 32,
        "sda_lr": 0.001,
    },
    "downstream": {
        "seeds": [0, 1, 2],
        "hidden": [128, 32],
        "max_epochs": 50,
        "patience": 5,
        "batch": 32,
        "lr": 0.001,
        "success_threshold": 0.8,
    },
    "meta": {
        "seed": None,
        "modes": ["predictor", "ranker"],
        "trees": 200,
        "depth": 3,
        "learning_rate": 0.1,
        "repeats": 11,
    },
    "report": {
        "pca_pairs": [],
    },
}

_SOURCE_KEYS = {"name", "path", "format", "binarize_threshold"}


def _type_ok(value, default) -> bool:
    if default is None:
        return value is None or (isinstance(value, int) and not isinstance(value, bool))
    if isinstance(default, bool):
        return isinstance(value, bool)
    if isinstance(default, float):
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(default, int):
        return isinstance(value, int) and not isinstance(value, bool)
    if isinstance(default, str):
        return isinstance(value, str)
    if isinstance(default, list):
        return isinstance(value, list)
    if isinstance(default, dict):
        return isinstance(value, dict)
    return False


def _merge(defaults: dict, given: dict, prefix: str = "") -> dict:
    merged = {}
    for key, value in given.items():
        dotted = f"{prefix}{key}"
        if key not in defaults:
            raise ValidationError(f"unknown config key '{dotted}'")
        default = defaults[key]
        if isinstance(default, dict) and key != "sources":
            if not isinstance(value, dict):
                raise ValidationError(f"config key '{dotted}' must be an object")
            merged[key] = _merge(default, value, prefix=f"{dotted}.")
        else:
            if not _type_ok(value, default):
                raise ValidationError(
                    f"config key '{dotted}' has wrong type "
                    f"({type(value).__name__})"
                )
            merged[key] = copy.deepcopy(value)
    for key, default in defaults.items():
        if key not in merged:
            merged[key] = copy.deepcopy(default)
    return merged


def _check_semantics(cfg: dict) -> None:
    if cfg["data"]["mode"] not in ("synth", "ingest"):
        raise ValidationError(f"unknown config key value data.mode={cfg['data']['mode']!r}")
    for i, src in enumerate(cfg["data"]["sources"]):
        if not isinstance(src, dict):
            raise ValidationError(f"config key 'data.sources[{i}]' must be an object")
        unknown = set(src) - _SOURCE_KEYS
        if unknown:
            raise ValidationError(
                f"unknown config key 'data.sources[{i}].{sorted(unknown)[0]}'"
            )
        for required in ("name", "path", "format"):
            if required not in src:
                raise ValidationError(f"config key 'data.sources[{i}].{required}' is required")
    names = [src["name"] for src in cfg["data"]["sources"]]
    if len(set(names)) != len(names):
        raise ValidationError("config key 'data.sources' has duplicate names")
    ratios = cfg["data"]["split_ratios"]
    if len(ratios) != 3 or not all(isinstance(r, (int, float)) for r in ratios):
        raise ValidationError("config key 'data.split_ratios' must be 3 numbers")
    for variant in cfg["adapt"]["variants"]:
        if variant not in VARIANTS:
            raise ValidationError(
                f"config key 'adapt.variants' contains unknown variant {variant!r}"
            )
    if len(set(cfg["adapt"]["variants"])) != len(cfg["adapt"]["variants"]):
        raise ValidationError("config key 'adapt.variants' has duplicates")
    if not cfg["adapt"]["variants"]:
        raise ValidationError("config key 'adapt.variants' must not be empty")
    for mode in cfg["meta"]["modes"]:
        if mode not in META_MODES:
            raise ValidationError(
                f"config key 'meta.modes' contains unknown mode {mode!r}"
            )
    if not cfg["downstream"]["seeds"]:
        raise ValidationError("config key 'downstream.seeds' must not be empty")
    hidden = cfg["downstream"]["hidden"]
    if len(hidden) != 2 or not all(_type_ok(w, 1) and w >= 1 for w in hidden):
        raise ValidationError(
            "config key 'downstream.hidden' must list two integer widths >= 1"
        )
    for key in ("downstream.batch", "adapt.sda_batch"):
        section, name = key.split(".")
        if cfg[section][name] < 1:
            raise ValidationError(f"config key '{key}' must be >= 1")
    for pair in cfg["report"]["pca_pairs"]:
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ValidationError(
                "config key 'report.pca_pairs' entries must be [source, target]"
            )


def validate_config(obj: dict) -> dict:
    """Merge user config over defaults, rejecting unknown keys by name."""
    if not isinstance(obj, dict):
        raise ValidationError("config must be a JSON object")
    cfg = _merge(DEFAULT_CONFIG, obj)
    _check_semantics(cfg)
    return cfg


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            obj = json.load(f)
    except FileNotFoundError:
        raise ValidationError(f"config file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise ValidationError(f"config file {path} is not valid JSON: {e}") from e
    return validate_config(obj)


def resolve_config(cfg: dict, seed_override: int | None = None) -> dict:
    """Fill in seeds derived from the master seed for the stages that have one."""
    resolved = copy.deepcopy(cfg)
    if seed_override is not None:
        resolved["seed"] = int(seed_override)
    master = resolved["seed"]
    for stage in STAGES:
        if "seed" in resolved[stage] and resolved[stage]["seed"] is None:
            resolved[stage]["seed"] = child_seed(master, "stage", stage)
    return resolved


def config_hash(obj) -> str:
    """sha256 of the canonical (sorted-key, compact) JSON of a config value."""
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
