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
import math

from .errors import ValidationError

STAGES = (
    "data", "embed", "lm", "features", "adapt", "downstream", "meta", "report",
)

META_MODES = ("predictor", "ranker")

VARIANTS = ("none", "sda", "msda", "msdar")

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

# Integer settings and the least value each may take: the bound the stage
# that reads it needs, else 0 for a count.
_LEAST = {
    "data.synth.domains": 2,
    "data.synth.topics": 2,
    "data.synth.words_per_topic": 1,
    "data.synth.examples_per_domain": 6,  # 3 pairs of each label
    "data.synth.tokens_per_text": 1,
    "embed.dim": 1,
    "embed.window": 1,
    "embed.negatives": 0,
    "embed.epochs": 0,
    "lm.min_count": 0,
    "adapt.layers": 1,
    "adapt.sda_epochs": 0,
    "adapt.sda_batch": 1,
    "downstream.batch": 1,
    "downstream.max_epochs": 0,
    "downstream.patience": 1,
    "meta.trees": 1,
    "meta.depth": 1,
    "meta.repeats": 1,
}

# Real settings: the range each must lie in, as the error states it, and its
# test (false for NaN). A zero or negative step size trains nothing or climbs
# the loss.
_POSITIVE = ("a finite number > 0", lambda x: 0 < x < math.inf)
_NON_NEGATIVE = ("a finite number >= 0", lambda x: 0 <= x < math.inf)
_RANGES = {
    "data.synth.mixture_concentration": _POSITIVE,
    "data.synth.noise": ("in [0, 1)", lambda x: 0 <= x < 1),
    "lm.discount": ("in (0, 1)", lambda x: 0 < x < 1),
    "features.alpha": ("a finite number > 0 other than 1",
                       lambda x: 0 < x < math.inf and x != 1),
    "features.smoothing": _POSITIVE,
    "adapt.dropout_p": ("in [0, 1)", lambda x: 0 <= x < 1),
    "adapt.lam": _NON_NEGATIVE,
    "adapt.noise_scale": _NON_NEGATIVE,
    "adapt.sda_lr": _POSITIVE,
    "downstream.lr": _POSITIVE,
    "meta.learning_rate": _POSITIVE,
}


def _value(cfg: dict, key: str):
    for name in key.split("."):
        cfg = cfg[name]
    return cfg


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
    if not (len(ratios) == 3 and all(_type_ok(r, 0.0) and r > 0 for r in ratios)
            and abs(sum(ratios) - 1.0) <= 1e-9):
        raise ValidationError("config key 'data.split_ratios' must be 3 numbers > 0 "
                              f"that sum to 1, got {ratios}")
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
    seeds = cfg["downstream"]["seeds"]
    if not seeds:
        raise ValidationError("config key 'downstream.seeds' must not be empty")
    if not all(_type_ok(s, 0) and s >= 0 for s in seeds):
        raise ValidationError(
            "config key 'downstream.seeds' must list non-negative integers"
        )
    if len(set(seeds)) != len(seeds):
        raise ValidationError("config key 'downstream.seeds' has duplicates")
    hidden = cfg["downstream"]["hidden"]
    if len(hidden) != 2 or not all(_type_ok(w, 1) and w >= 1 for w in hidden):
        raise ValidationError(
            "config key 'downstream.hidden' must list two integer widths >= 1"
        )
    for key, least in _LEAST.items():
        if _value(cfg, key) < least:
            raise ValidationError(f"config key '{key}' must be >= {least}, "
                                  f"got {_value(cfg, key)}")
    for key, (allowed, ok) in _RANGES.items():
        if not ok(_value(cfg, key)):
            raise ValidationError(f"config key '{key}' must be {allowed}, "
                                  f"got {_value(cfg, key)}")
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
    except OSError as e:  # missing, a directory, unreadable
        raise ValidationError(f"config file {path} cannot be read: {e.strerror}") from None
    except ValueError as e:  # not UTF-8, or not JSON
        raise ValidationError(f"config file {path} is not valid JSON: {e}") from e
    return validate_config(obj)


def child_seed(seed: int, *parts: str) -> int:
    """Stable sub-seed derivation; independent of process or numpy state."""
    digest = hashlib.sha256("|".join([str(seed), *parts]).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


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
