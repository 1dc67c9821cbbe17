"""Config validation, merging, seed resolution, and config hashing."""
import json

import pytest

from domainsel.config import (
    DEFAULT_CONFIG,
    STAGES,
    config_hash,
    load_config,
    resolve_config,
    validate_config,
)
from domainsel.errors import ValidationError
from domainsel.synth import child_seed

# The stages that draw random numbers, and so take a `seed`.
SEEDED = ("data", "embed", "adapt", "meta")


class TestValidation:
    def test_empty_config_gets_defaults(self):
        cfg = validate_config({})
        assert cfg["embed"]["dim"] == DEFAULT_CONFIG["embed"]["dim"]
        assert cfg["downstream"]["hidden"] == [128, 32]

    def test_defaults_are_copied_not_shared(self):
        a = validate_config({})
        a["embed"]["dim"] = 99
        assert validate_config({})["embed"]["dim"] == DEFAULT_CONFIG["embed"]["dim"]

    def test_unknown_top_level_key_named(self):
        with pytest.raises(ValidationError, match="unknown config key 'emed'"):
            validate_config({"emed": {}})

    def test_unknown_nested_key_named_with_dotted_path(self):
        with pytest.raises(ValidationError, match="unknown config key 'embed.dims'"):
            validate_config({"embed": {"dims": 32}})

    @pytest.mark.parametrize("stage", ["lm", "features", "downstream", "report"])
    def test_seed_of_unseeded_stage_rejected(self, stage):
        with pytest.raises(ValidationError, match=f"unknown config key '{stage}.seed'"):
            validate_config({stage: {"seed": 1}})

    def test_unknown_synth_key_named(self):
        with pytest.raises(ValidationError, match="data.synth.domain_count"):
            validate_config({"data": {"synth": {"domain_count": 4}}})

    def test_unknown_source_key_named(self):
        cfg = {
            "data": {
                "mode": "ingest",
                "sources": [{"name": "a", "path": "x", "format": "tsv", "color": 1}],
            }
        }
        with pytest.raises(ValidationError, match="color"):
            validate_config(cfg)

    def test_duplicate_source_names_rejected(self):
        src = {"name": "a", "path": "x", "format": "tsv"}
        with pytest.raises(ValidationError, match="data.sources' has duplicate names"):
            validate_config({"data": {"mode": "ingest", "sources": [src, dict(src)]}})

    def test_wrong_type_rejected(self):
        with pytest.raises(ValidationError, match="embed.dim"):
            validate_config({"embed": {"dim": "sixteen"}})

    def test_bool_not_accepted_for_int(self):
        with pytest.raises(ValidationError, match="embed.dim"):
            validate_config({"embed": {"dim": True}})

    @pytest.mark.parametrize("given, key", [
        ({"downstream": {"batch": 0}}, "downstream.batch"),
        ({"adapt": {"sda_batch": -4}}, "adapt.sda_batch"),
        ({"downstream": {"hidden": [0, 32]}}, "downstream.hidden"),
        ({"downstream": {"hidden": [16, 2.5]}}, "downstream.hidden"),
        ({"downstream": {"hidden": [16]}}, "downstream.hidden"),
    ])
    def test_non_positive_sizes_rejected(self, given, key):
        with pytest.raises(ValidationError, match=key.replace(".", r"\.")):
            validate_config(given)

    def test_smallest_sizes_accepted(self):
        cfg = validate_config({"downstream": {"batch": 1, "hidden": [1, 1]},
                               "adapt": {"sda_batch": 1}})
        assert cfg["downstream"]["hidden"] == [1, 1]

    def test_bad_mode_rejected(self):
        with pytest.raises(ValidationError, match="data.mode"):
            validate_config({"data": {"mode": "download"}})

    def test_ingest_requires_source_fields(self):
        cfg = {"data": {"mode": "ingest", "sources": [{"name": "a"}]}}
        with pytest.raises(ValidationError, match="path"):
            validate_config(cfg)

    def test_bad_variant_rejected(self):
        with pytest.raises(ValidationError, match="variant"):
            validate_config({"adapt": {"variants": ["magic"]}})

    def test_duplicate_variants_rejected(self):
        with pytest.raises(ValidationError, match="variant"):
            validate_config({"adapt": {"variants": ["none", "none"]}})

    def test_bad_meta_mode_rejected(self):
        with pytest.raises(ValidationError, match="meta.modes"):
            validate_config({"meta": {"modes": ["oracle"]}})

    def test_split_ratios_need_three_entries(self):
        with pytest.raises(ValidationError, match="split_ratios"):
            validate_config({"data": {"split_ratios": [0.9, 0.1]}})

    def test_empty_downstream_seeds_rejected(self):
        with pytest.raises(ValidationError, match="seeds"):
            validate_config({"downstream": {"seeds": []}})

    def test_pca_pairs_shape_checked(self):
        with pytest.raises(ValidationError, match="pca_pairs"):
            validate_config({"report": {"pca_pairs": [["only-one"]]}})

    def test_user_values_override_defaults(self):
        cfg = validate_config({"embed": {"dim": 32}, "meta": {"trees": 10}})
        assert cfg["embed"]["dim"] == 32
        assert cfg["meta"]["trees"] == 10
        assert cfg["embed"]["window"] == DEFAULT_CONFIG["embed"]["window"]


class TestLoad:
    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seed": 5, "embed": {"dim": 8}}))
        cfg = load_config(path)
        assert cfg["seed"] == 5
        assert cfg["embed"]["dim"] == 8

    def test_missing_file_is_validation_error(self, tmp_path):
        with pytest.raises(ValidationError, match="config"):
            load_config(tmp_path / "nope.json")

    def test_bad_json_is_validation_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError, match="JSON"):
            load_config(path)


class TestResolve:
    def test_fills_every_stage_seed(self):
        resolved = resolve_config(validate_config({"seed": 9}))
        for stage in SEEDED:
            assert resolved[stage]["seed"] == child_seed(9, "stage", stage)
        for stage in set(STAGES) - set(SEEDED):
            assert "seed" not in resolved[stage], stage

    def test_explicit_stage_seed_kept(self):
        resolved = resolve_config(validate_config({"seed": 9, "embed": {"seed": 123}}))
        assert resolved["embed"]["seed"] == 123
        assert resolved["adapt"]["seed"] == child_seed(9, "stage", "adapt")

    def test_seed_override_wins(self):
        resolved = resolve_config(validate_config({"seed": 9}), seed_override=42)
        assert resolved["seed"] == 42
        assert resolved["embed"]["seed"] == child_seed(42, "stage", "embed")

    def test_resolution_is_idempotent(self):
        once = resolve_config(validate_config({"seed": 9}))
        assert resolve_config(once) == once


class TestHashes:
    def base(self):
        return resolve_config(validate_config({"seed": 1}))

    def test_hash_is_stable(self):
        assert config_hash(self.base()) == config_hash(self.base())

    def test_any_change_changes_config_hash(self):
        other = resolve_config(validate_config({"seed": 1, "embed": {"dim": 32}}))
        assert config_hash(other) != config_hash(self.base())
