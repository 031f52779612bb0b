"""Declarative run configuration: schema, validation and environment overrides.

One YAML (or JSON) file captures every knob of a run, with sections mirroring
the pipeline stages. Environment variables may override entries of the
``paths`` section only (``ARAHATE_PATH_<NAME>``); everything else comes from
the file so a run is fully reproducible from its config snapshot.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Mapping

import jsonschema
import yaml

from . import encoder
from .augment import AugmentPlan
from .classifiers import Classifier
from .ensemble import ensemble_policy
from .errors import ConfigError
from .evaluate import FoldPlan, stratified_folds
from .normalize import NormalizationConfig
from .tune import SearchGrid

ENV_PATH_PREFIX = "ARAHATE_PATH_"

_HP_SCHEMA = {
    "type": "object",
    "required": ["epochs", "batch_size", "learning_rate"],
    "additionalProperties": False,
    "properties": {
        "epochs": {"type": "integer", "minimum": 1},
        "batch_size": {"type": "integer", "minimum": 1},
        "learning_rate": {"type": "number", "exclusiveMinimum": 0},
        "seed": {"type": "integer"},
    },
}

_AXIS = lambda item: {"type": "array", "minItems": 1, "items": item}  # noqa: E731


def _backends(hyperparams: dict) -> dict:
    entry = {"key": {"type": "string"}, "max_sequence_tokens": {"type": "integer", "minimum": 1}}
    return _AXIS(
        {
            "type": "object",
            "required": ["key"],
            "additionalProperties": False,
            "properties": {**entry, "hyperparams": hyperparams},
        }
    )


_ENSEMBLE = {
    "mode": {"enum": ["single", "majority", "average"]},
    "weights": {"type": "array", "items": {"type": "number", "minimum": 0}},
}

_AUGMENT_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "enabled": {"type": "boolean"},
        "registry": {"type": "string"},
        "direct_sources": {"type": "array", "items": {"type": "string"}},
        "pseudo_sources": {"type": "array", "items": {"type": "string"}},
        "confidence_threshold": {"type": "number", "minimum": 0, "maximum": 1},
    },
}

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["paths", "encoder", "evaluate"],
    "additionalProperties": False,
    "properties": {
        "run_name": {"type": "string"},
        "seed": {"type": "integer"},
        "paths": {
            "type": "object",
            "required": ["data"],
            "additionalProperties": False,
            "properties": {
                "data": {"type": "string"},
                "stopwords": {"type": "string"},
                "out_root": {"type": "string"},
            },
        },
        "normalize": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "repeat_collapse_len": {"type": "integer", "minimum": 1},
                "strip_non_arabic": {"type": "boolean"},
            },
        },
        "encoder": {
            "type": "object",
            "required": ["backends"],
            "additionalProperties": False,
            "properties": {"backends": _backends(_HP_SCHEMA), "hyperparams": _HP_SCHEMA},
        },
        "ensemble": {"type": "object", "additionalProperties": False, "properties": _ENSEMBLE},
        "tune": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "enabled": {"type": "boolean"},
                "epochs_axis": _AXIS({"type": "integer", "minimum": 1}),
                "batch_axis": _AXIS({"type": "integer", "minimum": 1}),
                "lr_axis": _AXIS({"type": "number", "exclusiveMinimum": 0}),
                "initial": _HP_SCHEMA,
            },
        },
        "augment": _AUGMENT_SCHEMA,
        "evaluate": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"folds": {"type": "integer", "minimum": 2}},
        },
        "report": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "enabled": {"type": "boolean"},
                "baselines": {"type": "string"},
                "format": {"enum": ["markdown", "csv"]},
            },
        },
    },
}

# A `tune --grid` file is a `tune` section. An `augment --plan` file is an
# `augment` section plus the labeler; labeler hyperparams may omit fields.
GRID_SCHEMA = CONFIG_SCHEMA["properties"]["tune"]
PLAN_SCHEMA = {
    **_AUGMENT_SCHEMA,
    "properties": {
        **_AUGMENT_SCHEMA["properties"],
        "labeler": {
            "type": "object",
            "required": ["backends"],
            "additionalProperties": False,
            "properties": {"backends": _backends({"type": "object"}), **_ENSEMBLE},
        },
    },
}


def _check_schema(data, schema: dict, what: str) -> None:
    """Raise ConfigError naming the first place where ``data`` breaks ``schema``."""
    try:
        jsonschema.validate(data, schema)
    except jsonschema.ValidationError as exc:
        location = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError(f"{what} invalid at {location}: {exc.message}") from None


def read_yaml(path: str | Path, what: str, schema: dict | None = None):
    """Parse a YAML/JSON file (an empty one reads as {}) and check it against ``schema`` if given."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"{what} not found: {path}")
    try:
        data = yaml.safe_load(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError:
        raise ConfigError(f"{what} {path}: not UTF-8 text") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"{what} is not valid YAML/JSON: {exc}") from None
    data = {} if data is None else data
    if schema is not None:
        _check_schema(data, schema, f"{what} {path}")
    return data


def normalization_config(cfg: Mapping) -> NormalizationConfig:
    """Normalization options from a run config's ``normalize`` section and ``paths.stopwords``."""
    section = cfg.get("normalize", {})
    _check_schema(section, CONFIG_SCHEMA["properties"]["normalize"], "normalize options")
    return NormalizationConfig.load(
        cfg.get("paths", {}).get("stopwords"),
        repeat_collapse_len=section.get("repeat_collapse_len", 2),
        strip_non_arabic=section.get("strip_non_arabic", True),
    )


def encoder_members(
    cfg: Mapping, seed: int, require_hyperparams: bool = True
) -> list[tuple[encoder.EncoderSpec, encoder.HyperParams]]:
    """(spec, hyperparams) per backend of a run config's ``encoder`` section.

    Unless ``require_hyperparams`` is False, every backend needs hyperparams
    of its own or the section's shared ones.
    """
    encoder_cfg = cfg.get("encoder", {})
    backends = encoder_cfg.get("backends")
    if not backends:
        raise ConfigError("no backend given (--backend or encoder.backends)")
    for entry in backends:
        if require_hyperparams and "hyperparams" not in entry and "hyperparams" not in encoder_cfg:
            raise ConfigError(
                f"backend {entry['key']!r} has no hyperparams and no default is set (--hp or encoder.hyperparams)"
            )
    return encoder.members_from_entries(backends, seed, encoder_cfg.get("hyperparams"))


def fold_plan(cfg: Mapping, rows, seed: int) -> FoldPlan:
    """The stratified fold plan of ``rows`` with a run config's ``evaluate.folds`` folds (10 by default)."""
    return stratified_folds(rows, k=cfg.get("evaluate", {}).get("folds", 10), seed=seed)


def load_plan(path: str | Path, default_seed: int = 0) -> AugmentPlan:
    """Read an `augment --plan` file: an ``augment`` section plus the labeler.

    Labeler backend i's seed is its explicit seed, else ``default_seed`` + i.
    """
    data = read_yaml(path, "augmentation plan", PLAN_SCHEMA)
    labeler = data.get("labeler")
    if labeler is not None:
        members = encoder.members_from_entries(labeler["backends"], default_seed)
        labeler = Classifier(members, labeler.get("mode"), labeler.get("weights") or None)
    if "registry" in data:
        data["registry"] = str(Path(path).parent / data["registry"])
    return AugmentPlan.from_mapping(data, labeler)


def _apply_env_overrides(cfg: dict) -> None:
    for name, value in os.environ.items():
        if name.startswith(ENV_PATH_PREFIX) and value:
            cfg.setdefault("paths", {})[name[len(ENV_PATH_PREFIX):].lower()] = value


def validate_config(cfg: dict, base_dir: Path) -> dict:
    """Schema-check, apply env overrides, resolve paths, verify inputs exist."""
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a mapping")
    _apply_env_overrides(cfg)
    _check_schema(cfg, CONFIG_SCHEMA, "config")

    members = encoder_members(cfg, 0)
    ensemble_policy(len(members), **cfg.get("ensemble", {}))
    if cfg.get("tune", {}).get("enabled"):
        for _, hp in members:
            SearchGrid.from_mapping(cfg["tune"], hp)

    def resolve(p: str) -> str:
        path = Path(p)
        return str(path if path.is_absolute() else base_dir / path)

    paths = cfg["paths"]
    for key in list(paths):
        paths[key] = resolve(paths[key])
    if not Path(paths["data"]).exists():
        raise ConfigError(f"paths.data file not found: {paths['data']}")
    if "stopwords" in paths and not Path(paths["stopwords"]).exists():
        raise ConfigError(f"paths.stopwords file not found: {paths['stopwords']}")

    augment_cfg = cfg.get("augment", {})
    if augment_cfg.get("enabled"):
        if not augment_cfg.get("registry"):
            raise ConfigError("augment.enabled requires augment.registry")
        augment_cfg["registry"] = resolve(augment_cfg["registry"])
        if not Path(augment_cfg["registry"]).exists():
            raise ConfigError(f"augment.registry file not found: {augment_cfg['registry']}")
        if not (augment_cfg.get("direct_sources") or augment_cfg.get("pseudo_sources")):
            raise ConfigError("augment.enabled requires at least one source list")
        AugmentPlan.from_mapping(augment_cfg, None)  # overlapping sources raise here
    report_cfg = cfg.get("report", {})
    if report_cfg.get("baselines"):
        report_cfg["baselines"] = resolve(report_cfg["baselines"])
    return cfg


def load_config(path: str | Path) -> dict:
    return validate_config(read_yaml(path, "config file"), Path(path).parent.resolve())


def config_hash(cfg: dict, seed: int, version: str, input_hashes: dict[str, str | None]) -> str:
    """Stable run id: hash of the config snapshot, seed, version and input file hashes."""
    payload = json.dumps(
        {"config": cfg, "seed": seed, "version": version, "inputs": input_hashes}, sort_keys=True
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]
