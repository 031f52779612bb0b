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

import jsonschema
import yaml

from . import encoder
from .ensemble import ensemble_policy
from .errors import ConfigError

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
            "properties": {
                "backends": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "object",
                        "required": ["key"],
                        "additionalProperties": False,
                        "properties": {
                            "key": {"type": "string"},
                            "max_sequence_tokens": {"type": "integer", "minimum": 1},
                            "hyperparams": _HP_SCHEMA,
                        },
                    },
                },
                "hyperparams": _HP_SCHEMA,
            },
        },
        "ensemble": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "mode": {"enum": ["single", "majority", "average"]},
                "weights": {"type": "array", "items": {"type": "number", "minimum": 0}},
            },
        },
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
        "augment": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "enabled": {"type": "boolean"},
                "registry": {"type": "string"},
                "direct_sources": {"type": "array", "items": {"type": "string"}},
                "pseudo_sources": {"type": "array", "items": {"type": "string"}},
                "confidence_threshold": {"type": "number", "minimum": 0, "maximum": 1},
            },
        },
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


def _apply_env_overrides(cfg: dict) -> None:
    for name, value in os.environ.items():
        if name.startswith(ENV_PATH_PREFIX) and value:
            cfg.setdefault("paths", {})[name[len(ENV_PATH_PREFIX):].lower()] = value


def validate_config(cfg: dict, base_dir: Path) -> dict:
    """Schema-check, apply env overrides, resolve paths, verify inputs exist."""
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a mapping")
    _apply_env_overrides(cfg)
    try:
        jsonschema.validate(cfg, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        location = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError(f"config invalid at {location}: {exc.message}") from None

    known = encoder.backend_keys()
    for entry in cfg["encoder"]["backends"]:
        if entry["key"] not in known:
            raise ConfigError(
                f"unknown backend key {entry['key']!r}; registered: {', '.join(known)}"
            )
        if "hyperparams" not in entry and "hyperparams" not in cfg["encoder"]:
            raise ConfigError(
                f"backend {entry['key']!r} has no hyperparams and no default is set"
            )

    ensemble_cfg = cfg.get("ensemble", {})
    # An omitted mode means 'single' here, so several backends need an explicit vote mode.
    n_backends = len(cfg["encoder"]["backends"])
    ensemble_policy(n_backends, ensemble_cfg.get("mode", "single"), ensemble_cfg.get("weights"))

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
    report_cfg = cfg.get("report", {})
    if report_cfg.get("baselines"):
        report_cfg["baselines"] = resolve(report_cfg["baselines"])
    return cfg


def load_config(path: str | Path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        cfg = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file is not valid YAML/JSON: {exc}") from None
    return validate_config(cfg, path.parent.resolve())


def config_hash(cfg: dict, seed: int, version: str, input_hashes: dict[str, str | None]) -> str:
    """Stable run id: hash of the config snapshot, seed, version and input file hashes."""
    payload = json.dumps(
        {"config": cfg, "seed": seed, "version": version, "inputs": input_hashes}, sort_keys=True
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]
