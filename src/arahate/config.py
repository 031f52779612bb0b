"""Declarative run configuration: shapes, validation and environment overrides.

One YAML (or JSON) file captures every knob of a run, with sections mirroring
the pipeline stages. Environment variables may override entries of the
``paths`` section only (``ARAHATE_PATH_<NAME>``); everything else comes from
the file so a run is fully reproducible from its config snapshot.

A config is checked in two steps. ``check_shape`` holds it against the shape
table below: which keys each section takes, which are required, and each
value's JSON type. ``validate_config`` then builds the objects that use the
values, and each of them states its own range rules: ``HyperParams``,
``EncoderSpec``, ``ensemble_policy``, ``SearchGrid``, ``AugmentPlan``,
``NormalizationConfig`` and ``FoldPlan``.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import os
from pathlib import Path
from typing import Mapping

from . import encoder
from .augment import AugmentPlan
from .classifiers import Classifier
from .corpus import load_yaml
from .ensemble import ensemble_policy
from .errors import ConfigError
from .evaluate import FoldPlan, stratified_folds
from .normalize import NormalizationConfig
from .tune import SearchGrid

ENV_PATH_PREFIX = "ARAHATE_PATH_"

# Shapes. A dict is a mapping that takes only its listed keys, and a key
# ending in "!" is required. A one-item list is a list of that shape, a tuple
# is one of its values, and int / float / str / bool are JSON's integer /
# number / string / boolean.
_HYPERPARAMS = {"epochs!": int, "batch_size!": int, "learning_rate!": float, "seed": int}
# An `--hp` file and a labeler backend's hyperparams may omit any field.
PARTIAL_HYPERPARAMS = {key.rstrip("!"): kind for key, kind in _HYPERPARAMS.items()}


def _backends(hyperparams: dict) -> list:
    return [{"key!": str, "max_sequence_tokens": int, "hyperparams": hyperparams}]


_ENSEMBLE = {"mode": str, "weights": [float]}
_AUGMENT = {
    "enabled": bool,
    "registry": str,
    "direct_sources": [str],
    "pseudo_sources": [str],
    "confidence_threshold": float,
}
# A `tune --grid` file is a `tune` section.
GRID_SHAPE = {
    "enabled": bool,
    "epochs_axis": [int],
    "batch_axis": [int],
    "lr_axis": [float],
    "initial": _HYPERPARAMS,
}
CONFIG_SHAPE = {
    "run_name": str,
    "seed": int,
    "paths!": {"data!": str, "stopwords": str, "out_root": str},
    "normalize": {"repeat_collapse_len": int, "strip_non_arabic": bool},
    "encoder!": {"backends!": _backends(_HYPERPARAMS), "hyperparams": _HYPERPARAMS},
    "ensemble": _ENSEMBLE,
    "tune": GRID_SHAPE,
    "augment": _AUGMENT,
    "evaluate!": {"folds": int},
    "report": {"enabled": bool, "baselines": str, "format": ("markdown", "csv")},
}
# An `augment --plan` file is an `augment` section plus the labeler.
PLAN_SHAPE = {**_AUGMENT, "labeler": {"backends!": _backends(PARTIAL_HYPERPARAMS), **_ENSEMBLE}}

_JSON_TYPES = {int: "integer", float: "number", str: "string", bool: "boolean"}


def _is(value, kind: type) -> bool:
    """JSON's type rules: 1.0 is an integer, and a boolean is neither an integer nor a number."""
    if isinstance(value, bool) or kind is bool:
        return isinstance(value, bool) and kind is bool
    if kind is int:
        return isinstance(value, int) or isinstance(value, float) and value.is_integer()
    if kind is float:
        return isinstance(value, numbers.Number)
    return isinstance(value, kind)


def check_shape(data, shape, what: str, path: tuple = ()) -> None:
    """Raise ConfigError naming the first place where ``data`` breaks ``shape``."""

    def fail(message: str):
        location = "/".join(str(p) for p in path) or "<root>"
        raise ConfigError(f"{what} invalid at {location}: {message}")

    if isinstance(shape, dict):
        if not isinstance(data, dict):
            fail(f"{data!r} is not a mapping")
        keys = {key.rstrip("!"): key for key in shape}
        for name in data:
            if name not in keys:
                fail(f"unexpected key {name!r}")
        for name, key in keys.items():
            if name in data:
                check_shape(data[name], shape[key], what, (*path, name))
            elif key.endswith("!"):
                fail(f"{name!r} is required")
    elif isinstance(shape, list):
        if not isinstance(data, list):
            fail(f"{data!r} is not a list")
        for index, item in enumerate(data):
            check_shape(item, shape[0], what, (*path, index))
    elif isinstance(shape, tuple):
        if data not in shape:
            fail(f"{data!r} is not one of {list(shape)}")
    elif not _is(data, shape):
        fail(f"{data!r} is not of type {_JSON_TYPES[shape]!r}")


def read_yaml(path: str | Path, what: str, shape=None):
    """Parse a YAML/JSON file (an empty one reads as {}) and check it against ``shape`` if given."""
    data = load_yaml(path, what, ConfigError)
    if shape is not None:
        check_shape(data, shape, f"{what} {path}")
    return data


def normalization_config(cfg: Mapping) -> NormalizationConfig:
    """Normalization options from a run config's ``normalize`` section and ``paths.stopwords``."""
    return NormalizationConfig.load(cfg.get("paths", {}).get("stopwords"), **cfg.get("normalize", {}))


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


def _folds(cfg: Mapping) -> int:
    return cfg.get("evaluate", {}).get("folds", 10)


def fold_plan(cfg: Mapping, rows, seed: int) -> FoldPlan:
    """The stratified fold plan of ``rows`` with a run config's ``evaluate.folds`` folds (10 by default)."""
    return stratified_folds(rows, k=_folds(cfg), seed=seed)


def load_plan(path: str | Path, default_seed: int = 0) -> AugmentPlan:
    """Read an `augment --plan` file: an ``augment`` section plus the labeler.

    Labeler backend i's seed is its explicit seed, else ``default_seed`` + i.
    """
    data = read_yaml(path, "augmentation plan", PLAN_SHAPE)
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


def validate_config(cfg: dict, base_dir: Path, seed: int | None = None) -> dict:
    """Apply env overrides, check the shape, build what the config describes, resolve paths, verify inputs exist.

    ``seed``, when given, overrides the config's seed, and the objects are
    built with it. A disabled ``tune`` or ``augment`` section is checked for
    shape only: its grid or plan is never built, so its range rules never run.
    """
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a mapping")
    _apply_env_overrides(cfg)
    check_shape(cfg, CONFIG_SHAPE, "config")

    seed = cfg.get("seed", 0) if seed is None else seed
    members = encoder_members(cfg, seed)
    ensemble_policy(len(members), **cfg.get("ensemble", {}))
    if cfg.get("tune", {}).get("enabled"):
        for _, hp in members:
            SearchGrid.from_mapping(cfg["tune"], hp)
    NormalizationConfig(**cfg.get("normalize", {}))
    FoldPlan(_folds(cfg), seed)

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


def load_config(path: str | Path, seed: int | None = None) -> dict:
    return validate_config(read_yaml(path, "config file"), Path(path).parent.resolve(), seed)


def config_hash(cfg: dict, seed: int, version: str, input_hashes: dict[str, str | None]) -> str:
    """Stable run id: hash of the config snapshot, seed, version and input file hashes."""
    payload = json.dumps(
        {"config": cfg, "seed": seed, "version": version, "inputs": input_hashes}, sort_keys=True
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]
