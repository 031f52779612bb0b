"""Resumable end-to-end experiment runs with persisted stage artifacts.

A run directory is addressed by a hash of its config snapshot, seed and the
contents of every input file, so re-running an unchanged config on unchanged
inputs resumes (completed stages are skipped via their completion markers)
while any config change or edited input lands in a fresh directory.
A stage counts as complete when its marker and all of its declared outputs
exist; deleting an output re-executes that stage and everything downstream.
No artifact embeds wall-clock state, so identical configs, seeds and inputs
reproduce byte-identical outputs with the toy backend.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import yaml

from . import __version__, augment as augment_mod, corpus as corpus_mod, encoder, report as report_mod, tune as tune_mod
from .classifiers import Classifier
from .config import config_hash
from .encoder import EncoderSpec, HyperParams, members_from_entries
from .ensemble import write_proba_csv
from .errors import ArahateError
from .evaluate import cross_validate, stratified_folds
from .normalize import NormalizationConfig, normalize_corpus

log = logging.getLogger(__name__)


class StageFailure(ArahateError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class Stage:
    name: str
    outputs: list[Path]
    run: Callable[[], None]

    def marker(self, run_dir: Path) -> Path:
        return run_dir / "stages" / f"{self.name}.ok"

    def complete(self, run_dir: Path) -> bool:
        return self.marker(run_dir).exists() and all(p.exists() for p in self.outputs)


class ExperimentRun:
    """Orchestrates ingest -> normalize -> (augment) -> (tune) -> train -> evaluate -> (report)."""

    def __init__(self, cfg: dict, out_root: str | Path, seed: int | None = None):
        self.cfg = cfg
        self.seed = seed if seed is not None else int(cfg.get("seed", 0))
        self.out_root = Path(out_root)
        self.input_hashes = {
            path: _sha256_file(Path(path)) if Path(path).exists() else None
            for path in self._input_paths()
        }
        self.run_id = config_hash(cfg, self.seed, __version__, self.input_hashes)
        self.run_dir = self.out_root / f"run-{self.run_id}"
        self._stage_status: dict[str, str] = {}

    # --- config helpers -------------------------------------------------

    def _input_paths(self) -> list[str]:
        """Every file a stage reads; a missing one is hashed as None and fails its stage."""
        paths = self.cfg["paths"]
        inputs = [paths["data"]] + ([paths["stopwords"]] if paths.get("stopwords") else [])
        augment_cfg = self.cfg.get("augment", {})
        if augment_cfg.get("enabled"):
            inputs.append(augment_cfg["registry"])
            try:
                inputs += [d.path for d in corpus_mod.load_registry(augment_cfg["registry"])]
            except (ArahateError, yaml.YAMLError):
                pass  # the normalize stage reads the registry again and records the failure
        report_cfg = self.cfg.get("report", {})
        if report_cfg.get("enabled") and report_cfg.get("baselines"):
            inputs.append(report_cfg["baselines"])
        return inputs

    def _normalization_config(self) -> NormalizationConfig:
        section = self.cfg.get("normalize", {})
        return NormalizationConfig.load(
            stopword_path=self.cfg["paths"].get("stopwords"),
            repeat_collapse_len=section.get("repeat_collapse_len", 2),
            strip_non_arabic=section.get("strip_non_arabic", True),
        )

    def _members(self) -> list[tuple[EncoderSpec, HyperParams]]:
        encoder_cfg = self.cfg["encoder"]
        return members_from_entries(encoder_cfg["backends"], self.seed, encoder_cfg.get("hyperparams"))

    def _tuned_members(self) -> list[tuple[EncoderSpec, HyperParams]]:
        members = self._members()
        best_path = self.run_dir / "tune" / "best.json"
        if not best_path.exists():
            return members
        best = json.loads(best_path.read_text(encoding="utf-8"))
        return [
            (spec, HyperParams.from_mapping(best[name], hp.seed) if best.get(name) else hp)
            for name, (spec, hp) in zip(self._member_names(), members)
        ]

    def _member_names(self) -> list[str]:
        # Artifact directory names; duplicate backend keys (e.g. three toy
        # members with different seeds) get an index suffix.
        keys = [entry["key"] for entry in self.cfg["encoder"]["backends"]]
        names = []
        for index, key in enumerate(keys):
            names.append(key if keys.count(key) == 1 else f"{key}-{index}")
        return names

    # --- stage artifact paths --------------------------------------------

    @property
    def normalized_base(self) -> Path:
        return self.run_dir / "normalized" / "base.jsonl"

    @property
    def augmented_corpus(self) -> Path:
        return self.run_dir / "augmented" / "corpus.jsonl"

    @property
    def metrics_path(self) -> Path:
        return self.run_dir / "metrics.json"

    def _evaluation_corpus_path(self) -> Path:
        if self.cfg.get("augment", {}).get("enabled"):
            return self.augmented_corpus
        return self.normalized_base

    # --- stages -----------------------------------------------------------

    def _stage_normalize(self) -> None:
        cfg = self._normalization_config()
        base = corpus_mod.read_jsonl(self.cfg["paths"]["data"], key="base")
        corpus_mod.write_jsonl(self.normalized_base, normalize_corpus(base, cfg))
        augment_cfg = self.cfg.get("augment", {})
        if augment_cfg.get("enabled"):
            for descriptor in corpus_mod.load_registry(augment_cfg["registry"]):
                rows = normalize_corpus(corpus_mod.load_dataset(descriptor), cfg)
                corpus_mod.write_jsonl(
                    self.run_dir / "normalized" / "sources" / f"{descriptor.key}.jsonl", rows
                )

    def _stage_augment(self) -> None:
        augment_cfg = self.cfg["augment"]
        base = corpus_mod.read_jsonl(self.normalized_base, key="base")
        datasets = {}
        for descriptor in corpus_mod.load_registry(augment_cfg["registry"]):
            rows = corpus_mod.read_jsonl(
                self.run_dir / "normalized" / "sources" / f"{descriptor.key}.jsonl",
                key=descriptor.key,
            )
            datasets[descriptor.key] = (descriptor, rows)
        plan = augment_mod.AugmentPlan(
            direct_sources=tuple(augment_cfg.get("direct_sources") or ()),
            pseudo_sources=tuple(augment_cfg.get("pseudo_sources") or ()),
            confidence_threshold=float(augment_cfg.get("confidence_threshold", 0.0)),
            # The labeler has no mode: several members vote by majority, which
            # takes no weights, so the run's ensemble section does not apply.
            labeler=augment_mod.LabelerPlan(members=tuple(self._members())),
        )
        merged, aug_report = augment_mod.build_augmented_corpus(base, plan, datasets)
        corpus_mod.write_jsonl(self.augmented_corpus, merged)
        aug_report.write_json(self.run_dir / "augmented" / "report.json")

    def _stage_tune(self) -> None:
        tune_cfg = self.cfg["tune"]
        data = corpus_mod.read_jsonl(self._evaluation_corpus_path())
        folds = self.cfg["evaluate"].get("folds", 10)
        fold_plan = stratified_folds(data, k=folds, seed=self.seed)
        protocol = tune_mod.make_cv_protocol(fold_plan)
        initial_cfg = tune_cfg.get("initial")
        best_map = {}
        for name, (spec, hp) in zip(self._member_names(), self._members()):
            # the member's seed wins over a seed in tune.initial
            initial = replace(HyperParams.from_mapping(initial_cfg), seed=hp.seed) if initial_cfg else hp
            grid = tune_mod.SearchGrid(
                epochs_axis=tuple(tune_cfg.get("epochs_axis", tune_mod.DEFAULT_EPOCHS_AXIS)),
                batch_axis=tuple(tune_cfg.get("batch_axis", tune_mod.DEFAULT_BATCH_AXIS)),
                lr_axis=tuple(tune_cfg.get("lr_axis", tune_mod.DEFAULT_LR_AXIS)),
                initial=initial,
            )
            best, trace = tune_mod.coordinate_search(spec, grid, data, protocol)
            tune_mod.write_trace_csv(self.run_dir / "tune" / f"{name}_trace.csv", trace)
            best_map[name] = {
                "epochs": best.epochs,
                "batch_size": best.batch_size,
                "learning_rate": best.learning_rate,
            }
        path = self.run_dir / "tune" / "best.json"
        path.write_text(json.dumps(best_map, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    def _stage_train(self) -> None:
        data = corpus_mod.read_jsonl(self._evaluation_corpus_path())
        trainable = [row for row in data if row.norm_text]
        for name, (spec, hp) in zip(self._member_names(), self._tuned_members()):
            model = encoder.fit(spec, hp, trainable)
            encoder.save_model(model, self.run_dir / "models" / name)
            matrix = encoder.predict_proba(
                model, [row.norm_text or "" for row in data], ids=[row.id for row in data]
            )
            write_proba_csv(self.run_dir / "predictions" / f"{name}.csv", matrix)

    def _stage_evaluate(self) -> None:
        data = corpus_mod.read_jsonl(self._evaluation_corpus_path())
        folds = self.cfg["evaluate"].get("folds", 10)
        fold_plan = stratified_folds(data, k=folds, seed=self.seed)
        ensemble_cfg = self.cfg.get("ensemble", {})
        classifier = Classifier(
            self._tuned_members(), ensemble_cfg.get("mode", "single"), ensemble_cfg.get("weights")
        )
        metrics = cross_validate(
            data, classifier.fit, fold_plan, seed=self.seed, config_hash=self.run_id
        )
        metrics.write_json(self.metrics_path)
        (self.run_dir / "folds.json").write_text(
            json.dumps(fold_plan.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )

    def _stage_report(self) -> None:
        report_cfg = self.cfg.get("report", {})
        baselines = report_mod.load_baselines(report_cfg.get("baselines"))
        fmt = report_cfg.get("format", "markdown")
        suffix = "md" if fmt == "markdown" else "csv"
        report_mod.write_report(
            self.run_dir / "report" / f"tables.{suffix}", [self.run_dir], baselines, fmt
        )

    def _stages(self) -> list[Stage]:
        stages = [Stage("normalize", [self.normalized_base], self._stage_normalize)]
        if self.cfg.get("augment", {}).get("enabled"):
            stages.append(
                Stage(
                    "augment",
                    [self.augmented_corpus, self.run_dir / "augmented" / "report.json"],
                    self._stage_augment,
                )
            )
        if self.cfg.get("tune", {}).get("enabled"):
            stages.append(Stage("tune", [self.run_dir / "tune" / "best.json"], self._stage_tune))
        stages.append(
            Stage(
                "train",
                [
                    self.run_dir / "models" / name / "manifest.txt"
                    for name in self._member_names()
                ],
                self._stage_train,
            )
        )
        stages.append(Stage("evaluate", [self.metrics_path], self._stage_evaluate))
        if self.cfg.get("report", {}).get("enabled", False):
            fmt = self.cfg.get("report", {}).get("format", "markdown")
            suffix = "md" if fmt == "markdown" else "csv"
            stages.append(
                Stage("report", [self.run_dir / "report" / f"tables.{suffix}"], self._stage_report)
            )
        return stages

    def _write_manifest(self) -> None:
        stopwords = self.cfg["paths"].get("stopwords")
        manifest = {
            "run_id": self.run_id,
            "tool_version": __version__,
            "seed": self.seed,
            "config": self.cfg,
            "input_hashes": self.input_hashes,
            "stopword_sha256": self.input_hashes[stopwords] if stopwords else None,
            "backends": [entry["key"] for entry in self.cfg["encoder"]["backends"]],
            "stages": self._stage_status,
        }
        (self.run_dir / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )

    def execute(self) -> Path:
        """Run (or resume) every configured stage; returns the run directory."""
        self.run_dir.mkdir(parents=True, exist_ok=True)
        (self.run_dir / "stages").mkdir(exist_ok=True)
        stages = self._stages()
        rerun_downstream = False
        for stage in stages:
            if not rerun_downstream and stage.complete(self.run_dir):
                log.info("stage %s: already complete, skipping", stage.name)
                self._stage_status[stage.name] = "complete"
                continue
            rerun_downstream = True
            log.info("stage %s: running", stage.name)
            stage.marker(self.run_dir).unlink(missing_ok=True)
            try:
                stage.run()
            except Exception as exc:
                self._stage_status[stage.name] = "failed"
                failure = {"stage": stage.name, "error": str(exc)}
                (self.run_dir / "stages" / f"{stage.name}.failed").write_text(
                    json.dumps(failure, indent=2) + "\n", encoding="utf-8"
                )
                self._write_manifest()
                raise StageFailure(stage.name, exc) from exc
            (self.run_dir / "stages" / f"{stage.name}.failed").unlink(missing_ok=True)
            stage.marker(self.run_dir).write_text(self.run_id + "\n", encoding="utf-8")
            self._stage_status[stage.name] = "complete"
        self._write_manifest()
        return self.run_dir


def run_experiment(cfg: dict, out_root: str | Path, seed: int | None = None) -> Path:
    return ExperimentRun(cfg, out_root, seed=seed).execute()
