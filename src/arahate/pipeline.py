"""Resumable end-to-end experiment runs with persisted stage artifacts.

A run directory is addressed by a hash of its config snapshot, seed and the
contents of every input file, so re-running an unchanged config on unchanged
inputs resumes (completed stages are skipped via their completion markers)
while any config change or edited input lands in a fresh directory.
A stage counts as complete when its marker and all of its declared outputs
exist; deleting an output re-executes that stage and everything downstream.
Within one process a stage hands the corpora it writes to the stages after
it, so a corpus file is read back only by a stage whose upstream was skipped.
No artifact embeds wall-clock state, so identical configs, seeds and inputs
reproduce byte-identical outputs with the toy backend.

A run keeps every corpus it builds until it ends, tens of thousands of rows
when augmentation pseudo-labels external datasets, and the cyclic garbage
collector would scan them again and again. So ``run_experiment`` runs under
``paused_gc``. That is safe because the rows and the stages' data hold no
reference cycles: reference counting frees everything a run drops, and a
cycle made anyway (a caught exception's traceback) is collected by the
normal thresholds once the run ends.
"""

from __future__ import annotations

import gc
import hashlib
import json
import logging
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterator

from . import __version__, augment as augment_mod, corpus as corpus_mod, encoder, report as report_mod, tune as tune_mod
from .classifiers import Classifier
from .config import config_hash, encoder_members, fold_plan, normalization_config
from .corpus import DatasetDescriptor, LabeledText
from .encoder import EncoderSpec, HyperParams
from .ensemble import write_proba_csv
from .errors import ArahateError
from .evaluate import MetricsReport, cross_validate
from .normalize import normalize_corpus

log = logging.getLogger(__name__)


class StageFailure(ArahateError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


@contextmanager
def paused_gc() -> Iterator[None]:
    """Turn automatic cyclic collection off for the block, then restore the caller's setting.

    Collection is turned back on when the block ends, also by an exception,
    unless the caller had already turned it off; so pauses nest.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


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
        # The augment registry's datasets (none when augment is off), parsed
        # once; an unreadable registry has none, and its error fails normalize.
        self._registry: list[DatasetDescriptor] = []
        self._registry_error: ArahateError | None = None
        if cfg.get("augment", {}).get("enabled"):
            try:
                self._registry = corpus_mod.load_registry(cfg["augment"]["registry"])
            except ArahateError as exc:
                self._registry_error = exc
        self.input_hashes = {
            path: _sha256_file(Path(path)) if Path(path).is_file() else None
            for path in self._input_paths()
        }
        self.run_id = config_hash(cfg, self.seed, __version__, self.input_hashes)
        self.run_dir = self.out_root / f"run-{self.run_id}"
        self._stage_status: dict[str, str] = {}
        # (spec, winner) -> the tune stage's CV report of that winner, when
        # tune ran in this process: the evaluate stage of one tuned member
        # reuses it instead of cross-validating the same model again.
        self._tuned_cv: dict[tuple[EncoderSpec, HyperParams], MetricsReport] = {}
        # Artifact path -> the rows this process wrote or read there. Rows are
        # never mutated, so the stages that read them can share them.
        self._rows: dict[Path, list[LabeledText]] = {}

    # --- config helpers -------------------------------------------------

    def _input_paths(self) -> list[str]:
        """Every file a stage reads; a missing one or a non-file is hashed as None and fails its stage."""
        paths = self.cfg["paths"]
        inputs = [paths["data"]] + ([paths["stopwords"]] if paths.get("stopwords") else [])
        if self.cfg.get("augment", {}).get("enabled"):
            inputs.append(self.cfg["augment"]["registry"])
            inputs += [d.path for d in self._registry]
        report_cfg = self.cfg.get("report", {})
        if report_cfg.get("enabled") and report_cfg.get("baselines"):
            inputs.append(report_cfg["baselines"])
        return inputs

    def _tuned_members(self) -> list[tuple[EncoderSpec, HyperParams]]:
        members = encoder_members(self.cfg, self.seed)
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

    def normalized_source(self, key: str) -> Path:
        return self.run_dir / "normalized" / "sources" / f"{key}.jsonl"

    @property
    def augmented_corpus(self) -> Path:
        return self.run_dir / "augmented" / "corpus.jsonl"

    def trace_path(self, name: str) -> Path:
        return self.run_dir / "tune" / f"{name}_trace.csv"

    def predictions_path(self, name: str) -> Path:
        return self.run_dir / "predictions" / f"{name}.csv"

    @property
    def metrics_path(self) -> Path:
        return self.run_dir / "metrics.json"

    @property
    def report_path(self) -> Path:
        suffix = "md" if self.cfg.get("report", {}).get("format", "markdown") == "markdown" else "csv"
        return self.run_dir / "report" / f"tables.{suffix}"

    def _evaluation_corpus_path(self) -> Path:
        if self.cfg.get("augment", {}).get("enabled"):
            return self.augmented_corpus
        return self.normalized_base

    # --- corpus hand-off between stages ----------------------------------

    def _write_rows(self, path: Path, rows: list[LabeledText]) -> None:
        corpus_mod.write_jsonl(path, rows)
        self._rows[path] = rows

    def _read_rows(self, path: Path) -> list[LabeledText]:
        """The rows this process wrote to or read from ``path``, else the file's rows."""
        if path not in self._rows:
            self._rows[path] = corpus_mod.read_jsonl(path)
        return self._rows[path]

    # --- stages -----------------------------------------------------------

    def _stage_normalize(self) -> None:
        cfg = normalization_config(self.cfg)
        base = normalize_corpus(corpus_mod.read_jsonl(self.cfg["paths"]["data"], key="base"), cfg)
        self._write_rows(self.normalized_base, base)
        if self._registry_error is not None:
            raise self._registry_error
        for descriptor in self._registry:
            rows = normalize_corpus(corpus_mod.load_dataset(descriptor), cfg)
            self._write_rows(self.normalized_source(descriptor.key), rows)
        # The base rows are exactly the gold rows that evaluation folds, so a
        # class with fewer of them than folds fails here, before any fit.
        fold_plan(self.cfg, base, self.seed)

    def _stage_augment(self) -> None:
        augment_cfg = self.cfg["augment"]
        base = self._read_rows(self.normalized_base)
        datasets = {
            descriptor.key: (descriptor, self._read_rows(self.normalized_source(descriptor.key)))
            for descriptor in self._registry
        }
        # The labeler has no mode: several members vote by majority, which
        # takes no weights, so the run's ensemble section does not apply.
        labeler = Classifier(encoder_members(self.cfg, self.seed))
        plan = augment_mod.AugmentPlan.from_mapping(augment_cfg, labeler)
        merged, aug_report = augment_mod.build_augmented_corpus(base, plan, datasets)
        self._write_rows(self.augmented_corpus, merged)
        aug_report.write_json(self.run_dir / "augmented" / "report.json")

    def _stage_tune(self) -> None:
        tune_cfg = self.cfg["tune"]
        data = self._read_rows(self._evaluation_corpus_path())
        protocol = tune_mod.make_cv_protocol(fold_plan(self.cfg, data, self.seed))
        best_map = {}
        for name, (spec, hp) in zip(self._member_names(), encoder_members(self.cfg, self.seed)):
            grid = tune_mod.SearchGrid.from_mapping(tune_cfg, hp)
            best, trace = tune_mod.coordinate_search(spec, grid, data, protocol)
            tune_mod.write_trace_csv(self.trace_path(name), trace)
            best_map[name] = best.fields()
            self._tuned_cv[spec, best] = next(entry.detail for entry in trace if entry.hp == best)
        corpus_mod.write_json(self.run_dir / "tune" / "best.json", best_map)

    def _stage_train(self) -> None:
        data = self._read_rows(self._evaluation_corpus_path())
        trainable = [row for row in data if row.norm_text]
        models = encoder.fit_many([(spec, hp, trainable) for spec, hp in self._tuned_members()])
        for name, model in zip(self._member_names(), models):
            if isinstance(model, ArahateError):
                raise model
            encoder.save_model(model, self.run_dir / "models" / name)
            matrix = encoder.predict_proba(
                model, [row.norm_text or "" for row in data], ids=[row.id for row in data]
            )
            write_proba_csv(self.predictions_path(name), matrix)

    def _stage_evaluate(self) -> None:
        data = self._read_rows(self._evaluation_corpus_path())
        folds = fold_plan(self.cfg, data, self.seed)
        members = self._tuned_members()
        classifier = Classifier(members, **self.cfg.get("ensemble", {}))
        if classifier.mode == "single" and members[0] in self._tuned_cv:
            # Same member, corpus and fold plan as the tune stage's CV of its winner.
            metrics = replace(self._tuned_cv[members[0]], seed=self.seed, config_hash=self.run_id)
        else:
            metrics = cross_validate(data, classifier.fit_many, folds, seed=self.seed, config_hash=self.run_id)
        metrics.write_json(self.metrics_path)
        corpus_mod.write_json(self.run_dir / "folds.json", folds.to_dict())

    def _stage_report(self) -> None:
        report_cfg = self.cfg.get("report", {})
        baselines = report_mod.load_baselines(report_cfg.get("baselines"))
        report_mod.write_report(
            self.report_path, [self.run_dir], baselines, report_cfg.get("format", "markdown")
        )

    def _stages(self) -> list[Stage]:
        normalized = [self.normalized_base] + [self.normalized_source(d.key) for d in self._registry]
        stages = [Stage("normalize", normalized, self._stage_normalize)]
        if self.cfg.get("augment", {}).get("enabled"):
            stages.append(
                Stage(
                    "augment",
                    [self.augmented_corpus, self.run_dir / "augmented" / "report.json"],
                    self._stage_augment,
                )
            )
        names = self._member_names()
        if self.cfg.get("tune", {}).get("enabled"):
            tuned = [self.run_dir / "tune" / "best.json"] + [self.trace_path(name) for name in names]
            stages.append(Stage("tune", tuned, self._stage_tune))
        trained = [self.predictions_path(name) for name in names] + [
            self.run_dir / "models" / name / artifact
            for name, entry in zip(names, self.cfg["encoder"]["backends"])
            for artifact in encoder.get_backend(entry["key"]).artifacts
        ]
        stages.append(Stage("train", trained, self._stage_train))
        stages.append(Stage("evaluate", [self.metrics_path, self.run_dir / "folds.json"], self._stage_evaluate))
        if self.cfg.get("report", {}).get("enabled", False):
            stages.append(Stage("report", [self.report_path], self._stage_report))
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
        corpus_mod.write_json(self.run_dir / "manifest.json", manifest)

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
                corpus_mod.write_json(self.run_dir / "stages" / f"{stage.name}.failed", failure)
                self._write_manifest()
                raise StageFailure(stage.name, exc) from exc
            (self.run_dir / "stages" / f"{stage.name}.failed").unlink(missing_ok=True)
            with corpus_mod.atomic_open(stage.marker(self.run_dir)) as fh:
                fh.write(self.run_id + "\n")
            self._stage_status[stage.name] = "complete"
        self._write_manifest()
        return self.run_dir


def run_experiment(cfg: dict, out_root: str | Path, seed: int | None = None) -> Path:
    with paused_gc():
        return ExperimentRun(cfg, out_root, seed=seed).execute()
