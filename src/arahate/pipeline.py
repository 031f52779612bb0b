"""Resumable end-to-end experiment runs with persisted stage artifacts.

A run directory is addressed by a hash of its config snapshot, seed and the
contents of every input file, so re-running an unchanged config on unchanged
inputs resumes (completed stages are skipped via their completion markers)
while any config change or edited input lands in a fresh directory.
``ExperimentRun._stages()`` names every artifact path in the run directory,
and each stage receives the paths it reads and writes as arguments.
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

A run also keeps the memory it frees in the heap (``retained_heap``).
Hashing, normalization and the lockstep fits allocate short-lived arrays of
a few MiB, and glibc's dynamic thresholds serve many of them with fresh
mappings that are unmapped when freed, or trim them off the heap top, so
the next array of that size faults its pages in again. On glibc the scope
fixes both thresholds at the largest values the dynamic ones reach on
64-bit: 32 MiB for mmap, 64 MiB for trimming. Fixing only one turns the
dynamic adjustment of both off and leaves the other at its small start
value, which faults more than the defaults do. ``mallopt`` has no getter,
so the thresholds stay set after the run; the scope's end gives the free
pages back with ``malloc_trim(0)``. The scope also caps glibc at one
arena, so the threads a large lockstep fit starts allocate from the main
heap, whose freed memory the thresholds keep, instead of each growing an
arena of its own that adds to the peak; the cap too stays set after the
run. Where the C library has no ``mallopt`` the scope does nothing. Freed
memory only changes where later allocations land, so no output bit depends
on it.
"""

from __future__ import annotations

import ctypes
import gc
import hashlib
import json
import logging
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cached_property, partial
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


# glibc's mallopt parameters, and the largest values its dynamic thresholds reach on 64-bit.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8
_MMAP_THRESHOLD_MAX = 32 << 20
_TRIM_THRESHOLD_MAX = 2 * _MMAP_THRESHOLD_MAX


def _glibc() -> ctypes.CDLL | None:
    """The process's C library when it has glibc's ``mallopt`` and ``malloc_trim``, else None."""
    try:
        libc = ctypes.CDLL(None)
        mallopt, malloc_trim = libc.mallopt, libc.malloc_trim
    except (OSError, TypeError, AttributeError):  # Windows cannot load None; macOS and musl lack the calls
        return None
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    malloc_trim.argtypes, malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int
    return libc


@contextmanager
def retained_heap() -> Iterator[None]:
    """Keep freed memory in the heap for reuse during the block; give free pages back when it ends.

    On glibc this fixes the mmap and trim thresholds at 32 and 64 MiB and
    the arena count at 1, which persist after the block, since ``mallopt``
    cannot read the old values, and calls ``malloc_trim(0)`` when the block
    ends, also by an exception. Elsewhere it does nothing.
    """
    libc = _glibc()
    if libc is None:
        yield
        return
    libc.mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX)
    libc.mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_MAX)
    libc.mallopt(_M_ARENA_MAX, 1)
    try:
        yield
    finally:
        libc.malloc_trim(0)


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
        # The optional sections, each None when it is not enabled.
        self._augment, self._tune, self._report = (
            cfg[key] if cfg.get(key, {}).get("enabled") else None for key in ("augment", "tune", "report")
        )
        # Every file a stage reads; a missing one or a non-file is hashed as None and fails its stage.
        paths = cfg["paths"]
        inputs = [paths["data"]] + ([paths["stopwords"]] if paths.get("stopwords") else [])
        # The augment registry's datasets (none when augment is off), parsed
        # once; an unreadable registry has none, and its error fails normalize.
        self._registry: list[DatasetDescriptor] = []
        self._registry_error: ArahateError | None = None
        if self._augment is not None:
            try:
                self._registry = corpus_mod.load_registry(self._augment["registry"])
            except ArahateError as exc:
                self._registry_error = exc
            inputs += [self._augment["registry"]] + [d.path for d in self._registry]
        if self._report is not None and self._report.get("baselines"):
            inputs.append(self._report["baselines"])
        self.input_hashes = {path: _sha256_file(Path(path)) if Path(path).is_file() else None for path in inputs}
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

    @cached_property
    def _members(self) -> list[tuple[str, EncoderSpec, HyperParams]]:
        """(artifact name, spec, hyperparams) per backend; members that share a backend
        key (e.g. three toys of different seeds) are named ``<key>-<index>``."""
        members = encoder_members(self.cfg, self.seed)
        keys = [spec.backend_key for spec, _ in members]
        return [
            (key if keys.count(key) == 1 else f"{key}-{index}", spec, hp)
            for index, (key, (spec, hp)) in enumerate(zip(keys, members))
        ]

    def _tuned_members(self, best: Path | None) -> list[tuple[EncoderSpec, HyperParams]]:
        """Each member's (spec, hyperparams), with the tune stage's winner from ``best`` when tune is on."""
        winners = json.loads(best.read_text(encoding="utf-8")) if best is not None else {}
        return [
            (spec, HyperParams.from_mapping(winners[name], hp.seed) if winners.get(name) else hp)
            for name, spec, hp in self._members
        ]

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

    def _stage_normalize(self, base: Path, sources: dict[str, Path]) -> None:
        cfg = normalization_config(self.cfg)
        rows = normalize_corpus(corpus_mod.read_jsonl(self.cfg["paths"]["data"], key="base"), cfg)
        self._write_rows(base, rows)
        if self._registry_error is not None:
            raise self._registry_error
        for descriptor in self._registry:
            self._write_rows(sources[descriptor.key], normalize_corpus(corpus_mod.load_dataset(descriptor), cfg))
        # The base rows are exactly the gold rows that evaluation folds, so a
        # class with fewer of them than folds fails here, before any fit.
        fold_plan(self.cfg, rows, self.seed)

    def _stage_augment(self, base: Path, sources: dict[str, Path], merged: Path, report: Path) -> None:
        rows = self._read_rows(base)
        datasets = {d.key: (d, self._read_rows(sources[d.key])) for d in self._registry}
        # The labeler has no mode: several members vote by majority, which
        # takes no weights, so the run's ensemble section does not apply.
        labeler = Classifier([(spec, hp) for _, spec, hp in self._members])
        plan = augment_mod.AugmentPlan.from_mapping(self._augment, labeler)
        merged_rows, aug_report = augment_mod.build_augmented_corpus(rows, plan, datasets)
        self._write_rows(merged, merged_rows)
        aug_report.write_json(report)

    def _stage_tune(self, corpus: Path, best: Path, traces: list[Path]) -> None:
        data = self._read_rows(corpus)
        protocol = tune_mod.make_cv_protocol(fold_plan(self.cfg, data, self.seed))
        best_map = {}
        for (name, spec, hp), trace_csv in zip(self._members, traces):
            grid = tune_mod.SearchGrid.from_mapping(self._tune, hp)
            winner, trace = tune_mod.coordinate_search(spec, grid, data, protocol)
            tune_mod.write_trace_csv(trace_csv, trace)
            best_map[name] = winner.fields()
            self._tuned_cv[spec, winner] = next(entry.detail for entry in trace if entry.hp == winner)
        corpus_mod.write_json(best, best_map)

    def _stage_train(self, corpus: Path, best: Path | None, models: list[Path], predictions: list[Path]) -> None:
        data = self._read_rows(corpus)
        trainable = [row for row in data if row.norm_text]
        fitted = encoder.fit_many([(spec, hp, trainable) for spec, hp in self._tuned_members(best)])
        texts, ids = [row.norm_text or "" for row in data], [row.id for row in data]
        for model, model_dir, prediction_csv in zip(fitted, models, predictions):
            if isinstance(model, ArahateError):
                raise model
            encoder.save_model(model, model_dir)
            write_proba_csv(prediction_csv, encoder.predict_proba(model, texts, ids=ids))

    def _stage_evaluate(self, corpus: Path, best: Path | None, metrics_json: Path, folds_json: Path) -> None:
        data = self._read_rows(corpus)
        folds = fold_plan(self.cfg, data, self.seed)
        members = self._tuned_members(best)
        classifier = Classifier(members, **self.cfg.get("ensemble", {}))
        if classifier.mode == "single" and members[0] in self._tuned_cv:
            # Same member, corpus and fold plan as the tune stage's CV of its winner.
            metrics = replace(self._tuned_cv[members[0]], seed=self.seed, config_hash=self.run_id)
        else:
            metrics = cross_validate(data, classifier.fit_many, folds, seed=self.seed, config_hash=self.run_id)
        metrics.write_json(metrics_json)
        corpus_mod.write_json(folds_json, folds.to_dict())

    def _stage_report(self, tables: Path, fmt: str) -> None:
        report_mod.write_report(tables, [self.run_dir], report_mod.load_baselines(self._report.get("baselines")), fmt)

    def _stages(self) -> list[Stage]:
        """Every configured stage in run order, each bound to the artifact paths it writes and reads."""
        run_dir, names = self.run_dir, [name for name, _, _ in self._members]
        base = run_dir / "normalized" / "base.jsonl"
        sources = {d.key: run_dir / "normalized" / "sources" / f"{d.key}.jsonl" for d in self._registry}
        stages = [Stage("normalize", [base, *sources.values()], partial(self._stage_normalize, base, sources))]
        corpus = base  # the corpus that tune, train and evaluate read
        if self._augment is not None:
            corpus, report = run_dir / "augmented" / "corpus.jsonl", run_dir / "augmented" / "report.json"
            augment = partial(self._stage_augment, base, sources, corpus, report)
            stages.append(Stage("augment", [corpus, report], augment))
        best = None
        if self._tune is not None:
            best, traces = run_dir / "tune" / "best.json", [run_dir / "tune" / f"{name}_trace.csv" for name in names]
            stages.append(Stage("tune", [best, *traces], partial(self._stage_tune, corpus, best, traces)))
        models = [run_dir / "models" / name for name in names]
        predictions = [run_dir / "predictions" / f"{name}.csv" for name in names]
        model_files = [
            model / artifact
            for model, (_, spec, _) in zip(models, self._members)
            for artifact in encoder.get_backend(spec.backend_key).artifacts
        ]
        train = partial(self._stage_train, corpus, best, models, predictions)
        stages.append(Stage("train", predictions + model_files, train))
        metrics, folds = run_dir / "metrics.json", run_dir / "folds.json"
        stages.append(Stage("evaluate", [metrics, folds], partial(self._stage_evaluate, corpus, best, metrics, folds)))
        if self._report is not None:
            fmt = self._report.get("format", "markdown")
            tables = run_dir / "report" / f"tables.{'md' if fmt == 'markdown' else 'csv'}"
            stages.append(Stage("report", [tables], partial(self._stage_report, tables, fmt)))
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
        corpus_mod.make_output_dir(self.run_dir / "stages")
        rerun_downstream = False
        for stage in self._stages():
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
    with paused_gc(), retained_heap():
        try:
            return ExperimentRun(cfg, out_root, seed=seed).execute()
        finally:
            encoder._FEATURE_MEMO.clear()  # the memo lives for one run
