"""Coordinate-wise hyperparameter search over epochs, batch size and learning rate.

Stage 1 sweeps the epochs axis with batch size and learning rate at their
initial values, stage 2 fixes the best epochs and sweeps batch size, stage 3
fixes both and sweeps learning rate. The selection metric is micro-F1; ties
break toward fewer epochs, then smaller batches, then smaller learning rates.
Each stage re-tests the incumbent coordinate, so the trace always holds one
entry per grid point per axis, but an already-scored configuration is served
from the cache instead of being retrained.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import yaml

from .classifiers import Classifier
from .corpus import LabeledText
from .encoder import DEFAULT_HYPERPARAMS, EncoderSpec, HyperParams
from .errors import ArahateError
from .evaluate import FoldPlan, cross_validate

log = logging.getLogger(__name__)

DEFAULT_EPOCHS_AXIS = (2, 3, 4, 5, 10)
DEFAULT_BATCH_AXIS = (8, 16, 32, 64)
DEFAULT_LR_AXIS = (1e-5, 2e-5, 3e-5, 4e-5, 5e-5)

# eval_protocol(spec, hp, data) -> micro-F1 percent, or (score, detail)
EvalProtocol = Callable[[EncoderSpec, HyperParams, Sequence[LabeledText]], object]


class SearchError(ArahateError):
    pass


@dataclass(frozen=True)
class SearchGrid:
    """Axes for the three-stage search plus the initial configuration."""

    epochs_axis: tuple[int, ...] = DEFAULT_EPOCHS_AXIS
    batch_axis: tuple[int, ...] = DEFAULT_BATCH_AXIS
    lr_axis: tuple[float, ...] = DEFAULT_LR_AXIS
    initial: HyperParams = HyperParams(*DEFAULT_HYPERPARAMS)

    def __post_init__(self) -> None:
        for name, axis in (
            ("epochs_axis", self.epochs_axis),
            ("batch_axis", self.batch_axis),
            ("lr_axis", self.lr_axis),
        ):
            if not axis:
                raise SearchError(f"{name} must not be empty")
        if self.initial.epochs not in self.epochs_axis:
            raise SearchError("initial epochs must be a member of epochs_axis")
        if self.initial.batch_size not in self.batch_axis:
            raise SearchError("initial batch_size must be a member of batch_axis")
        if self.initial.learning_rate not in self.lr_axis:
            raise SearchError("initial learning_rate must be a member of lr_axis")

    @classmethod
    def from_file(cls, path: str | Path, seed: int = 0) -> "SearchGrid":
        data = yaml.safe_load(Path(path).read_text(encoding="utf-8")) or {}
        return cls(
            epochs_axis=tuple(data.get("epochs_axis", DEFAULT_EPOCHS_AXIS)),
            batch_axis=tuple(data.get("batch_axis", DEFAULT_BATCH_AXIS)),
            lr_axis=tuple(data.get("lr_axis", DEFAULT_LR_AXIS)),
            initial=HyperParams.from_mapping(data.get("initial") or {}, seed),
        )


@dataclass
class SearchTrace:
    """One visited grid point: the stage, configuration and its score."""

    stage: str  # epochs | batch | lr
    hp: HyperParams
    score: float | None
    failed: bool = False
    cached: bool = False
    detail: object = None


@dataclass
class _CacheEntry:
    score: float | None
    detail: object
    failed: bool


def coordinate_search(
    spec: EncoderSpec,
    grid: SearchGrid,
    data: Sequence[LabeledText],
    eval_protocol: EvalProtocol,
) -> tuple[HyperParams, list[SearchTrace]]:
    """Three-stage coordinate search; returns the winner and the full trace.

    Grid points whose evaluation raises an ArahateError are recorded as
    failed and excluded from the argmax; a stage in which every point fails
    aborts the search.
    """
    cache: dict[tuple, _CacheEntry] = {}
    trace: list[SearchTrace] = []

    def visit(stage: str, hp: HyperParams) -> _CacheEntry:
        key = (hp.epochs, hp.batch_size, hp.learning_rate)
        cached = key in cache
        if not cached:
            try:
                result = eval_protocol(spec, hp, data)
                score, detail = result if isinstance(result, tuple) else (result, None)
                cache[key] = _CacheEntry(score=float(score), detail=detail, failed=False)
            except ArahateError as exc:
                log.warning("grid point %s failed: %s", key, exc)
                cache[key] = _CacheEntry(score=None, detail=str(exc), failed=True)
        entry = cache[key]
        trace.append(
            SearchTrace(
                stage=stage,
                hp=hp,
                score=entry.score,
                failed=entry.failed,
                cached=cached,
                detail=entry.detail,
            )
        )
        return entry

    incumbent = grid.initial
    stages: list[tuple[str, Sequence, str]] = [
        ("epochs", grid.epochs_axis, "epochs"),
        ("batch", grid.batch_axis, "batch_size"),
        ("lr", grid.lr_axis, "learning_rate"),
    ]
    for stage, axis, attr in stages:
        scored: list[tuple[float, HyperParams]] = []
        for value in axis:
            hp = replace(incumbent, **{attr: value})
            entry = visit(stage, hp)
            if not entry.failed:
                scored.append((entry.score, hp))
        if not scored:
            raise SearchError(f"every grid point failed in stage {stage!r}")
        # Highest score wins; ties prefer cheaper configurations.
        scored.sort(key=lambda item: (-item[0], item[1].epochs, item[1].batch_size, item[1].learning_rate))
        incumbent = scored[0][1]
        log.info(
            "stage %s: best %s with micro-F1 %.2f",
            stage,
            (incumbent.epochs, incumbent.batch_size, incumbent.learning_rate),
            scored[0][0],
        )
    return incumbent, trace


def make_cv_protocol(fold_plan: FoldPlan) -> EvalProtocol:
    """Evaluation protocol backed by the cross-validation driver.

    Scores a configuration by fold-mean micro-F1 (percent) of a single model
    trained per fold; the full metrics report rides along as the detail.
    """

    def protocol(spec: EncoderSpec, hp: HyperParams, data: Sequence[LabeledText]):
        report = cross_validate(data, Classifier([(spec, hp)], mode="single").fit, fold_plan)
        return report.micro_f1, report

    return protocol


def write_trace_csv(path: str | Path, trace: Sequence[SearchTrace]) -> None:
    """Persist the search trace, one row per visited grid point per stage."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["stage", "epochs", "batch_size", "learning_rate", "micro_f1", "status"])
        for entry in trace:
            status = "failed" if entry.failed else ("cached" if entry.cached else "evaluated")
            writer.writerow(
                [
                    entry.stage,
                    entry.hp.epochs,
                    entry.hp.batch_size,
                    repr(entry.hp.learning_rate),
                    "" if entry.score is None else f"{entry.score:.2f}",
                    status,
                ]
            )
