"""Coordinate-wise hyperparameter search over epochs, batch size and learning rate.

Stage 1 sweeps the epochs axis with batch size and learning rate at their
initial values, stage 2 fixes the best epochs and sweeps batch size, stage 3
fixes both and sweeps learning rate. The selection metric is micro-F1; ties
break toward fewer epochs, then smaller batches, then smaller learning rates.
Each stage re-tests the incumbent coordinate, so the trace always holds one
entry per grid point per axis, but an already-scored configuration is served
from the cache instead of being retrained.

A stage hands all of its uncached points to the evaluation protocol at once.
The cross-validation protocol splits the folds once per call, fits each fold
once per group of points that differ only in epochs, to the largest of them,
and scores every requested epoch count with ``evaluate.score_folds``, the
fold scorer ``cross_validate`` uses. No backend's fit draws anything that
depends on the epoch count, so its first e epochs are exactly an e-epoch
fit. An epochs axis then costs max(axis) epochs per fold, not sum(axis), and
the folds of a group train in one lockstep call.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

from . import encoder
from .corpus import LabeledText, atomic_open
from .encoder import DEFAULT_HYPERPARAMS, EncoderError, EncoderSpec, HyperParams
from .errors import ArahateError, ConfigError
from .evaluate import EvaluationError, FoldPlan, fold_splits, score_folds

log = logging.getLogger(__name__)

DEFAULT_EPOCHS_AXIS = (2, 3, 4, 5, 10)
DEFAULT_BATCH_AXIS = (8, 16, 32, 64)
DEFAULT_LR_AXIS = (1e-5, 2e-5, 3e-5, 4e-5, 5e-5)

# eval_protocol(spec, points, data) -> one outcome per point, in order: its
# micro-F1 percent, a (score, detail) pair, or the ArahateError that failed it.
EvalProtocol = Callable[[EncoderSpec, Sequence[HyperParams], Sequence[LabeledText]], Sequence[object]]


class SearchError(ArahateError):
    pass


class SearchGridError(SearchError, ConfigError):
    """An empty axis or an initial point off its axes: a validation error (exit 1)."""


@dataclass(frozen=True)
class SearchGrid:
    """Axes for the three-stage search plus the initial configuration."""

    epochs_axis: tuple[int, ...] = DEFAULT_EPOCHS_AXIS
    batch_axis: tuple[int, ...] = DEFAULT_BATCH_AXIS
    lr_axis: tuple[float, ...] = DEFAULT_LR_AXIS
    initial: HyperParams = HyperParams(*DEFAULT_HYPERPARAMS)

    def __post_init__(self) -> None:
        for name, axis, field in (
            ("epochs_axis", self.epochs_axis, "epochs"),
            ("batch_axis", self.batch_axis, "batch_size"),
            ("lr_axis", self.lr_axis, "learning_rate"),
        ):
            if not axis:
                raise SearchGridError(f"{name} must not be empty")
            if getattr(self.initial, field) not in axis:
                raise SearchGridError(f"initial {field} must be a member of {name}")
            for value in axis:  # every grid point must be valid hyperparameters
                try:
                    replace(self.initial, **{field: value})
                except EncoderError as exc:
                    raise SearchGridError(f"{name} value {value!r}: {exc}") from None

    @classmethod
    def from_mapping(cls, section: Mapping, base: HyperParams) -> "SearchGrid":
        """Grid from a shape-checked ``tune`` section (of a run config or a `tune --grid` file).

        Omitted axes take the defaults, an omitted ``initial`` is ``base``, and
        ``base``'s seed wins over a seed in ``initial``.
        """
        initial = section.get("initial")
        return cls(
            epochs_axis=tuple(section.get("epochs_axis", DEFAULT_EPOCHS_AXIS)),
            batch_axis=tuple(section.get("batch_axis", DEFAULT_BATCH_AXIS)),
            lr_axis=tuple(section.get("lr_axis", DEFAULT_LR_AXIS)),
            initial=base if initial is None else replace(HyperParams.from_mapping(initial), seed=base.seed),
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


def _key(hp: HyperParams) -> tuple:
    return (hp.epochs, hp.batch_size, hp.learning_rate)


def coordinate_search(
    spec: EncoderSpec,
    grid: SearchGrid,
    data: Sequence[LabeledText],
    eval_protocol: EvalProtocol,
) -> tuple[HyperParams, list[SearchTrace]]:
    """Three-stage coordinate search; returns the winner and the full trace.

    Each stage passes its not yet visited points to ``eval_protocol`` in one
    call. A point whose outcome is an ArahateError (or all of them, if the
    call raises one) is recorded as failed and excluded from the argmax; a
    stage in which every point fails aborts the search.
    """
    cache: dict[tuple, SearchTrace] = {}  # grid point -> its first visit
    trace: list[SearchTrace] = []

    incumbent = grid.initial
    stages: list[tuple[str, Sequence, str]] = [
        ("epochs", grid.epochs_axis, "epochs"),
        ("batch", grid.batch_axis, "batch_size"),
        ("lr", grid.lr_axis, "learning_rate"),
    ]
    for stage, axis, attr in stages:
        points = [replace(incumbent, **{attr: value}) for value in axis]
        fresh = list({_key(hp): hp for hp in points if _key(hp) not in cache}.values())
        outcomes: Sequence[object] = []
        if fresh:
            try:
                outcomes = eval_protocol(spec, fresh, data)
            except ArahateError as exc:
                outcomes = [exc] * len(fresh)
        new = {_key(hp): outcome for hp, outcome in zip(fresh, outcomes, strict=True)}
        scored: list[tuple[float, HyperParams]] = []
        for hp in points:
            key = _key(hp)
            outcome = new.get(key)
            if key in cache:
                entry = replace(cache[key], stage=stage, hp=hp, cached=True)
            elif isinstance(outcome, ArahateError):
                log.warning("grid point %s failed: %s", key, outcome)
                entry = cache[key] = SearchTrace(stage, hp, None, failed=True, detail=str(outcome))
            else:
                score, detail = outcome if isinstance(outcome, tuple) else (outcome, None)
                entry = cache[key] = SearchTrace(stage, hp, float(score), detail=detail)
            trace.append(entry)
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
            _key(incumbent),
            scored[0][0],
        )
    return incumbent, trace


def make_cv_protocol(fold_plan: FoldPlan) -> EvalProtocol:
    """Evaluation protocol backed by cross-validation over ``fold_plan``.

    Scores a configuration by fold-mean micro-F1 (percent) of a single model
    trained per fold; the full metrics report rides along as the detail. A
    fold's fit that fails in epoch e fails only the epoch counts of e and
    more.
    """

    def protocol(spec: EncoderSpec, points: Sequence[HyperParams], data: Sequence[LabeledText]):
        trains, tests = fold_splits(data, fold_plan)
        texts = [[row.norm_text or "" for row in test] for test in tests]
        epochs_by_rest: dict[HyperParams, set[int]] = {}
        for hp in points:
            epochs_by_rest.setdefault(replace(hp, epochs=1), set()).add(hp.epochs)
        outcomes: dict[HyperParams, object] = {}
        for rest, counts in epochs_by_rest.items():
            labels: list[dict[int, object]] = [{} for _ in tests]  # per fold: epochs -> predicted labels

            def score(fold: int, model: encoder.TrainedModel) -> None:
                if model.hyperparams.epochs in counts:
                    labels[fold][model.hyperparams.epochs] = encoder.predict_proba(model, texts[fold]).argmax_labels()

            try:
                fits = encoder.fit_many([(spec, replace(rest, epochs=max(counts)), train) for train in trains], score)
            except ArahateError as exc:
                labels, fits = [{} for _ in tests], [exc] * len(tests)
            for e in counts:
                try:
                    report = score_folds(tests, [fold.get(e, fit) for fold, fit in zip(labels, fits, strict=True)])
                    outcomes[replace(rest, epochs=e)] = (report.micro_f1, report)
                except EvaluationError as exc:
                    outcomes[replace(rest, epochs=e)] = exc
        return [outcomes[hp] for hp in points]

    return protocol


def write_trace_csv(path: str | Path, trace: Sequence[SearchTrace]) -> None:
    """Persist the search trace (atomically), one row per visited grid point per stage."""
    with atomic_open(path, newline="") as fh:
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
