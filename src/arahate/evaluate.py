"""Stratified ten-fold cross-validation and the multi-class metric suite.

Recall of a class is its diagonal confusion-matrix cell over the gold row
sum, precision the cell over the predicted column sum, F1 their harmonic
mean; zero denominators yield 0 by convention. Aggregates: macro is the
unweighted mean of per-class F1, weighted is the support-weighted mean, and
micro comes from pooled true positives (which, for single-label multi-class
classification, equals accuracy).

Cross-validation folds cover gold rows only; pseudo-labelled and
directly-merged rows join every training split but are never scored.
Reported metrics are arithmetic means of the per-fold values, with
pooled-prediction metrics kept alongside for transparency.

Cross-validation is three steps: ``fold_splits`` gives each fold's training
and test rows, a recipe fits one model per fold, and ``score_folds`` turns
each fold's predicted labels into the report. ``cross_validate`` runs them
for one model per fold; tune's protocol runs them for every epoch count of
one shared fit per fold.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .corpus import LabeledText, write_json
from .errors import ArahateError, ConfigError
from .labels import LABEL_INDEX, LABEL_ORDER, N_CLASSES, Label

log = logging.getLogger(__name__)


class EvaluationError(ArahateError):
    pass


class FoldPlanError(EvaluationError, ConfigError):
    """Fewer than two folds, or a class with fewer gold rows than folds: a validation error (exit 1)."""


class ClassMetrics(NamedTuple):
    precision: float
    recall: float
    f1: float


class Aggregates(NamedTuple):
    macro_f1: float
    weighted_f1: float


@dataclass(frozen=True)
class FoldPlan:
    """Assignment of every gold row id to one of k folds."""

    k: int
    seed: int = 0
    assignments: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", int(self.k))  # a config's whole float, such as 10.0
        object.__setattr__(self, "seed", int(self.seed))
        if self.k < 2:
            raise FoldPlanError(f"k must be at least 2; k={self.k} leaves no held-out fold")
        if self.seed < 0:
            raise FoldPlanError(f"seed must be an integer >= 0, got {self.seed}")

    def to_dict(self) -> dict:
        return {"k": self.k, "seed": self.seed, "assignments": dict(self.assignments)}


def stratified_folds(corpus: Sequence[LabeledText], k: int = 10, seed: int = 0) -> FoldPlan:
    """Shuffle each class by seed, then deal its rows round-robin to k folds.

    Only gold rows are assigned (augmented rows never enter test folds). Every
    fold's per-class count lands within one row of perfect proportionality.
    """
    plan = FoldPlan(k=k, seed=seed)
    k = plan.k
    gold = [row for row in corpus if row.origin == "gold"]
    ids_by_class: dict[Label, list[str]] = {label: [] for label in LABEL_ORDER}
    seen: set[str] = set()
    for row in gold:
        if row.id in seen:
            raise EvaluationError(f"duplicate gold row id {row.id!r}; fold plans need unique ids")
        seen.add(row.id)
        ids_by_class[row.label].append(row.id)
    for label in LABEL_ORDER:
        if len(ids_by_class[label]) < k:
            raise FoldPlanError(
                f"class {label.value} has {len(ids_by_class[label])} gold rows, fewer than k={k}"
            )
    rng = np.random.default_rng(seed)
    for label in LABEL_ORDER:
        ids = ids_by_class[label]
        for position, idx in enumerate(rng.permutation(len(ids))):
            plan.assignments[ids[idx]] = position % k
    return plan


@dataclass
class ConfusionMatrix:
    """5x5 counts; rows are gold classes, columns predicted classes."""

    counts: np.ndarray = field(
        default_factory=lambda: np.zeros((N_CLASSES, N_CLASSES), dtype=int)
    )

    def __post_init__(self) -> None:
        self.counts = np.asarray(self.counts, dtype=int)
        if self.counts.shape != (N_CLASSES, N_CLASSES):
            raise EvaluationError(f"confusion matrix must be {N_CLASSES}x{N_CLASSES}")
        if (self.counts < 0).any():
            raise EvaluationError("confusion matrix counts must be non-negative")

    @classmethod
    def from_pairs(cls, gold: Sequence[Label], predicted: Sequence[Label]) -> "ConfusionMatrix":
        if len(gold) != len(predicted):
            raise EvaluationError("gold and predicted label lists differ in length")
        counts = np.zeros((N_CLASSES, N_CLASSES), dtype=int)
        for g, p in zip(gold, predicted):
            counts[LABEL_INDEX[g], LABEL_INDEX[p]] += 1
        return cls(counts)


def per_class_metrics(cm: ConfusionMatrix) -> dict[Label, ClassMetrics]:
    """Precision/recall/F1 per class as fractions, 0 where undefined."""
    out = {}
    for i, label in enumerate(LABEL_ORDER):
        tp = float(cm.counts[i, i])
        row_sum = float(cm.counts[i, :].sum())
        col_sum = float(cm.counts[:, i].sum())
        recall = tp / row_sum if row_sum else 0.0
        precision = tp / col_sum if col_sum else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        out[label] = ClassMetrics(precision, recall, f1)
    return out


def aggregate(f1: Mapping[Label, float], supports: Mapping[Label, int]) -> Aggregates:
    """Macro and weighted F1 of per-class F1 values, on whatever scale the values use."""
    if not f1:
        raise EvaluationError("aggregate needs at least one per-class entry")
    try:
        total = sum(supports[label] for label in f1)
    except KeyError as exc:
        raise EvaluationError(f"missing support for class {exc}") from None
    if total <= 0:
        raise EvaluationError("total support must be positive")
    macro = sum(f1.values()) / len(f1)
    weighted = sum(f1[label] * supports[label] for label in f1) / total
    return Aggregates(macro_f1=macro, weighted_f1=weighted)


@dataclass(frozen=True)
class Scores:
    """Per-class precision/recall/F1 and the macro/micro/weighted F1, all percentages."""

    per_class: dict[Label, ClassMetrics]
    macro_f1: float
    micro_f1: float
    weighted_f1: float

    @classmethod
    def of(cls, cm: ConfusionMatrix, supports: Mapping[Label, int]) -> "Scores":
        """The scores of one confusion matrix; ``supports`` are its gold row counts."""
        per_class = per_class_metrics(cm)
        agg = aggregate({label: m.f1 for label, m in per_class.items()}, supports)
        # Micro is pooled true positives over the total support.
        total = sum(supports[label] for label in per_class)
        micro = sum(m.recall * supports[label] for label, m in per_class.items()) / total
        return cls(
            per_class={label: ClassMetrics(*(v * 100 for v in m)) for label, m in per_class.items()},
            macro_f1=agg.macro_f1 * 100,
            micro_f1=micro * 100,
            weighted_f1=agg.weighted_f1 * 100,
        )

    @classmethod
    def mean(cls, scores: Sequence["Scores"]) -> "Scores":
        """The arithmetic mean of every value over ``scores``."""
        k = len(scores)
        return cls(
            per_class={
                label: ClassMetrics(*(sum(column) / k for column in zip(*(s.per_class[label] for s in scores))))
                for label in LABEL_ORDER
            },
            macro_f1=sum(s.macro_f1 for s in scores) / k,
            micro_f1=sum(s.micro_f1 for s in scores) / k,
            weighted_f1=sum(s.weighted_f1 for s in scores) / k,
        )

    def to_dict(self, decimals: int = 2) -> dict:
        return {
            "per_class": {
                label.value: {name: round(value, decimals) for name, value in m._asdict().items()}
                for label, m in self.per_class.items()
            },
            "aggregates": {
                "macro_f1": round(self.macro_f1, decimals),
                "micro_f1": round(self.micro_f1, decimals),
                "weighted_f1": round(self.weighted_f1, decimals),
            },
        }


def _supports_dict(supports: Mapping[Label, int]) -> dict[str, int]:
    return {label.value: supports.get(label, 0) for label in LABEL_ORDER}


@dataclass
class MetricsReport:
    """Cross-validation result: fold-mean scores plus the pooled confusion matrix's.

    All values are percentages; JSON serialization rounds to two decimals.
    """

    mean: Scores
    pooled: Scores
    supports: dict[Label, int]
    fold_detail: list[tuple[dict[Label, int], Scores]]  # per fold in order: its gold supports and scores
    seed: int | None = None
    config_hash: str | None = None

    @property
    def macro_f1(self) -> float:
        return self.mean.macro_f1

    @property
    def micro_f1(self) -> float:
        return self.mean.micro_f1

    def to_dict(self, decimals: int = 2) -> dict:
        return {
            **self.mean.to_dict(decimals),
            "supports": _supports_dict(self.supports),
            "pooled": self.pooled.to_dict(decimals),
            "fold_detail": [
                {"fold": fold, "supports": _supports_dict(supports), **scores.to_dict(decimals)}
                for fold, (supports, scores) in enumerate(self.fold_detail)
            ],
            "seed": self.seed,
            "config_hash": self.config_hash,
        }

    def write_json(self, path: str | Path) -> None:
        write_json(path, self.to_dict())


# model_recipe(training row sets) -> per set in order, a model with
# predict_labels(texts), or the ArahateError that stopped its training.
ModelRecipe = Callable[[list[list[LabeledText]]], Sequence[object]]


def fold_splits(
    corpus: Sequence[LabeledText], fold_plan: FoldPlan
) -> tuple[list[list[LabeledText]], list[list[LabeledText]]]:
    """Every fold's training rows and test rows, in fold order.

    A fold tests its gold rows and trains on the other folds' gold rows plus
    every non-gold row. A row whose norm_text is empty never trains, but is
    still tested when it falls in a test fold.
    """
    gold = [row for row in corpus if row.origin == "gold"]
    missing = [row.id for row in gold if row.id not in fold_plan.assignments]
    if missing:
        raise EvaluationError(
            f"fold plan does not cover {len(missing)} gold rows (e.g. {missing[0]!r})"
        )
    extra = [row for row in corpus if row.origin != "gold" and row.norm_text]
    folds = range(fold_plan.k)
    tests = [[row for row in gold if fold_plan.assignments[row.id] == fold] for fold in folds]
    trains = [[row for row in gold if fold_plan.assignments[row.id] != fold and row.norm_text] + extra for fold in folds]
    return trains, tests


def score_folds(tests: Sequence[Sequence[LabeledText]], labels: Sequence[object]) -> MetricsReport:
    """The report of one model's predicted ``labels`` for each fold's ``tests``.

    ``labels[fold]`` may be the ArahateError that stopped that fold's model:
    the first such fold raises an EvaluationError that names it.
    """
    detail: list[tuple[Counter, Scores]] = []
    pooled = ConfusionMatrix()
    for fold, (test, fold_labels) in enumerate(zip(tests, labels, strict=True)):
        if isinstance(fold_labels, ArahateError):
            raise EvaluationError(f"fold {fold}: training or prediction failed: {fold_labels}") from fold_labels
        cm = ConfusionMatrix.from_pairs([row.label for row in test], fold_labels)
        pooled.counts += cm.counts
        fold_supports = Counter(row.label for row in test)
        scores = Scores.of(cm, fold_supports)
        detail.append((fold_supports, scores))
        log.debug("fold %d: micro %.2f%%, macro %.2f%%", fold, scores.micro_f1, scores.macro_f1)
    supports = Counter(row.label for test in tests for row in test)
    return MetricsReport(
        mean=Scores.mean([scores for _, scores in detail]),
        pooled=Scores.of(pooled, supports),
        supports=supports,
        fold_detail=detail,
    )


def cross_validate(
    corpus: Sequence[LabeledText],
    model_recipe: ModelRecipe,
    fold_plan: FoldPlan,
    seed: int | None = None,
    config_hash: str | None = None,
) -> MetricsReport:
    """Train on k-1 folds (plus any non-gold rows), score the held-out gold fold.

    ``model_recipe`` gets every fold's training rows in one call, so it can
    train the k models together; a recipe that raises an ArahateError fails
    fold 0. Every gold row is tested exactly once (see ``fold_splits``).
    Reported numbers are means over folds; pooled metrics ride along.
    """
    trains, tests = fold_splits(corpus, fold_plan)
    try:
        models = model_recipe(trains)
    except ArahateError as exc:
        models = [exc] * fold_plan.k

    def predict(model, test):
        if isinstance(model, ArahateError):
            return model
        try:
            return model.predict_labels([row.norm_text or "" for row in test])
        except ArahateError as exc:
            return exc

    labels = [predict(model, test) for model, test in zip(models, tests, strict=True)]
    return replace(score_folds(tests, labels), seed=seed, config_hash=config_hash)
