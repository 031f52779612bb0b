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
"""

from __future__ import annotations

import json
import logging
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .corpus import LabeledText
from .errors import ArahateError
from .labels import LABEL_INDEX, LABEL_ORDER, N_CLASSES, Label

log = logging.getLogger(__name__)


class EvaluationError(ArahateError):
    pass


class ClassMetrics(NamedTuple):
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class Aggregates:
    macro_f1: float
    micro_f1: float | None
    weighted_f1: float


@dataclass(frozen=True)
class FoldPlan:
    """Assignment of every gold row id to one of k folds."""

    k: int
    seed: int
    assignments: dict[str, int]

    def test_ids(self, fold: int) -> set[str]:
        return {row_id for row_id, f in self.assignments.items() if f == fold}

    def to_dict(self) -> dict:
        return {"k": self.k, "seed": self.seed, "assignments": dict(self.assignments)}


def stratified_folds(corpus: Sequence[LabeledText], k: int = 10, seed: int = 0) -> FoldPlan:
    """Shuffle each class by seed, then deal its rows round-robin to k folds.

    Only gold rows are assigned (augmented rows never enter test folds). Every
    fold's per-class count lands within one row of perfect proportionality.
    """
    if k < 2:
        raise EvaluationError("k must be at least 2; k=1 leaves no held-out fold")
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
            raise EvaluationError(
                f"class {label.value} has {len(ids_by_class[label])} gold rows, fewer than k={k}"
            )
    rng = np.random.default_rng(seed)
    assignments: dict[str, int] = {}
    for label in LABEL_ORDER:
        ids = ids_by_class[label]
        for position, idx in enumerate(rng.permutation(len(ids))):
            assignments[ids[idx]] = position % k
    return FoldPlan(k=k, seed=seed, assignments=assignments)


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

    @property
    def total(self) -> int:
        return int(self.counts.sum())


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


def aggregate(
    per_class: Mapping[Label, ClassMetrics | float], supports: Mapping[Label, int]
) -> Aggregates:
    """Macro / micro / weighted aggregates on whatever scale the inputs use.

    Accepts full ClassMetrics or bare F1 values. Micro is pooled true
    positives over total support, which needs recall, so it is None when only
    F1 numbers are supplied.
    """
    f1s: dict[Label, float] = {}
    recalls: dict[Label, float] = {}
    for label, value in per_class.items():
        if isinstance(value, ClassMetrics):
            f1s[label] = value.f1
            recalls[label] = value.recall
        else:
            f1s[label] = float(value)
    if not f1s:
        raise EvaluationError("aggregate needs at least one per-class entry")
    try:
        total = sum(supports[label] for label in f1s)
    except KeyError as exc:
        raise EvaluationError(f"missing support for class {exc}") from None
    if total <= 0:
        raise EvaluationError("total support must be positive")
    macro = sum(f1s.values()) / len(f1s)
    weighted = sum(f1s[label] * supports[label] for label in f1s) / total
    micro = None
    if len(recalls) == len(f1s):
        micro = sum(recalls[label] * supports[label] for label in recalls) / total
    return Aggregates(macro_f1=macro, micro_f1=micro, weighted_f1=weighted)


def _as_percent(metrics: Mapping[Label, ClassMetrics]) -> dict[Label, ClassMetrics]:
    return {
        label: ClassMetrics(m.precision * 100, m.recall * 100, m.f1 * 100)
        for label, m in metrics.items()
    }


@dataclass
class FoldMetrics:
    fold: int
    per_class: dict[Label, ClassMetrics]  # percentages
    supports: dict[Label, int]
    macro_f1: float
    micro_f1: float
    weighted_f1: float


@dataclass
class MetricsReport:
    """Cross-validation result: fold-mean metrics plus pooled counterparts.

    All values are percentages; JSON serialization rounds to two decimals.
    """

    per_class: dict[Label, ClassMetrics]
    supports: dict[Label, int]
    macro_f1: float
    micro_f1: float
    weighted_f1: float
    fold_detail: list[FoldMetrics] = field(default_factory=list)
    pooled_per_class: dict[Label, ClassMetrics] = field(default_factory=dict)
    pooled_macro_f1: float | None = None
    pooled_micro_f1: float | None = None
    pooled_weighted_f1: float | None = None
    seed: int | None = None
    config_hash: str | None = None

    def to_dict(self, decimals: int = 2) -> dict:
        def round_pc(metrics: Mapping[Label, ClassMetrics]) -> dict:
            return {
                label.value: {
                    "precision": round(m.precision, decimals),
                    "recall": round(m.recall, decimals),
                    "f1": round(m.f1, decimals),
                }
                for label, m in metrics.items()
            }

        def opt(value: float | None):
            return None if value is None else round(value, decimals)

        return {
            "per_class": round_pc(self.per_class),
            "supports": {label.value: self.supports.get(label, 0) for label in LABEL_ORDER},
            "aggregates": {
                "macro_f1": round(self.macro_f1, decimals),
                "micro_f1": round(self.micro_f1, decimals),
                "weighted_f1": round(self.weighted_f1, decimals),
            },
            "pooled": {
                "per_class": round_pc(self.pooled_per_class),
                "aggregates": {
                    "macro_f1": opt(self.pooled_macro_f1),
                    "micro_f1": opt(self.pooled_micro_f1),
                    "weighted_f1": opt(self.pooled_weighted_f1),
                },
            },
            "fold_detail": [
                {
                    "fold": fm.fold,
                    "per_class": round_pc(fm.per_class),
                    "supports": {label.value: fm.supports.get(label, 0) for label in LABEL_ORDER},
                    "aggregates": {
                        "macro_f1": round(fm.macro_f1, decimals),
                        "micro_f1": round(fm.micro_f1, decimals),
                        "weighted_f1": round(fm.weighted_f1, decimals),
                    },
                }
                for fm in self.fold_detail
            ],
            "seed": self.seed,
            "config_hash": self.config_hash,
        }

    def write_json(self, path: str | Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True, ensure_ascii=False) + "\n",
            encoding="utf-8",
        )


def cross_validate(
    corpus: Sequence[LabeledText],
    model_recipe: Callable[[Sequence[LabeledText]], object],
    fold_plan: FoldPlan,
    seed: int | None = None,
    config_hash: str | None = None,
) -> MetricsReport:
    """Train on k-1 folds (plus any non-gold rows), score the held-out gold fold.

    Every gold row is tested exactly once; rows whose norm_text is empty are
    excluded from training but still scored when they fall in a test fold.
    Reported numbers are means over folds; pooled metrics ride along.
    """
    gold = [row for row in corpus if row.origin == "gold"]
    extra = [row for row in corpus if row.origin != "gold"]
    missing = [row.id for row in gold if row.id not in fold_plan.assignments]
    if missing:
        raise EvaluationError(
            f"fold plan does not cover {len(missing)} gold rows (e.g. {missing[0]!r})"
        )
    supports = Counter(row.label for row in gold)
    pooled = ConfusionMatrix()
    folds: list[FoldMetrics] = []
    for fold in range(fold_plan.k):
        test = [row for row in gold if fold_plan.assignments[row.id] == fold]
        train = [row for row in gold if fold_plan.assignments[row.id] != fold] + extra
        train = [row for row in train if row.norm_text]
        try:
            classifier = model_recipe(train)
            predictions = classifier.predict_labels([row.norm_text or "" for row in test])
        except ArahateError as exc:
            raise EvaluationError(f"fold {fold}: training or prediction failed: {exc}") from exc
        cm = ConfusionMatrix.from_pairs([row.label for row in test], predictions)
        pooled.counts += cm.counts
        fold_pc = per_class_metrics(cm)
        fold_supports = Counter(row.label for row in test)
        agg = aggregate(fold_pc, fold_supports)
        folds.append(
            FoldMetrics(
                fold=fold,
                per_class=_as_percent(fold_pc),
                supports={label: fold_supports.get(label, 0) for label in LABEL_ORDER},
                macro_f1=agg.macro_f1 * 100,
                micro_f1=(agg.micro_f1 or 0.0) * 100,
                weighted_f1=agg.weighted_f1 * 100,
            )
        )
        log.debug("fold %d: micro %.2f%%, macro %.2f%%", fold, folds[-1].micro_f1, folds[-1].macro_f1)

    k = fold_plan.k
    mean_per_class = {
        label: ClassMetrics(
            sum(fm.per_class[label].precision for fm in folds) / k,
            sum(fm.per_class[label].recall for fm in folds) / k,
            sum(fm.per_class[label].f1 for fm in folds) / k,
        )
        for label in LABEL_ORDER
    }
    pooled_pc = per_class_metrics(pooled)
    pooled_agg = aggregate(pooled_pc, supports)
    return MetricsReport(
        per_class=mean_per_class,
        supports={label: supports.get(label, 0) for label in LABEL_ORDER},
        macro_f1=sum(fm.macro_f1 for fm in folds) / k,
        micro_f1=sum(fm.micro_f1 for fm in folds) / k,
        weighted_f1=sum(fm.weighted_f1 for fm in folds) / k,
        fold_detail=folds,
        pooled_per_class=_as_percent(pooled_pc),
        pooled_macro_f1=pooled_agg.macro_f1 * 100,
        pooled_micro_f1=(pooled_agg.micro_f1 or 0.0) * 100,
        pooled_weighted_f1=pooled_agg.weighted_f1 * 100,
        seed=seed,
        config_hash=config_hash,
    )
