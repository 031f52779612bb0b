"""Corpus augmentation: direct merge of religious-hate sources plus pseudo-labelling.

Two prongs. Sources declared as religious-hate are appended wholesale with
label Re (deduplicated against the base corpus on normalized text). Sources
carrying hate-labelled rows of other taxonomies are classified by a labeler
trained once on the base corpus; each row receives the predicted label as a
pseudo label. Rows predicted NH are discarded (the point of augmentation is
to grow the minority classes), as are rows under the confidence threshold
and duplicates. Gold rows are never mutated or relabelled.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Sequence

import yaml

from . import corpus as corpus_mod
from .classifiers import Classifier
from .corpus import DatasetDescriptor, LabeledText
from .encoder import EncoderSpec, HyperParams, members_from_entries
from .ensemble import ensemble_policy
from .errors import ArahateError
from .labels import HATE_LABELS, Label

log = logging.getLogger(__name__)


class AugmentError(ArahateError):
    pass


@dataclass(frozen=True)
class LabelerPlan:
    """Declarative description of the labelling classifier.

    One member gives a single fine-tuned model; several members form a voting
    ensemble (majority by default, the artifact's strongest classifier).
    """

    members: tuple[tuple[EncoderSpec, HyperParams], ...]
    mode: str | None = None  # None: single for one member, majority otherwise
    weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        ensemble_policy(len(self.members), self.mode, self.weights)

    def build(self) -> Classifier:
        return Classifier(self.members, self.mode, self.weights)


@dataclass(frozen=True)
class AugmentPlan:
    """Which sources to merge directly, which to pseudo-label, and how."""

    direct_sources: tuple[str, ...] = ()
    pseudo_sources: tuple[str, ...] = ()
    confidence_threshold: float = 0.0
    labeler: LabelerPlan | None = None
    registry: str | None = None  # dataset registry the source keys resolve in

    def __post_init__(self) -> None:
        overlap = set(self.direct_sources) & set(self.pseudo_sources)
        if overlap:
            raise AugmentError(f"sources cannot be both direct and pseudo: {sorted(overlap)}")
        if not 0.0 <= self.confidence_threshold <= 1.0:
            raise AugmentError("confidence_threshold must lie in [0, 1]")


@dataclass
class AugmentReport:
    """Bookkeeping for one augmentation run.

    For every pseudo source: rows == added + discarded_nh +
    discarded_low_confidence + discarded_duplicates (checked by tests).
    """

    added_direct: int = 0
    pseudo_counts: dict[Label, int] = field(
        default_factory=lambda: {label: 0 for label in HATE_LABELS}
    )
    discarded_nh: int = 0
    discarded_low_confidence: int = 0
    discarded_duplicates: int = 0
    per_source: dict[str, dict] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "added_direct": self.added_direct,
            "pseudo_counts": {label.value: n for label, n in self.pseudo_counts.items()},
            "discarded_nh": self.discarded_nh,
            "discarded_low_confidence": self.discarded_low_confidence,
            "discarded_duplicates": self.discarded_duplicates,
            "per_source": self.per_source,
        }

    def write_json(self, path: str | Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )


def _require_normalized(rows: Sequence[LabeledText], what: str) -> None:
    for row in rows:
        if row.norm_text is None:
            raise AugmentError(f"{what}: row {row.id!r} is not normalized; run normalize first")


def direct_merge(
    base: Sequence[LabeledText],
    sources: Sequence[tuple[DatasetDescriptor, Sequence[LabeledText]]],
) -> tuple[list[LabeledText], dict[str, dict]]:
    """Append religious-hate source rows to the base corpus with label Re.

    Sources must be declared hate_only; rows whose normalized text already
    occurs in the base (or an earlier source row) are dropped. Returns base +
    additions and, per source key, its rows / added / discarded_duplicates.
    """
    _require_normalized(base, "base corpus")
    merged = list(base)
    seen = {row.norm_text for row in base}
    per_source: dict[str, dict] = {}
    for descriptor, rows in sources:
        if not descriptor.hate_only:
            raise AugmentError(
                f"source {descriptor.key!r} is not marked hate_only; refusing direct merge"
            )
        _require_normalized(rows, f"source {descriptor.key!r}")
        added = 0
        for row in rows:
            if row.norm_text in seen:
                continue
            seen.add(row.norm_text)
            merged.append(replace(row, label=Label.Re, origin="direct_merge"))
            added += 1
        per_source[descriptor.key] = {
            "kind": "direct",
            "rows": len(rows),
            "added": added,
            "discarded_duplicates": len(rows) - added,
        }
        log.info(
            "direct merge %s: added %d of %d rows (%d duplicates)",
            descriptor.key, added, len(rows), len(rows) - added,
        )
    return merged, per_source


def pseudo_label(
    labeler,
    sources: Sequence[tuple[str, Sequence[LabeledText]]],
    plan: AugmentPlan,
    known_norm_texts: set[str] | None = None,
) -> tuple[list[LabeledText], AugmentReport]:
    """Classify hate-labelled source rows and keep the predicted hate labels.

    Per row, in order: duplicates of already-known normalized texts are
    dropped first, then NH predictions, then predictions whose top probability
    falls below the confidence threshold. Surviving rows join the corpus with
    origin "pseudo".
    """
    seen = set(known_norm_texts or ())
    report = AugmentReport()
    new_rows: list[LabeledText] = []
    for key, rows in sources:
        _require_normalized(rows, f"source {key!r}")
        counters = {
            "kind": "pseudo",
            "rows": len(rows),
            "added": 0,
            "pseudo_counts": {label.value: 0 for label in HATE_LABELS},
            "discarded_nh": 0,
            "discarded_low_confidence": 0,
            "discarded_duplicates": 0,
        }
        labels, confidence = labeler.predict_with_confidence([row.norm_text for row in rows])
        for row, label, top_p in zip(rows, labels, confidence):
            if row.norm_text in seen:
                counters["discarded_duplicates"] += 1
                continue
            if label == Label.NH:
                counters["discarded_nh"] += 1
                continue
            if top_p < plan.confidence_threshold:
                counters["discarded_low_confidence"] += 1
                continue
            seen.add(row.norm_text)
            new_rows.append(replace(row, label=label, origin="pseudo"))
            counters["added"] += 1
            counters["pseudo_counts"][label.value] += 1
            report.pseudo_counts[label] += 1
        report.discarded_nh += counters["discarded_nh"]
        report.discarded_low_confidence += counters["discarded_low_confidence"]
        report.discarded_duplicates += counters["discarded_duplicates"]
        report.per_source[key] = counters
        log.info(
            "pseudo-label %s: %d/%d rows kept (%d NH, %d low-confidence, %d duplicates)",
            key, counters["added"], len(rows), counters["discarded_nh"],
            counters["discarded_low_confidence"], counters["discarded_duplicates"],
        )
    return new_rows, report


def build_augmented_corpus(
    base: Sequence[LabeledText],
    plan: AugmentPlan,
    datasets: Mapping[str, tuple[DatasetDescriptor, Sequence[LabeledText]]],
    labeler=None,
) -> tuple[list[LabeledText], AugmentReport]:
    """Full augmentation pipeline over an already-normalized base corpus.

    Merges the direct sources, trains the plan's labeler on the base corpus
    (unless a fitted labeler is supplied), pseudo-labels the rest, and returns
    base + additions with source-qualified ids. Gold rows are carried over
    verbatim; deduplication happens inside the merge/pseudo stages so the
    per-source report reconciles exactly.
    """
    for key in (*plan.direct_sources, *plan.pseudo_sources):
        if key not in datasets:
            raise AugmentError(f"plan references unknown dataset key {key!r}")
    merged, direct_counts = direct_merge(base, [datasets[key] for key in plan.direct_sources])

    if labeler is None:
        if plan.labeler is None:
            raise AugmentError("plan declares no labeler and none was supplied")
        labeler = plan.labeler.build()
    if not getattr(labeler, "fitted", False):
        trainable = [row for row in base if row.norm_text]
        labeler.fit(trainable)

    pseudo_rows, report = pseudo_label(
        labeler,
        [(key, datasets[key][1]) for key in plan.pseudo_sources],
        plan,
        known_norm_texts={row.norm_text for row in merged},
    )
    report.added_direct = len(merged) - len(base)
    report.discarded_duplicates += sum(
        counts["discarded_duplicates"] for counts in direct_counts.values()
    )
    report.per_source.update(direct_counts)

    # The additions were already deduplicated against the base and each other,
    # so the final merge only concatenates and source-qualifies ids; gold rows
    # are never dropped even if the base itself holds internal duplicates.
    return corpus_mod.merge([merged, pseudo_rows], dedup=False), report


def load_plan(path: str | Path, default_seed: int = 0) -> AugmentPlan:
    """Read a declarative augmentation plan (YAML or JSON)."""
    path = Path(path)
    if not path.exists():
        raise AugmentError(f"augmentation plan not found: {path}")
    data = yaml.safe_load(path.read_text(encoding="utf-8")) or {}
    labeler = None
    if data.get("labeler"):
        entries = data["labeler"].get("backends") or []
        if not entries:
            raise AugmentError(f"{path}: labeler section lists no backends")
        labeler = LabelerPlan(
            members=tuple(members_from_entries(entries, default_seed)),
            mode=data["labeler"].get("mode"),
            weights=tuple(data["labeler"]["weights"]) if data["labeler"].get("weights") else None,
        )
    registry = data.get("registry")
    if registry is not None:
        registry_path = Path(registry)
        if not registry_path.is_absolute():
            registry_path = path.parent / registry_path
        registry = str(registry_path)
    return AugmentPlan(
        direct_sources=tuple(data.get("direct_sources") or ()),
        pseudo_sources=tuple(data.get("pseudo_sources") or ()),
        confidence_threshold=float(data.get("confidence_threshold", 0.0)),
        labeler=labeler,
        registry=registry,
    )
