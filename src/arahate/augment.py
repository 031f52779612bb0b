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

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from . import corpus as corpus_mod
from .classifiers import Classifier
from .corpus import DatasetDescriptor, LabeledText, checked_row
from .errors import ArahateError, ConfigError
from .labels import HATE_LABELS, Label

log = logging.getLogger(__name__)


class AugmentError(ArahateError):
    pass


class AugmentPlanError(AugmentError, ConfigError):
    """A plan whose sources overlap or whose threshold lies outside [0, 1] (exit 1)."""


@dataclass(frozen=True)
class AugmentPlan:
    """Which sources to merge directly, which to pseudo-label, and how.

    ``build_augmented_corpus`` trains the labeler, if there are pseudo sources:
    one member gives a single fine-tuned model, several a voting ensemble.
    """

    direct_sources: tuple[str, ...] = ()
    pseudo_sources: tuple[str, ...] = ()
    confidence_threshold: float = 0.0
    labeler: Classifier | None = None
    registry: str | None = None  # dataset registry the source keys resolve in

    def __post_init__(self) -> None:
        overlap = set(self.direct_sources) & set(self.pseudo_sources)
        if overlap:
            raise AugmentPlanError(f"sources cannot be both direct and pseudo: {sorted(overlap)}")
        if not 0.0 <= self.confidence_threshold <= 1.0:
            raise AugmentPlanError("confidence_threshold must lie in [0, 1]")

    @classmethod
    def from_mapping(cls, section: Mapping, labeler: Classifier | None) -> "AugmentPlan":
        """Plan from a shape-checked ``augment`` section or `augment --plan` file."""
        return cls(
            direct_sources=tuple(section.get("direct_sources", ())),
            pseudo_sources=tuple(section.get("pseudo_sources", ())),
            confidence_threshold=float(section.get("confidence_threshold", 0.0)),
            labeler=labeler,
            registry=section.get("registry"),
        )


@dataclass
class AugmentReport:
    """Bookkeeping for one augmentation run: one record of counts per source.

    For every pseudo source: rows == added + discarded_nh +
    discarded_low_confidence + discarded_duplicates (checked by tests). The
    run's totals are sums over those records.
    """

    per_source: dict[str, dict] = field(default_factory=dict)

    def _total(self, count: str, kind: str | None = None) -> int:
        return sum(entry.get(count, 0) for entry in self.per_source.values() if kind in (None, entry["kind"]))

    added_direct = property(lambda self: self._total("added", "direct"))
    discarded_nh = property(lambda self: self._total("discarded_nh"))
    discarded_low_confidence = property(lambda self: self._total("discarded_low_confidence"))
    discarded_duplicates = property(lambda self: self._total("discarded_duplicates"))

    @property
    def pseudo_counts(self) -> dict[Label, int]:
        pseudo = [entry["pseudo_counts"] for entry in self.per_source.values() if entry["kind"] == "pseudo"]
        return {label: sum(counts[label.value] for counts in pseudo) for label in HATE_LABELS}

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
        corpus_mod.write_json(path, self.to_dict())


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
            merged.append(checked_row(row.id, row.raw_text, Label.Re, row.source, row.norm_text, "direct_merge"))
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
    labeler: Classifier,
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
        for row, label, top_p in zip(rows, labels, confidence.tolist()):
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
            # An NH prediction was dropped above, so the pseudo row passes LabeledText's checks.
            new_rows.append(checked_row(row.id, row.raw_text, label, row.source, row.norm_text, "pseudo"))
            counters["added"] += 1
            counters["pseudo_counts"][label.value] += 1
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
) -> tuple[list[LabeledText], AugmentReport]:
    """Full augmentation pipeline over an already-normalized base corpus.

    Merges the direct sources, trains the plan's labeler on the base corpus
    and pseudo-labels the rest (only then is a labeler needed), and returns
    base + additions with source-qualified ids. Gold rows are carried over
    verbatim; deduplication on normalized text happens inside
    ``direct_merge`` and ``pseudo_label``, so the per-source report counts
    every dropped row.
    """
    for key in (*plan.direct_sources, *plan.pseudo_sources):
        if key not in datasets:
            raise AugmentError(f"plan references unknown dataset key {key!r}")
    merged, direct_counts = direct_merge(base, [datasets[key] for key in plan.direct_sources])

    pseudo_rows, report = [], AugmentReport()
    if plan.pseudo_sources:
        if plan.labeler is None:
            raise AugmentError("plan declares no labeler")
        plan.labeler.fit([row for row in base if row.norm_text])
        pseudo_rows, report = pseudo_label(
            plan.labeler,
            [(key, datasets[key][1]) for key in plan.pseudo_sources],
            plan,
            known_norm_texts={row.norm_text for row in merged},
        )
    report.per_source.update(direct_counts)
    return corpus_mod.merge([merged, pseudo_rows]), report
