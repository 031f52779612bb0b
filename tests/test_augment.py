"""Augmentation: direct merge, pseudo-labelling, report reconciliation, invariants."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from arahate import corpus, encoder
from arahate.augment import (
    AugmentError,
    AugmentPlan,
    build_augmented_corpus,
    direct_merge,
    pseudo_label,
)
from arahate.classifiers import Classifier, NotFittedError
from arahate.config import load_plan
from arahate.corpus import DatasetDescriptor, LabeledText
from arahate.encoder import EncoderSpec, HyperParams
from arahate.labels import HATE_LABELS, Label

from conftest import class_text, row_fields

SPEC = EncoderSpec("toy")
HP = HyperParams(epochs=5, batch_size=8, learning_rate=0.1, seed=1)


def hate_descriptor(key="rel", hate_only=True):
    return DatasetDescriptor(
        key=key, path=f"{key}.jsonl", hate_only=hate_only, label_map={"Re": "Re"}
    )


def source_rows(label: Label, count: int, seed: int, key: str) -> list[LabeledText]:
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(count):
        text = class_text(label, rng)
        rows.append(
            LabeledText(
                id=f"{key}-{i}", raw_text=text, label=Label.Re if label == Label.Re else Label.GH,
                source=key, norm_text=text,
            )
        )
    return rows


@pytest.fixture
def base(separable_corpus):
    return separable_corpus


@pytest.fixture
def fitted_labeler(base):
    return Classifier([(SPEC, HP)]).fit(base)


class FixedLabeler:
    """A labeler that predicts the given labels, each with confidence 0.9."""

    def __init__(self, labels: list[Label]):
        self.labels = labels

    def predict_with_confidence(self, texts):
        return self.labels[: len(texts)], np.full(len(texts), 0.9)


class TestDirectMerge:
    def test_rows_equal_replace_copies(self, base):
        rows = [
            LabeledText(id=f"r{i}", raw_text=text, label=label, source="rel", norm_text=text, origin=origin)
            for i, (text, label, origin) in enumerate(
                [("نص 0", Label.GH, "gold"), ("نص 1", Label.Se, "pseudo"), ("نص 2", Label.NH, "direct_merge")]
            )
        ]
        merged, _ = direct_merge(base, [(hate_descriptor(), rows)])
        assert [row_fields(row) for row in merged] == [row_fields(row) for row in base] + [
            row_fields(replace(row, label=Label.Re, origin="direct_merge")) for row in rows
        ]

    def test_rows_arrive_with_re_label_and_origin(self, base):
        rows = source_rows(Label.Re, 12, seed=31, key="rel")
        merged, counts = direct_merge(base, [(hate_descriptor(), rows)])
        added = merged[len(base):]
        assert 0 < len(added) <= 12
        assert all(row.label == Label.Re and row.origin == "direct_merge" for row in added)
        assert counts == {
            "rel": {
                "kind": "direct", "rows": 12, "added": len(added),
                "discarded_duplicates": 12 - len(added),
            }
        }

    def test_empty_source_list_is_identity(self, base):
        assert direct_merge(base, []) == (list(base), {})

    def test_fully_duplicated_source_adds_nothing(self, base):
        duplicates = [
            LabeledText(
                id=f"dup-{i}", raw_text=row.raw_text, label=Label.Re, source="dup",
                norm_text=row.norm_text,
            )
            for i, row in enumerate(base[:8])
        ]
        merged, counts = direct_merge(base, [(hate_descriptor("dup"), duplicates)])
        assert len(merged) == len(base)
        assert counts["dup"]["discarded_duplicates"] == 8

    def test_corpus_scale_source_bounded_delta(self, base):
        # Source sized like the largest religious-hate corpus in the roster.
        rows = source_rows(Label.Re, 2759, seed=30, key="rhs")
        rows[0].norm_text = base[0].norm_text  # one overlap with the base
        merged, counts = direct_merge(base, [(hate_descriptor("rhs"), rows)])
        delta = len(merged) - len(base)
        assert 0 < delta <= 2759
        duplicates = 2759 - delta
        assert duplicates >= 1  # the constructed overlap was dropped
        assert counts["rhs"]["discarded_duplicates"] == duplicates

    def test_non_hate_only_source_rejected(self, base):
        rows = source_rows(Label.Re, 3, seed=32, key="bad")
        with pytest.raises(AugmentError, match="hate_only"):
            direct_merge(base, [(hate_descriptor("bad", hate_only=False), rows)])

    def test_unnormalized_source_rejected(self, base):
        rows = [LabeledText(id="1", raw_text="نص", label=Label.Re, source="s")]
        with pytest.raises(AugmentError, match="normalize"):
            direct_merge(base, [(hate_descriptor("s"), rows)])


class TestPseudoLabel:
    def test_separable_source_all_one_class(self, fitted_labeler):
        plan = AugmentPlan(pseudo_sources=("ra",))
        rows = source_rows(Label.Ra, 15, seed=33, key="ra")
        new_rows, report = pseudo_label(fitted_labeler, [("ra", rows)], plan)
        assert len(new_rows) == 15
        assert all(row.label == Label.Ra and row.origin == "pseudo" for row in new_rows)
        assert report.pseudo_counts[Label.Ra] == 15
        assert report.discarded_nh == 0
        assert report.discarded_low_confidence == 0

    def test_nh_predictions_discarded(self, fitted_labeler):
        plan = AugmentPlan(pseudo_sources=("nh",))
        rows = source_rows(Label.NH, 10, seed=34, key="nh")
        new_rows, report = pseudo_label(fitted_labeler, [("nh", rows)], plan)
        assert new_rows == []
        assert report.discarded_nh == 10
        assert all(count == 0 for count in report.pseudo_counts.values())

    def test_unreachable_threshold_discards_everything(self, fitted_labeler):
        plan = AugmentPlan(pseudo_sources=("ra",), confidence_threshold=1.0)
        rows = source_rows(Label.Ra, 10, seed=35, key="ra")
        new_rows, report = pseudo_label(fitted_labeler, [("ra", rows)], plan)
        assert new_rows == []
        assert report.discarded_low_confidence == 10

    def test_duplicates_checked_before_classification(self, fitted_labeler, base):
        plan = AugmentPlan(pseudo_sources=("ra",))
        rows = source_rows(Label.Ra, 6, seed=36, key="ra")
        known = {rows[0].norm_text}
        new_rows, report = pseudo_label(fitted_labeler, [("ra", rows)], plan, known)
        assert len(new_rows) == 5
        assert report.discarded_duplicates == 1

    def test_reconciliation_identity_per_source(self, fitted_labeler):
        plan = AugmentPlan(pseudo_sources=("a", "b"))
        a = source_rows(Label.Ra, 9, seed=37, key="a")
        b = source_rows(Label.Se, 7, seed=38, key="b")
        b[0].norm_text = a[0].norm_text  # cross-source duplicate
        _, report = pseudo_label(fitted_labeler, [("a", a), ("b", b)], plan)
        for key, size in (("a", 9), ("b", 7)):
            entry = report.per_source[key]
            assert entry["rows"] == size
            assert (
                entry["added"]
                + entry["discarded_nh"]
                + entry["discarded_low_confidence"]
                + entry["discarded_duplicates"]
                == size
            )

    def test_untrained_labeler_rejected(self):
        plan = AugmentPlan(pseudo_sources=("x",))
        rows = source_rows(Label.Ra, 2, seed=39, key="x")
        with pytest.raises(NotFittedError):
            pseudo_label(Classifier([(SPEC, HP)]), [("x", rows)], plan)

    def test_rows_equal_replace_copies(self):
        predicted = [Label.GH, Label.NH, Label.Se, Label.Ra, Label.Re, Label.NH]
        rows = [
            LabeledText(id=f"p{i}", raw_text=f"نص {i}", label=Label.GH, source="p", norm_text=f"نص {i}")
            for i in range(len(predicted))
        ]
        labeler = FixedLabeler(predicted)
        new_rows, _ = pseudo_label(labeler, [("p", rows)], AugmentPlan(pseudo_sources=("p",)))
        assert [row_fields(row) for row in new_rows] == [
            row_fields(replace(row, label=label, origin="pseudo"))
            for row, label in zip(rows, predicted)
            if label != Label.NH
        ]

    def test_pseudo_rows_never_nh(self, fitted_labeler):
        plan = AugmentPlan(pseudo_sources=("mix",))
        rng = np.random.default_rng(40)
        rows = []
        for i, label in enumerate([Label.NH, Label.GH, Label.Ra, Label.Se, Label.Re] * 4):
            text = class_text(label, rng)
            rows.append(
                LabeledText(id=f"m{i}", raw_text=text, label=Label.GH, source="mix", norm_text=text)
            )
        new_rows, _ = pseudo_label(fitted_labeler, [("mix", rows)], plan)
        assert all(row.label != Label.NH for row in new_rows)


class TestBuildAugmentedCorpus:
    def _datasets(self, base):
        direct = source_rows(Label.Re, 20, seed=41, key="rel")
        direct.append(
            LabeledText(
                id="rel-dup", raw_text=base[0].raw_text, label=Label.Re, source="rel",
                norm_text=base[0].norm_text,
            )
        )
        pseudo_ra = source_rows(Label.Ra, 15, seed=42, key="ext")
        pseudo_ra.append(
            LabeledText(
                id="ext-dup", raw_text=base[1].raw_text, label=Label.GH, source="ext",
                norm_text=base[1].norm_text,
            )
        )
        return {
            "rel": (hate_descriptor("rel"), direct),
            "ext": (hate_descriptor("ext"), pseudo_ra),
        }

    def _plan(self):
        return AugmentPlan(
            direct_sources=("rel",),
            pseudo_sources=("ext",),
            labeler=Classifier([(SPEC, HP)], mode="single"),
        )

    def test_empty_plan_returns_base(self, base):
        plan = AugmentPlan(labeler=Classifier([(SPEC, HP)], mode="single"))
        merged, report = build_augmented_corpus(base, plan, {})
        assert len(merged) == len(base)
        assert report.added_direct == 0
        assert all(count == 0 for count in report.pseudo_counts.values())

    def test_minority_counts_increase_nh_unchanged(self, base):
        merged, report = build_augmented_corpus(base, self._plan(), self._datasets(base))
        def count(rows, label, origin=None):
            return sum(
                1 for row in rows
                if row.label == label and (origin is None or row.origin == origin)
            )
        assert count(merged, Label.NH) == count(base, Label.NH)
        assert count(merged, Label.Re) > count(base, Label.Re)
        assert count(merged, Label.Ra) > count(base, Label.Ra)
        assert count(merged, Label.NH, "pseudo") == 0
        assert report.added_direct == 20

    def test_gold_rows_carried_verbatim(self, base):
        merged, _ = build_augmented_corpus(base, self._plan(), self._datasets(base))
        head = merged[: len(base)]
        assert [
            (row.raw_text, row.norm_text, row.label, row.origin) for row in head
        ] == [(row.raw_text, row.norm_text, row.label, "gold") for row in base]

    def test_duplicates_counted(self, base):
        _, report = build_augmented_corpus(base, self._plan(), self._datasets(base))
        assert report.per_source["rel"]["discarded_duplicates"] == 1
        assert report.per_source["ext"]["discarded_duplicates"] == 1
        assert report.discarded_duplicates == 2

    def test_report_reconciles_with_source_sizes(self, base):
        datasets = self._datasets(base)
        _, report = build_augmented_corpus(base, self._plan(), datasets)
        for key, (_, rows) in datasets.items():
            entry = report.per_source[key]
            discards = entry["discarded_duplicates"] + entry.get("discarded_nh", 0) + entry.get(
                "discarded_low_confidence", 0
            )
            assert entry["added"] + discards == len(rows)

    def test_direct_only_plan_needs_no_labeler(self, base):
        datasets = self._datasets(base)
        plan = AugmentPlan(direct_sources=("rel",))
        merged, report = build_augmented_corpus(base, plan, datasets)
        expected, counts = direct_merge(base, [datasets["rel"]])
        assert merged == corpus.merge([expected]) and report.per_source == counts
        assert report.added_direct == 20 and not any(report.pseudo_counts.values())

    def test_direct_only_plan_fits_no_labeler(self, base, monkeypatch):
        monkeypatch.setattr(encoder, "fit_many", lambda *args: pytest.fail("a direct-only plan fitted its labeler"))
        plan = AugmentPlan(direct_sources=("rel",), labeler=Classifier([(SPEC, HP)], mode="single"))
        merged, _ = build_augmented_corpus(base, plan, self._datasets(base))
        assert len(merged) == len(base) + 20 and plan.labeler.models is None

    def test_pseudo_sources_without_a_labeler_rejected(self, base):
        plan = AugmentPlan(direct_sources=("rel",), pseudo_sources=("ext",))
        with pytest.raises(AugmentError, match="plan declares no labeler"):
            build_augmented_corpus(base, plan, self._datasets(base))

    def test_unknown_source_key_rejected(self, base):
        plan = AugmentPlan(
            direct_sources=("ghost",),
            labeler=Classifier([(SPEC, HP)], mode="single"),
        )
        with pytest.raises(AugmentError, match="ghost"):
            build_augmented_corpus(base, plan, {})

    def test_report_json(self, base, tmp_path):
        _, report = build_augmented_corpus(base, self._plan(), self._datasets(base))
        path = tmp_path / "report.json"
        report.write_json(path)
        import json

        data = json.loads(path.read_text())
        assert set(data["pseudo_counts"]) == {label.value for label in HATE_LABELS}
        assert data["added_direct"] == 20


class TestPlanValidation:
    def test_overlapping_sources_rejected(self):
        with pytest.raises(AugmentError, match="both"):
            AugmentPlan(direct_sources=("a",), pseudo_sources=("a",))

    def test_threshold_range_enforced(self):
        with pytest.raises(AugmentError):
            AugmentPlan(confidence_threshold=1.5)

    def test_load_plan_file(self, tmp_path):
        registry = tmp_path / "registry.yaml"
        registry.write_text("datasets: []\n", encoding="utf-8")
        plan_file = tmp_path / "plan.yaml"
        plan_file.write_text(
            "registry: registry.yaml\n"
            "direct_sources: [rel]\n"
            "pseudo_sources: [ext]\n"
            "confidence_threshold: 0.25\n"
            "labeler:\n"
            "  mode: single\n"
            "  backends:\n"
            "    - key: toy\n"
            "      hyperparams: {epochs: 3, batch_size: 4, learning_rate: 0.1}\n",
            encoding="utf-8",
        )
        plan = load_plan(plan_file, default_seed=5)
        assert plan.direct_sources == ("rel",)
        assert plan.pseudo_sources == ("ext",)
        assert plan.confidence_threshold == 0.25
        assert plan.registry == str(registry)
        spec, hp = plan.labeler.members[0]
        assert spec.backend_key == "toy"
        assert hp == HyperParams(3, 4, 0.1, seed=5)

    def test_load_plan_members_get_distinct_seeds(self, tmp_path):
        plan_file = tmp_path / "plan.yaml"
        plan_file.write_text(
            "labeler:\n"
            "  backends:\n"
            "    - key: toy\n"
            "    - key: toy\n"
            "    - key: toy\n"
            "      hyperparams: {seed: 40}\n",
            encoding="utf-8",
        )
        plan = load_plan(plan_file, default_seed=7)
        assert [hp for _, hp in plan.labeler.members] == [
            HyperParams(2, 8, 1e-5, seed=7),
            HyperParams(2, 8, 1e-5, seed=8),
            HyperParams(2, 8, 1e-5, seed=40),
        ]
        assert plan.labeler.mode == "majority"
