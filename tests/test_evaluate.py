"""Metrics, stratification and the CV driver, checked against brute-force oracles."""

from __future__ import annotations

from collections import Counter

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arahate.classifiers import Classifier
from arahate.corpus import LabeledText
from arahate.encoder import EncoderSpec, HyperParams
from arahate.evaluate import (
    ClassMetrics,
    ConfusionMatrix,
    EvaluationError,
    Scores,
    aggregate,
    cross_validate,
    per_class_metrics,
    stratified_folds,
)
from arahate.labels import LABEL_INDEX, LABEL_ORDER, Label

from conftest import make_separable_corpus

TABLE_SUPPORTS = {Label.NH: 8332, Label.GH: 1397, Label.Re: 722, Label.Ra: 526, Label.Se: 657}


# Brute-force oracle: per-class TP/FP/FN counting straight off the label lists.
def oracle_metrics(gold, predicted):
    per_class = {}
    supports = {}
    tp_total = fp_total = fn_total = 0
    for label in LABEL_ORDER:
        tp = sum(1 for g, p in zip(gold, predicted) if g == label and p == label)
        fp = sum(1 for g, p in zip(gold, predicted) if g != label and p == label)
        fn = sum(1 for g, p in zip(gold, predicted) if g == label and p != label)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class[label] = (precision, recall, f1)
        supports[label] = tp + fn
        tp_total += tp
        fp_total += fp
        fn_total += fn
    macro = sum(f1 for _, _, f1 in per_class.values()) / len(LABEL_ORDER)
    total = sum(supports.values())
    weighted = sum(per_class[label][2] * supports[label] for label in LABEL_ORDER) / total
    micro_p = tp_total / (tp_total + fp_total) if tp_total + fp_total else 0.0
    micro_r = tp_total / (tp_total + fn_total) if tp_total + fn_total else 0.0
    micro = 2 * micro_p * micro_r / (micro_p + micro_r) if micro_p + micro_r else 0.0
    return per_class, supports, macro, micro, weighted


def random_instance(rng, max_rows=200):
    n = rng.integers(1, max_rows + 1)
    gold = [LABEL_ORDER[i] for i in rng.integers(0, 5, size=n)]
    predicted = [LABEL_ORDER[i] for i in rng.integers(0, 5, size=n)]
    return gold, predicted


class TestStratifiedFolds:
    def test_perfectly_divisible(self):
        corpus = make_separable_corpus(n_per_class=10, seed=1)
        plan = stratified_folds(corpus, k=10, seed=0)
        for fold in range(10):
            ids = {row_id for row_id, f in plan.assignments.items() if f == fold}
            rows = [row for row in corpus if row.id in ids]
            counts = Counter(row.label for row in rows)
            assert all(counts[label] == 1 for label in LABEL_ORDER)

    def test_table_scale_proportionality(self):
        rows = []
        i = 0
        for label, count in TABLE_SUPPORTS.items():
            for _ in range(count):
                rows.append(LabeledText(id=str(i), raw_text="نص", label=label, source="t"))
                i += 1
        plan = stratified_folds(rows, k=10, seed=3)
        by_label = {label: [0] * 10 for label in LABEL_ORDER}
        for row in rows:
            by_label[row.label][plan.assignments[row.id]] += 1
        for label, count in TABLE_SUPPORTS.items():
            lo, hi = count // 10, count // 10 + (1 if count % 10 else 0)
            assert set(by_label[label]) <= {lo, hi}, label
        assert set(by_label[Label.Ra]) <= {52, 53}

    def test_k_one_rejected(self):
        corpus = make_separable_corpus(n_per_class=10, seed=2)
        with pytest.raises(EvaluationError, match="k must be at least 2"):
            stratified_folds(corpus, k=1, seed=0)

    def test_small_class_error_names_it(self):
        corpus = [
            row
            for row in make_separable_corpus(n_per_class=10, seed=3)
            if not (row.label == Label.Ra and int(row.id) % 2 == 0)
        ]
        with pytest.raises(EvaluationError, match="Ra"):
            stratified_folds(corpus, k=10, seed=0)

    def test_only_gold_rows_assigned(self):
        corpus = make_separable_corpus(n_per_class=10, seed=4)
        pseudo = [
            LabeledText(
                id=f"p{i}", raw_text="نص", label=Label.Re, source="x",
                norm_text="نص", origin="pseudo",
            )
            for i in range(5)
        ]
        plan = stratified_folds(corpus + pseudo, k=5, seed=0)
        assert all(not row_id.startswith("p") for row_id in plan.assignments)

    def test_seed_determinism(self):
        corpus = make_separable_corpus(n_per_class=10, seed=5)
        assert stratified_folds(corpus, 5, seed=9) == stratified_folds(corpus, 5, seed=9)
        assert stratified_folds(corpus, 5, seed=9) != stratified_folds(corpus, 5, seed=10)


class TestPerClassMetrics:
    def test_identity_matrix_perfect_scores(self):
        cm = ConfusionMatrix(np.eye(5, dtype=int) * 7)
        for metrics in per_class_metrics(cm).values():
            assert metrics == ClassMetrics(1.0, 1.0, 1.0)

    def test_hand_computed_cells(self):
        # Gold Ra row: 8 correct, 2 predicted NH; plus one NH row predicted Ra.
        counts = np.zeros((5, 5), dtype=int)
        ra, nh = LABEL_INDEX[Label.Ra], LABEL_INDEX[Label.NH]
        counts[ra, ra] = 8
        counts[ra, nh] = 2
        counts[nh, ra] = 1
        metrics = per_class_metrics(ConfusionMatrix(counts))[Label.Ra]
        assert metrics.recall == pytest.approx(0.8)
        assert metrics.precision == pytest.approx(8 / 9)

    def test_absent_class_zero_convention(self):
        counts = np.zeros((5, 5), dtype=int)
        counts[0, 0] = 3
        metrics = per_class_metrics(ConfusionMatrix(counts))
        assert metrics[Label.Se] == ClassMetrics(0.0, 0.0, 0.0)


class TestAggregate:
    def test_published_ensemble_row(self):
        per = {Label.NH: 92.73, Label.GH: 61.89, Label.Re: 82.56, Label.Ra: 53.85, Label.Se: 72.27}
        agg = aggregate(per, TABLE_SUPPORTS)
        assert agg.macro_f1 == pytest.approx(72.66, abs=0.01)
        assert agg.weighted_f1 == pytest.approx(85.48, abs=0.02)
        assert not hasattr(agg, "micro_f1")  # not derivable from F1 alone

    def test_published_augmented_row(self):
        per = {Label.NH: 92.41, Label.GH: 63.27, Label.Re: 83.50, Label.Ra: 57.25, Label.Se: 72.58}
        agg = aggregate(per, TABLE_SUPPORTS)
        assert agg.macro_f1 == pytest.approx(73.80, abs=0.01)
        assert agg.weighted_f1 == pytest.approx(85.65, abs=0.02)

    def test_published_average_voting_row(self):
        per = {Label.NH: 92.60, Label.GH: 61.21, Label.Re: 81.53, Label.Ra: 52.37, Label.Se: 70.86}
        agg = aggregate(per, TABLE_SUPPORTS)
        assert agg.macro_f1 == pytest.approx(71.71, abs=0.01)
        assert agg.weighted_f1 == pytest.approx(85.10, abs=0.02)

    def test_oracle_equivalence_on_random_instances(self):
        rng = np.random.default_rng(321)
        for _ in range(300):
            gold, predicted = random_instance(rng)
            cm = ConfusionMatrix.from_pairs(gold, predicted)
            ours = per_class_metrics(cm)
            supports = {label: int(cm.counts[LABEL_INDEX[label]].sum()) for label in LABEL_ORDER}
            agg = aggregate({label: m.f1 for label, m in ours.items()}, supports)
            o_per, o_supports, o_macro, o_micro, o_weighted = oracle_metrics(gold, predicted)
            assert supports == o_supports
            for label in LABEL_ORDER:
                assert ours[label].precision == pytest.approx(o_per[label][0], abs=1e-9)
                assert ours[label].recall == pytest.approx(o_per[label][1], abs=1e-9)
                assert ours[label].f1 == pytest.approx(o_per[label][2], abs=1e-9)
            assert agg.macro_f1 == pytest.approx(o_macro, abs=1e-9)
            assert Scores.of(cm, supports).micro_f1 / 100 == pytest.approx(o_micro, abs=1e-9)
            assert agg.weighted_f1 == pytest.approx(o_weighted, abs=1e-9)

    def test_micro_equals_accuracy(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            gold, predicted = random_instance(rng)
            cm = ConfusionMatrix.from_pairs(gold, predicted)
            supports = {label: int(cm.counts[LABEL_INDEX[label]].sum()) for label in LABEL_ORDER}
            accuracy = sum(g == p for g, p in zip(gold, predicted)) / len(gold)
            assert Scores.of(cm, supports).micro_f1 / 100 == pytest.approx(accuracy, abs=1e-9)

    def test_macro_and_weighted_bounded_by_extremes(self):
        rng = np.random.default_rng(18)
        for _ in range(100):
            gold, predicted = random_instance(rng)
            cm = ConfusionMatrix.from_pairs(gold, predicted)
            per = per_class_metrics(cm)
            supports = {label: int(cm.counts[LABEL_INDEX[label]].sum()) for label in LABEL_ORDER}
            agg = aggregate({label: m.f1 for label, m in per.items()}, supports)
            f1s = [m.f1 for m in per.values()]
            assert min(f1s) - 1e-12 <= agg.macro_f1 <= max(f1s) + 1e-12
            assert min(f1s) - 1e-12 <= agg.weighted_f1 <= max(f1s) + 1e-12


# A 5x5 confusion matrix in which every gold class has at least one row.
CONFUSION = st.lists(
    st.lists(st.integers(0, 40), min_size=5, max_size=5).filter(any), min_size=5, max_size=5
)


class TestAggregateProperties:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(CONFUSION)
    def test_macro_and_weighted_rebuild_from_per_class_f1_and_supports(self, counts):
        cm = ConfusionMatrix(np.asarray(counts))
        per = per_class_metrics(cm)
        supports = {label: int(cm.counts[i].sum()) for i, label in enumerate(LABEL_ORDER)}
        f1 = {label: per[label].f1 for label in LABEL_ORDER}
        total = sum(supports.values())
        agg = aggregate(f1, supports)
        assert agg.macro_f1 == pytest.approx(math.fsum(f1.values()) / 5, abs=1e-12)
        assert agg.weighted_f1 == pytest.approx(
            math.fsum(f1[label] * supports[label] for label in LABEL_ORDER) / total, abs=1e-12
        )
        assert Scores.of(cm, supports).micro_f1 / 100 == pytest.approx(np.trace(cm.counts) / total, abs=1e-12)
        assert min(f1.values()) - 1e-12 <= agg.weighted_f1 <= max(f1.values()) + 1e-12


class _ConstantModel:
    def __init__(self, label: Label):
        self.label = label

    def predict_labels(self, texts):
        return [self.label] * len(texts)


def constant_nh(trains):
    """A model recipe: a model that always predicts NH, per training set."""
    return [_ConstantModel(Label.NH) for _ in trains]


class TestCrossValidate:
    def test_separable_corpus_high_macro(self):
        corpus = make_separable_corpus(n_per_class=20, seed=6)
        plan = stratified_folds(corpus, k=5, seed=1)
        classifier = Classifier([(EncoderSpec("toy"), HyperParams(5, 8, 0.1, seed=1))])
        report = cross_validate(corpus, classifier.fit_many, plan)
        assert report.macro_f1 >= 95.0
        assert len(report.fold_detail) == 5

    def test_constant_nh_model_micro_equals_class_share(self):
        rng = np.random.default_rng(19)
        rows = []
        i = 0
        # 1/10 scale of the published class proportions
        for label, count in {
            Label.NH: 833, Label.GH: 140, Label.Re: 72, Label.Ra: 53, Label.Se: 66,
        }.items():
            for _ in range(count):
                rows.append(
                    LabeledText(id=str(i), raw_text="نص", label=label, source="t", norm_text="نص")
                )
                i += 1
        plan = stratified_folds(rows, k=10, seed=2)
        report = cross_validate(rows, constant_nh, plan)
        share = 833 / len(rows) * 100
        assert report.micro_f1 == pytest.approx(share, abs=0.5)
        assert len(report.fold_detail) == 10

    def test_every_gold_row_tested_once_and_pseudo_never(self):
        corpus = make_separable_corpus(n_per_class=10, seed=7)
        pseudo = [
            LabeledText(
                id=f"p{i}", raw_text="نص", label=Label.Ra, source="x",
                norm_text=corpus[i].norm_text, origin="pseudo",
            )
            for i in range(5)
        ]
        tested: list[str] = []

        class SpyModel:
            def __init__(self, test_rows):
                self.test_rows = test_rows

            def predict_labels(self, texts):
                return [Label.NH] * len(texts)

        def recipe(trains):
            for train in trains:
                assert all(row.origin != "gold" or row.norm_text for row in train)
            return [SpyModel(None) for _ in trains]

        plan = stratified_folds(corpus + pseudo, k=5, seed=3)
        for fold in range(plan.k):
            tested.extend(sorted(row_id for row_id, f in plan.assignments.items() if f == fold))
        assert sorted(tested) == sorted(row.id for row in corpus)
        report = cross_validate(corpus + pseudo, recipe, plan)
        assert sum(report.supports.values()) == len(corpus)

    def test_training_failure_names_fold(self):
        corpus = make_separable_corpus(n_per_class=10, seed=8)
        plan = stratified_folds(corpus, k=5, seed=4)

        def broken(trains):
            raise EvaluationError("boom")

        with pytest.raises(EvaluationError, match="fold 0"):
            cross_validate(corpus, broken, plan)

    def test_fold_plan_must_cover_corpus(self):
        corpus = make_separable_corpus(n_per_class=10, seed=9)
        subset = [row for row in corpus if int(row.id) % 10 < 8]  # 8 rows per class
        plan = stratified_folds(subset, k=5, seed=5)
        with pytest.raises(EvaluationError, match="does not cover"):
            cross_validate(corpus, constant_nh, plan)

    def test_report_serialization_round_trip(self, tmp_path):
        corpus = make_separable_corpus(n_per_class=10, seed=10)
        plan = stratified_folds(corpus, k=5, seed=6)
        report = cross_validate(
            corpus, constant_nh, plan, seed=6, config_hash="abc"
        )
        path = tmp_path / "metrics.json"
        report.write_json(path)
        import json

        data = json.loads(path.read_text())
        assert set(data) == {
            "per_class", "supports", "aggregates", "pooled", "fold_detail", "seed", "config_hash",
        }
        assert data["seed"] == 6
        assert data["config_hash"] == "abc"
        assert len(data["fold_detail"]) == 5
        assert data["supports"]["NH"] == 10
