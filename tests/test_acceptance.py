"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Published headline numbers are checked through arithmetic oracles
(the fine-tuned encoders behind them need GPUs and restricted datasets);
everything executable at desk scale runs for real against the toy backend.
"""

from __future__ import annotations

import itertools
import json
import time
from pathlib import Path

import numpy as np
import yaml

from arahate.augment import AugmentPlan, build_augmented_corpus
from arahate.classifiers import Classifier
from arahate.cli import main
from arahate.corpus import DatasetDescriptor, LabeledText, write_jsonl
from arahate.encoder import EncoderSpec, HyperParams, ToyParams
from arahate.ensemble import average_vote, majority_vote
from arahate.evaluate import ConfusionMatrix, Scores, aggregate, per_class_metrics, stratified_folds
from arahate.labels import LABEL_INDEX, LABEL_ORDER, Label
from arahate.normalize import NormalizationConfig, normalize_text
from arahate.tune import SearchGrid, coordinate_search, make_cv_protocol

from conftest import class_text, load_golden_cases, make_separable_corpus, one_model_step
from test_ensemble import one_hotish, oracle_majority, pm
from test_evaluate import oracle_metrics, random_instance
from test_normalize import GOLDEN_FILE, GOLDEN_STOPWORDS, random_strings

TABLE_SUPPORTS = {Label.NH: 8332, Label.GH: 1397, Label.Re: 722, Label.Ra: 526, Label.Se: 657}


def report(name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {status} - {name}{suffix}")
    assert passed, f"{name}{suffix}"


class TestAcceptance:
    def test_macro_reconstruction(self):
        ensemble_row = {
            Label.NH: 92.73, Label.Se: 72.27, Label.Re: 82.56, Label.GH: 61.89, Label.Ra: 53.85,
        }
        augmented_row = {
            Label.NH: 92.41, Label.Se: 72.58, Label.Re: 83.50, Label.GH: 63.27, Label.Ra: 57.25,
        }
        macro_a = aggregate(ensemble_row, TABLE_SUPPORTS).macro_f1
        macro_b = aggregate(augmented_row, TABLE_SUPPORTS).macro_f1
        ok = abs(macro_a - 72.66) <= 0.01 and abs(macro_b - 73.80) <= 0.01
        report("macro reconstruction", ok, f"ensemble {macro_a:.4f}, augmented {macro_b:.4f}")

    def test_weighted_reconstruction(self):
        ensemble_row = {
            Label.NH: 92.73, Label.Se: 72.27, Label.Re: 82.56, Label.GH: 61.89, Label.Ra: 53.85,
        }
        augmented_row = {
            Label.NH: 92.41, Label.Se: 72.58, Label.Re: 83.50, Label.GH: 63.27, Label.Ra: 57.25,
        }
        weighted_a = aggregate(ensemble_row, TABLE_SUPPORTS).weighted_f1
        weighted_b = aggregate(augmented_row, TABLE_SUPPORTS).weighted_f1
        ok = abs(weighted_a - 85.48) <= 0.02 and abs(weighted_b - 85.65) <= 0.02
        report(
            "weighted reconstruction", ok, f"ensemble {weighted_a:.4f}, augmented {weighted_b:.4f}"
        )

    def test_metric_oracle_equivalence(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(1000):
            gold, predicted = random_instance(rng, max_rows=200)
            cm = ConfusionMatrix.from_pairs(gold, predicted)
            ours = per_class_metrics(cm)
            supports = {label: int(cm.counts[LABEL_INDEX[label]].sum()) for label in LABEL_ORDER}
            agg = aggregate({label: m.f1 for label, m in ours.items()}, supports)
            micro = Scores.of(cm, supports).micro_f1 / 100
            o_per, _, o_macro, o_micro, o_weighted = oracle_metrics(gold, predicted)
            for label in LABEL_ORDER:
                worst = max(
                    worst,
                    abs(ours[label].precision - o_per[label][0]),
                    abs(ours[label].recall - o_per[label][1]),
                    abs(ours[label].f1 - o_per[label][2]),
                )
            worst = max(
                worst,
                abs(agg.macro_f1 - o_macro),
                abs(micro - o_micro),
                abs(agg.weighted_f1 - o_weighted),
            )
        report("metric oracle equivalence", worst <= 1e-9, f"worst deviation {worst:.2e}")

    def test_voting_brute_force(self):
        mismatches = 0
        for pattern in itertools.product(range(5), repeat=3):
            rows = [one_hotish(w) for w in pattern]
            expected = LABEL_ORDER[oracle_majority(rows)]
            if majority_vote([pm([row]) for row in rows]) != [expected]:
                mismatches += 1
        rng = np.random.default_rng(77)
        for _ in range(1000):
            stack = np.stack([rng.dirichlet(np.ones(5), size=2) for _ in range(3)])
            labels, _ = average_vote([pm(stack[m]) for m in range(3)])
            mean = stack.mean(axis=0)
            if labels != [LABEL_ORDER[i] for i in mean.argmax(axis=1)]:
                mismatches += 1
        report(
            "voting brute force (125 patterns + 1000 random triples)",
            mismatches == 0,
            f"{mismatches} mismatches",
        )

    def test_normalization_golden_and_idempotence(self):
        cfg = NormalizationConfig.load(GOLDEN_STOPWORDS)
        cases = load_golden_cases(GOLDEN_FILE)
        golden_ok = len(cases) >= 20 and all(
            normalize_text(raw, cfg) == expected for raw, expected in cases
        )
        has_tatweel = any(raw == "مرحبـــــا" for raw, _ in cases)
        idempotent = True
        for text in random_strings(10_000, seed=2025):
            once = normalize_text(text, cfg)
            if normalize_text(once, cfg) != once:
                idempotent = False
                break
        ok = golden_ok and has_tatweel and idempotent
        report(
            "normalization golden file + idempotence",
            ok,
            f"{len(cases)} golden cases, 10000 random strings",
        )

    def test_stratification_proportionality(self):
        rows = []
        i = 0
        for label, count in TABLE_SUPPORTS.items():
            for _ in range(count):
                rows.append(LabeledText(id=str(i), raw_text="نص", label=label, source="t"))
                i += 1
        plan = stratified_folds(rows, k=10, seed=13)
        per_fold = {label: [0] * 10 for label in LABEL_ORDER}
        for row in rows:
            per_fold[row.label][plan.assignments[row.id]] += 1
        ok = True
        for label, count in TABLE_SUPPORTS.items():
            ideal = count / 10
            if any(abs(n - ideal) > 1 for n in per_fold[label]):
                ok = False
        ra_sizes = set(per_fold[Label.Ra])
        ok = ok and ra_sizes <= {52, 53}
        report("stratification proportionality", ok, f"Ra fold sizes {sorted(ra_sizes)}")

    def test_toy_gradient_check(self):
        rng = np.random.default_rng(31337)
        worst = 0.0
        for _ in range(100):
            n_buckets = int(rng.integers(8, 24))
            params = ToyParams(weights=rng.normal(size=(5, n_buckets)), bias=rng.normal(size=5))
            features = np.abs(rng.normal(size=(int(rng.integers(2, 7)), n_buckets)))
            labels = rng.integers(0, 5, size=features.shape[0])
            _, (grad_w, grad_b) = one_model_step(params, features, labels)
            h = 1e-6
            for arr, grad in ((params.weights, grad_w), (params.bias, grad_b)):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    original = arr[idx]
                    arr[idx] = original + h
                    up, _ = one_model_step(params, features, labels)
                    arr[idx] = original - h
                    down, _ = one_model_step(params, features, labels)
                    arr[idx] = original
                    fd = (up - down) / (2 * h)
                    rel = abs(fd - grad[idx]) / max(abs(fd), abs(grad[idx]), 1e-4)
                    worst = max(worst, rel)
        zero = ToyParams(weights=np.zeros((5, 11)), bias=np.zeros(5))
        features = np.abs(np.random.default_rng(1).normal(size=(4, 11)))
        zero_loss, _ = one_model_step(zero, features, [0, 1, 2, 3])
        zero_ok = abs(zero_loss - np.log(5)) <= 1e-9
        ok = worst < 1e-4 and zero_ok
        report(
            "toy-encoder gradient check",
            ok,
            f"max rel err {worst:.2e}, zero-param loss {zero_loss:.12f}",
        )

    def test_end_to_end_desk_run(self, tmp_path, capsys):
        corpus = make_separable_corpus(n_per_class=100, seed=99, normalized=False)
        data_path = tmp_path / "base.jsonl"
        write_jsonl(data_path, corpus)
        stopwords = tmp_path / "stopwords.txt"
        stopwords.write_text("من\nفي\n", encoding="utf-8")
        cfg = {
            "run_name": "desk",
            "seed": 9,
            "paths": {"data": str(data_path), "stopwords": str(stopwords)},
            "normalize": {"repeat_collapse_len": 2, "strip_non_arabic": True},
            "encoder": {
                "backends": [{"key": "toy"}],
                "hyperparams": {"epochs": 5, "batch_size": 8, "learning_rate": 0.1},
            },
            "ensemble": {"mode": "single"},
            "evaluate": {"folds": 10},
            "report": {"enabled": True, "format": "markdown"},
        }
        config_path = tmp_path / "config.yaml"
        config_path.write_text(yaml.safe_dump(cfg), encoding="utf-8")

        start = time.monotonic()
        rc1 = main(["run", "--config", str(config_path), "--out", str(tmp_path / "r1")])
        elapsed = time.monotonic() - start
        run1 = Path(capsys.readouterr().out.strip().split("-> ")[-1])
        rc2 = main(["run", "--config", str(config_path), "--out", str(tmp_path / "r2")])
        run2 = Path(capsys.readouterr().out.strip().split("-> ")[-1])

        metrics = json.loads((run1 / "metrics.json").read_text())
        macro = metrics["aggregates"]["macro_f1"]
        identical = (run1 / "metrics.json").read_bytes() == (run2 / "metrics.json").read_bytes()
        ok = rc1 == 0 and rc2 == 0 and elapsed < 60 and macro >= 95.0 and identical
        report(
            "end-to-end desk run",
            ok,
            f"{elapsed:.1f}s, macro {macro:.2f}%, rerun byte-identical: {identical}",
        )

    def test_augmentation_invariants(self):
        base = make_separable_corpus(n_per_class=12, seed=202)
        rng = np.random.default_rng(203)
        direct_rows = [
            LabeledText(
                id=f"d{i}", raw_text=text, label=Label.Re, source="rel", norm_text=text
            )
            for i, text in enumerate(class_text(Label.Re, rng) for _ in range(9))
        ]
        direct_rows.append(
            LabeledText(
                id="d-dup", raw_text=base[0].raw_text, label=Label.Re, source="rel",
                norm_text=base[0].norm_text,
            )
        )
        pseudo_rows = []
        for i in range(14):
            label = [Label.NH, Label.GH, Label.Ra, Label.Se][i % 4]
            text = class_text(label, rng)
            pseudo_rows.append(
                LabeledText(id=f"p{i}", raw_text=text, label=Label.GH, source="ext", norm_text=text)
            )
        pseudo_rows.append(
            LabeledText(
                id="p-dup", raw_text=base[1].raw_text, label=Label.GH, source="ext",
                norm_text=base[1].norm_text,
            )
        )
        datasets = {
            "rel": (
                DatasetDescriptor(key="rel", path="x", hate_only=True, label_map={"Re": "Re"}),
                direct_rows,
            ),
            "ext": (
                DatasetDescriptor(key="ext", path="y", hate_only=True, label_map={"GH": "GH"}),
                pseudo_rows,
            ),
        }
        plan = AugmentPlan(
            direct_sources=("rel",),
            pseudo_sources=("ext",),
            labeler=Classifier([(EncoderSpec("toy"), HyperParams(5, 8, 0.1, seed=7))], mode="single"),
        )
        merged, aug_report = build_augmented_corpus(base, plan, datasets)

        nh_gold = sum(1 for r in base if r.label == Label.NH)
        nh_gold_after = sum(
            1 for r in merged if r.label == Label.NH and r.origin == "gold"
        )
        no_pseudo_nh = all(r.label != Label.NH for r in merged if r.origin == "pseudo")
        reconciled = True
        for key, (_, rows) in datasets.items():
            entry = aug_report.per_source[key]
            total = (
                entry["added"]
                + entry.get("discarded_nh", 0)
                + entry.get("discarded_low_confidence", 0)
                + entry["discarded_duplicates"]
            )
            if total != len(rows):
                reconciled = False
        ok = nh_gold == nh_gold_after and no_pseudo_nh and reconciled
        report(
            "augmentation invariants",
            ok,
            f"NH gold {nh_gold}->{nh_gold_after}, reconciliation exact: {reconciled}",
        )

    def test_coordinate_search_criteria(self):
        corpus = make_separable_corpus(n_per_class=10, seed=301)
        fold_plan = stratified_folds(corpus, k=5, seed=3)
        grid = SearchGrid(
            epochs_axis=(1, 3), batch_axis=(4, 8), lr_axis=(0.05, 0.1),
            initial=HyperParams(1, 4, 0.05, seed=3),
        )
        best, trace = coordinate_search(
            EncoderSpec("toy"), grid, corpus, make_cv_protocol(fold_plan)
        )
        trace_ok = len(trace) == len(grid.epochs_axis) + len(grid.batch_axis) + len(grid.lr_axis)
        scores = [entry.score for entry in trace if entry.score is not None]
        best_entry = [
            entry
            for entry in trace
            if (entry.hp.epochs, entry.hp.batch_size, entry.hp.learning_rate)
            == (best.epochs, best.batch_size, best.learning_rate)
        ]
        best_ok = best_entry and max(scores) == best_entry[-1].score
        published = [
            HyperParams(epochs=4, batch_size=16, learning_rate=1e-5),
            HyperParams(epochs=2, batch_size=8, learning_rate=1e-5),
            HyperParams(epochs=3, batch_size=8, learning_rate=1e-5),
        ]
        grid_default = SearchGrid()
        published_ok = all(
            hp.epochs in grid_default.epochs_axis
            and hp.batch_size in grid_default.batch_axis
            and hp.learning_rate in grid_default.lr_axis
            for hp in published
        )
        ok = trace_ok and bool(best_ok) and published_ok
        report(
            "coordinate search",
            ok,
            f"trace {len(trace)} entries, best micro-F1 {max(scores):.2f}",
        )
