"""CLI subcommands and the resumable full-pipeline run."""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import replace
from importlib import resources
from pathlib import Path

import pytest
import yaml

from arahate.cli import main
from arahate.corpus import read_jsonl, write_jsonl
from arahate.ensemble import ProbabilityMatrix, write_proba_csv
from arahate.labels import LABEL_ORDER

from conftest import make_separable_corpus


def write_config(tmp_path: Path, corpus_rows, **overrides) -> Path:
    data_path = tmp_path / "base.jsonl"
    write_jsonl(data_path, corpus_rows)
    stopwords = tmp_path / "stopwords.txt"
    stopwords.write_text("من\nفي\n", encoding="utf-8")
    cfg = {
        "run_name": "test",
        "seed": 7,
        "paths": {
            "data": str(data_path),
            "stopwords": str(stopwords),
            "out_root": str(tmp_path / "runs"),
        },
        "normalize": {"repeat_collapse_len": 2, "strip_non_arabic": True},
        "encoder": {
            "backends": [{"key": "toy"}],
            "hyperparams": {"epochs": 5, "batch_size": 8, "learning_rate": 0.1},
        },
        "ensemble": {"mode": "single"},
        "evaluate": {"folds": 5},
    }
    cfg.update(overrides)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    return path


def write_registry(tmp_path: Path) -> Path:
    """A registry of two three-per-class sources: rel (direct merge) and ext (pseudo)."""
    rel = tmp_path / "rel.jsonl"
    write_jsonl(rel, make_separable_corpus(3, seed=52, source="rel", id_prefix="r"))
    ext = tmp_path / "ext.jsonl"
    write_jsonl(ext, make_separable_corpus(3, seed=53, source="ext", id_prefix="e"))
    registry = tmp_path / "registry.yaml"
    registry.write_text(
        "datasets:\n"
        f"  - key: rel\n    path: {rel.name}\n    hate_only: true\n"
        "    label_map: {NH: Re, GH: Re, Re: Re, Ra: Re, Se: Re}\n"
        f"  - key: ext\n    path: {ext.name}\n    hate_only: true\n"
        "    label_map: {NH: GH, GH: GH, Re: GH, Ra: GH, Se: GH}\n",
        encoding="utf-8",
    )
    return registry


def augment_section(registry: Path) -> dict:
    return {
        "enabled": True,
        "registry": str(registry),
        "direct_sources": ["rel"],
        "pseudo_sources": ["ext"],
    }


TWO_TOYS = {
    "backends": [{"key": "toy"}, {"key": "toy"}],
    "hyperparams": {"epochs": 3, "batch_size": 8, "learning_rate": 0.1},
}


def run_dir_of(capsys) -> Path:
    return Path(capsys.readouterr().out.strip().split("-> ")[-1])


@pytest.fixture
def small_corpus():
    return make_separable_corpus(n_per_class=10, seed=51, normalized=False)


class TestRunCommand:
    def test_full_run_produces_metrics(self, tmp_path, small_corpus, capsys):
        config = write_config(tmp_path, small_corpus)
        assert main(["run", "--config", str(config)]) == 0
        run_dir = Path(capsys.readouterr().out.strip().split("-> ")[-1])
        assert (run_dir / "metrics.json").exists()
        assert (run_dir / "manifest.json").exists()
        markers = {p.stem for p in (run_dir / "stages").glob("*.ok")}
        assert markers == {"normalize", "train", "evaluate"}
        metrics = json.loads((run_dir / "metrics.json").read_text())
        assert metrics["aggregates"]["macro_f1"] >= 95.0
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["stages"] == {
            "normalize": "complete", "train": "complete", "evaluate": "complete",
        }
        assert manifest["stopword_sha256"]

    def test_rerun_skips_completed_stages(self, tmp_path, small_corpus, capsys):
        config = write_config(tmp_path, small_corpus)
        assert main(["run", "--config", str(config)]) == 0
        run_dir = Path(capsys.readouterr().out.strip().split("-> ")[-1])
        before = {p: p.stat().st_mtime_ns for p in run_dir.rglob("*") if p.is_file()}
        assert main(["run", "--config", str(config)]) == 0
        after = {p: p.stat().st_mtime_ns for p in run_dir.rglob("*") if p.is_file()}
        unchanged = {p for p in before if before[p] == after.get(p)}
        # No stage output was regenerated (the manifest is refreshed).
        regenerated = {p for p in before if p in after and before[p] != after[p]}
        assert (run_dir / "metrics.json") in unchanged
        assert regenerated <= {run_dir / "manifest.json"}

    def test_deleting_stage_output_reruns_only_downstream(self, tmp_path, small_corpus, capsys):
        config = write_config(tmp_path, small_corpus)
        assert main(["run", "--config", str(config)]) == 0
        run_dir = Path(capsys.readouterr().out.strip().split("-> ")[-1])
        normalize_mtime = (run_dir / "normalized" / "base.jsonl").stat().st_mtime_ns
        train_manifest = run_dir / "models" / "toy" / "manifest.txt"
        train_mtime = train_manifest.stat().st_mtime_ns
        metrics_mtime = (run_dir / "metrics.json").stat().st_mtime_ns
        (run_dir / "metrics.json").unlink()
        assert main(["run", "--config", str(config)]) == 0
        assert (run_dir / "normalized" / "base.jsonl").stat().st_mtime_ns == normalize_mtime
        assert train_manifest.stat().st_mtime_ns == train_mtime
        assert (run_dir / "metrics.json").stat().st_mtime_ns != metrics_mtime

    def test_identical_runs_byte_identical_metrics(self, tmp_path, small_corpus, capsys):
        config = write_config(tmp_path, small_corpus)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "r1")]) == 0
        run1 = Path(capsys.readouterr().out.strip().split("-> ")[-1])
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "r2")]) == 0
        run2 = Path(capsys.readouterr().out.strip().split("-> ")[-1])
        assert run1 != run2
        assert (run1 / "metrics.json").read_bytes() == (run2 / "metrics.json").read_bytes()

    def test_unknown_backend_is_validation_error(self, tmp_path, small_corpus):
        config = write_config(
            tmp_path,
            small_corpus,
            encoder={
                "backends": [{"key": "no-such-backend"}],
                "hyperparams": {"epochs": 1, "batch_size": 8, "learning_rate": 0.1},
            },
        )
        assert main(["run", "--config", str(config)]) == 1

    def test_schema_violation_is_validation_error(self, tmp_path, small_corpus):
        config = write_config(tmp_path, small_corpus, evaluate={"folds": 1})
        assert main(["run", "--config", str(config)]) == 1

    def test_stage_failure_exit_code_and_record(self, tmp_path, small_corpus, capsys):
        # Corrupt JSONL passes config validation (file exists) but the
        # normalize stage fails while parsing it.
        config = write_config(tmp_path, small_corpus)
        (tmp_path / "base.jsonl").write_text("not json\n", encoding="utf-8")
        assert main(["run", "--config", str(config)]) == 2
        cfg = yaml.safe_load(config.read_text())
        runs_root = Path(cfg["paths"]["out_root"])
        failed = list(runs_root.glob("run-*/stages/normalize.failed"))
        assert len(failed) == 1
        record = json.loads(failed[0].read_text())
        assert record["stage"] == "normalize"

    def test_run_with_report_stage(self, tmp_path, small_corpus, capsys):
        config = write_config(
            tmp_path, small_corpus, report={"enabled": True, "format": "markdown"}
        )
        assert main(["run", "--config", str(config)]) == 0
        run_dir = Path(capsys.readouterr().out.strip().split("-> ")[-1])
        tables = run_dir / "report" / "tables.md"
        assert tables.exists()
        assert "majority-voting" in tables.read_text(encoding="utf-8")

    def test_run_with_augmentation_and_ensemble(self, tmp_path, small_corpus, capsys):
        config = write_config(
            tmp_path,
            small_corpus,
            encoder={
                "backends": [{"key": "toy"}, {"key": "toy"}, {"key": "toy"}],
                "hyperparams": {"epochs": 3, "batch_size": 8, "learning_rate": 0.1},
            },
            ensemble={"mode": "majority"},
            augment=augment_section(write_registry(tmp_path)),
        )
        assert main(["run", "--config", str(config)]) == 0
        run_dir = Path(capsys.readouterr().out.strip().split("-> ")[-1])
        markers = {p.stem for p in (run_dir / "stages").glob("*.ok")}
        assert markers == {"normalize", "augment", "train", "evaluate"}
        augmented = read_jsonl(run_dir / "augmented" / "corpus.jsonl")
        assert len(augmented) > 50
        origins = {row.origin for row in augmented}
        assert origins == {"gold", "direct_merge", "pseudo"}
        report = json.loads((run_dir / "augmented" / "report.json").read_text())
        assert report["added_direct"] > 0
        metrics = json.loads((run_dir / "metrics.json").read_text())
        assert sum(metrics["supports"].values()) == 50  # gold rows only

    def test_run_with_tune_stage(self, tmp_path, small_corpus, capsys):
        config = write_config(
            tmp_path,
            small_corpus,
            tune={
                "enabled": True,
                "epochs_axis": [1, 5],
                "batch_axis": [8],
                "lr_axis": [0.1],
                "initial": {"epochs": 1, "batch_size": 8, "learning_rate": 0.1},
            },
        )
        assert main(["run", "--config", str(config)]) == 0
        run_dir = Path(capsys.readouterr().out.strip().split("-> ")[-1])
        best = json.loads((run_dir / "tune" / "best.json").read_text())
        assert "toy" in best
        assert (run_dir / "tune" / "toy_trace.csv").exists()

    @pytest.mark.parametrize("edited", ["data", "stopwords", "dataset", "baselines"])
    def test_input_edited_in_place_starts_a_fresh_run(self, tmp_path, small_corpus, capsys, edited):
        baselines = tmp_path / "baselines.json"
        baselines.write_text(
            resources.files("arahate").joinpath("data/baselines.json").read_text("utf-8"),
            encoding="utf-8",
        )
        config = write_config(
            tmp_path,
            small_corpus,
            augment=augment_section(write_registry(tmp_path)),
            report={"enabled": True, "baselines": str(baselines)},
        )
        assert main(["run", "--config", str(config)]) == 0
        first = run_dir_of(capsys)
        path = {
            "data": tmp_path / "base.jsonl",
            "stopwords": tmp_path / "stopwords.txt",
            "dataset": tmp_path / "rel.jsonl",
            "baselines": baselines,
        }[edited]
        if edited == "data":  # every label moves on to the next class
            rotate = dict(zip(LABEL_ORDER, LABEL_ORDER[1:] + LABEL_ORDER[:1]))
            write_jsonl(path, [replace(row, label=rotate[row.label]) for row in read_jsonl(path)])
        else:
            path.write_text(path.read_text(encoding="utf-8") + "\n", encoding="utf-8")
        assert main(["run", "--config", str(config)]) == 0
        second = run_dir_of(capsys)
        assert second != first
        manifest = json.loads((second / "manifest.json").read_text())
        assert manifest["input_hashes"][str(path)] == hashlib.sha256(path.read_bytes()).hexdigest()
        corpus = read_jsonl(second / "augmented" / "corpus.jsonl")
        gold_labels = [row.label for row in corpus if row.origin == "gold"]
        assert gold_labels == [row.label for row in read_jsonl(tmp_path / "base.jsonl")]

    def test_missing_registry_dataset_is_stage_failure(self, tmp_path, small_corpus, capsys):
        registry = write_registry(tmp_path)
        (tmp_path / "ext.jsonl").unlink()
        config = write_config(tmp_path, small_corpus, augment=augment_section(registry))
        assert main(["run", "--config", str(config)]) == 2
        failed = list((tmp_path / "runs").glob("run-*/stages/normalize.failed"))
        assert len(failed) == 1
        assert "ext" in json.loads(failed[0].read_text())["error"]


class TestEnsemblePolicy:
    @pytest.mark.parametrize("path", ["config", "plan", "vote"])
    def test_weights_need_average_mode(self, tmp_path, small_corpus, path):
        registry = write_registry(tmp_path)
        if path == "config":
            ensemble = {"mode": "majority", "weights": [1, 0]}
            config = write_config(tmp_path, small_corpus, encoder=TWO_TOYS, ensemble=ensemble)
            argv = ["run", "--config", str(config)]
        elif path == "plan":
            base = tmp_path / "base.jsonl"
            write_jsonl(base, small_corpus)
            plan = tmp_path / "plan.yaml"
            plan.write_text(
                yaml.safe_dump(
                    {
                        "registry": str(registry),
                        "pseudo_sources": ["ext"],
                        "labeler": {**TWO_TOYS, "mode": "majority", "weights": [1, 0]},
                    }
                ),
                encoding="utf-8",
            )
            argv = ["augment", "--base", str(base), "--plan", str(plan),
                    "--out", str(tmp_path / "aug.jsonl")]
        else:
            caches = []
            for name in ("a", "b"):
                cache = tmp_path / f"{name}.csv"
                matrix = ProbabilityMatrix(ids=["x"], probs=[[0.6, 0.1, 0.1, 0.1, 0.1]])
                write_proba_csv(cache, matrix)
                caches.append(str(cache))
            argv = ["vote", "--mode", "majority", "--weights", "1,0", "--caches", *caches,
                    "--out", str(tmp_path / "labels.csv")]
        assert main(argv) == 1

    def test_run_weights_do_not_reach_the_labeler(self, tmp_path, small_corpus, capsys):
        augment = augment_section(write_registry(tmp_path))
        reports = []
        for ensemble in ({"mode": "average", "weights": [3, 1]}, {"mode": "average"}):
            config = write_config(
                tmp_path, small_corpus, encoder=TWO_TOYS, ensemble=ensemble, augment=augment
            )
            assert main(["run", "--config", str(config)]) == 0
            reports.append((run_dir_of(capsys) / "augmented" / "report.json").read_bytes())
        assert reports[0] == reports[1]


class TestStageCommands:
    def test_normalize_command(self, tmp_path, small_corpus):
        source = tmp_path / "raw.jsonl"
        write_jsonl(source, small_corpus)
        stopwords = tmp_path / "sw.txt"
        stopwords.write_text("من\n", encoding="utf-8")
        out = tmp_path / "norm.jsonl"
        rc = main(
            ["normalize", "--in", str(source), "--out", str(out), "--stopwords", str(stopwords)]
        )
        assert rc == 0
        rows = read_jsonl(out)
        assert all(row.norm_text is not None for row in rows)

    def test_split_command(self, tmp_path, corpus_file):
        out = tmp_path / "folds.json"
        assert main(["split", "--data", str(corpus_file), "--folds", "5", "--out", str(out)]) == 0
        plan = json.loads(out.read_text())
        assert plan["k"] == 5
        assert len(plan["assignments"]) == 50

    def test_train_predict_vote_round_trip(self, tmp_path, corpus_file):
        hp = tmp_path / "hp.yaml"
        hp.write_text("epochs: 5\nbatch_size: 8\nlearning_rate: 0.1\nseed: 1\n")
        model_a = tmp_path / "model-a"
        model_b = tmp_path / "model-b"
        hp_b = tmp_path / "hp_b.yaml"
        hp_b.write_text("epochs: 5\nbatch_size: 8\nlearning_rate: 0.1\nseed: 2\n")
        assert main(
            ["train", "--data", str(corpus_file), "--backend", "toy",
             "--hp", str(hp), "--out", str(model_a)]
        ) == 0
        assert main(
            ["train", "--data", str(corpus_file), "--backend", "toy",
             "--hp", str(hp_b), "--out", str(model_b)]
        ) == 0
        cache_a = tmp_path / "a.csv"
        cache_b = tmp_path / "b.csv"
        for model, cache in ((model_a, cache_a), (model_b, cache_b)):
            assert main(
                ["predict", "--model", str(model), "--data", str(corpus_file),
                 "--out", str(cache)]
            ) == 0
        labels_out = tmp_path / "labels.csv"
        assert main(
            ["vote", "--mode", "majority", "--caches", str(cache_a), str(cache_b),
             "--out", str(labels_out)]
        ) == 0
        lines = labels_out.read_text().splitlines()
        assert lines[0] == "id,label"
        assert len(lines) == 51
        combined = tmp_path / "combined.csv"
        assert main(
            ["vote", "--mode", "average", "--caches", str(cache_a), str(cache_b),
             "--out", str(combined), "--weights", "1,3"]
        ) == 0
        assert combined.read_text().splitlines()[0] == "id,p_NH,p_GH,p_Re,p_Ra,p_Se"

    @pytest.mark.parametrize("mode", ["majority", "average"])
    def test_vote_label_csv_quotes_ids(self, tmp_path, mode):
        ids = ["a,b", 'c"d', "e\nf"]
        caches = []
        for name in ("a", "b", "c"):
            cache = tmp_path / f"{name}.csv"
            write_proba_csv(cache, ProbabilityMatrix(ids=ids, probs=[[0.6, 0.1, 0.1, 0.1, 0.1]] * 3))
            caches.append(str(cache))
        out = tmp_path / "out.csv"
        labels_out = tmp_path / "labels.csv"
        assert main(
            ["vote", "--mode", mode, "--caches", *caches, "--out", str(out),
             "--labels-out", str(labels_out)]
        ) == 0
        for path in [labels_out, out] if mode == "majority" else [labels_out]:
            with open(path, encoding="utf-8", newline="") as fh:
                assert list(csv.reader(fh)) == [["id", "label"]] + [[i, "NH"] for i in ids]

    @pytest.mark.parametrize(
        "content, rc",
        [
            ("epochs: 0\nbatch_size: 8\nlearning_rate: 0.1\n", 1),
            ("epochs: two\nbatch_size: 8\nlearning_rate: 0.1\n", 1),
            ("epochs: 3\nbatch_size: 8\nlearning_rate: -0.1\n", 1),
            ("- epochs\n", 1),
            ("batch_size: 8\nlearning_rate: 0.1\n", 0),  # epochs defaults to 2
        ],
        ids=["epochs-zero", "epochs-not-a-number", "negative-lr", "not-a-mapping", "epochs-missing"],
    )
    def test_train_hp_file_validation(self, tmp_path, corpus_file, content, rc):
        hp = tmp_path / "hp.yaml"
        hp.write_text(content)
        model_dir = tmp_path / "model"
        assert main(
            ["train", "--data", str(corpus_file), "--backend", "toy",
             "--hp", str(hp), "--out", str(model_dir)]
        ) == rc
        if rc == 0:
            assert "epochs=2\n" in (model_dir / "manifest.txt").read_text()

    def test_evaluate_command(self, tmp_path, corpus_file):
        hp = tmp_path / "hp.yaml"
        hp.write_text("epochs: 5\nbatch_size: 8\nlearning_rate: 0.1\nseed: 1\n")
        out_dir = tmp_path / "eval"
        rc = main(
            ["evaluate", "--data", str(corpus_file), "--backend", "toy", "--hp", str(hp),
             "--folds", "5", "--seed", "3", "--out", str(out_dir)]
        )
        assert rc == 0
        metrics = json.loads((out_dir / "metrics.json").read_text())
        assert metrics["seed"] == 3
        assert len(metrics["fold_detail"]) == 5

    def test_evaluate_with_augment_plan(self, tmp_path, corpus_file):
        source = tmp_path / "ext.jsonl"
        write_jsonl(source, make_separable_corpus(4, seed=61, source="ext", id_prefix="e"))
        registry = tmp_path / "registry.yaml"
        registry.write_text(
            "datasets:\n"
            f"  - key: ext\n    path: {source.name}\n    hate_only: true\n"
            "    label_map: {NH: GH, GH: GH, Re: GH, Ra: GH, Se: GH}\n",
            encoding="utf-8",
        )
        plan = tmp_path / "plan.yaml"
        plan.write_text(
            "registry: registry.yaml\n"
            "pseudo_sources: [ext]\n"
            "labeler:\n"
            "  backends:\n"
            "    - key: toy\n"
            "      hyperparams: {epochs: 3, batch_size: 8, learning_rate: 0.1}\n",
            encoding="utf-8",
        )
        hp = tmp_path / "hp.yaml"
        hp.write_text("epochs: 3\nbatch_size: 8\nlearning_rate: 0.1\nseed: 1\n")
        out_dir = tmp_path / "eval-aug"
        rc = main(
            ["evaluate", "--data", str(corpus_file), "--backend", "toy", "--hp", str(hp),
             "--augment-plan", str(plan), "--folds", "5", "--out", str(out_dir)]
        )
        assert rc == 0
        metrics = json.loads((out_dir / "metrics.json").read_text())
        # pseudo rows join training only; gold supports stay at the base corpus
        assert sum(metrics["supports"].values()) == 50

    def test_predict_requires_normalized_corpus(self, tmp_path, corpus_file):
        hp = tmp_path / "hp.yaml"
        hp.write_text("epochs: 3\nbatch_size: 8\nlearning_rate: 0.1\nseed: 1\n")
        model_dir = tmp_path / "model"
        assert main(
            ["train", "--data", str(corpus_file), "--backend", "toy",
             "--hp", str(hp), "--out", str(model_dir)]
        ) == 0
        raw = tmp_path / "raw.jsonl"
        write_jsonl(raw, make_separable_corpus(2, seed=62, normalized=False))
        rc = main(["predict", "--model", str(model_dir), "--data", str(raw),
                   "--out", str(tmp_path / "p.csv")])
        assert rc == 1

    def test_evaluate_ensemble_of_three(self, tmp_path, corpus_file):
        hp = tmp_path / "hp.yaml"
        hp.write_text("epochs: 3\nbatch_size: 8\nlearning_rate: 0.1\nseed: 1\n")
        out_dir = tmp_path / "eval3"
        rc = main(
            ["evaluate", "--data", str(corpus_file), "--backend", "toy", "--backend", "toy",
             "--backend", "toy", "--mode", "majority", "--hp", str(hp), "--folds", "5",
             "--out", str(out_dir)]
        )
        assert rc == 0
        assert (out_dir / "metrics.json").exists()

    def test_tune_command(self, tmp_path, corpus_file):
        grid = tmp_path / "grid.yaml"
        grid.write_text(
            "epochs_axis: [1, 3]\nbatch_axis: [8]\nlr_axis: [0.1]\n"
            "initial: {epochs: 1, batch_size: 8, learning_rate: 0.1}\n"
        )
        out_dir = tmp_path / "tune"
        rc = main(
            ["tune", "--backend", "toy", "--grid", str(grid), "--data", str(corpus_file),
             "--folds", "5", "--out", str(out_dir)]
        )
        assert rc == 0
        assert (out_dir / "trace.csv").exists()
        best = json.loads((out_dir / "best.json").read_text())
        assert best["backend"] == "toy"

    def test_augment_command(self, tmp_path, corpus_file):
        source = tmp_path / "rel.jsonl"
        write_jsonl(source, make_separable_corpus(3, seed=60, source="rel", id_prefix="r"))
        registry = tmp_path / "registry.yaml"
        registry.write_text(
            "datasets:\n"
            f"  - key: rel\n    path: {source.name}\n    hate_only: true\n"
            "    label_map: {NH: Re, GH: Re, Re: Re, Ra: Re, Se: Re}\n",
            encoding="utf-8",
        )
        plan = tmp_path / "plan.yaml"
        plan.write_text(
            "registry: registry.yaml\n"
            "direct_sources: [rel]\n"
            "labeler:\n"
            "  backends:\n"
            "    - key: toy\n"
            "      hyperparams: {epochs: 3, batch_size: 8, learning_rate: 0.1}\n",
            encoding="utf-8",
        )
        out = tmp_path / "augmented.jsonl"
        report = tmp_path / "augment-report.json"
        rc = main(
            ["augment", "--base", str(corpus_file), "--plan", str(plan),
             "--out", str(out), "--report", str(report)]
        )
        assert rc == 0
        rows = read_jsonl(out)
        assert len(rows) > 50
        assert json.loads(report.read_text())["added_direct"] == len(rows) - 50

    def test_report_command(self, tmp_path):
        out = tmp_path / "tables.csv"
        assert main(["report", "--format", "csv", "--out", str(out)]) == 0
        assert out.read_text().startswith("group,system")

    def test_missing_required_flag_is_validation_error(self, tmp_path):
        assert main(["normalize", "--out", str(tmp_path / "x.jsonl")]) == 1

    def test_bad_usage_exits_one(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["definitely-not-a-command"])
        assert excinfo.value.code == 1
