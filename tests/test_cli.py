"""CLI subcommands and the resumable full-pipeline run."""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
import yaml

import arahate
from arahate import corpus as corpus_mod, encoder, pipeline, tune as tune_mod
from arahate.classifiers import Classifier
from arahate.cli import FLAG_KEYS, build_parser, main
from arahate.config import load_config
from arahate.corpus import read_jsonl, write_jsonl
from arahate.encoder import EncoderSpec, HyperParams, members_from_entries
from arahate.ensemble import ProbabilityMatrix, write_proba_csv
from arahate.evaluate import cross_validate, stratified_folds
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
    cfg = {key: value for key, value in cfg.items() if value is not None}  # None drops a section
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


LABELER = "labeler:\n  backends:\n    - key: toy\n"

# Registry files load_registry rejects, and the text of each one's error.
BAD_REGISTRIES = {
    "not-yaml": (b"datasets: [unclosed\n", "registry.yaml is not valid YAML"),
    "not-utf8": ("- key: ext\n  path: ext.jsonl\n  label_map: {caf\u00e9: GH}\n".encode("latin-1"),
                 "registry.yaml: not UTF-8 text"),
    "label-map-list": (b"- key: ext\n  path: ext.jsonl\n  label_map: [GH]\n", "'ext': label_map must be a mapping"),
    "hate-only-string": (b'- key: ext\n  path: ext.jsonl\n  hate_only: "false"\n', "'ext': hate_only must be true or false"),
    "path-number": (b"- {key: a, path: 5}\n", "registry.yaml: registry entry {'key': 'a', 'path': 5}: "),
    "path-null": (b"- {key: a, path: null}\n", "registry.yaml: registry entry {'key': 'a', 'path': None}: "),
    "key-list": (b"- {key: [1], path: x.jsonl}\n", "registry.yaml: registry entry {'key': [1], 'path': 'x.jsonl'}: "),
    "label-map-key-bool": (b"- key: ext\n  path: ext.jsonl\n  label_map: {OFF: GH, NOT_OFF: discard}\n",
                           "'ext': label_map key False is not a string; quote it"),
}

# A baseline file of one row with every class's F1.
BASELINE_ROW = json.dumps({
    "supports": {"NH": 80, "GH": 10, "Re": 5, "Ra": 3, "Se": 2},
    "groups": [{"name": "g", "rows": [{"system": "s", "f1": {"NH": 90.0, "GH": 60.0, "Re": 80.0, "Ra": 50.0, "Se": 70.0}}]}],
})
RUN_METRICS = json.dumps({
    "per_class": {label: {"f1": 50.0} for label in ("NH", "GH", "Re", "Ra", "Se")},
    "supports": {"NH": 80, "GH": 10, "Re": 5, "Ra": 3, "Se": 2},
    "aggregates": {"macro_f1": 50.0, "micro_f1": 50.0, "weighted_f1": 50.0},
})

# Faults of a saved toy model, and the text of each one's error at load.
MODEL_FAULTS = {
    "weights-shape": "weights of shape (5, 100)",
    "bias-shape": "bias of shape (3,)",
    "not-npz": "weights.npz",
    "manifest-key": "max_sequence_tokens",
}

HP = {"epochs": 1, "batch_size": 8, "learning_rate": 0.1}
TWO_TOYS = {
    "backends": [{"key": "toy"}, {"key": "toy"}],
    "hyperparams": {"epochs": 3, "batch_size": 8, "learning_rate": 0.1},
}


def write_caches(tmp_path: Path, ids: list[str], names=("a", "b")) -> list[str]:
    """One probability cache per name, every row predicting NH."""
    caches = []
    for name in names:
        cache = tmp_path / f"{name}.csv"
        probs = [[0.6, 0.1, 0.1, 0.1, 0.1]] * len(ids)
        write_proba_csv(cache, ProbabilityMatrix(ids=ids, probs=probs))
        caches.append(str(cache))
    return caches


def run_dir_of(capsys) -> Path:
    return Path(capsys.readouterr().out.strip().split("-> ")[-1])


def assert_same_files(expected: Path, actual: Path) -> None:
    """Both directories hold the same files with the same bytes."""
    files = sorted(p.relative_to(expected) for p in expected.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(actual) for p in actual.rglob("*") if p.is_file())
    assert all((expected / f).read_bytes() == (actual / f).read_bytes() for f in files)


# Every file of a clean augmented, tuned run (``_augmented_config``) but
# manifest.json and the stage markers.
RUN_OUTPUTS = [
    "normalized/base.jsonl",
    "normalized/sources/rel.jsonl",
    "normalized/sources/ext.jsonl",
    "augmented/corpus.jsonl",
    "augmented/report.json",
    "tune/best.json",
    "tune/toy_trace.csv",
    "models/toy/weights.npz",
    "models/toy/manifest.txt",
    "predictions/toy.csv",
    "metrics.json",
    "folds.json",
]
# The run's corpora a resume reads back after deleting one of them.
REREAD = {
    "augmented/corpus.jsonl": ["normalized/base.jsonl", "normalized/sources/rel.jsonl", "normalized/sources/ext.jsonl"],
    "normalized/sources/ext.jsonl": [],
    "models/toy/weights.npz": ["augmented/corpus.jsonl"],
    "tune/best.json": ["augmented/corpus.jsonl"],
    "metrics.json": ["augmented/corpus.jsonl"],
}


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
        stopwords = manifest["config"]["paths"]["stopwords"]
        digest = hashlib.sha256(Path(stopwords).read_bytes()).hexdigest()
        assert manifest["stopword_sha256"] == manifest["input_hashes"][stopwords] == digest

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

    @pytest.mark.parametrize(
        "sections, message",
        [
            ({"encoder": {"backends": [{"key": "toy"}], "hyperparams": {**HP, "epochs": 0}}}, "epochs must be >= 1"),
            ({"encoder": {"backends": [{"key": "toy"}], "hyperparams": {**HP, "batch_size": 0}}},
             "batch_size must be >= 1"),
            ({"encoder": {"backends": [{"key": "toy"}], "hyperparams": {**HP, "learning_rate": 0}}},
             "learning_rate must be positive"),
            ({"encoder": {"backends": [{"key": "toy", "max_sequence_tokens": 0}], "hyperparams": HP}},
             "max_sequence_tokens must be >= 1"),
            ({"tune": {"enabled": True, "epochs_axis": [], "lr_axis": [0.1]}}, "epochs_axis must not be empty"),
            ({"tune": {"enabled": True, "batch_axis": [0, 8], "lr_axis": [0.1]}}, "batch_axis value 0"),
            ({"encoder": TWO_TOYS, "ensemble": {"mode": "average", "weights": [-1, 2]}},
             "weights must be non-negative"),
            ({"ensemble": {"mode": "vote"}}, "unknown ensemble mode 'vote'"),
            ({"augment": {"enabled": True, "registry": "registry.yaml", "pseudo_sources": ["ext"],
                          "confidence_threshold": 1.5}}, "confidence_threshold must lie in [0, 1]"),
            ({"normalize": {"repeat_collapse_len": 0}}, "repeat_collapse_len must be >= 1"),
            ({"evaluate": {"folds": 1}}, "k must be at least 2"),
            ({"report": {"enabled": True, "format": "pdf"}}, "'pdf' is not one of"),
        ],
        ids=["epochs-zero", "batch-size-zero", "learning-rate-zero", "max-tokens-zero", "empty-axis",
             "axis-value-zero", "negative-weight", "unknown-mode", "threshold-above-one", "collapse-len-zero",
             "one-fold", "unknown-format"],
    )
    def test_range_fault_is_validation_error(self, tmp_path, small_corpus, capsys, sections, message):
        # Each range rule lives in the type that uses the value; validation
        # builds those types, so a fault exits 1 before any stage runs.
        write_registry(tmp_path)
        assert main(["run", "--config", str(write_config(tmp_path, small_corpus, **sections))]) == 1
        assert message in capsys.readouterr().err
        assert not list(tmp_path.glob("runs/run-*/stages"))

    @pytest.mark.parametrize(
        "sections",
        [
            {"evaluate": {"folds": 5.0}},
            {"normalize": {"repeat_collapse_len": 2.0, "strip_non_arabic": True}},
            {"tune": {"enabled": True, "epochs_axis": [5.0], "batch_axis": [8.0], "lr_axis": [0.1]}},
        ],
        ids=["folds", "repeat-collapse-len", "tune-axes"],
    )
    def test_whole_float_settings_run_as_integers(self, tmp_path, small_corpus, capsys, sections):
        # JSON's integer admits 5.0; each setting's type makes it the int 5.
        integers = json.loads(json.dumps(sections).replace(".0", ""))  # the twin: 5.0 written as 5
        aggregates = []
        for name, settings in (("floats", sections), ("integers", integers)):
            (tmp_path / name).mkdir()
            assert main(["run", "--config", str(write_config(tmp_path / name, small_corpus, **settings))]) == 0
            aggregates.append(json.loads((run_dir_of(capsys) / "metrics.json").read_text())["aggregates"])
        assert aggregates[0] == aggregates[1]

    def test_whole_learning_rates_run_as_floats(self, tmp_path, small_corpus, capsys):
        # JSON's number admits 1; a learning rate is the float 1.0 in every tune file.
        initial = {"epochs": 2, "batch_size": 8, "learning_rate": 1.0}
        floats = {"enabled": True, "epochs_axis": [2], "batch_axis": [8], "lr_axis": [1.0, 2.0], "initial": initial}
        integers = json.loads(json.dumps(floats).replace(".0", ""))
        assert integers["lr_axis"] == [1, 2] and integers["initial"]["learning_rate"] == 1
        tune_files = []
        for name, section in (("floats", floats), ("integers", integers)):
            (tmp_path / name).mkdir()
            assert main(["run", "--config", str(write_config(tmp_path / name, small_corpus, tune=section))]) == 0
            tune_dir = run_dir_of(capsys) / "tune"
            tune_files.append({path.name: path.read_bytes() for path in sorted(tune_dir.iterdir())})
        assert sorted(tune_files[0]) == ["best.json", "toy_trace.csv"]
        assert tune_files[0] == tune_files[1]

    def test_disabled_tune_section_builds_no_grid(self, tmp_path, small_corpus):
        # Enabled, this initial point would be off the default lr_axis.
        initial = {"epochs": 2, "batch_size": 8, "learning_rate": 0.1}
        config = write_config(tmp_path, small_corpus, tune={"enabled": False, "initial": initial})
        assert load_config(config)["tune"]["initial"] == initial

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

    def test_single_tuned_member_evaluates_without_fits(self, tmp_path, small_corpus, capsys, monkeypatch):
        fits = []  # the epochs of every fit requested, in order
        fit_many = encoder.fit_many
        monkeypatch.setattr(
            encoder, "fit_many", lambda entries, *hook: fits.extend(hp.epochs for _, hp, _ in entries) or fit_many(entries, *hook)
        )
        config = write_config(
            tmp_path,
            small_corpus,
            tune={
                "enabled": True,
                "epochs_axis": [1, 3, 2],
                "batch_axis": [8, 16],
                "lr_axis": [0.1],
                "initial": {"epochs": 1, "batch_size": 8, "learning_rate": 0.1},
            },
        )
        assert main(["run", "--config", str(config)]) == 0
        run_dir = run_dir_of(capsys)
        best = json.loads((run_dir / "tune" / "best.json").read_text())["toy"]
        # epochs stage: one 3-epoch fit per fold; batch stage: one fit per fold
        # of the new batch size; lr stage: cached; train: one fit; evaluate: none.
        assert fits == [3] * 5 + [best["epochs"]] * 5 + [best["epochs"]]
        data = read_jsonl(run_dir / "normalized" / "base.jsonl")
        member = (EncoderSpec("toy"), HyperParams(**best, seed=7))
        expected = cross_validate(
            data, Classifier([member]).fit_many, stratified_folds(data, k=5, seed=7), seed=7, config_hash=run_dir.name[4:]
        )
        assert json.loads((run_dir / "metrics.json").read_text()) == json.loads(json.dumps(expected.to_dict()))
        # A resume without the tune stage in its process cross-validates again, to the same bytes.
        metrics = (run_dir / "metrics.json").read_bytes()
        (run_dir / "metrics.json").unlink()
        fits.clear()
        assert main(["run", "--config", str(config)]) == 0
        assert fits == [best["epochs"]] * 5
        assert (run_dir / "metrics.json").read_bytes() == metrics

    def test_too_many_folds_fail_in_normalize_before_any_fit(self, tmp_path, capsys):
        rows = make_separable_corpus(n_per_class=6, seed=54, normalized=False)
        config = write_config(tmp_path, rows, evaluate={"folds": 10})
        assert main(["run", "--config", str(config)]) == 2
        (run_dir,) = (tmp_path / "runs").glob("run-*")
        record = json.loads((run_dir / "stages" / "normalize.failed").read_text())
        assert "class NH has 6 gold rows, fewer than k=10" in record["error"]
        assert not (run_dir / "models").exists()
        assert not (run_dir / "stages" / "normalize.ok").exists()

    def test_interrupted_write_leaves_nothing_a_resume_accepts(self, tmp_path, small_corpus, capsys, monkeypatch):
        config = write_config(tmp_path, small_corpus)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "clean")]) == 0
        clean = run_dir_of(capsys)

        class DiskFull(list):
            """Row ids whose iteration fails after three rows, as a full disk would."""

            def __iter__(self):
                for index, item in enumerate(super().__iter__()):
                    if index == 3:
                        raise OSError("no space left on device")
                    yield item

        write = pipeline.write_proba_csv
        monkeypatch.setattr(
            pipeline, "write_proba_csv", lambda path, matrix: write(path, replace(matrix, ids=DiskFull(matrix.ids)))
        )
        out = tmp_path / "broken"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 2
        (run_dir,) = out.glob("run-*")
        assert not (run_dir / "predictions" / "toy.csv").exists()
        assert not list(run_dir.rglob("*.tmp"))
        assert not (run_dir / "stages" / "train.ok").exists()
        monkeypatch.undo()
        capsys.readouterr()
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        assert_same_files(clean, run_dir)

    def _augmented_config(self, tmp_path, small_corpus) -> Path:
        return write_config(
            tmp_path,
            small_corpus,
            augment=augment_section(write_registry(tmp_path)),
            tune={"enabled": True, "epochs_axis": [3, 5], "batch_axis": [8], "lr_axis": [0.1]},
        )

    def _spy_reads(self, monkeypatch) -> list[Path]:
        reads = []
        read = corpus_mod.read_jsonl
        monkeypatch.setattr(corpus_mod, "read_jsonl", lambda path, **kw: reads.append(Path(path)) or read(path, **kw))
        return reads

    def test_fresh_run_reads_no_corpus_it_wrote(self, tmp_path, small_corpus, capsys, monkeypatch):
        reads = self._spy_reads(monkeypatch)
        config = self._augmented_config(tmp_path, small_corpus)
        assert main(["run", "--config", str(config)]) == 0
        run_dir_of(capsys)
        assert reads == [tmp_path / "base.jsonl"]  # the raw input, read by normalize

    def test_fresh_run_parses_the_registry_once(self, tmp_path, small_corpus, capsys, monkeypatch):
        parses = []
        load = corpus_mod.load_registry
        monkeypatch.setattr(corpus_mod, "load_registry", lambda path: parses.append(Path(path)) or load(path))
        config = self._augmented_config(tmp_path, small_corpus)
        assert main(["run", "--config", str(config)]) == 0
        run_dir_of(capsys)
        assert len(parses) == 1  # input hashes, stage outputs, normalize and augment share it

    @pytest.fixture(scope="class")
    def clean_augmented_run(self, tmp_path_factory) -> tuple[Path, Path]:
        """The config of an augmented, tuned run and the directory of its clean run."""
        inputs = tmp_path_factory.mktemp("inputs")
        config = self._augmented_config(inputs, make_separable_corpus(n_per_class=10, seed=51, normalized=False))
        assert main(["run", "--config", str(config), "--out", str(inputs / "clean")]) == 0
        (clean,) = (inputs / "clean").glob("run-*")
        return config, clean

    @pytest.mark.parametrize("deleted", RUN_OUTPUTS)
    def test_resume_rebuilds_a_deleted_corpus_byte_identical(
        self, tmp_path, clean_augmented_run, capsys, monkeypatch, deleted
    ):
        config, clean = clean_augmented_run
        outputs = [p.relative_to(clean).as_posix() for p in clean.rglob("*") if p.is_file()]
        assert sorted(RUN_OUTPUTS) == sorted(p for p in outputs if p != "manifest.json" and not p.startswith("stages/"))
        run_dir = tmp_path / clean.name
        shutil.copytree(clean, run_dir)
        (run_dir / deleted).unlink()
        reads = self._spy_reads(monkeypatch)
        assert main(["run", "--config", str(config), "--out", str(tmp_path)]) == 0
        assert run_dir_of(capsys) == run_dir
        if deleted in REREAD:
            # A stage whose upstream was skipped reads the upstream's files;
            # the stages after it take the corpus it wrote.
            assert [p.relative_to(run_dir).as_posix() for p in reads if run_dir in p.parents] == REREAD[deleted]
        assert_same_files(clean, run_dir)

    def test_fresh_interpreters_under_two_hash_seeds_write_identical_runs(self, tmp_path, small_corpus):
        # Each process starts with an empty feature memo and its own str hash seed.
        config = write_config(
            tmp_path,
            small_corpus,
            encoder=TWO_TOYS,
            ensemble={"mode": "majority"},
            augment=augment_section(write_registry(tmp_path)),
            tune={"enabled": True, "epochs_axis": [2, 3], "batch_axis": [8], "lr_axis": [0.1]},
            report={"enabled": True},
        )
        src = Path(arahate.__file__).resolve().parents[1]
        outs = []
        for hash_seed in ("0", "1"):
            outs.append(tmp_path / f"out-{hash_seed}")
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(src)}
            argv = [sys.executable, "-m", "arahate.cli", "run", "--config", str(config), "--out", str(outs[-1])]
            subprocess.run(argv, env=env, check=True, capture_output=True, timeout=300)
        assert (next(outs[0].glob("run-*")) / "report" / "tables.md").exists()
        assert_same_files(*outs)

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

    def test_several_backends_vote_by_majority_without_an_ensemble_section(self, tmp_path, small_corpus, capsys):
        metrics = []
        for ensemble in (None, {"mode": "majority"}):
            config = write_config(tmp_path, small_corpus, encoder=TWO_TOYS, ensemble=ensemble)
            assert main(["run", "--config", str(config)]) == 0
            metrics.append(json.loads((run_dir_of(capsys) / "metrics.json").read_text()))
            metrics[-1].pop("config_hash")
        assert metrics[0] == metrics[1]

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
            argv = ["vote", "--mode", "majority", "--weights", "1,0",
                    "--caches", *write_caches(tmp_path, ["x"]), "--out", str(tmp_path / "labels.csv")]
        assert main(argv) == 1

    def test_vote_weights_must_be_numbers(self, tmp_path):
        assert main(
            ["vote", "--mode", "average", "--weights", "1,x",
             "--caches", *write_caches(tmp_path, ["x"]), "--out", str(tmp_path / "p.csv")]
        ) == 1

    @pytest.mark.parametrize("weights", ["1,nan", "1,inf", "nan,nan"])
    def test_vote_weights_must_be_finite(self, tmp_path, capsys, weights):
        argv = ["vote", "--mode", "average", "--weights", weights,
                "--caches", *write_caches(tmp_path, ["x"]), "--out", str(tmp_path / "p.csv")]
        assert main(argv) == 1
        assert "weights must be finite" in capsys.readouterr().err
        assert not (tmp_path / "p.csv").exists()

    def test_run_with_non_finite_weights_fails_before_any_stage(self, tmp_path, small_corpus, capsys):
        ensemble = {"mode": "average", "weights": [1, float("nan")]}
        config = write_config(tmp_path, small_corpus, encoder=TWO_TOYS, ensemble=ensemble)
        assert main(["run", "--config", str(config)]) == 1
        assert "weights must be finite" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

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
        caches = write_caches(tmp_path, ids, ("a", "b", "c"))
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
            ("epochs: 3\nbatch_size: 8\nlearning_rate: .inf\n", 1),
            ("- epochs\n", 1),
            ("batch_size: 8\nlearning_rate: 0.1\n", 0),  # epochs defaults to 2
            ("epochs: 2.5\n", 1),
            ("epochs: true\n", 1),
            ("epoch: 5\n", 1),
            ('epochs: "3"\n', 1),
        ],
        ids=["epochs-zero", "epochs-not-a-number", "negative-lr", "infinite-lr", "not-a-mapping",
             "epochs-missing", "epochs-fractional", "epochs-boolean", "unknown-key", "epochs-string"],
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

    @pytest.mark.parametrize("tokens", ["0", "-3"])
    def test_train_max_tokens_below_one_is_validation_error(self, tmp_path, corpus_file, tokens, capsys):
        hp = tmp_path / "hp.yaml"
        hp.write_text("epochs: 1\nbatch_size: 8\nlearning_rate: 0.1\n")
        assert main(
            ["train", "--data", str(corpus_file), "--backend", "toy", "--hp", str(hp),
             "--max-tokens", tokens, "--out", str(tmp_path / "model")]
        ) == 1
        assert "max_sequence_tokens must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "model").exists()

    @pytest.mark.parametrize(
        "command, content",
        [
            ("tune", "epochs_axis: [1, 3]\nbatch_axis: [8]\nlr_axis: [0.1]\n"
                     "initial: {epochs: 2, batch_size: 8, learning_rate: 0.1}\n"),
            ("tune", "epochs_axis: 5\n"),
            ("tune", "lr_axis: [.inf, 1.0e-5]\n"),
            ("augment",
             "registry: registry.yaml\npseudo_sources: [ext]\nconfidence_threshold: high\n" + LABELER),
            ("augment", "registry: registry.yaml\ndirect_sources: rel\n" + LABELER),
            ("augment", "registry: registry.yaml\npseudo_sources: [ext]\nlabeler:\n  backends:\n    - key: nope\n"),
            ("augment",
             "registry: registry.yaml\npseudo_sources: [ext]\n" + LABELER + "      hyperparams: {epochs: 2.5}\n"),
            ("run", {"tune": {"enabled": True, "epochs_axis": [1, 3], "batch_axis": [8], "lr_axis": [0.1],
                              "initial": {"epochs": 2, "batch_size": 8, "learning_rate": 0.1}}}),
            ("run", {"augment": {"enabled": True, "registry": "registry.yaml",
                                 "direct_sources": ["rel"], "pseudo_sources": ["rel"]}}),
            ("run", {"encoder": {"backends": [{"key": "toy"}],
                                 "hyperparams": {"epochs": 5, "batch_size": 8, "learning_rate": float("inf")}}}),
        ],
        ids=["grid-initial-off-axis", "grid-scalar-axis", "grid-infinite-lr", "plan-threshold-not-a-number",
             "plan-sources-not-a-list", "plan-unknown-labeler-key", "plan-fractional-epochs", "run-initial-off-axis",
             "run-overlapping-sources", "run-infinite-lr"],
    )
    def test_grid_and_plan_validation(self, tmp_path, corpus_file, small_corpus, command, content):
        section = tmp_path / "section.yaml"
        write_registry(tmp_path)
        if command == "run":
            argv = ["run", "--config", str(write_config(tmp_path, small_corpus, **content))]
        elif command == "tune":
            section.write_text(content)
            argv = ["tune", "--backend", "toy", "--grid", str(section), "--data", str(corpus_file),
                    "--folds", "5", "--out", str(tmp_path / "tuned")]
        else:
            section.write_text(content)
            argv = ["augment", "--base", str(corpus_file), "--plan", str(section),
                    "--out", str(tmp_path / "augmented.jsonl")]
        assert main(argv) == 1
        assert not list(tmp_path.glob("runs/run-*/stages"))

    @pytest.mark.parametrize("command", ["train", "tune", "evaluate"])
    def test_unknown_backend_key_rejected(self, tmp_path, corpus_file, command, capsys):
        argv = [command, "--backend", "nope", "--data", str(corpus_file), "--out", str(tmp_path / "out")]
        if command != "tune":
            hp = tmp_path / "hp.yaml"
            hp.write_text("epochs: 1\nbatch_size: 8\nlearning_rate: 0.1\n")
            argv += ["--hp", str(hp)]
        assert main(argv) == 1
        assert "unknown backend key 'nope'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["normalize", "augment"])
    def test_repeat_collapse_len_zero_rejected(self, tmp_path, corpus_file, command):
        out = str(tmp_path / "out.jsonl")
        if command == "normalize":
            argv = ["normalize", "--in", str(corpus_file), "--out", out]
        else:
            write_registry(tmp_path)
            plan = tmp_path / "plan.yaml"
            plan.write_text("registry: registry.yaml\ndirect_sources: [rel]\n" + LABELER)
            argv = ["augment", "--base", str(corpus_file), "--plan", str(plan), "--out", out]
        assert main([*argv, "--repeat-collapse-len", "0"]) == 1

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


class TestMalformedInputs:
    """A bad input file ends in one `error:` line, with the exit code of its error class."""

    def _error(self, capsys) -> str:
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return err[err.rindex("error: "):]

    @pytest.mark.parametrize("folds, message", [("20", "fewer than k=20"), ("1", "k must be at least 2")])
    def test_split_with_too_few_rows_per_fold_is_validation_error(self, tmp_path, corpus_file, folds, message, capsys):
        out = tmp_path / "folds.json"
        assert main(["split", "--data", str(corpus_file), "--folds", folds, "--out", str(out)]) == 1
        assert message in self._error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize(
        "entry, seed", [("config", -1), ("--seed", -5), ("split --seed", -1), ("--hp", -2), ("plan labeler", -3)]
    )
    def test_negative_seed_is_validation_error(self, tmp_path, corpus_file, entry, seed, capsys):
        # A seed reaches numpy's generators only through HyperParams and FoldPlan, which reject it.
        data = ["--data", str(corpus_file)]
        (tmp_path / "hp.yaml").write_text("epochs: 1\nbatch_size: 8\nlearning_rate: 0.1\nseed: -2\n")
        (tmp_path / "plan.yaml").write_text(
            "registry: registry.yaml\npseudo_sources: [ext]\n" + LABELER + "      hyperparams: {seed: -3}\n"
        )
        config = write_config(tmp_path, read_jsonl(corpus_file), seed=-1 if entry == "config" else 7)
        argv = {
            "config": ["run", "--config", str(config)],
            "--seed": ["run", "--config", str(config), "--seed", "-5"],
            "split --seed": ["split", *data, "--seed", "-1"],
            "--hp": ["train", *data, "--backend", "toy", "--hp", str(tmp_path / "hp.yaml")],
            "plan labeler": ["augment", "--base", str(corpus_file), "--plan", str(tmp_path / "plan.yaml")],
        }[entry]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 1
        error = self._error(capsys)
        assert f"seed must be an integer >= 0, got {seed}" in error and error.count("\n") == 1
        assert not (tmp_path / "out").exists() and not list(tmp_path.glob("runs/run-*/stages/*.failed"))

    def test_vote_cache_cell_not_a_number(self, tmp_path, capsys):
        caches = write_caches(tmp_path, ["x", "y"])
        text = Path(caches[1]).read_text(encoding="utf-8")
        Path(caches[1]).write_text(text.replace("0.6", "abc", 1), encoding="utf-8")
        assert main(["vote", "--caches", *caches, "--out", str(tmp_path / "labels.csv")]) == 2
        error = self._error(capsys)
        assert caches[1] in error and "line 2" in error

    @pytest.mark.parametrize(
        "command, registry",
        [pytest.param(command, "not-yaml", id=command) for command in ("augment", "evaluate", "run")]
        + [pytest.param(command, registry, id=f"{command}-{registry}")
           for command in ("augment", "evaluate", "run") for registry in BAD_REGISTRIES if registry != "not-yaml"],
    )
    def test_registry_not_yaml(self, tmp_path, corpus_file, command, registry, capsys):
        content, message = BAD_REGISTRIES[registry]
        (tmp_path / "registry.yaml").write_bytes(content)
        plan = tmp_path / "plan.yaml"
        plan.write_text("registry: registry.yaml\npseudo_sources: [ext]\n" + LABELER, encoding="utf-8")
        argv = {
            "augment": ["augment", "--base", str(corpus_file), "--plan", str(plan)],
            "evaluate": ["evaluate", "--data", str(corpus_file), "--backend", "toy", "--augment-plan", str(plan),
                         "--hp", str(self._hp(tmp_path))],
            "run": ["run", "--config", str(write_config(tmp_path, read_jsonl(corpus_file),
                                                       augment=augment_section(tmp_path / "registry.yaml")))],
        }[command]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        error = self._error(capsys)
        assert message in error and error.count("\n") == 1
        if command == "run":
            assert len(list((tmp_path / "out").glob("run-*/stages/normalize.failed"))) == 1

    def _hp(self, tmp_path: Path) -> Path:
        hp = tmp_path / "hp.yaml"
        hp.write_text("epochs: 1\nbatch_size: 8\nlearning_rate: 0.1\n")
        return hp

    @pytest.mark.parametrize("fault", MODEL_FAULTS)
    def test_malformed_model_artifact(self, tmp_path, corpus_file, fault, capsys):
        model = tmp_path / "model"
        argv = ["train", "--data", str(corpus_file), "--backend", "toy", "--hp", str(self._hp(tmp_path))]
        assert main([*argv, "--out", str(model)]) == 0
        blob = dict(np.load(model / "weights.npz"))
        if fault == "weights-shape":
            blob["weights"] = blob["weights"][:, :100]
        elif fault == "bias-shape":
            blob["bias"] = blob["bias"][:3]
        if fault == "not-npz":
            (model / "weights.npz").write_bytes(b"not an npz archive")
        else:
            np.savez(model / "weights.npz", **blob)
        if fault == "manifest-key":
            manifest = (model / "manifest.txt").read_text(encoding="utf-8").splitlines(keepends=True)
            (model / "manifest.txt").write_text(
                "".join(line for line in manifest if not line.startswith("max_sequence_tokens=")), encoding="utf-8"
            )
        out = tmp_path / "p.csv"
        assert main(["predict", "--model", str(model), "--data", str(corpus_file), "--out", str(out)]) == 2
        error = self._error(capsys)
        assert MODEL_FAULTS[fault] in error and error.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "tune", "evaluate"])
    def test_unnormalized_rows_are_validation_error(self, tmp_path, corpus_file, command, capsys):
        hp = ["--hp", str(self._hp(tmp_path))]
        raw = tmp_path / "raw.jsonl"
        rows = read_jsonl(corpus_file)
        write_jsonl(raw, [replace(row, norm_text=None) if i == 7 else row for i, row in enumerate(rows)])
        argv = {
            "train": ["train", "--backend", "toy", *hp],
            "tune": ["tune", "--backend", "toy", "--folds", "5"],
            "evaluate": ["evaluate", "--backend", "toy", *hp, "--folds", "5"],
        }[command]
        assert main([*argv, "--data", str(raw), "--out", str(tmp_path / "out")]) == 1
        error = self._error(capsys)
        assert f"row {rows[7].id!r} is not normalized; run `arahate normalize` first" in error
        assert not (tmp_path / "out").exists()

    def test_train_drops_rows_normalized_to_empty(self, tmp_path, corpus_file, capsys):
        rows = read_jsonl(corpus_file)
        data = tmp_path / "data.jsonl"
        write_jsonl(data, [replace(row, norm_text="") if i == 7 else row for i, row in enumerate(rows)])
        argv = ["train", "--data", str(data), "--backend", "toy", "--hp", str(self._hp(tmp_path))]
        assert main([*argv, "--out", str(tmp_path / "model")]) == 0
        assert f"on {len(rows) - 1} rows" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "field, message",
        [('"norm_text": 5', "row '7': norm_text must be a string, not 5"),
         ('"norm_text": ["q"]', "row '7': norm_text must be a string, not ['q']"),
         ('"text": ""', "missing or empty field 'text'"),
         ('"text": ["q"]', "field 'text' must be a string or a number, not ['q']")],
        ids=["norm-text-number", "norm-text-list", "text-empty", "text-list"],
    )
    def test_train_data_malformed(self, tmp_path, corpus_file, field, message, capsys):
        lines = corpus_file.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[7] = '{"id": "7", "label": "GH", "norm_text": "x", "text": "x", ' + field + "}\n"  # the last key wins
        data = tmp_path / "data.jsonl"
        data.write_text("".join(lines), encoding="utf-8")
        argv = ["train", "--data", str(data), "--backend", "toy", "--hp", str(self._hp(tmp_path))]
        assert main([*argv, "--out", str(tmp_path / "model")]) == 2
        error = self._error(capsys)
        assert f"{data} line 8: {message}" in error and error.count("\n") == 1
        assert not (tmp_path / "model").exists()

    def test_normalize_input_not_utf8(self, tmp_path, capsys):
        source = tmp_path / "latin1.jsonl"
        source.write_bytes('{"id": "1", "text": "caf\u00e9", "label": "NH"}\n'.encode("latin-1"))
        assert main(["normalize", "--in", str(source), "--out", str(tmp_path / "norm.jsonl")]) == 2
        assert f"{source}: not UTF-8 text" in self._error(capsys)

    @pytest.mark.parametrize(
        "reader, kind",
        [pytest.param(reader, kind, id=f"{reader}-{kind}")
         for reader in ("vote-cache", "run-config", "normalize-in", "stopwords", "baselines", "plan-registry",
                        "report-runs", "predict-model")
         for kind in ("missing", "directory", "not-utf8")],
    )
    def test_input_path_not_a_readable_file(self, tmp_path, corpus_file, reader, kind, capsys):
        good = write_caches(tmp_path, ["x"], names=("good",))[0]
        latin1 = Path(good).read_bytes().replace(b"x,", "caf\u00e9,".encode("latin-1"))
        # report --runs and predict --model read a file of a fixed name in the directory they are given.
        name = {"report-runs": "metrics.json", "predict-model": "manifest.txt"}.get(reader)
        value = tmp_path / "given"
        if name:
            value.mkdir()
        path = value / name if name else value
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf8":
            path.write_bytes(latin1)
        plan = tmp_path / "plan.yaml"
        plan.write_text(f"registry: {path}\npseudo_sources: [ext]\n" + LABELER, encoding="utf-8")
        data = str(corpus_file)
        argv, code, what = {
            "vote-cache": (["vote", "--caches", str(path), good], 2, "probability cache"),
            "run-config": (["run", "--config", str(path)], 1, "config file"),
            "normalize-in": (["normalize", "--in", str(path)], 2, "dataset 'given' file"),
            "stopwords": (["normalize", "--in", data, "--stopwords", str(path)], 2, "stopword file"),
            "baselines": (["report", "--baselines", str(path)], 2, "baseline file"),
            "plan-registry": (["augment", "--base", data, "--plan", str(plan)], 2, "registry"),
            "report-runs": (["report", "--runs", str(value)], 2, "run metrics file"),
            "predict-model": (["predict", "--model", str(value), "--data", data], 2, "model manifest"),
        }[reader]
        message = {
            "missing": f"{what} not found: {path}",
            "directory": f"{what} {path}: not a file",
            "not-utf8": f"{what} {path}: not UTF-8 text",
        }[kind]
        assert main([*argv, "--out", str(tmp_path / "out")]) == code
        error = self._error(capsys)
        assert message in error and error.count("\n") == 1

    @pytest.mark.parametrize(
        "case", ["run-data", "run-stopwords", "run-registry", "run-baselines", "augment-plan-registry"]
    )
    def test_run_input_directory_is_one_error_line(self, tmp_path, corpus_file, case, capsys):
        directory = tmp_path / "inputs"
        directory.mkdir()
        config = write_config(tmp_path, read_jsonl(corpus_file), augment=augment_section(write_registry(tmp_path)))
        cfg = yaml.safe_load(config.read_text(encoding="utf-8"))
        if case == "run-registry":
            cfg["augment"]["registry"] = str(directory)
        elif case == "run-baselines":
            cfg["report"] = {"enabled": True, "baselines": str(directory)}
        elif case != "augment-plan-registry":
            cfg["paths"][case.removeprefix("run-")] = str(directory)
        config.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        plan = tmp_path / "plan.yaml"
        plan.write_text(f"registry: {directory}\npseudo_sources: [ext]\n" + LABELER, encoding="utf-8")
        argv = ["run", "--config", str(config)]
        if case == "augment-plan-registry":
            argv = ["augment", "--base", str(corpus_file), "--plan", str(plan)]
        message = {
            "run-data": f"{directory}: not a file",
            "run-stopwords": f"stopword file {directory}: not a file",
            "run-baselines": f"baseline file {directory}: not a file",
        }
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        error = self._error(capsys)
        assert message.get(case, f"registry {directory}: not a file") in error and error.count("\n") == 1

    def test_stopword_file_not_utf8(self, tmp_path, corpus_file, capsys):
        stopwords = tmp_path / "latin1.txt"
        stopwords.write_bytes("caf\u00e9\n".encode("latin-1"))
        argv = ["normalize", "--in", str(corpus_file), "--stopwords", str(stopwords)]
        assert main([*argv, "--out", str(tmp_path / "norm.jsonl")]) == 2
        assert f"stopword file {stopwords}: not UTF-8 text" in self._error(capsys)

    @pytest.mark.parametrize(
        "command, flag",
        [("run", "--config"), ("tune", "--config"), ("tune", "--grid"), ("train", "--hp"), ("evaluate", "--hp"),
         ("augment", "--plan")],
    )
    def test_settings_file_not_utf8(self, tmp_path, corpus_file, command, flag, capsys):
        path = tmp_path / "latin1.yaml"
        path.write_bytes("run_name: caf\u00e9\n".encode("latin-1"))
        data = str(corpus_file)
        inputs = {"run": [], "augment": ["--base", data]}.get(command, ["--backend", "toy", "--data", data])
        assert main([command, flag, str(path), *inputs, "--out", str(tmp_path / "out")]) == 1
        assert f"{path}: not UTF-8 text" in self._error(capsys)

    @pytest.mark.parametrize(
        "command, flag",
        [("run", "--config"), ("tune", "--grid"), ("train", "--hp"), ("augment", "--plan")],
    )
    def test_settings_file_not_yaml(self, tmp_path, corpus_file, command, flag, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("run_name: [unclosed\n", encoding="utf-8")
        data = str(corpus_file)
        inputs = {"run": [], "augment": ["--base", data]}.get(command, ["--backend", "toy", "--data", data])
        assert main([command, flag, str(path), *inputs, "--out", str(tmp_path / "out")]) == 1
        error = self._error(capsys)
        assert f"{path} is not valid YAML/JSON: " in error and "line 2, column 1" in error and error.count("\n") == 1

    @pytest.mark.parametrize(
        "flag, content",
        [("--baselines", "{not json"), ("--baselines", '{"groups": []}'), ("--runs", "{not json"),
         ("--runs", '{"per_class": {}}'), ("--baselines", BASELINE_ROW.replace('"Se": 70.0', '"Se": null')),
         ("--baselines", BASELINE_ROW.replace(', "Se": 70.0', "")),
         ("--runs", RUN_METRICS.replace('"macro_f1": 50.0', '"macro_f1": "x"')),
         ("--baselines", BASELINE_ROW.replace(', "Se": 2', ""))],
        ids=["baselines-json", "baselines-keys", "runs-json", "runs-keys", "baselines-f1-null", "baselines-f1-absent",
             "runs-aggregate-string", "baselines-supports-absent"],
    )
    def test_report_input_malformed(self, tmp_path, flag, content, capsys):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        path = run_dir / "metrics.json" if flag == "--runs" else tmp_path / "baselines.json"
        path.write_text(content, encoding="utf-8")
        value = run_dir if flag == "--runs" else path
        assert main(["report", flag, str(value), "--out", str(tmp_path / "tables.md")]) == 2
        assert str(path) in self._error(capsys)

    @pytest.mark.parametrize("command", ["normalize-into-directory", "run-into-file", "train-into-file"])
    def test_output_path_that_cannot_be_written(self, tmp_path, corpus_file, command, capsys):
        taken = tmp_path / "taken"
        if command == "normalize-into-directory":
            taken.mkdir()
            argv, message = ["normalize", "--in", str(corpus_file)], f"cannot write {taken}: "
        elif command == "run-into-file":
            taken.write_text("a file\n", encoding="utf-8")
            argv = ["run", "--config", str(write_config(tmp_path, read_jsonl(corpus_file)))]
            message = f"cannot create the directory {taken}{os.sep}run-"
        else:
            taken.write_text("a file\n", encoding="utf-8")
            argv = ["train", "--config", str(write_config(tmp_path, read_jsonl(corpus_file))), "--data", str(corpus_file)]
            message = f"cannot create the directory {taken}: "
        assert main([*argv, "--out", str(taken)]) == 2
        error = self._error(capsys)
        assert error.startswith(f"error: {message}") and error.count("\n") == 1
        assert sorted(path.name for path in tmp_path.iterdir() if path.name.startswith("taken")) == ["taken"]

    def test_report_inputs_the_malformed_cases_break_are_valid(self, tmp_path):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "metrics.json").write_text(RUN_METRICS, encoding="utf-8")
        (tmp_path / "baselines.json").write_text(BASELINE_ROW, encoding="utf-8")
        argv = ["report", "--runs", str(run_dir), "--baselines", str(tmp_path / "baselines.json")]
        assert main([*argv, "--out", str(tmp_path / "tables.md")]) == 0


# A noisy corpus (every other row takes the next class's label), so members
# seeded apart disagree and ensemble weights change the metrics.
ROTATE = dict(zip(LABEL_ORDER, LABEL_ORDER[1:] + LABEL_ORDER[:1]))
NOISY = [replace(row, label=ROTATE[row.label]) if i % 2 else row
         for i, row in enumerate(make_separable_corpus(10, seed=11))]
STAGE_SECTIONS = {
    "encoder": {"backends": [{"key": "toy"}, {"key": "toy"}], "hyperparams": HP},
    "ensemble": {"mode": "average", "weights": [1, 3]},
    "evaluate": {"folds": 3},
    "tune": {"epochs_axis": [1, 2], "batch_axis": [4, 8], "lr_axis": [0.05, 0.1],
             "initial": {"epochs": 1, "batch_size": 4, "learning_rate": 0.05}},
}


class TestConfigSettings:
    """Stage subcommands read --config through the run's section readers; a flag wins over its key."""

    def test_every_settings_flag_stands_for_a_config_key(self):
        io_paths = {"--config", "--out", "--model", "--caches", "--runs", "--labels-out", "--report",
                    "--plan", "--augment-plan"}
        [commands] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        flags = {
            flag
            for parser in commands.choices.values()
            for action in parser._actions
            for flag in action.option_strings
            if flag not in ("-h", "--help")
        }
        assert flags - io_paths == set(FLAG_KEYS)

    @pytest.mark.parametrize("flags, k", [([], 3), (["--folds", "5"], 5)])
    def test_split_folds(self, tmp_path, flags, k):
        config = write_config(tmp_path, NOISY, **STAGE_SECTIONS)
        out = tmp_path / "folds.json"
        assert main(["split", "--config", str(config), *flags, "--out", str(out)]) == 0
        plan = json.loads(out.read_text())
        assert (plan["k"], plan["seed"]) == (k, 7)
        assert set(plan["assignments"].values()) == set(range(k))

    @pytest.mark.parametrize(
        "grid, first",
        [(None, ("1", "4", "0.05")), ("epochs_axis: [1]\nbatch_axis: [8]\nlr_axis: [0.1]\n", ("1", "8", "0.1"))],
        ids=["tune-initial", "encoder-hyperparams"],
    )
    def test_tune_starts_from_the_config(self, tmp_path, monkeypatch, grid, first):
        folds = []
        protocol = tune_mod.make_cv_protocol
        monkeypatch.setattr(tune_mod, "make_cv_protocol", lambda plan: folds.append(plan.k) or protocol(plan))
        config = write_config(tmp_path, NOISY, **STAGE_SECTIONS)
        argv = ["tune", "--config", str(config), "--backend", "toy", "--out", str(tmp_path / "tuned")]
        if grid is not None:
            (tmp_path / "grid.yaml").write_text(grid)
            argv += ["--grid", str(tmp_path / "grid.yaml")]
        assert main(argv) == 0
        with open(tmp_path / "tuned" / "trace.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert (rows[0]["epochs"], rows[0]["batch_size"], rows[0]["learning_rate"]) == first
        assert folds == [3]

    def test_tune_takes_one_backend(self, tmp_path):
        config = write_config(tmp_path, NOISY, **STAGE_SECTIONS)
        assert main(["tune", "--config", str(config), "--out", str(tmp_path / "tuned")]) == 1

    def test_evaluate_uses_the_config_ensemble(self, tmp_path):
        config = write_config(tmp_path, NOISY, **STAGE_SECTIONS)
        assert main(["evaluate", "--config", str(config), "--out", str(tmp_path / "eval")]) == 0
        got = json.loads((tmp_path / "eval" / "metrics.json").read_text())
        members = members_from_entries([{"key": "toy"}, {"key": "toy"}], 7, HP)
        plan = stratified_folds(NOISY, k=3, seed=7)

        def metrics(mode, weights=None):
            report = cross_validate(NOISY, Classifier(members, mode, weights).fit_many, plan, seed=7)
            return json.loads(json.dumps(report.to_dict()))

        assert got == metrics("average", [1, 3])
        assert got["aggregates"] != metrics("average")["aggregates"]  # the weights matter here

    @pytest.mark.parametrize("flags, rc", [([], 1), (["--mode", "single"], 0)])
    def test_mode_flag_replaces_the_config_ensemble(self, tmp_path, flags, rc):
        # One backend of an ensemble config: the config's average weights need
        # two members, and --mode single replaces them along with the mode.
        config = write_config(tmp_path, NOISY, **STAGE_SECTIONS)
        out_dir = tmp_path / "eval"
        argv = ["evaluate", "--config", str(config), "--backend", "toy", *flags, "--out", str(out_dir)]
        assert main(argv) == rc
        if rc == 0:
            assert len(json.loads((out_dir / "metrics.json").read_text())["fold_detail"]) == 3

    def test_vote_uses_the_config_ensemble(self, tmp_path):
        config = write_config(tmp_path, NOISY, **STAGE_SECTIONS)
        out = tmp_path / "combined.csv"
        caches = write_caches(tmp_path, ["x", "y"])
        assert main(["vote", "--config", str(config), "--caches", *caches, "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "id,p_NH,p_GH,p_Re,p_Ra,p_Se"
        assert main(["vote", "--config", str(config), "--mode", "majority", "--caches", *caches,
                     "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "id,label"

    def test_vote_without_a_mode_needs_two_caches(self, tmp_path):
        caches = write_caches(tmp_path, ["x"], ("a",))
        assert main(["vote", "--caches", *caches, "--out", str(tmp_path / "labels.csv")]) == 1

    @pytest.mark.parametrize("n_caches", [1, 2])
    def test_vote_rejects_the_config_single_mode(self, tmp_path, capsys, n_caches):
        config = write_config(tmp_path, NOISY)  # ensemble.mode: single
        caches = write_caches(tmp_path, ["x", "y"], ("a", "b")[:n_caches])
        assert main(["vote", "--config", str(config), "--caches", *caches, "--out", str(tmp_path / "out.csv")]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error:") and all(mode in line for mode in ("'single'", "'majority'", "'average'"))
        assert not (tmp_path / "out.csv").exists()
