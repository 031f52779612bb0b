"""Report rendering: reference-row consistency, flagging, determinism."""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import pytest

from arahate.labels import LABEL_ORDER, Label
from arahate.report import (
    ReportError,
    load_baselines,
    render,
    write_report,
)

BASELINES = load_baselines()


def fake_run(tmp_path: Path, name: str, f1s: dict, macro=None, micro=80.0, weighted=None) -> Path:
    run_dir = tmp_path / name
    run_dir.mkdir()
    per_class = {
        label.value: {"precision": value, "recall": value, "f1": value}
        for label, value in f1s.items()
    }
    supports = {"NH": 8332, "GH": 1397, "Re": 722, "Ra": 526, "Se": 657}
    if macro is None:
        macro = round(sum(f1s.values()) / 5, 2)
    if weighted is None:
        total = sum(supports.values())
        weighted = round(
            sum(f1s[label] * supports[label.value] for label in LABEL_ORDER) / total, 2
        )
    metrics = {
        "per_class": per_class,
        "supports": supports,
        "aggregates": {"macro_f1": macro, "micro_f1": micro, "weighted_f1": weighted},
        "pooled": {},
        "fold_detail": [],
        "seed": 0,
        "config_hash": "x",
    }
    (run_dir / "metrics.json").write_text(json.dumps(metrics), encoding="utf-8")
    return run_dir


class TestBaselines:
    def test_packaged_file_loads(self):
        assert len(BASELINES.rows) >= 20
        assert BASELINES.supports[Label.NH] == 8332

    def test_majority_voting_row_recomputes_cleanly(self):
        row = next(r for r in BASELINES.rows if r.system == "majority-voting")
        macro = sum(row.f1.values()) / 5
        assert macro == pytest.approx(72.66, abs=0.01)
        total = sum(BASELINES.supports.values())
        weighted = sum(
            row.f1[label] * BASELINES.supports[label] for label in LABEL_ORDER
        ) / total
        assert weighted == pytest.approx(85.48, abs=0.02)

    def test_unit_scale_rows_converted_to_percent(self):
        row = next(r for r in BASELINES.rows if r.system == "ensemble-voting")
        assert row.converted_from_unit_scale
        assert row.f1[Label.NH] == pytest.approx(93.0)
        assert row.weighted == pytest.approx(85.0)

    def test_missing_baseline_file_rejected(self, tmp_path):
        with pytest.raises(ReportError):
            load_baselines(tmp_path / "absent.json")


class TestRender:
    def test_percent_reference_rows_unflagged(self):
        document = render([], BASELINES, format="csv")
        for line in document.splitlines()[1:]:
            cells = line.split(",")
            if cells[-2] == "percent":  # scale column
                assert cells[-1] == "", line

    def test_inconsistent_stored_macro_flagged(self, tmp_path):
        f1s = {Label.NH: 90.0, Label.GH: 60.0, Label.Re: 80.0, Label.Ra: 50.0, Label.Se: 70.0}
        run = fake_run(tmp_path, "drifted", f1s, macro=70.5)  # true macro is 70.0
        document = render([run], BASELINES, format="csv")
        run_line = next(l for l in document.splitlines() if "drifted" in l)
        assert "macro!=70.00" in run_line

    def test_consistent_run_unflagged(self, tmp_path):
        f1s = {Label.NH: 90.0, Label.GH: 60.0, Label.Re: 80.0, Label.Ra: 50.0, Label.Se: 70.0}
        run = fake_run(tmp_path, "clean", f1s)
        document = render([run], BASELINES, format="csv")
        run_line = next(l for l in document.splitlines() if "clean" in l)
        assert run_line.endswith(",percent,")

    def test_csv_quotes_cells_that_hold_commas_or_quotes(self, tmp_path):
        f1s = {Label.NH: 90.0, Label.GH: 60.0, Label.Re: 80.0, Label.Ra: 50.0, Label.Se: 70.0}
        runs = [fake_run(tmp_path, name, f1s) for name in ("a,b", 'say "hi"')]
        header, *rows = csv.reader(io.StringIO(render(runs, BASELINES, format="csv")))
        assert len(header) == 12
        assert all(len(row) == 12 for row in rows)
        assert [row[1] for row in rows[:2]] == ["a,b", 'say "hi"']

    def test_baselines_only_table(self):
        document = render([], BASELINES, format="markdown")
        assert "majority-voting" in document
        assert "| group" in document.splitlines()[0]

    def test_missing_metrics_file_names_run(self, tmp_path):
        missing = tmp_path / "no-metrics"
        missing.mkdir()
        with pytest.raises(ReportError, match="no-metrics"):
            render([missing], BASELINES)

    def test_rendering_is_pure(self, tmp_path):
        f1s = {Label.NH: 91.0, Label.GH: 61.0, Label.Re: 81.0, Label.Ra: 51.0, Label.Se: 71.0}
        run = fake_run(tmp_path, "stable", f1s)
        assert render([run], BASELINES, "markdown") == render([run], BASELINES, "markdown")
        assert render([run], BASELINES, "csv") == render([run], BASELINES, "csv")

    def test_conversion_note_present_in_markdown(self):
        document = render([], BASELINES, format="markdown")
        assert "0-1 scale" in document

    def test_unknown_format_rejected(self):
        with pytest.raises(ReportError):
            render([], BASELINES, format="html")

    def test_write_report(self, tmp_path):
        out = write_report(tmp_path / "tables.md", [], BASELINES, "markdown")
        assert out.read_text(encoding="utf-8").startswith("| group")


class TestAggregateRederivability:
    def test_every_percent_row_rederives_within_tolerance(self):
        # Stored aggregates of natively-percent reference rows must agree with
        # the arithmetic over their own cells.
        total = sum(BASELINES.supports.values())
        for row in BASELINES.rows:
            if row.converted_from_unit_scale:
                continue
            macro = sum(row.f1.values()) / 5
            weighted = sum(
                row.f1[label] * BASELINES.supports[label] for label in LABEL_ORDER
            ) / total
            assert row.macro == pytest.approx(macro, abs=0.02), row.system
            assert row.weighted == pytest.approx(weighted, abs=0.02), row.system
