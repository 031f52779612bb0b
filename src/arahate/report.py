"""Comparison-table rendering from run metrics and packaged reference results.

Rendering is pure: the same run directories and baseline file always produce
byte-identical documents. Every row's macro and weighted aggregates are
recomputed from its per-class F1 cells (and supports) and the row is flagged
when a stored aggregate drifts more than FLAG_TOLERANCE from the recomputed
value. Reference rows published on a 0-1 scale are converted to percentages,
which the document notes; their coarse rounding makes consistency flags on
those rows expected rather than alarming.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .corpus import atomic_open, read_input
from .errors import ArahateError
from .evaluate import aggregate
from .labels import LABEL_ORDER, Label

FLAG_TOLERANCE = 0.02


class ReportError(ArahateError):
    pass


@dataclass(frozen=True)
class TableRow:
    """One row of the comparison table: a run's or a reference system's F1 scores."""

    system: str
    group: str
    f1: dict[Label, float]  # percent
    macro: float | None
    micro: float | None
    weighted: float | None
    supports: dict[Label, int]  # what the macro/weighted aggregates are recomputed with
    ref: str | None = None
    converted_from_unit_scale: bool = False

    def flags(self) -> list[str]:
        recomputed = aggregate(self.f1, self.supports)
        macro, weighted = recomputed.macro_f1, recomputed.weighted_f1
        out = []
        if self.macro is not None and abs(self.macro - macro) > FLAG_TOLERANCE:
            out.append(f"macro!={macro:.2f}")
        if self.weighted is not None and abs(self.weighted - weighted) > FLAG_TOLERANCE:
            out.append(f"weighted!={weighted:.2f}")
        return out


@dataclass(frozen=True)
class BaselineTable:
    supports: dict[Label, int]
    rows: tuple[TableRow, ...]


def load_baselines(path: str | Path | None = None) -> BaselineTable:
    """Load reference rows, defaulting to the packaged data file."""
    if path is None:
        text = resources.files("arahate").joinpath("data/baselines.json").read_text("utf-8")
    else:
        text = read_input(path, "baseline file", ReportError)
    try:
        return _baseline_table(json.loads(text))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:  # ValueError: bad JSON or label
        raise ReportError(f"baseline file {path or 'data/baselines.json'} is malformed: {exc!r}") from None


def _baseline_table(data: dict) -> BaselineTable:
    supports = {Label(name): int(n) for name, n in data["supports"].items()}
    if len(supports) < len(LABEL_ORDER):  # the flags recompute the aggregates with all five
        raise KeyError(f"supports lack {[label.value for label in LABEL_ORDER if label not in supports]}")
    rows = []
    for group in data["groups"]:
        unit_scale = group.get("scale") == "unit"
        factor = 100.0 if unit_scale else 1.0

        def convert(value):
            return None if value is None else round(float(value) * factor, 6)

        for entry in group["rows"]:
            # Every class needs an F1 number: the flags recompute the aggregates from all five.
            f1 = {Label(name): round(float(value) * factor, 6) for name, value in entry["f1"].items()}
            missing = [label.value for label in LABEL_ORDER if label not in f1]
            if missing:
                raise KeyError(f"row {entry['system']!r} has no F1 for {missing}")
            rows.append(
                TableRow(
                    system=entry["system"],
                    group=group["name"],
                    f1=f1,
                    macro=convert(entry.get("macro")),
                    micro=convert(entry.get("micro")),
                    weighted=convert(entry.get("weighted")),
                    supports=supports,
                    ref=entry.get("ref"),
                    converted_from_unit_scale=unit_scale,
                )
            )
    return BaselineTable(supports=supports, rows=tuple(rows))


def load_run_metrics(run_dir: str | Path) -> dict:
    path = Path(run_dir) / "metrics.json"
    text = read_input(path, "run metrics file", ReportError)
    try:
        return json.loads(text)
    except ValueError as exc:
        raise ReportError(f"{path} is not valid JSON: {exc}") from None


def _row_from_run(run_dir: str | Path) -> TableRow:
    metrics = load_run_metrics(run_dir)
    try:
        per_class = metrics["per_class"]
        macro, micro, weighted = (metrics["aggregates"].get(f"{name}_f1") for name in ("macro", "micro", "weighted"))
        if any(value is not None and type(value) not in (int, float) for value in (macro, micro, weighted)):
            raise TypeError(f"aggregates {macro!r}, {micro!r}, {weighted!r} are not all numbers or null")
        return TableRow(
            system=Path(run_dir).name,
            group="runs",
            f1={label: float(per_class[label.value]["f1"]) for label in LABEL_ORDER},
            macro=macro,
            micro=micro,
            weighted=weighted,
            supports={label: int(metrics["supports"][label.value]) for label in LABEL_ORDER},
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ReportError(f"{Path(run_dir) / 'metrics.json'} is malformed: {exc!r}") from None


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.2f}"


def render(
    run_dirs: list[str | Path],
    baselines: BaselineTable | None = None,
    format: str = "markdown",
) -> str:
    """Render the comparison table interleaving runs with reference rows."""
    if format not in ("markdown", "csv"):
        raise ReportError(f"unsupported format {format!r}")
    if baselines is None:
        baselines = load_baselines()
    table = [_row_from_run(run_dir) for run_dir in run_dirs] + list(baselines.rows)

    header = (
        ["group", "system"]
        + [f"F1_{label.value}" for label in LABEL_ORDER]
        + ["macro_F1", "micro_F1", "weighted_F1", "scale", "flags"]
    )
    lines = []
    any_converted = False
    for row in table:
        any_converted = any_converted or row.converted_from_unit_scale
        system = f"{row.system} [{row.ref}]" if row.ref else row.system
        cells = (
            [row.group, system]
            + [_fmt(row.f1[label]) for label in LABEL_ORDER]
            + [
                _fmt(row.macro),
                _fmt(row.micro),
                _fmt(row.weighted),
                "percent(converted)" if row.converted_from_unit_scale else "percent",
                ";".join(row.flags()),
            ]
        )
        lines.append(cells)

    if format == "csv":
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows([header, *lines])
        return buffer.getvalue()

    widths = [max(len(header[i]), *(len(row[i]) for row in lines)) if lines else len(header[i]) for i in range(len(header))]
    def md_row(cells):
        return "| " + " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)) + " |"

    out = [md_row(header), "| " + " | ".join("-" * w for w in widths) + " |"]
    out += [md_row(cells) for cells in lines]
    out.append("")
    out.append(
        "Flags mark rows whose stored macro/weighted aggregate differs from the value "
        f"recomputed from the per-class F1 cells by more than {FLAG_TOLERANCE}."
    )
    if any_converted:
        out.append(
            "Rows marked percent(converted) were published on a 0-1 scale and are shown "
            "multiplied by 100; their two-decimal source rounding makes consistency flags expected."
        )
    return "\n".join(out) + "\n"


def write_report(
    path: str | Path,
    run_dirs: list[str | Path],
    baselines: BaselineTable | None = None,
    format: str = "markdown",
) -> Path:
    text = render(run_dirs, baselines, format)
    with atomic_open(path) as fh:
        fh.write(text)
    return Path(path)
