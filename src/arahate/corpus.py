"""Dataset ingestion, label mapping onto the five-class taxonomy and merging.

The canonical on-disk corpus format is JSON-lines (UTF-8, one object per line)
with fields ``id``, ``text``, ``label`` and ``source``; ``norm_text`` and
``origin`` are carried along once a corpus has been normalized or augmented.
CSV/TSV sources are adapted into the same row type at load time via a
DatasetDescriptor that declares how external label strings map onto the
taxonomy (or that they are discarded).

The row contract. A ``LabeledText`` has a non-empty ``raw_text``, a known
``origin``, and no pseudo-labelled NH; ``LabeledText(...)`` checks all three
for every caller. ``load_dataset`` checks each outside record: a JSON field
is a string or a number, the required fields are present and non-empty, the
label maps, no id repeats, the origin is known, no pseudo-labelled row is
NH, and ``norm_text`` is a string or absent. It then builds the row with
``checked_row``, which runs no check again. The other paths that build rows
with ``checked_row`` copy a checked row and change only fields they know
pass: normalization sets ``norm_text``, ``merge`` qualifies the id,
``augment.direct_merge`` relabels to Re with origin ``direct_merge``, and
``augment.pseudo_label`` relabels with origin ``pseudo`` only rows not
predicted NH. So no path skips a check that an outside record needs.

This module also holds the one way the package opens files. Every input file
is read through ``open_input``, which raises the reader's own error, naming
the file, for a path that is missing, is not a file or is not UTF-8 text.
Every output file is written through ``atomic_open``.
"""

from __future__ import annotations

import csv
import json
import logging
import operator
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from json.encoder import encode_basestring as _json_str
from pathlib import Path
from typing import IO, Iterator

import yaml

from .errors import ArahateError
from .labels import LABEL_ORDER, Label, parse_label

log = logging.getLogger(__name__)

DISCARD = "discard"
# The fields load_dataset reads from a dataset row; the first three are required.
_RECORD_FIELDS = ("id", "text", "label", "source", "norm_text", "origin")
# JSON values those fields may hold, norm_text aside: a number reads as its decimal text.
_SCALARS = frozenset({str, int, float, type(None)})
ORIGINS = ("gold", "direct_merge", "pseudo")

# Canonical label strings map onto themselves when a descriptor omits label_map.
IDENTITY_LABEL_MAP: dict[str, str] = {label.value: label.value for label in LABEL_ORDER}


class CorpusError(ArahateError):
    """Malformed dataset file, descriptor or merge input."""


@dataclass
class LabeledText:
    """One short text with its label and provenance.

    ``norm_text`` is None until the corpus has been normalized; an empty
    string marks a row whose content was normalized away entirely (such rows
    are retained but excluded from training downstream).
    """

    id: str
    raw_text: str
    label: Label
    source: str
    norm_text: str | None = None
    origin: str = "gold"

    def __post_init__(self) -> None:
        fault = _row_fault(self.id, self.raw_text, self.label, self.origin)
        if fault is not None:
            raise CorpusError(fault)


def _row_fault(row_id: str, raw_text: str, label: Label, origin: str) -> str | None:
    """Why ``LabeledText`` rejects a row with these fields, or None if it accepts it."""
    if not raw_text:
        return f"row {row_id!r}: raw_text must be non-empty"
    if origin not in ORIGINS:
        return f"row {row_id!r}: unknown origin {origin!r}"
    if origin == "pseudo" and label == Label.NH:
        return f"row {row_id!r}: pseudo-labelled rows may not carry NH"
    return None


def checked_row(
    row_id: str, raw_text: str, label: Label, source: str, norm_text: str | None, origin: str
) -> LabeledText:
    """A ``LabeledText`` of fields that already pass its checks, built without running them again.

    The caller vouches for the fields: see the row contract in the module docstring.
    """
    row = object.__new__(LabeledText)
    # Every field, in __init__'s order, so rows keep sharing one key table.
    row.id, row.raw_text, row.label, row.source, row.norm_text, row.origin = (
        row_id, raw_text, label, source, norm_text, origin
    )
    return row


@dataclass
class DatasetDescriptor:
    """Where a dataset lives and how its label scheme maps onto the taxonomy.

    Every label string occurring in the file must either map to a canonical
    label or to the literal ``discard``; anything unmapped is a load error.
    """

    key: str
    path: str
    format: str = "jsonl"  # jsonl | csv | tsv
    label_map: dict[str, str] = field(default_factory=lambda: dict(IDENTITY_LABEL_MAP))
    hate_only: bool = False

    def __post_init__(self) -> None:
        if self.format not in ("jsonl", "csv", "tsv"):
            raise CorpusError(f"dataset {self.key!r}: unsupported format {self.format!r}")
        self._labels: dict[str, Label | None] = {}  # label_map with each target parsed
        for external, target in self.label_map.items():
            try:
                self._labels[external] = None if target == DISCARD else parse_label(target)
            except ValueError as exc:
                raise CorpusError(f"dataset {self.key!r}: label_map[{external!r}]: {exc}") from None

    def map_label(self, external: str, line_no: int) -> Label | None:
        """Resolve an external label string; None means the row is discarded."""
        try:
            return self._labels[external]
        except KeyError:
            raise CorpusError(
                f"dataset {self.key!r} line {line_no}: unmapped label string {external!r}"
            ) from None


def _iter_jsonl(fh: IO[str], path: Path):
    for line_no, line in enumerate(fh, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"{path} line {line_no}: invalid JSON ({exc})") from None
        if not isinstance(record, dict):
            raise CorpusError(f"{path} line {line_no}: expected a JSON object")
        fields = tuple(map(record.get, _RECORD_FIELDS))
        if not _SCALARS.issuperset(map(type, fields)):  # load_dataset checks norm_text
            for key, value in zip(_RECORD_FIELDS, fields):
                if type(value) not in _SCALARS and key != "norm_text":
                    raise CorpusError(
                        f"{path} line {line_no}: field {key!r} must be a string or a number, not {value!r}"
                    )
        yield line_no, fields


def _iter_delimited(fh: IO[str], path: Path, delimiter: str):
    """(line number, fields) per row of a file opened with ``newline=""``, by csv.DictReader's rules.

    Blank lines are skipped, a short row reads None for its missing fields,
    extra fields are ignored, and of two columns with the same name the last
    wins. A header-position map picks the fields from plain ``csv.reader``
    rows, without a dict per row.
    """
    reader = csv.reader(fh, delimiter=delimiter)
    header = next(reader, None)
    if header is None:
        return
    column = {name: index for index, name in enumerate(header)}
    missing = set(_RECORD_FIELDS[:3]) - column.keys()
    if missing:
        raise CorpusError(f"{path}: missing required columns {sorted(missing)}")
    width = len(header)
    # An absent column reads the None appended at index ``width``.
    pick = operator.itemgetter(*(column.get(name, width) for name in _RECORD_FIELDS))
    for row in reader:
        if len(row) != width:
            if not row:
                continue
            row = row[:width] + [None] * (width - len(row))
        row.append(None)
        # The reader has consumed the header as line 1.
        yield reader.line_num, pick(row)


def load_dataset(descriptor: DatasetDescriptor) -> list[LabeledText]:
    """Load one dataset file, mapping labels and dropping declared discards.

    Raises CorpusError (with a line number where possible) for unparseable
    rows, a JSON field that is an array, an object or a boolean, missing or
    empty required fields, unmapped label strings, duplicate ids, unknown
    origins, pseudo-labelled NH rows and a ``norm_text`` that is not a string.
    """
    path = Path(descriptor.path)
    rows: list[LabeledText] = []
    seen_ids: set[str] = set()
    discarded = 0
    dropped_non_hate = 0
    delimiter = {"csv": ",", "tsv": "\t"}.get(descriptor.format)
    newline = None if delimiter is None else ""
    with open_input(path, f"dataset {descriptor.key!r} file", CorpusError, newline) as fh:
        records = _iter_jsonl(fh, path) if delimiter is None else _iter_delimited(fh, path, delimiter)
        for line_no, (row_id, text, external, source, norm_text, origin) in records:
            # A truthy value is neither None nor "": only a falsy one needs the per-field check.
            if not (row_id and text and external):
                for key, value in zip(_RECORD_FIELDS, (row_id, text, external)):
                    if value in (None, ""):
                        raise CorpusError(f"{path} line {line_no}: missing or empty field {key!r}")
            label = descriptor.map_label(str(external), line_no)
            if label is None:
                discarded += 1
                continue
            if descriptor.hate_only and label is Label.NH:
                dropped_non_hate += 1
                continue
            row_id = str(row_id)
            if row_id in seen_ids:
                raise CorpusError(f"{path} line {line_no}: duplicate id {row_id!r}")
            seen_ids.add(row_id)
            # LabeledText's checks; its raw_text one always passes, as str() of a required field is non-empty.
            origin = str(origin or "gold")
            if origin not in ORIGINS or origin == "pseudo" and label is Label.NH:
                raise CorpusError(f"{path} line {line_no}: {_row_fault(row_id, str(text), label, origin)}")
            if not (norm_text is None or isinstance(norm_text, str)):
                raise CorpusError(
                    f"{path} line {line_no}: row {row_id!r}: norm_text must be a string, not {norm_text!r}"
                )
            rows.append(checked_row(row_id, str(text), label, str(source or descriptor.key), norm_text, origin))
    if discarded or dropped_non_hate:
        log.info(
            "dataset %s: kept %d rows, discarded %d by label_map, dropped %d non-hate (hate_only)",
            descriptor.key, len(rows), discarded, dropped_non_hate,
        )
    return rows


def _qualify_id(row: LabeledText) -> str:
    # Re-qualification is idempotent so merged corpora can be merged again.
    prefix = f"{row.source}:"
    return row.id if row.id.startswith(prefix) else prefix + row.id


def merge(corpora: list[list[LabeledText]]) -> list[LabeledText]:
    """Concatenate corpora, re-qualifying ids as ``source:id``.

    A collision after qualification is an error. Nothing is deduplicated
    here: ``augment.direct_merge`` and ``augment.pseudo_label`` drop
    normalized-text duplicates and count each one in their report.
    """
    rows = [row for corpus in corpora for row in corpus]
    out: list[LabeledText] = []
    seen_ids: set[str] = set()
    for row in rows:
        qualified = _qualify_id(row)
        if qualified in seen_ids:
            raise CorpusError(f"id collision after qualification: {qualified!r}")
        seen_ids.add(qualified)
        out.append(checked_row(qualified, row.raw_text, row.label, row.source, row.norm_text, row.origin))
    return out


def read_jsonl(path: str | Path, key: str | None = None) -> list[LabeledText]:
    """Read a canonical JSONL corpus (labels must already be canonical)."""
    path = Path(path)
    descriptor = DatasetDescriptor(key=key or path.stem, path=str(path), format="jsonl")
    return load_dataset(descriptor)


def write_jsonl(path: str | Path, rows: list[LabeledText]) -> None:
    """Write a corpus in the canonical JSONL format (atomically).

    A line is ``json.dumps(record, ensure_ascii=False, sort_keys=True)`` of
    the row's record, written field by field in sorted-key order.
    """
    with atomic_open(path) as fh:
        for row in rows:
            norm = "" if row.norm_text is None else f', "norm_text": {_json_str(row.norm_text)}'
            origin = "" if row.origin == "gold" else f', "origin": {_json_str(row.origin)}'
            fh.write(
                f'{{"id": {_json_str(row.id)}, "label": {_json_str(row.label.value)}{norm}{origin}, '
                f'"source": {_json_str(row.source)}, "text": {_json_str(row.raw_text)}}}\n'
            )


@contextmanager
def atomic_open(path: str | Path, mode: str = "w", newline: str | None = None) -> Iterator[IO]:
    """Write ``path`` through a temporary sibling that replaces it when the block ends.

    Readers see the old file or the complete new one, never a partial write:
    if the block raises, the temporary file is removed and ``path`` is left
    as it was. Text modes write UTF-8; parent directories are created.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, data) -> None:
    """Write indented, key-sorted JSON atomically: readers see the old file or the new one."""
    with atomic_open(path) as fh:
        fh.write(json.dumps(data, indent=2, sort_keys=True) + "\n")


@contextmanager
def open_input(
    path: str | Path, what: str, error: type[ArahateError], newline: str | None = None
) -> Iterator[IO[str]]:
    """Open the input file ``path`` as UTF-8 text for the block to read.

    Every way the file cannot be read as text raises ``error`` naming it as
    ``what``: a missing path, a path that is not a file, and bytes the block
    reads that are not UTF-8.
    """
    path = Path(path)
    if not path.exists():
        raise error(f"{what} not found: {path}")
    if not path.is_file():
        raise error(f"{what} {path}: not a file")
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError:
        raise error(f"{what} {path}: not UTF-8 text") from None


def read_input(path: str | Path, what: str, error: type[ArahateError]) -> str:
    """The whole text of the input file ``path``, read through ``open_input``."""
    with open_input(path, what, error) as fh:
        return fh.read()


def load_yaml(path: str | Path, what: str, error: type[ArahateError]):
    """Parse a YAML (or JSON) input file; an empty one reads as {}."""
    text = read_input(path, what, error)
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        # One line: a parse error's problem and place, else the error's text with its line breaks folded.
        mark = getattr(exc, "problem_mark", None)
        if mark is not None and exc.problem:
            reason = f"{exc.problem} at line {mark.line + 1}, column {mark.column + 1}"
        else:
            reason = " ".join(str(exc).split())
        raise error(f"{what} {path} is not valid YAML/JSON: {reason}") from None
    return {} if data is None else data


def load_registry(path: str | Path) -> list[DatasetDescriptor]:
    """Load a declarative dataset registry (YAML or JSON).

    The file holds a list of descriptor entries, either top-level or under a
    ``datasets`` key; relative dataset paths are resolved against the registry
    file's directory.
    """
    path = Path(path)
    data = load_yaml(path, "registry", CorpusError)
    entries = data.get("datasets") if isinstance(data, dict) else data
    if not isinstance(entries, list):
        raise CorpusError(f"{path}: expected a list of dataset entries")
    descriptors = []
    seen_keys: set[str] = set()
    for entry in entries:
        if not isinstance(entry, dict) or "key" not in entry or "path" not in entry:
            raise CorpusError(f"{path}: every registry entry needs at least 'key' and 'path'")
        key, dataset_path = entry["key"], entry["path"]
        if not isinstance(key, str) or not isinstance(dataset_path, str):
            raise CorpusError(f"{path}: registry entry {entry!r}: 'key' and 'path' must be strings")
        if key in seen_keys:
            raise CorpusError(f"{path}: duplicate dataset key {key!r}")
        seen_keys.add(key)
        label_map = entry.get("label_map") or IDENTITY_LABEL_MAP
        if not isinstance(label_map, dict):
            raise CorpusError(f"{path}: dataset {key!r}: label_map must be a mapping, not {label_map!r}")
        for external in label_map:
            # YAML reads an unquoted OFF, yes or 0 as a boolean or a number, which no label string equals.
            if not isinstance(external, str):
                raise CorpusError(
                    f"{path}: dataset {key!r}: label_map key {external!r} is not a string; quote it"
                )
        hate_only = entry.get("hate_only", False)
        if not isinstance(hate_only, bool):
            raise CorpusError(f"{path}: dataset {key!r}: hate_only must be true or false, not {hate_only!r}")
        descriptors.append(
            DatasetDescriptor(
                key=key,
                path=str(path.parent / dataset_path),
                format=str(entry.get("format", "jsonl")),
                label_map=dict(label_map),
                hate_only=hate_only,
            )
        )
    return descriptors
