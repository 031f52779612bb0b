"""Dataset ingestion, label mapping onto the five-class taxonomy, merging and statistics.

The canonical on-disk corpus format is JSON-lines (UTF-8, one object per line)
with fields ``id``, ``text``, ``label`` and ``source``; ``norm_text`` and
``origin`` are carried along once a corpus has been normalized or augmented.
CSV/TSV sources are adapted into the same row type at load time via a
DatasetDescriptor that declares how external label strings map onto the
taxonomy (or that they are discarded).
"""

from __future__ import annotations

import csv
import json
import logging
import operator
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
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
        if not self.raw_text:
            raise CorpusError(f"row {self.id!r}: raw_text must be non-empty")
        if self.origin not in ORIGINS:
            raise CorpusError(f"row {self.id!r}: unknown origin {self.origin!r}")
        if self.origin == "pseudo" and self.label == Label.NH:
            raise CorpusError(f"row {self.id!r}: pseudo-labelled rows may not carry NH")

    def with_norm_text(self, norm_text: str) -> "LabeledText":
        """This row with ``norm_text`` set; no field it checks changes, so it is not checked again."""
        row = object.__new__(LabeledText)
        # Every field, in __init__'s order, so rows keep sharing one key table.
        row.id, row.raw_text, row.label, row.source = self.id, self.raw_text, self.label, self.source
        row.norm_text, row.origin = norm_text, self.origin
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
        for external, target in self.label_map.items():
            if target == DISCARD:
                continue
            try:
                parse_label(target)
            except ValueError as exc:
                raise CorpusError(f"dataset {self.key!r}: label_map[{external!r}]: {exc}") from None

    def map_label(self, external: str, line_no: int) -> Label | None:
        """Resolve an external label string; None means the row is discarded."""
        if external not in self.label_map:
            raise CorpusError(
                f"dataset {self.key!r} line {line_no}: unmapped label string {external!r}"
            )
        target = self.label_map[external]
        return None if target == DISCARD else parse_label(target)


@dataclass(frozen=True)
class CorpusStats:
    """Whitespace-token statistics over raw text, per the dataset overview table."""

    per_class_count: dict[Label, int]
    word_count: int
    unique_words: int
    avg_words_per_text: float

    @property
    def size(self) -> int:
        return sum(self.per_class_count.values())


def _iter_jsonl(path: Path):
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path} line {line_no}: invalid JSON ({exc})") from None
            if not isinstance(record, dict):
                raise CorpusError(f"{path} line {line_no}: expected a JSON object")
            yield line_no, tuple(map(record.get, _RECORD_FIELDS))


def _iter_delimited(path: Path, delimiter: str):
    """(line number, fields) per row, by csv.DictReader's rules.

    Blank lines are skipped, a short row reads None for its missing fields,
    extra fields are ignored, and of two columns with the same name the last
    wins. A header-position map picks the fields from plain ``csv.reader``
    rows, without a dict per row.
    """
    with open(path, encoding="utf-8", newline="") as fh:
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


def _iter_records(path: Path, format: str):
    """(line number, values of _RECORD_FIELDS, None where absent) per row of a JSONL, CSV or TSV file."""
    try:
        if format == "jsonl":
            yield from _iter_jsonl(path)
        else:
            yield from _iter_delimited(path, "\t" if format == "tsv" else ",")
    except UnicodeDecodeError:
        raise CorpusError(f"{path}: not UTF-8 text") from None


def load_dataset(descriptor: DatasetDescriptor) -> list[LabeledText]:
    """Load one dataset file, mapping labels and dropping declared discards.

    Raises CorpusError (with a line number where possible) for unparseable
    rows, unmapped label strings, empty texts and duplicate ids.
    """
    path = Path(descriptor.path)
    if not path.exists():
        raise CorpusError(f"dataset {descriptor.key!r}: file not found: {path}")
    rows: list[LabeledText] = []
    seen_ids: set[str] = set()
    discarded = 0
    dropped_non_hate = 0
    for line_no, (row_id, text, external, source, norm_text, origin) in _iter_records(path, descriptor.format):
        for key, value in zip(_RECORD_FIELDS, (row_id, text, external)):
            if value in (None, ""):
                raise CorpusError(f"{path} line {line_no}: missing or empty field {key!r}")
        label = descriptor.map_label(str(external), line_no)
        if label is None:
            discarded += 1
            continue
        if descriptor.hate_only and label == Label.NH:
            dropped_non_hate += 1
            continue
        row_id = str(row_id)
        if row_id in seen_ids:
            raise CorpusError(f"{path} line {line_no}: duplicate id {row_id!r}")
        seen_ids.add(row_id)
        try:
            rows.append(
                LabeledText(
                    id=row_id,
                    raw_text=str(text),
                    label=label,
                    source=str(source or descriptor.key),
                    norm_text=norm_text,
                    origin=str(origin or "gold"),
                )
            )
        except CorpusError as exc:
            raise CorpusError(f"{path} line {line_no}: {exc}") from None
    if discarded or dropped_non_hate:
        log.info(
            "dataset %s: kept %d rows, discarded %d by label_map, dropped %d non-hate (hate_only)",
            descriptor.key, len(rows), discarded, dropped_non_hate,
        )
    return rows


def compute_stats(corpus: list[LabeledText]) -> CorpusStats:
    """Per-class counts plus whitespace-token word statistics over raw text.

    Word counting is whitespace tokenization of the raw (un-normalized) text;
    unique words are case- and diacritic-sensitive.
    """
    if not corpus:
        raise CorpusError("cannot compute statistics of an empty corpus")
    per_class = {label: 0 for label in LABEL_ORDER}
    word_count = 0
    vocabulary: set[str] = set()
    for row in corpus:
        tokens = row.raw_text.split()
        if not tokens:
            raise CorpusError(f"row {row.id!r}: text is empty after trimming")
        per_class[row.label] += 1
        word_count += len(tokens)
        vocabulary.update(tokens)
    return CorpusStats(
        per_class_count=per_class,
        word_count=word_count,
        unique_words=len(vocabulary),
        avg_words_per_text=word_count / len(corpus),
    )


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
        out.append(replace(row, id=qualified))
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


def load_registry(path: str | Path) -> list[DatasetDescriptor]:
    """Load a declarative dataset registry (YAML or JSON).

    The file holds a list of descriptor entries, either top-level or under a
    ``datasets`` key; relative dataset paths are resolved against the registry
    file's directory.
    """
    path = Path(path)
    if not path.exists():
        raise CorpusError(f"registry file not found: {path}")
    try:
        data = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise CorpusError(f"registry {path} is not valid YAML/JSON: {exc}") from None
    entries = data.get("datasets") if isinstance(data, dict) else data
    if not isinstance(entries, list):
        raise CorpusError(f"{path}: expected a list of dataset entries")
    descriptors = []
    seen_keys: set[str] = set()
    for entry in entries:
        if not isinstance(entry, dict) or "key" not in entry or "path" not in entry:
            raise CorpusError(f"{path}: every registry entry needs at least 'key' and 'path'")
        if entry["key"] in seen_keys:
            raise CorpusError(f"{path}: duplicate dataset key {entry['key']!r}")
        seen_keys.add(entry["key"])
        dataset_path = Path(entry["path"])
        if not dataset_path.is_absolute():
            dataset_path = path.parent / dataset_path
        descriptors.append(
            DatasetDescriptor(
                key=str(entry["key"]),
                path=str(dataset_path),
                format=str(entry.get("format", "jsonl")),
                label_map=dict(entry.get("label_map") or IDENTITY_LABEL_MAP),
                hate_only=bool(entry.get("hate_only", False)),
            )
        )
    return descriptors
