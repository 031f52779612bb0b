"""Corpus loading, label mapping and merge semantics."""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arahate import corpus as corpus_mod, encoder
from arahate.cli import _write_labels_csv
from arahate.corpus import (
    CorpusError,
    DatasetDescriptor,
    LabeledText,
    atomic_open,
    load_dataset,
    load_registry,
    merge,
    read_jsonl,
    write_json,
    write_jsonl,
)
from arahate.encoder import EncoderSpec, HyperParams, save_model
from arahate.ensemble import write_proba_csv
from arahate.report import write_report
from arahate.tune import SearchTrace, write_trace_csv
from arahate.labels import LABEL_ORDER, Label

from conftest import make_separable_corpus

# Class counts of the 11634-row evaluation corpus.
BASE_CLASS_COUNTS = {
    Label.NH: 8332,
    Label.GH: 1397,
    Label.Re: 722,
    Label.Ra: 526,
    Label.Se: 657,
}


def _write_csv(path, rows, header="id,text,label"):
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")


class TestLoadDataset:
    def test_csv_with_discard_mapping(self, tmp_path):
        path = tmp_path / "fixture.csv"
        _write_csv(
            path,
            ['1,"نص اول",hateful', '2,"نص ثاني",normal', '3,"نص ثالث",hateful'],
        )
        descriptor = DatasetDescriptor(
            key="fix",
            path=str(path),
            format="csv",
            label_map={"hateful": "GH", "normal": "discard"},
        )
        rows = load_dataset(descriptor)
        assert len(rows) == 2
        assert all(row.label == Label.GH for row in rows)
        assert all(row.source == "fix" for row in rows)

    def test_empty_file_gives_empty_list(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        assert load_dataset(DatasetDescriptor(key="e", path=str(path))) == []

    def test_unmapped_label_names_the_string(self, tmp_path):
        path = tmp_path / "bad.csv"
        _write_csv(path, ["1,نص,weird"])
        descriptor = DatasetDescriptor(
            key="b", path=str(path), format="csv", label_map={"ok": "NH"}
        )
        with pytest.raises(CorpusError, match="weird"):
            load_dataset(descriptor)

    def test_unparseable_row_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "1", "text": "نص", "label": "NH"}\nnot json\n', encoding="utf-8")
        with pytest.raises(CorpusError, match="line 2"):
            load_dataset(DatasetDescriptor(key="b", path=str(path)))

    def test_missing_field_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "1", "label": "NH"}\n', encoding="utf-8")
        with pytest.raises(CorpusError, match="line 1"):
            load_dataset(DatasetDescriptor(key="b", path=str(path)))

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        _write_csv(path, ["1,نص,NH", "1,نص اخر,NH"])
        with pytest.raises(CorpusError, match="duplicate id"):
            load_dataset(DatasetDescriptor(key="d", path=str(path), format="csv"))

    def test_hate_only_drops_non_hate_rows(self, tmp_path):
        path = tmp_path / "mixed.csv"
        _write_csv(path, ["1,نص,hate", "2,نص اخر,clean"])
        descriptor = DatasetDescriptor(
            key="m",
            path=str(path),
            format="csv",
            label_map={"hate": "Re", "clean": "NH"},
            hate_only=True,
        )
        rows = load_dataset(descriptor)
        assert [row.label for row in rows] == [Label.Re]

    def test_tsv_format(self, tmp_path):
        path = tmp_path / "fixture.tsv"
        path.write_text("id\ttext\tlabel\n1\tنص\tNH\n", encoding="utf-8")
        rows = load_dataset(DatasetDescriptor(key="t", path=str(path), format="tsv"))
        assert rows[0].label == Label.NH

    def test_csv_skips_blank_lines(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("id,text,label\n\n1,نص,NH\n\n\n2,نص ب,GH\n\n", encoding="utf-8")
        rows = load_dataset(DatasetDescriptor(key="b", path=str(path), format="csv"))
        assert [(row.id, row.label) for row in rows] == [("1", Label.NH), ("2", Label.GH)]

    def test_csv_short_row_reports_missing_field_and_line(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("id,text,label\n1,نص,NH\n\n2,نص ب\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=r"line 4: missing or empty field 'label'"):
            load_dataset(DatasetDescriptor(key="s", path=str(path), format="csv"))

    def test_csv_extra_fields_ignored(self, tmp_path):
        path = tmp_path / "extra.csv"
        path.write_text("id,text,label\n1,نص,NH,source,x\n", encoding="utf-8")
        (row,) = load_dataset(DatasetDescriptor(key="e", path=str(path), format="csv"))
        assert (row.id, row.raw_text, row.label, row.source) == ("1", "نص", Label.NH, "e")

    def test_csv_repeated_column_last_wins(self, tmp_path):
        path = tmp_path / "repeat.csv"
        path.write_text("id,text,label,text\n1,اول,NH,ثاني\n2,اول,NH\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=r"line 3: missing or empty field 'text'"):
            load_dataset(DatasetDescriptor(key="r", path=str(path), format="csv"))
        path.write_text("id,text,label,text\n1,اول,NH,ثاني\n", encoding="utf-8")
        (row,) = load_dataset(DatasetDescriptor(key="r", path=str(path), format="csv"))
        assert row.raw_text == "ثاني"

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        extra=st.lists(st.sampled_from(corpus_mod._RECORD_FIELDS + ("x",)), max_size=4),
        order=st.randoms(use_true_random=False),
        rows=st.lists(
            st.lists(st.text(st.sampled_from(["a", "ن", " ", ",", "\t", '"', "\n"]), max_size=3), max_size=9),
            max_size=8,
        ),
        delimiter=st.sampled_from([",", "\t"]),
    )
    def test_delimited_rows_match_dict_reader(self, tmp_path_factory, extra, order, rows, delimiter):
        header = list(corpus_mod._RECORD_FIELDS[:3]) + extra
        order.shuffle(header)
        path = tmp_path_factory.mktemp("delimited") / "rows.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, delimiter=delimiter).writerows([header] + rows)  # [] is a blank line
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh, delimiter=delimiter)
            expected = [(reader.line_num, tuple(map(record.get, corpus_mod._RECORD_FIELDS))) for record in reader]
        with open(path, encoding="utf-8", newline="") as fh:
            assert list(corpus_mod._iter_delimited(fh, path, delimiter)) == expected

    def test_base_scale_corpus_matches_declared_counts(self, tmp_path):
        # Synthetic corpus mirroring the published class counts (11634 rows).
        path = tmp_path / "base.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            i = 0
            for label, count in BASE_CLASS_COUNTS.items():
                for _ in range(count):
                    fh.write(
                        json.dumps(
                            {"id": str(i), "text": f"نص {i}", "label": label.value},
                            ensure_ascii=False,
                        )
                        + "\n"
                    )
                    i += 1
        rows = load_dataset(DatasetDescriptor(key="base", path=str(path)))
        assert len(rows) == 11634
        assert Counter(row.label for row in rows) == BASE_CLASS_COUNTS

    def test_label_map_totality(self, tmp_path):
        path = tmp_path / "any.csv"
        _write_csv(path, ["1,نص,a", "2,نص ب,b"])
        descriptor = DatasetDescriptor(
            key="t", path=str(path), format="csv", label_map={"a": "Ra", "b": "Se"}
        )
        for row in load_dataset(descriptor):
            assert row.label in LABEL_ORDER


class TestMerge:
    def test_merge_with_empty_is_identity_modulo_id_prefix(self, separable_corpus):
        out = merge([separable_corpus, []])
        assert len(out) == len(separable_corpus)
        assert [row.raw_text for row in out] == [row.raw_text for row in separable_corpus]
        assert all(row.id.startswith(row.source + ":") for row in out)

    def test_no_dedup_keeps_everything(self):
        a = make_separable_corpus(n_per_class=2, seed=5, source="a")
        b = make_separable_corpus(n_per_class=2, seed=6, source="b")
        b[0].norm_text = a[0].norm_text
        assert len(merge([a, b])) == len(a) + len(b)

    def test_id_collision_detected(self):
        a = make_separable_corpus(n_per_class=1, seed=9, source="same")
        b = make_separable_corpus(n_per_class=1, seed=10, source="same")
        with pytest.raises(CorpusError, match="collision"):
            merge([a, b])


# Characters that need quoting or escaping in CSV and JSON lines.
AWKWARD_CHARS = [",", '"', "'", "\n", "\r", "\t", " ", "\\", "{", "a", "ن", "\u2028"]
# Characters JSON escapes or may escape: quotes, backslashes, C0 controls,
# DEL, line and paragraph separators, plus non-BMP and plain characters.
JSON_CHARS = st.one_of(
    st.sampled_from(
        ['"', "\\", "/", "\x7f", "\xa0", "\u2028", "\u2029", "\U0001F600", "\U00010400", "ن", "a"]
    ),
    st.characters(max_codepoint=0x1F),
    st.characters(min_codepoint=0x10000),
)


class TestJsonlRoundTrip:
    def test_round_trip_preserves_rows(self, tmp_path, separable_corpus):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, separable_corpus)
        back = read_jsonl(path)
        assert [(r.id, r.raw_text, r.label, r.source, r.norm_text, r.origin) for r in back] == [
            (r.id, r.raw_text, r.label, r.source, r.norm_text, r.origin)
            for r in separable_corpus
        ]

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(st.text(st.sampled_from(AWKWARD_CHARS), min_size=1, max_size=8), min_size=1, max_size=6, unique=True),
        st.text(st.sampled_from(AWKWARD_CHARS), min_size=1, max_size=12),
    )
    def test_awkward_ids_and_texts_round_trip(self, tmp_path_factory, ids, text):
        rows = [
            LabeledText(id=row_id, raw_text=text, label=label, source=row_id, norm_text=text[::-1])
            for row_id, label in zip(ids, itertools.cycle(LABEL_ORDER))
        ]
        path = tmp_path_factory.mktemp("jsonl") / "corpus.jsonl"
        write_jsonl(path, rows)
        assert read_jsonl(path) == rows

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(
            st.tuples(
                st.lists(st.text(JSON_CHARS, min_size=1, max_size=10), min_size=3, max_size=3),
                st.one_of(st.none(), st.text(JSON_CHARS, max_size=10)),
                st.sampled_from(corpus_mod.ORIGINS),
                st.sampled_from(LABEL_ORDER),
            ),
            max_size=6,
        )
    )
    def test_lines_equal_json_dumps(self, tmp_path_factory, specs):
        rows = [
            LabeledText(
                id=row_id, raw_text=text, source=source, norm_text=norm, origin=origin,
                label=Label.GH if origin == "pseudo" and label == Label.NH else label,
            )
            for (row_id, text, source), norm, origin, label in specs
        ]
        path = tmp_path_factory.mktemp("jsonl") / "corpus.jsonl"
        write_jsonl(path, rows)
        expected = []
        for row in rows:
            record = {"id": row.id, "text": row.raw_text, "label": row.label.value, "source": row.source}
            if row.norm_text is not None:
                record["norm_text"] = row.norm_text
            if row.origin != "gold":
                record["origin"] = row.origin
            expected.append(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")
        assert path.read_text(encoding="utf-8") == "".join(expected)

    def test_origin_survives_round_trip(self, tmp_path):
        rows = [
            LabeledText(
                id="1", raw_text="نص", label=Label.Re, source="s",
                norm_text="نص", origin="pseudo",
            )
        ]
        path = tmp_path / "p.jsonl"
        write_jsonl(path, rows)
        assert read_jsonl(path)[0].origin == "pseudo"


class TestTypes:
    def test_pseudo_rows_may_not_be_nh(self):
        with pytest.raises(CorpusError):
            LabeledText(id="1", raw_text="نص", label=Label.NH, source="s", origin="pseudo")

    def test_empty_raw_text_rejected(self):
        with pytest.raises(CorpusError):
            LabeledText(id="1", raw_text="", label=Label.NH, source="s")

    def test_with_norm_text_copies_every_other_field(self):
        row = LabeledText(id="7", raw_text="نص", label=Label.Ra, source="s", norm_text="old", origin="pseudo")
        assert row.with_norm_text("نص") == dataclasses.replace(row, norm_text="نص")
        assert row.norm_text == "old"

    def test_bad_label_map_target_rejected(self, tmp_path):
        with pytest.raises(CorpusError):
            DatasetDescriptor(key="x", path="p", label_map={"a": "WAT"})

    def test_bad_format_rejected(self):
        with pytest.raises(CorpusError):
            DatasetDescriptor(key="x", path="p", format="xml")


class TestRegistry:
    def test_load_registry(self, tmp_path):
        data = tmp_path / "src.csv"
        _write_csv(data, ["1,نص,hate"])
        registry = tmp_path / "registry.yaml"
        registry.write_text(
            "datasets:\n"
            "  - key: src\n"
            "    path: src.csv\n"
            "    format: csv\n"
            "    hate_only: true\n"
            "    label_map: {hate: Re}\n",
            encoding="utf-8",
        )
        descriptors = load_registry(registry)
        assert len(descriptors) == 1
        assert descriptors[0].hate_only
        rows = load_dataset(descriptors[0])
        assert rows[0].label == Label.Re

    def test_duplicate_keys_rejected(self, tmp_path):
        registry = tmp_path / "registry.yaml"
        registry.write_text(
            "- {key: a, path: x.jsonl}\n- {key: a, path: y.jsonl}\n", encoding="utf-8"
        )
        with pytest.raises(CorpusError, match="duplicate"):
            load_registry(registry)


def _full_disk_open(real_open, healthy_opens=0):
    """An ``open`` after whose first ``healthy_opens`` calls each file writes half of its
    first chunk, then fails as a full disk does."""
    opened = []

    def fake_open(*args, **kwargs):
        fh = real_open(*args, **kwargs)
        opened.append(fh)
        if len(opened) <= healthy_opens:
            return fh

        class HalfWritten:
            def __getattr__(self, name):
                return getattr(fh, name)

            def write(self, data):
                fh.write(data[: len(data) // 2])
                raise OSError(28, "No space left on device")

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                fh.close()

        return HalfWritten()

    return fake_open


def _writers():
    """name -> (artifact path, writer, healthy opens before the failing one)."""
    rows = make_separable_corpus(n_per_class=2, seed=14)
    model = encoder.fit(EncoderSpec("toy"), HyperParams(1, 4, 0.1), rows)
    matrix = encoder.predict_proba(model, [row.norm_text for row in rows], [row.id for row in rows])
    trace = [SearchTrace("epochs", model.hyperparams, 50.0)]
    return {
        "jsonl": ("c.jsonl", lambda path: write_jsonl(path, rows), 0),
        "json": ("c.json", lambda path: write_json(path, {"a": 1}), 0),
        "proba csv": ("p.csv", lambda path: write_proba_csv(path, matrix), 0),
        "trace csv": ("t.csv", lambda path: write_trace_csv(path, trace), 0),
        "report": ("tables.md", lambda path: write_report(path, []), 0),
        "label csv": ("l.csv", lambda path: _write_labels_csv(path, matrix.ids, matrix.argmax_labels()), 0),
        "weights": ("model/weights.npz", lambda path: save_model(model, path.parent), 0),
        "model manifest": ("model/manifest.txt", lambda path: save_model(model, path.parent), 1),
    }


class TestAtomicWrites:
    @pytest.mark.parametrize(
        "writer", ["jsonl", "json", "proba csv", "trace csv", "report", "label csv", "weights", "model manifest"]
    )
    def test_failed_write_leaves_the_old_file(self, tmp_path, monkeypatch, writer):
        name, write, healthy_opens = _writers()[writer]
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"old\n")
        monkeypatch.setattr(corpus_mod, "open", _full_disk_open(open, healthy_opens), raising=False)
        with pytest.raises(OSError, match="No space left"):
            write(path)
        assert path.read_bytes() == b"old\n"
        assert not list(tmp_path.rglob("*.tmp"))

    def test_successful_write_replaces(self, tmp_path):
        path = tmp_path / "sub" / "x.txt"
        for text in ("first\n", "second\n"):
            with atomic_open(path) as fh:
                fh.write(text)
        assert path.read_text(encoding="utf-8") == "second\n"
        assert sorted(p.name for p in path.parent.iterdir()) == ["x.txt"]
