"""Normalization: golden cases, ordered-rule behavior and the stated invariants."""

from __future__ import annotations

import hashlib
import random
import re
import unicodedata
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arahate import normalize
from arahate.corpus import LabeledText
from arahate.labels import Label
from arahate.normalize import (
    NormalizationConfig,
    NormalizeError,
    normalize_corpus,
    normalize_text,
)
from arahate.pipeline import ExperimentRun

from conftest import load_golden_cases

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_FILE = DATA_DIR / "normalize_golden.tsv"
GOLDEN_STOPWORDS = DATA_DIR / "golden_stopwords.txt"
SEP = normalize.SEPARATOR

# Character soup for the randomized property tests: Arabic letters including
# the unification variants, harakat, tatweel, Latin, digits, emoji,
# punctuation and tweet markers.
CHAR_POOL = (
    "ابتثجحخدذرزسشصضطظعغفقكلمنهويءأإآةىئؤ"
    + "".join(chr(cp) for cp in range(0x064B, 0x0653))
    + "ـ"
    + "abcdefgXYZ"
    + "0123456789٠١٢٣٤٥٦٧٨٩"
    + "😂😍🔥☺✨"
    + ".,!?؟،:;#@_-()[]'\"/\\"
    + "   \n\t"
)


def golden_config() -> NormalizationConfig:
    return NormalizationConfig.load(GOLDEN_STOPWORDS)


def random_strings(n: int, seed: int, max_len: int = 60):
    rng = random.Random(seed)
    for _ in range(n):
        length = rng.randrange(max_len)
        chunk = "".join(rng.choice(CHAR_POOL) for _ in range(length))
        # Sprinkle in structured tweet features occasionally.
        if rng.random() < 0.3:
            chunk = rng.choice(["RT ", "@user ", "https://t.co/x ", "#tag "]) + chunk
        yield chunk


def two_pass_collapse(text: str, limit: int) -> str:
    """The former collapse rule: a run longer than ``limit`` becomes ``limit`` copies."""
    return re.sub(r"(.)\1{%d,}" % limit, r"\1" * limit, text)


def per_char_normalize(raw: str, cfg: NormalizationConfig) -> str:
    """The former per-character rules (plus the NFC pass after deletion): the translate tables' oracle."""
    text = unicodedata.normalize("NFC", raw)
    text = normalize._URL_RE.sub(" ", text)
    text = normalize._MENTION_RE.sub(" ", text)
    text = normalize._RT_RE.sub(" ", text)
    out = []
    for ch in text:
        if ch.isspace():
            out.append(" ")
            continue
        major = unicodedata.category(ch)[0]
        if major in "PSN":
            out.append(" ")
        elif major != "C":
            out.append(ch)
    marks = ("Mn", "Mc", "Me")
    text = "".join(ch for ch in out if ch != normalize.TATWEEL and unicodedata.category(ch) not in marks)
    text = unicodedata.normalize("NFC", text)
    # Collapse, unify, collapse again: the former two-pass order.
    text = two_pass_collapse(text, cfg.repeat_collapse_len)
    text = text.translate(normalize._LETTER_MAP)
    text = two_pass_collapse(text, cfg.repeat_collapse_len)
    if cfg.strip_non_arabic:
        text = "".join(ch if ch == " " or normalize._is_arabic_letter(ch) else " " for ch in text)
    return " ".join(t for t in text.split() if t != "RT" and t not in cfg.stopwords)


class TestGoldenFile:
    def test_has_at_least_twenty_cases(self):
        assert len(load_golden_cases(GOLDEN_FILE)) >= 20

    def test_all_cases_byte_exact(self):
        cfg = golden_config()
        for raw, expected in load_golden_cases(GOLDEN_FILE):
            assert normalize_text(raw, cfg) == expected, f"case {raw!r}"


class TestSingleRules:
    def test_tatweel_removed_in_place(self):
        assert normalize_text("مرحبـــــا") == "مرحبا"

    def test_alef_variants_unify(self):
        assert normalize_text("أ إ آ ا") == "ا ا ا ا"

    def test_tweet_features_strip_mode(self):
        assert normalize_text("RT @user https://t.co/x #foo 123!!") == ""

    def test_tweet_features_keep_non_arabic(self):
        cfg = NormalizationConfig(strip_non_arabic=False)
        assert normalize_text("RT @user https://t.co/x #foo 123!!", cfg) == "foo"

    def test_empty_input(self):
        assert normalize_text("") == ""

    def test_repeat_collapse_len_configurable(self):
        cfg = NormalizationConfig(repeat_collapse_len=3)
        assert normalize_text("ههههههه", cfg) == "ههه"

    def test_collapse_len_must_be_positive(self):
        with pytest.raises(NormalizeError):
            NormalizationConfig(repeat_collapse_len=0)

    def test_newlines_collapse_to_spaces(self):
        assert normalize_text("نص\nجديد\n\nهنا") == "نص جديد هنا"

    def test_stopwords_match_after_unification(self, stopword_file):
        # 'على' is stored with alef-maqsura; the text form must still match.
        cfg = NormalizationConfig.load(stopword_file)
        assert normalize_text("الكتاب على الطاوله", cfg) == "الكتاب الطاوله"

    def test_stopword_variants_match(self, tmp_path):
        # Alef variants, harakat, tatweel and the corpus separator in the file.
        path = tmp_path / "stopwords.txt"
        path.write_text("إِلَــى\x1eأَنَّ\nهٰذَا\n", encoding="utf-8")
        cfg = NormalizationConfig.load(path)
        assert cfg.stopwords == {"الي", "ان", "هذا"}
        assert normalize_text("ذهب الى البيت ان هذا", cfg) == "ذهب البيت"

    def test_missing_stopword_file(self, tmp_path):
        with pytest.raises(NormalizeError):
            NormalizationConfig.load(tmp_path / "absent.txt")

    def test_stopword_file_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes("caf\u00e9\n".encode("latin-1"))
        with pytest.raises(NormalizeError, match="not UTF-8"):
            NormalizationConfig.load(path)

    def test_stopword_hash_recorded(self, stopword_file, tmp_path):
        # The config keeps only the words; a run pins the exact list through
        # the file's SHA-256 among its input hashes.
        cfg = {"paths": {"data": str(tmp_path / "data.jsonl"), "stopwords": str(stopword_file)}}
        run = ExperimentRun(cfg, tmp_path / "runs")
        digest = hashlib.sha256(stopword_file.read_bytes()).hexdigest()
        assert run.input_hashes[str(stopword_file)] == digest


class TestInvariants:
    @pytest.mark.parametrize("strip", [True, False])
    def test_idempotence_on_random_strings(self, strip):
        cfg = NormalizationConfig.load(GOLDEN_STOPWORDS, strip_non_arabic=strip)
        for text in random_strings(2000, seed=41 if strip else 42):
            once = normalize_text(text, cfg)
            assert normalize_text(once, cfg) == once, f"not idempotent on {text!r}"

    def test_output_alphabet_strip_mode(self):
        cfg = golden_config()
        harakat = {chr(cp) for cp in range(0x064B, 0x0653)}
        for text in random_strings(2000, seed=43):
            out = normalize_text(text, cfg)
            for ch in out:
                assert ch == " " or "؀" <= ch <= "ۿ", f"{ch!r} in {out!r}"
                assert ch != "ـ" and ch not in harakat
                assert ch not in "أإآةى"  # unified variants never survive
                assert not ch.isdigit()

    def test_no_long_runs(self):
        cfg = golden_config()
        for text in random_strings(2000, seed=44):
            out = normalize_text(text, cfg)
            run = 1
            for a, b in zip(out, out[1:]):
                run = run + 1 if a == b else 1
                assert run <= cfg.repeat_collapse_len, f"run in {out!r}"

    @pytest.mark.parametrize("strip", [True, False])
    @settings(max_examples=1000, deadline=None, derandomize=True, database=None)
    @given(text=st.text(st.one_of(st.characters(), st.sampled_from(CHAR_POOL))))
    @example(text="\u1100\u200b\u1161")  # jamo that meet once the ZWSP is deleted
    def test_matches_per_char_oracle_over_arbitrary_unicode(self, strip, text):
        cfg = NormalizationConfig.load(GOLDEN_STOPWORDS, strip_non_arabic=strip)
        once = normalize_text(text, cfg)
        assert once == per_char_normalize(text, cfg)
        assert normalize_text(once, cfg) == once

    @settings(max_examples=1000, deadline=None, derandomize=True, database=None)
    @given(limit=st.integers(1, 4), text=st.text(st.sampled_from("ااأإآةهىيب \x1e")))
    def test_one_collapse_after_unification_matches_the_two_pass_rule(self, limit, text):
        # The mask sees the joined corpus, after step 1 has made every other
        # whitespace a space: the oracle runs on each separated row.
        def collapse(text):
            codes = normalize._encode(text)
            return normalize._decode(codes[normalize._collapse_mask(codes, limit)])

        def per_row(rule, text):
            return SEP.join(rule(row) for row in text.split(SEP))

        def collapse_unify_collapse(row):
            return two_pass_collapse(two_pass_collapse(row, limit).translate(normalize._LETTER_MAP), limit)

        assert collapse(text) == per_row(lambda row: two_pass_collapse(row, limit), text)
        unified = text.translate(normalize._LETTER_MAP)
        assert collapse(unified) == per_row(collapse_unify_collapse, text)

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(text=st.text(st.sampled_from("RTrtHhWwSsſ:/.@ \x1e\nxاب")))
    def test_fast_regex_forms_match_the_plain_ones(self, text):
        url = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
        rt = re.compile(r"(?<!\S)RT(?!\S)")
        for word in ("RT", "http://", "https://", "www.", "hTTpſ://", "WwW."):
            for padded in (word + text, text + word, text + " " + word + " " + text):
                assert normalize._URL_RE.sub(" ", padded) == url.sub(" ", padded)
                assert normalize._RT_RE.sub(" ", padded) == rt.sub(" ", padded)

    def test_determinism(self):
        cfg = golden_config()
        for text in random_strings(200, seed=45):
            assert normalize_text(text, cfg) == normalize_text(text, cfg)


# Characters that stress the joined-corpus pass: the separator and its
# neighbours, combining marks, Hangul L/V/T jamo split by a character that
# step 2 deletes, astral emoji and newlines.
CORPUS_POOL = CHAR_POOL + "\x1c\x1d\x1e\x1f\u0301\u0651\u1100\u1161\u11a8\u200b\U0001F600\U0001F44D\n\n"
MARKS = "\u0301\u0651\u064b\u0670\u20dd"
corpus_texts = st.lists(
    st.one_of(
        st.text(st.one_of(st.characters(), st.sampled_from(CORPUS_POOL)), max_size=30),
        st.builds(str.__add__, st.sampled_from(MARKS), st.text(st.sampled_from(CORPUS_POOL), max_size=10)),
        st.builds(
            str.join,
            st.sampled_from(["\u200b", "\u0301", "\u0651", "ـ"]),
            st.lists(st.sampled_from(["\u1100", "\u1161", "\u11a8"]), min_size=2, max_size=4),
        ),
    ),
    max_size=40,
)


class TestNormalizeCorpus:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(texts=corpus_texts, limit=st.integers(1, 4), strip=st.booleans())
    def test_whole_corpus_matches_per_char_oracle(self, texts, limit, strip):
        cfg = NormalizationConfig.load(GOLDEN_STOPWORDS, repeat_collapse_len=limit, strip_non_arabic=strip)
        expected = [per_char_normalize(text, cfg) for text in texts]
        assert normalize.normalize_texts(texts, cfg) == expected
        rows = [
            LabeledText(id=str(i), raw_text=text, label=Label.NH, source="t")
            for i, text in enumerate(texts)
            if text
        ]
        assert [row.norm_text for row in normalize_corpus(rows, cfg)] == [
            norm for text, norm in zip(texts, expected) if text
        ]

    def test_fills_norm_text(self, stopword_file):
        cfg = NormalizationConfig.load(stopword_file)
        rows = [LabeledText(id="1", raw_text="مرحبـــــا!!", label=Label.NH, source="t")]
        out = normalize_corpus(rows, cfg)
        assert out[0].norm_text == "مرحبا"
        assert rows[0].norm_text is None  # input rows untouched

    def test_all_emoji_row_flagged_empty(self):
        rows = [LabeledText(id="1", raw_text="😂😂😂", label=Label.NH, source="t")]
        out = normalize_corpus(rows)
        assert out[0].norm_text == ""

    def test_golden_corpus_round(self):
        cfg = golden_config()
        cases = load_golden_cases(GOLDEN_FILE)
        rows = [
            LabeledText(id=str(i), raw_text=raw, label=Label.NH, source="g")
            for i, (raw, _) in enumerate(cases)
            if raw
        ]
        out = normalize_corpus(rows, cfg)
        expected = [exp for raw, exp in cases if raw]
        assert [row.norm_text for row in out] == expected
