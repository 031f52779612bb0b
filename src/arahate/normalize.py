"""Deterministic cleaning and letter normalization for Arabic social-media text.

The rules run in a fixed, documented order so equal inputs always give
byte-equal outputs:

1. tweet features: user mentions (@token), URLs, the standalone token RT,
   '#' markers (hashtag bodies survive), punctuation, emoji and other
   pictographic symbols, and digits;
2. diacritics (the harakat combining marks including shadda and sukun, plus
   every other combining mark) and the tatweel elongation character;
3. letter unification: hamza/madda alef variants to bare alef, ta-marbuta to
   ha, alef-maqsura to ya;
4. runs of one repeated character longer than ``repeat_collapse_len`` are
   collapsed down to ``repeat_collapse_len``. One pass after unification is
   enough: unification maps each character to one character, so a run of
   the unified text is a series of adjacent runs of the input, and
   collapsing it once gives the same ``min(length, limit)`` that collapsing
   before and again after unification gave;
5. non-Arabic letters are dropped when ``strip_non_arabic`` is set;
6. stopwords are dropped by exact token match (the stopword file is passed
   through the same character pipeline at load time so surface variants of a
   stopword still match);
7. whitespace, including newlines, collapses to single spaces and is trimmed.

normalize_text is total: any UTF-8 input yields a (possibly empty) string,
and normalizing twice equals normalizing once.
"""

from __future__ import annotations

import logging
import re
import unicodedata
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from .corpus import LabeledText
from .errors import ArahateError

log = logging.getLogger(__name__)

TATWEEL = "ـ"

_URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
_MENTION_RE = re.compile(r"@\S+")
_RT_RE = re.compile(r"(?<!\S)RT(?!\S)")

_LETTER_MAP = str.maketrans(
    {
        "أ": "ا",  # alef with hamza above
        "إ": "ا",  # alef with hamza below
        "آ": "ا",  # alef with madda
        "ة": "ه",  # ta marbuta -> ha
        "ى": "ي",  # alef maqsura -> ya
    }
)


class NormalizeError(ArahateError):
    pass


@dataclass(frozen=True)
class NormalizationConfig:
    """Normalization knobs plus the stopword list.

    The stopword list is always an external file, never hardcoded; a run's
    manifest pins it through the file's SHA-256 among its input hashes.
    """

    stopwords: frozenset[str] = frozenset()
    repeat_collapse_len: int = 2
    strip_non_arabic: bool = True

    def __post_init__(self) -> None:
        if self.repeat_collapse_len < 1:
            raise NormalizeError("repeat_collapse_len must be >= 1")

    @classmethod
    def load(
        cls,
        stopword_path: str | Path | None = None,
        repeat_collapse_len: int = 2,
        strip_non_arabic: bool = True,
    ) -> "NormalizationConfig":
        """Build a config, loading and normalizing the stopword file if given."""
        base = cls(
            repeat_collapse_len=repeat_collapse_len,
            strip_non_arabic=strip_non_arabic,
        )
        if stopword_path is None:
            return base
        path = Path(stopword_path)
        if not path.exists():
            raise NormalizeError(f"stopword file not found: {path}")
        try:
            lines = path.read_text(encoding="utf-8").splitlines()
        except UnicodeDecodeError:
            raise NormalizeError(f"stopword file {path}: not UTF-8 text") from None
        words: set[str] = set()
        for line in lines:
            # Same character pipeline as the texts so stopwords written with
            # alef variants or diacritics still match after unification.
            words.update(_normalize_chars(line, base).split())
        return cls(
            stopwords=frozenset(words),
            repeat_collapse_len=repeat_collapse_len,
            strip_non_arabic=strip_non_arabic,
        )


class _CharTable(dict):
    """A ``str.translate`` table that classifies each code point once, on first use."""

    def __init__(self, classify) -> None:
        super().__init__()
        self._classify = classify

    def __missing__(self, code_point: int) -> str | None:
        value = self[code_point] = self._classify(chr(code_point))
        return value


def _feature_or_mark(ch: str) -> str | None:
    """Steps 1-2 for one character: a space, nothing (deleted) or the character."""
    category = unicodedata.category(ch)
    if ch.isspace() or category[0] in "PSN":  # punctuation (incl. '#'), symbols/emoji, digits
        return " "
    # Controls and format chars (ZWJ, variation selectors), combining marks
    # (harakat, shadda, sukun, ...) and tatweel.
    if category[0] == "C" or category in ("Mn", "Mc", "Me") or ch == TATWEEL:
        return None
    return ch


_FEATURE_TABLE = _CharTable(_feature_or_mark)
_ARABIC_TABLE = _CharTable(lambda ch: ch if ch == " " or _is_arabic_letter(ch) else " ")


def _strip_features(text: str) -> str:
    """Steps 1-2: mentions, URLs, RT, then '#', punctuation, symbols/emoji,
    digits, controls, combining marks and tatweel."""
    text = _URL_RE.sub(" ", text)
    text = _MENTION_RE.sub(" ", text)
    text = _RT_RE.sub(" ", text)
    return text.translate(_FEATURE_TABLE)


@lru_cache(maxsize=8)
def _repeat_re(limit: int) -> re.Pattern[str]:
    # Matches one character that ``limit`` copies of itself follow; deleting
    # each match leaves ``limit`` of every longer run. The replacement is a
    # literal, so ``re`` makes no Python call per match.
    return re.compile(r"(?=(.)\1{%d})." % limit)


def _collapse_repeats(text: str, limit: int) -> str:
    return _repeat_re(limit).sub("", text)


def _is_arabic_letter(ch: str) -> bool:
    return "؀" <= ch <= "ۿ" and unicodedata.category(ch).startswith("L")


def _normalize_chars(text: str, cfg: NormalizationConfig) -> str:
    """Steps 1-5 (character level); tokenization and stopwords happen on top."""
    text = unicodedata.normalize("NFC", text)
    text = _strip_features(text)
    # Deleting a character can make two Hangul jamo adjacent, which NFC composes.
    text = unicodedata.normalize("NFC", text)
    text = text.translate(_LETTER_MAP)
    text = _collapse_repeats(text, cfg.repeat_collapse_len)
    if cfg.strip_non_arabic:
        text = text.translate(_ARABIC_TABLE)
    return text


def normalize_text(raw: str, cfg: NormalizationConfig | None = None) -> str:
    """Apply the full ordered rule set to one text. Total; result may be empty."""
    if cfg is None:
        cfg = NormalizationConfig()
    tokens = _normalize_chars(raw, cfg).split()
    # Character stripping can expose new standalone RT tokens ("1RT" -> "RT");
    # filtering here keeps the rule-1 guarantee and preserves idempotence.
    tokens = [t for t in tokens if t != "RT" and t not in cfg.stopwords]
    return " ".join(tokens)


def normalize_corpus(
    corpus: list[LabeledText], cfg: NormalizationConfig | None = None
) -> list[LabeledText]:
    """Fill norm_text for every row; rows normalized to "" are kept but flagged.

    Downstream stages treat an empty norm_text as "exclude from training".
    """
    if cfg is None:
        cfg = NormalizationConfig()
    out = []
    empty = 0
    for row in corpus:
        norm = normalize_text(row.raw_text, cfg)
        if not norm:
            empty += 1
        out.append(row.with_norm_text(norm))
    if empty:
        log.info(
            "%d/%d rows normalized to empty text; flagged for downstream exclusion",
            empty,
            len(out),
        )
    return out
