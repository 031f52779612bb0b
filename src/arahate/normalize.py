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
   through the same rules at load time so surface variants of a stopword
   still match);
7. whitespace, including newlines, collapses to single spaces and is trimmed.

The rules run over a whole corpus at once (``normalize_texts``; one text is
its one-row case). The texts are joined by the separator U+001E into one
string, which NFC and the URL, mention and RT regexes each see once; it is
then encoded as UTF-32 code points, on which steps 1-2, 3 and 5 are lookups
in code-point tables and step 4 is one mask. Each row's result is the one
the rules give for that text alone:

- the separator: a U+001E inside a text is first replaced by a space. Both
  are whitespace to ``\\S``, ``(?<!\\S)`` and ``str.isspace``, and step 1 maps
  both to a space, so the replacement changes no row and no regex match
  crosses a row boundary. The tables map the separator to itself;
- one NFC for the corpus, before step 1 and again after step 2 (deleting a
  character can make two Hangul jamo adjacent, which NFC composes): U+001E
  has combining class 0 and composes with nothing, so NFC neither composes
  nor reorders across it, and NFC of the joined string is the join of
  each row's NFC;
- the collapse mask drops a code point when the ``repeat_collapse_len``
  code points before it all equal it, which keeps the first
  ``repeat_collapse_len`` of every run. It never drops the separator, and
  after step 1 the separator equals no other code point, so no run crosses
  a row boundary.

normalize_text is total: any text yields a (possibly empty) string, and
normalizing twice equals normalizing once.
"""

from __future__ import annotations

import logging
import re
import unicodedata
from dataclasses import dataclass
from itertools import filterfalse
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .corpus import LabeledText, checked_row, read_input
from .errors import ArahateError, ConfigError

log = logging.getLogger(__name__)

TATWEEL = "ـ"
# Joins a corpus into one string: whitespace, NFC-inert, and in no text.
SEPARATOR = "\x1e"
_SEP = ord(SEPARATOR)
# Table values: not classified yet, and deleted (above every code point).
# Only U+0000 could map to 0, and step 1 deletes it before the other tables.
_UNSEEN = 0
_DELETE = 0xFFFFFFFF

# Each pattern begins with a literal or a class, so ``re`` skips ahead to
# candidate positions instead of trying every one: under IGNORECASE only
# H, h, W and w start a URL, and the RT pattern checks what precedes "RT"
# once it has found "RT".
_URL_RE = re.compile(r"(?=[HhWw])(?:https?://|www\.)\S+", re.IGNORECASE)
_MENTION_RE = re.compile(r"@\S+")
_RT_RE = re.compile(r"RT(?<!\SRT)(?!\S)")

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


class NormalizationConfigError(NormalizeError, ConfigError):
    """A normalization option out of range: a validation error (exit 1)."""


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
        object.__setattr__(self, "repeat_collapse_len", int(self.repeat_collapse_len))  # a config's 2.0 is 2
        if self.repeat_collapse_len < 1:
            raise NormalizationConfigError("repeat_collapse_len must be >= 1")

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
        lines = read_input(stopword_path, "stopword file", NormalizeError).splitlines()
        words: set[str] = set()
        # Same rule chain as the texts so stopwords written with alef
        # variants or diacritics still match after unification.
        for line in normalize_texts(lines, base):
            words.update(line.split())
        return cls(
            stopwords=frozenset(words),
            repeat_collapse_len=repeat_collapse_len,
            strip_non_arabic=strip_non_arabic,
        )


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


def _is_arabic_letter(ch: str) -> bool:
    return "؀" <= ch <= "ۿ" and unicodedata.category(ch).startswith("L")


class _CodePointTable:
    """Maps each code point of an array to one code point or ``_DELETE``.

    A code point is classified the first time a table sees it: BMP code
    points are kept in a 64 Ki-entry array, the few astral ones (mostly
    emoji) in a dict. The separator always maps to itself.
    """

    def __init__(self, classify: Callable[[str], str | None]) -> None:
        self._classify = classify
        self._bmp: np.ndarray | None = None
        self._astral: dict[int, int] = {}

    def _value(self, code: int) -> int:
        mapped = self._classify(chr(code))
        return _DELETE if mapped is None else ord(mapped)

    def _astral_value(self, code: int) -> int:
        if code not in self._astral:
            self._astral[code] = self._value(code)
        return self._astral[code]

    def __call__(self, codes: np.ndarray) -> np.ndarray:
        if self._bmp is None:
            # Zeroed pages cost memory only once a code point on them is seen.
            self._bmp = np.zeros(0x10000, dtype=np.uint32)
            self._bmp[_SEP] = _SEP
        out = self._bmp[codes & 0xFFFF]
        astral = codes > 0xFFFF
        unseen = (out == _UNSEEN) & ~astral
        if unseen.any():
            # The sorted distinct codes, found without np.unique, which loads numpy.ma.
            new = np.flatnonzero(np.bincount(codes[unseen]))
            self._bmp[new] = np.array([self._value(code) for code in new.tolist()], dtype=np.uint32)
            out[unseen] = self._bmp[codes[unseen]]
        if astral.any():
            out[astral] = [self._astral_value(code) for code in codes[astral].tolist()]
        return out


_FEATURES = _CodePointTable(_feature_or_mark)
_LETTERS = _CodePointTable(lambda ch: ch.translate(_LETTER_MAP))
_ARABIC = _CodePointTable(lambda ch: ch if ch == " " or _is_arabic_letter(ch) else " ")


def _encode(text: str) -> np.ndarray:
    # Lone surrogates only reach step 1, which deletes them.
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")


def _decode(codes: np.ndarray) -> str:
    return codes.astype("<u4", copy=False).tobytes().decode("utf-32-le")


def _collapse_mask(codes: np.ndarray, limit: int) -> np.ndarray:
    """Step 4: keep index i unless the ``limit`` code points before it all equal it.

    That keeps the first ``limit`` of every run. The separator is always
    kept, so a run of empty rows keeps its rows.
    """
    tail = codes[limit:]
    repeat = tail != _SEP
    for back in range(1, limit + 1):
        repeat &= codes[limit - back : limit - back + len(tail)] == tail
    keep = np.ones(len(codes), dtype=bool)
    keep[limit:] = ~repeat
    return keep


def normalize_texts(texts: Sequence[str], cfg: NormalizationConfig) -> list[str]:
    """Apply the full ordered rule set to every text at once; the i-th result is the i-th text's."""
    if not texts:
        return []
    joined = SEPARATOR.join(text.replace(SEPARATOR, " ") for text in texts)
    joined = unicodedata.normalize("NFC", joined)
    joined = _RT_RE.sub(" ", _MENTION_RE.sub(" ", _URL_RE.sub(" ", joined)))
    codes = _FEATURES(_encode(joined))
    codes = codes[codes != _DELETE]
    # Deleting a character can make two Hangul jamo adjacent, which NFC composes.
    codes = _LETTERS(_encode(unicodedata.normalize("NFC", _decode(codes))))
    codes = codes[_collapse_mask(codes, cfg.repeat_collapse_len)]
    if cfg.strip_non_arabic:
        codes = _ARABIC(codes)
    # Character stripping can expose new standalone RT tokens ("1RT" -> "RT");
    # filtering tokens keeps the rule-1 guarantee and preserves idempotence.
    drop = (cfg.stopwords | {"RT"}).__contains__
    return [" ".join(filterfalse(drop, row.split())) for row in _decode(codes).split(SEPARATOR)]


def normalize_text(raw: str, cfg: NormalizationConfig | None = None) -> str:
    """Apply the full ordered rule set to one text. Total; result may be empty."""
    return normalize_texts([raw], cfg or NormalizationConfig())[0]


def normalize_corpus(
    corpus: list[LabeledText], cfg: NormalizationConfig | None = None
) -> list[LabeledText]:
    """Fill norm_text for every row; rows normalized to "" are kept but flagged.

    Downstream stages treat an empty norm_text as "exclude from training".
    """
    norms = normalize_texts([row.raw_text for row in corpus], cfg or NormalizationConfig())
    out = [
        checked_row(row.id, row.raw_text, row.label, row.source, norm, row.origin)
        for row, norm in zip(corpus, norms)
    ]
    empty = norms.count("")
    if empty:
        log.info(
            "%d/%d rows normalized to empty text; flagged for downstream exclusion",
            empty,
            len(out),
        )
    return out
