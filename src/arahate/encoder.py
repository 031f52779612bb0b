"""Trainable-classifier contract plus a deterministic reference backend.

Every backend in the table exposes the same two operations, each over many
models: fine-tune them on labelled rows (``fit_many``) and give each an N x 5
class-probability matrix of the same texts (``predict_proba_arrays``).
``fit`` and ``predict_proba`` are the one-model cases. The three pretrained
slots take their runtime and weights from the environment (the
``pretrained`` extra), never from this package.

The ``toy`` backend is a linear softmax over hashed character 3-to-5-gram
counts in 2^16 buckets, trained by mini-batch gradient descent and
bit-reproducible under a fixed seed. That geometry is fixed: a saved model's
manifest names it and ``load_model`` rejects any other. An n-gram's bucket
is ``zlib.crc32`` of its UTF-8 bytes modulo 2^16, bit for bit. Texts are
hashed in blocks of whole texts, so transient memory is bounded by
``_HASH_BLOCK_CHARS``, not by the batch.

A memo holds, per token limit, one CSR row per distinct text a fit has
read, so a fit's rows are hashed once however many folds, grid points and
members read them. Prediction reads it but never fills it. The memo lives
for one run: ``run_experiment`` and each CLI subcommand empty it as they end.

Fits of equal token limit, epochs, batch size and learning rate train in one
lockstep step loop. Each model gets bit for bit the weights, bias and losses
of its own fit, and a model that turns non-finite fails alone.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import json
import logging
import math
import os
import zipfile
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import ModuleType
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .corpus import LabeledText, atomic_open, read_input
from .ensemble import ProbabilityMatrix
from .errors import ArahateError, ConfigError
from .labels import LABEL_INDEX, N_CLASSES

log = logging.getLogger(__name__)

_SPARSETOOLS = "scipy.sparse._sparsetools"


def _load_sparsetools() -> ModuleType:
    """scipy's compiled ``_sparsetools`` module, loaded straight from its extension file.

    The module needs only numpy's C API, but importing it the ordinary way
    first runs ``scipy.sparse``'s package init, which imports far more of
    scipy and numpy than three kernels use. ``find_spec`` locates the
    ``scipy`` package without importing it; the file is
    ``sparse/_sparsetools`` plus one of this interpreter's extension
    suffixes, loaded under scipy's own module name.
    When no such file exists or it fails to load, the ordinary import is the
    fallback.
    """
    spec = importlib.util.find_spec("scipy")
    locations = (spec.submodule_search_locations if spec is not None else None) or ()
    candidates = (
        os.path.join(location, "sparse", "_sparsetools" + suffix)
        for location in locations
        for suffix in importlib.machinery.EXTENSION_SUFFIXES
    )
    path = next(filter(os.path.isfile, candidates), None)
    if path is not None:
        loader = importlib.machinery.ExtensionFileLoader(_SPARSETOOLS, path)
        try:
            module = importlib.util.module_from_spec(importlib.util.spec_from_loader(_SPARSETOOLS, loader))
            loader.exec_module(module)
            return module
        except ImportError:
            log.debug("loading %s failed; importing scipy.sparse instead", path, exc_info=True)
    from scipy.sparse import _sparsetools

    return _sparsetools


_sparsetools = _load_sparsetools()

DEFAULT_MAX_TOKENS = 512
# epochs, batch size, learning rate for fields a hyperparameter mapping omits
DEFAULT_HYPERPARAMS = (2, 8, 1e-5)
TOY_BACKEND_KEY = "toy"
TOY_DEFAULT_BUCKETS = 2**16
TOY_NGRAM_SIZES = (3, 4, 5)

# Backend names from the fine-tuned model roster, mapped to the hub ids the
# run environment resolves them from.
PRETRAINED_MODEL_IDS = {
    "bert-base-arabertv02-twitter": "aubmindlab/bert-base-arabertv02-twitter",
    "bert-large-arabertv02-twitter": "aubmindlab/bert-large-arabertv02-twitter",
    "MARBERT": "UBC-NLP/MARBERT",
}

ARTIFACT_MANIFEST = "manifest.txt"
ARTIFACT_WEIGHTS = "weights.npz"


class EncoderError(ArahateError):
    pass


class BackendNotInstalledError(EncoderError):
    """The backend's runtime dependencies are missing from the environment."""


class BackendWeightsError(EncoderError):
    """Dependencies are present but the pretrained weights could not be fetched."""


@dataclass(frozen=True)
class HyperParams:
    """Fine-tuning knobs: epochs / batch size / learning rate, plus the seed."""

    epochs: int
    batch_size: int
    learning_rate: float
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise EncoderError("epochs must be >= 1")
        if self.batch_size < 1:
            raise EncoderError("batch_size must be >= 1")
        if not 0 < self.learning_rate < math.inf:
            raise EncoderError("learning_rate must be positive and finite")
        if self.seed < 0:
            raise EncoderError(f"seed must be an integer >= 0, got {self.seed}")

    @classmethod
    def from_mapping(cls, data: Mapping, seed: int = 0) -> "HyperParams":
        """Read epochs / batch_size / learning_rate / seed from a mapping.

        Missing fields take DEFAULT_HYPERPARAMS and ``seed``; a non-mapping,
        non-numeric or out-of-range value raises ConfigError.
        """
        if not isinstance(data, Mapping):
            raise ConfigError(f"hyperparameters must be a mapping, got {data!r}")
        epochs, batch_size, learning_rate = DEFAULT_HYPERPARAMS
        try:
            return cls(
                epochs=int(data.get("epochs", epochs)),
                batch_size=int(data.get("batch_size", batch_size)),
                learning_rate=float(data.get("learning_rate", learning_rate)),
                seed=int(data.get("seed", seed)),
            )
        except (TypeError, ValueError, EncoderError) as exc:
            raise ConfigError(f"invalid hyperparameters {dict(data)!r}: {exc}") from None

    def fields(self) -> dict:
        """epochs / batch_size / learning_rate as from_mapping reads them (no seed)."""
        return {"epochs": self.epochs, "batch_size": self.batch_size, "learning_rate": self.learning_rate}


@dataclass(frozen=True)
class EncoderSpec:
    """Which backend to use and how many tokens it may see per input."""

    backend_key: str
    max_sequence_tokens: int = DEFAULT_MAX_TOKENS

    def __post_init__(self) -> None:
        backend = get_backend(self.backend_key)  # unknown key fails here
        if self.max_sequence_tokens < 1:
            raise EncoderError("max_sequence_tokens must be >= 1")
        if self.max_sequence_tokens > backend.token_limit:
            # Inputs are padded to the longest text in a batch, but never past
            # the backend's own sequence limit.
            object.__setattr__(self, "max_sequence_tokens", backend.token_limit)


def members_from_entries(
    entries: Sequence[Mapping], seed: int, hyperparams: Mapping | None = None
) -> list[tuple[EncoderSpec, HyperParams]]:
    """(spec, hyperparams) per backend entry ``{key, max_sequence_tokens?, hyperparams?}``.

    An entry without hyperparams takes the shared ``hyperparams``. The base
    seed is the shared hyperparams' seed, else ``seed``; member i's seed is
    its entry's explicit seed, else base + i: distinct member seeds keep an
    ensemble of one backend from collapsing into identical models. An
    unknown backend key or a token limit below 1 raises ConfigError.
    """
    try:
        specs = [
            EncoderSpec(str(entry["key"]), int(entry.get("max_sequence_tokens", DEFAULT_MAX_TOKENS)))
            for entry in entries
        ]
    except EncoderError as exc:
        raise ConfigError(str(exc)) from None
    shared = HyperParams.from_mapping({} if hyperparams is None else hyperparams, seed)
    return [
        (
            spec,
            HyperParams.from_mapping(entry["hyperparams"], shared.seed + index)
            if entry.get("hyperparams")
            else replace(shared, seed=shared.seed + index),
        )
        for index, (spec, entry) in enumerate(zip(specs, entries))
    ]


@dataclass
class ToyParams:
    """Linear softmax parameters over the hashed n-gram buckets a fit touched.

    ``weights[:, j]`` belongs to bucket ``cols[j]``; every other bucket's
    weights are zero. ``cols`` defaults to 0..D-1 for (K, D) ``weights``.
    """

    weights: np.ndarray  # (K, len(cols))
    bias: np.ndarray  # (K,)
    cols: np.ndarray | None = None  # sorted bucket ids

    def __post_init__(self) -> None:
        if self.cols is None:
            self.cols = np.arange(self.weights.shape[1])

    def dense_weights(self) -> np.ndarray:
        """The (K, TOY_DEFAULT_BUCKETS) weights of every bucket."""
        dense = np.zeros((N_CLASSES, TOY_DEFAULT_BUCKETS))
        dense[:, self.cols] = self.weights
        return dense


@dataclass
class TrainedModel:
    """A fitted classifier; predict is a pure function of (params, input)."""

    spec: EncoderSpec
    hyperparams: HyperParams
    params: object
    train_fingerprint: str
    epoch_losses: list[float] = field(default_factory=list)


def _truncate(text: str, max_tokens: int) -> str:
    if len(text) <= 2 * max_tokens:  # k tokens take at least 2k - 1 characters
        return text
    tokens = text.split()
    if len(tokens) <= max_tokens:
        return text
    return " ".join(tokens[:max_tokens])


def _crc32_table() -> np.ndarray:
    """The 256-entry table of the reflected CRC-32 (polynomial 0xEDB88320) zlib uses."""
    table = np.arange(256, dtype=np.uint32)
    for _ in range(8):
        table = np.where(table & 1, (table >> 1) ^ np.uint32(0xEDB88320), table >> 1)
    return table


_CRC32_TABLE = _crc32_table()
# A character takes at most 4 UTF-8 bytes, so the characters after an
# n-gram's first take at most 4 * (n - 1) bytes, and the n-gram 4 * n.
_MAX_SHIFT = 4 * (max(TOY_NGRAM_SIZES) - 1)
# zlib.crc32 of L zero bytes, for every byte length L an n-gram can have.
_ZERO_CRC = np.array([zlib.crc32(bytes(length)) for length in range(4 * max(TOY_NGRAM_SIZES) + 1)], dtype=np.uint32)
_BMP = 0x10000  # code points below this rank through a table of this size


class StepBatch(NamedTuple):
    """A batch as the arrays of an (N, D) CSR matrix: what ``toy_forward_backward`` reads of one.

    The toy backend's one CSR type, from hashing to the step: it builds no scipy matrix.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]


# Characters hashed per block. A block's arrays take about 85 bytes a
# character, so hashing holds under 6 MiB besides the features it returns.
_HASH_BLOCK_CHARS = 2**16
# Texts hashed per block: a cell is the 32-bit key row * buckets + bucket.
_HASH_BLOCK_TEXTS = 2**32 // TOY_DEFAULT_BUCKETS
_BUCKET_MASK = TOY_DEFAULT_BUCKETS - 1  # x & mask is x % buckets, as buckets is a power of two
_INT32_ENTRIES = np.iinfo(np.int32).max  # stored entries an int32 index holds


def hashed_ngram_features(texts: Sequence[str], max_tokens: int | None = None) -> StepBatch:
    """Hashed character 3-to-5-gram counts per row, with sorted bucket ids per row, as CSR arrays.

    An n-gram's bucket is ``zlib.crc32`` of its UTF-8 bytes modulo
    ``TOY_DEFAULT_BUCKETS``, so features are stable across processes and
    platforms. Texts shorter than a 3-gram yield an all-zero row (predictions
    then come from the bias alone). ``indptr`` and ``indices`` share one
    index dtype: int32 while the entries fit, else int64.

    The texts are hashed in blocks of whole texts of at most
    ``_HASH_BLOCK_CHARS`` characters and ``_HASH_BLOCK_TEXTS`` texts (a longer
    text is a block of its own), so the transient arrays stay the same size
    however large the batch is; see ``_hash_block``. A row depends only on
    its own text, so the joined blocks equal one pass over the whole batch.
    """
    lengths = _char_lengths(texts)
    if max_tokens is not None and lengths.max(initial=0) > 2 * max_tokens:  # else _truncate keeps every text
        texts = [_truncate(text, max_tokens) for text in texts]
        lengths = _char_lengths(texts)
    indptr = np.zeros(len(texts) + 1, dtype=np.int64)
    indices, data = [np.zeros(0, dtype=np.int32)], [np.zeros(0)]
    for lo, hi in _blocks(lengths):
        row_cells, block_indices, block_data = _hash_block(texts[lo:hi], lengths[lo:hi])
        indptr[lo + 1 : hi + 1] = row_cells
        indices.append(block_indices)
        data.append(block_data)
    np.cumsum(indptr, out=indptr)
    index = np.int32 if indptr[-1] <= _INT32_ENTRIES else np.int64
    indices = np.concatenate(indices).astype(index, copy=False)
    indptr = indptr.astype(index, copy=False)
    return StepBatch(indptr, indices, np.concatenate(data), (len(texts), TOY_DEFAULT_BUCKETS))


def _char_lengths(texts: Sequence[str]) -> np.ndarray:
    return np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))


def _blocks(lengths: np.ndarray) -> Iterator[tuple[int, int]]:
    """``(lo, hi)`` of each run of consecutive texts of at most ``_HASH_BLOCK_CHARS`` characters in all
    and at most ``_HASH_BLOCK_TEXTS`` texts; a longer text is a run of its own."""
    ends = np.cumsum(lengths)
    lo = 0
    while lo < len(lengths):
        before = ends[lo - 1] if lo else 0
        hi = int(np.searchsorted(ends, before + _HASH_BLOCK_CHARS, side="right"))
        hi = max(lo + 1, min(hi, lo + _HASH_BLOCK_TEXTS))
        yield lo, hi
        lo = hi


def _hash_block(texts: Sequence[str], lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cell count of each row of ``texts``, and every row's sorted bucket ids and their counts."""
    cells, counts = np.unique(_ngram_cells(texts, lengths), return_counts=True)
    rows = cells // TOY_DEFAULT_BUCKETS
    return (
        np.bincount(rows, minlength=len(texts)),
        (cells & _BUCKET_MASK).astype(np.int32),
        counts.astype(float),
    )


def _ngram_cells(texts: Sequence[str], lengths: np.ndarray) -> np.ndarray:
    """``row * TOY_DEFAULT_BUCKETS + bucket`` of every n-gram of ``texts``, unsorted, as uint32.

    With ``R(b)`` the CRC-32 register after bytes ``b`` from 0 (no inversion
    before or after), ``zlib.crc32(b) == zlib.crc32(bytes(len(b))) ^ R(b)``,
    and ``R`` is linear over GF(2) (the property behind Sarwate 1988): the
    ``R`` of an n-gram is the XOR over its characters ``c`` of
    ``R(utf8(c) + bytes(s))``, ``s`` the bytes after ``c`` in the n-gram.
    ``_contributions`` tabulates that for the block's distinct characters and
    every ``s``, so one gather per character position builds each n-gram
    size: the n-gram starting at ``p`` is its first character's contribution
    XOR the (n-1)-gram starting at ``p + 1``. No pass runs per byte. Its
    arrays are freed on return, before the cells are sorted.
    """
    if lengths.max(initial=0) < min(TOY_NGRAM_SIZES):  # no n-gram: skip the block's tables
        return np.zeros(0, dtype=np.uint32)
    points = np.frombuffer("".join(texts).encode("utf-32-le"), dtype=np.uint32)
    rank, codes = _code_ranks(points)
    table = _contributions(codes)
    code_bytes = 1 + (codes >= 0x80) + (codes >= 0x800) + (codes >= _BMP)
    char_bytes = code_bytes[rank]
    # Per start: the entry of its first character for the bytes after it,
    # the n-gram's byte length and its register; n = 1 to begin with.
    at = rank * (_MAX_SHIFT + 1)
    length = char_bytes
    gram = table[at]
    row = np.repeat(np.arange(len(texts), dtype=np.uint32) * np.uint32(TOY_DEFAULT_BUCKETS), lengths)
    keys = [np.zeros(0, dtype=np.uint32)]
    for n in range(2, max(TOY_NGRAM_SIZES) + 1):
        starts = max(points.size - n + 1, 0)
        at = at[:starts] + char_bytes[n - 1 :]
        length = length[:starts] + char_bytes[n - 1 :]
        gram = table[at] ^ gram[1:]
        if n in TOY_NGRAM_SIZES:
            key = row[:starts] | ((_ZERO_CRC[length] ^ gram) & _BUCKET_MASK)
            keys.append(key[row[:starts] == row[n - 1 :]])  # n-grams within one row
    return np.concatenate(keys)


def _code_ranks(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each code point's rank among the distinct ``points``, and those code points in rank order.

    Code points below ``_BMP`` rank through a table of that size, and the
    rest through ``np.unique``, so no array is sized by the largest code point.
    """
    astral = points >= _BMP
    near = points[~astral] if astral.any() else points
    seen = np.zeros(_BMP, dtype=bool)
    seen[near] = True
    codes = np.flatnonzero(seen)
    table = np.empty(_BMP, dtype=np.intp)
    table[codes] = np.arange(codes.size)
    if near is points:
        return table[points], codes
    far_codes, far_rank = np.unique(points[astral], return_inverse=True)
    rank = np.empty(points.size, dtype=np.intp)
    rank[~astral] = table[near]
    rank[astral] = codes.size + far_rank
    return rank, np.concatenate([codes, far_codes])


def _contributions(codes: np.ndarray) -> np.ndarray:
    """Flat ``(len(codes), _MAX_SHIFT + 1)`` table: entry ``(i, s)`` is ``R(utf8(chr(codes[i])) + bytes(s))``.

    ``R`` is the CRC-32 register from 0, as in ``_ngram_cells``; each column
    advances the one before it by a zero byte.
    """
    register = np.fromiter(
        (zlib.crc32(chr(code).encode("utf-8"), 0xFFFFFFFF) ^ 0xFFFFFFFF for code in codes.tolist()),
        dtype=np.uint32,
        count=codes.size,
    )
    table = np.empty((codes.size, _MAX_SHIFT + 1), dtype=np.uint32)
    for shift in range(_MAX_SHIFT + 1):
        table[:, shift] = register
        register = _CRC32_TABLE[register & 0xFF] ^ (register >> 8)
    return table.ravel()


# Feature memo of one run: token limit -> (row of each text a fit has
# read, read-only CSR arrays of those rows). Fits fill it; prediction only reads it.
_FEATURE_MEMO: dict[int | None, tuple[dict[str, int], StepBatch]] = {}


def _memo_rows(texts: Sequence[str], max_tokens: int | None) -> tuple[StepBatch, np.ndarray]:
    """The memo's rows as read-only CSR arrays and each text's row in them, after hashing the texts it lacks.

    This is the memo's one writer. A fill builds new arrays, the stored rows
    and then the new texts' rows, and stores them in place of the old ones,
    so arrays returned earlier keep their values. Index arrays are int32
    while the entries fit, else int64.
    """
    row_of, stored = _FEATURE_MEMO.get(max_tokens, ({}, None))
    new = [text for text in dict.fromkeys(texts) if text not in row_of]
    if new or stored is None:
        block = hashed_ngram_features(new, max_tokens=max_tokens)
        if stored is not None:  # the first fill stores the hashed rows as they are
            nnz = len(stored.data)
            index = np.int32 if nnz + len(block.data) <= _INT32_ENTRIES else np.int64
            parts = (block.indptr[1:].astype(index) + nnz, block.indices.astype(index, copy=False), block.data)
            arrays = [np.concatenate(pair) for pair in zip(stored, parts)]  # int32 and int64 join as int64
            block = StepBatch(*arrays, (len(row_of) + len(new), TOY_DEFAULT_BUCKETS))
        for array in block[:3]:
            array.flags.writeable = False
        row_of.update(zip(new, range(len(row_of), block.shape[0])))
        _FEATURE_MEMO[max_tokens] = row_of, block
    ids = np.fromiter((row_of[text] for text in texts), dtype=np.int64, count=len(texts))
    return _FEATURE_MEMO[max_tokens][1], ids


def _predict_batches(texts: Sequence[str], max_tokens: int | None) -> Iterator[tuple[np.ndarray, StepBatch]]:
    """``(positions, batch)`` per chunk of ``texts``: row ``i`` of ``batch`` holds the features of
    ``texts[positions[i]]``.

    Texts the memo holds are copied from it in one chunk. The others follow
    in their order, hashed one block of at most ``_HASH_BLOCK_CHARS``
    characters at a time, and are never stored.
    """
    row_of, stored = _FEATURE_MEMO.get(max_tokens, ({}, None))
    rows = list(map(row_of.get, texts))
    known = [position for position, row in enumerate(rows) if row is not None]
    if known:
        yield np.array(known), _take_rows(stored, [rows[position] for position in known])
    unseen = [position for position, row in enumerate(rows) if row is None]
    new = [texts[position] for position in unseen]
    positions = np.array(unseen, dtype=np.int64)
    for lo, hi in _blocks(_char_lengths(new)):
        yield positions[lo:hi], hashed_ngram_features(new[lo:hi], max_tokens=max_tokens)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _row_spans(matrix: StepBatch, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where rows ``ids`` of a CSR lie: the ids in the matrix's index dtype, each row's stored
    length, and the running offsets of their entries, the ``indptr`` of ``matrix[ids]``.

    The offsets take the ids' dtype while their total fits it, else int64.
    The copy kernel trusts ids, so a row id outside the matrix raises here.
    """
    ids = np.asarray(ids, dtype=matrix.indptr.dtype)
    if ids.size and ids.min() < 0:
        raise IndexError("negative row id")
    lengths = matrix.indptr[ids + 1] - matrix.indptr[ids]
    fits = lengths.sum(dtype=np.int64) <= np.iinfo(ids.dtype).max
    offsets = np.zeros(len(ids) + 1, dtype=ids.dtype if fits else np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return ids, lengths, offsets


def _copy_rows(matrix: StepBatch, ids: np.ndarray, indptr: np.ndarray) -> StepBatch:
    """Rows ``ids`` of a CSR, stacked in order, from ids and an ``indptr`` from ``_row_spans``
    (a slice of its offsets less their first value). This calls ``csr_row_index``, the kernel
    ``matrix[ids]`` runs, with no scipy matrix built."""
    indices, data = np.empty(indptr[-1], dtype=ids.dtype), np.empty(indptr[-1], dtype=matrix.data.dtype)
    _sparsetools.csr_row_index(len(ids), ids, matrix.indptr, matrix.indices, matrix.data, indices, data)
    return StepBatch(indptr, indices.astype(indptr.dtype, copy=False), data, (len(ids), matrix.shape[1]))


def _take_rows(matrix: StepBatch, ids: np.ndarray) -> StepBatch:
    """Rows ``ids`` of a CSR, stacked in order: bit for bit the arrays of ``matrix[ids]``."""
    ids, _, offsets = _row_spans(matrix, ids)
    return _copy_rows(matrix, ids, offsets)


def _run_sums(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The sum of each run of consecutive ``values``, runs ``sizes`` long: bit for bit ``values[run].sum()``.

    ``np.sum`` adds a zero and then every item as one pairwise sum, and
    ``reduceat`` starts a run from its first item and adds the rest as one
    pairwise sum, so each run is led by a zero. A run of no items sums its zero.
    """
    starts = np.arange(len(sizes)) + np.cumsum(sizes) - sizes
    led = np.zeros(len(values) + len(sizes), dtype=values.dtype)
    item = np.ones(len(led), dtype=bool)
    item[starts] = False
    led[item] = values
    return np.add.reduceat(led, starts)


def _csr_product(batch: StepBatch, dense: np.ndarray, transpose: bool = False) -> np.ndarray:
    """``batch @ dense``, or ``batch.T @ dense``, bit for bit as scipy's ``@`` computes it.

    For a CSR matrix times a 2-D array, scipy's ``@`` allocates a zero result
    and calls ``csr_matvecs``; the transpose is the same three arrays read as
    CSC, which ``csc_matvecs`` multiplies. This calls those kernels on the
    batch's arrays directly. Each result row sums its terms in stored order,
    and in the transpose each column's terms arrive in row order. The kernels
    trust their sizes and take one index dtype, so scipy's checks are made here.
    """
    n_rows, n_cols = batch.shape
    dense = np.ascontiguousarray(dense)
    if len(batch.indptr) != n_rows + 1 or len(batch.indices) != len(batch.data) or batch.indptr[-1] > len(batch.data):
        raise ValueError(f"CSR arrays do not fit shape {batch.shape}")
    if batch.indptr.dtype != batch.indices.dtype:
        raise ValueError(f"indptr is {batch.indptr.dtype} but indices are {batch.indices.dtype}")
    kernel = _sparsetools.csr_matvecs
    if transpose:
        kernel, n_rows, n_cols = _sparsetools.csc_matvecs, n_cols, n_rows
    if dense.ndim != 2 or dense.shape[0] != n_cols:
        raise ValueError(f"cannot multiply {n_rows}x{n_cols} sparse by {dense.shape} dense")
    out = np.zeros((n_rows, dense.shape[1]), dtype=np.result_type(batch.data, dense))
    kernel(n_rows, n_cols, dense.shape[1], batch.indptr, batch.indices, batch.data, dense.ravel(), out.ravel())
    return out


def toy_forward_backward(
    params: ToyParams, features: StepBatch, labels: Sequence[int], owner: np.ndarray
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Softmax cross-entropy of each row of a stacked batch of several models, plus its analytic gradient.

    ``features`` is an (N, D) ``StepBatch`` of hashed n-gram counts,
    ``labels`` are class indices and ``owner`` gives each row's model index:
    ``params.bias`` is one (K,) row per model, each model's rows are
    contiguous and in model order, and models own disjoint weight columns.
    Returns (each row's loss, (grad_weights, grad_bias)).

    Every model's batch is its own rows: grad_bias is one row per model,
    summed over that model's rows alone, so each model gets bit for bit the
    gradient a batch of its rows alone gets. Its caller takes the loss per
    model with ``_run_sums`` and checks each model for non-finite values.
    """
    y = np.asarray(labels, dtype=int)
    n = features.shape[0]
    if n == 0:
        raise EncoderError("empty batch")
    sizes = np.bincount(owner, minlength=len(params.bias))
    probs = _softmax(_csr_product(features, params.weights.T) + params.bias[owner])
    nll = -np.log(probs[np.arange(n), y])
    grad_out = probs
    grad_out[np.arange(n), y] -= 1.0
    grad_out /= sizes[owner, None]
    grad_weights = _csr_product(features, grad_out, transpose=True).T
    grad_bias = np.zeros_like(params.bias)
    np.add.at(grad_bias, owner, grad_out)  # row by row in order, as a sum over one model's rows
    return nll, (grad_weights, grad_bias)


def train_fingerprint(spec: EncoderSpec, hp: HyperParams, train_ids: Sequence[str]) -> str:
    payload = json.dumps(
        {
            "backend": spec.backend_key,
            "max_sequence_tokens": spec.max_sequence_tokens,
            "epochs": hp.epochs,
            "batch_size": hp.batch_size,
            "learning_rate": hp.learning_rate,
            "seed": hp.seed,
            "train_ids": sorted(train_ids),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


# on_epoch(model) -> None: called after every epoch of a fit with the model
# that epoch leaves (hyperparams.epochs is the epochs done so far).
EpochHook = Callable[[TrainedModel], None]
# A fit request: the backend and token limit, the hyperparameters, the rows.
FitEntry = tuple[EncoderSpec, HyperParams, Sequence[LabeledText]]
# on_epoch(index, model) -> None: EpochHook of the fit of entry ``index``.
EntryEpochHook = Callable[[int, TrainedModel], None]


def _trained_model(
    spec: EncoderSpec, hp: HyperParams, train: Sequence[LabeledText], params, losses: list[float]
) -> TrainedModel:
    """The model ``len(losses)`` epochs of ``hp`` leave; ``params`` are the live parameters, not a copy.

    A fit draws nothing that depends on ``hp.epochs``, so after e epochs it
    holds bit for bit the model an e-epoch fit returns, fingerprint included.
    """
    done = replace(hp, epochs=len(losses))
    return TrainedModel(
        spec=spec,
        hyperparams=done,
        params=params,
        train_fingerprint=train_fingerprint(spec, done, [row.id for row in train]),
        epoch_losses=list(losses),
    )


def _validate_training_rows(train: Sequence[LabeledText]) -> None:
    if not train:
        raise EncoderError("empty training set")
    for row in train:
        if not row.norm_text:
            raise EncoderError(
                f"row {row.id!r} is not normalized (or normalized to empty); "
                "normalize the corpus and drop flagged rows before training"
            )
    if len({row.label for row in train}) < 2:
        raise EncoderError("training set covers a single class; need at least two")


# The arrays of a saved toy model and their shapes.
_TOY_SHAPES = {"weights": (N_CLASSES, TOY_DEFAULT_BUCKETS), "bias": (N_CLASSES,)}
# The manifest lines of the toy backend's one feature geometry.
_TOY_GEOMETRY = {
    "n_buckets": str(TOY_DEFAULT_BUCKETS),
    "ngram_sizes": ",".join(str(n) for n in TOY_NGRAM_SIZES),
}


class ToyBackend:
    """Hashed character n-gram bag-of-features + linear softmax head."""

    key = TOY_BACKEND_KEY
    token_limit = DEFAULT_MAX_TOKENS

    def fit_many(
        self, entries: Sequence[FitEntry], on_epoch: EntryEpochHook | None = None
    ) -> list[TrainedModel | ArahateError]:
        """Train entries of equal token limit, epochs, batch size and learning rate in lockstep."""
        groups: dict[tuple, list[int]] = {}
        for index, (spec, hp, _) in enumerate(entries):
            groups.setdefault((spec.max_sequence_tokens, hp.epochs, hp.batch_size, hp.learning_rate), []).append(index)
        outcomes: list = [None] * len(entries)
        for indices in groups.values():
            group = self._fit_lockstep([entries[i] for i in indices], _subset_hook(on_epoch, indices))
            for index, outcome in zip(indices, group):
                outcomes[index] = outcome
        return outcomes

    def _fit_lockstep(
        self, entries: Sequence[FitEntry], on_epoch: EntryEpochHook | None
    ) -> list[TrainedModel | EncoderError]:
        """One step loop over same-shape fits; bit for bit the models separate fits return.

        A toy step costs more in numpy call overhead than in arithmetic, so the
        group's models share each step's calls. Model i owns block i of one
        weight matrix: one column per bucket any entry's rows touch. The matrix
        is stored transposed, one row of K weights per column, so a step
        gathers and scatters whole rows. The model has no regularizer, so a
        bucket no row of a step touches gets a zero update and is not read.

        An epoch shuffles each model's rows, orders them by (step, model) so
        that each stacked step is one contiguous slice, and works out once
        where each row's entries lie in the feature memo (one row per distinct
        text) and where its model's block starts. A step does only what its
        own rows need: it copies them, numbers the columns they touch, gathers
        those weights, calls ``toy_forward_backward`` and scatters the update
        back. Each row's loss goes into an epoch buffer, from which the
        epoch's end takes every step's mean per model and each model's running
        loss.
        """
        spec, hp, _ = entries[0]
        trains = [train for _, _, train in entries]
        features, text_rows = _memo_rows([row.norm_text for train in trains for row in train], spec.max_sequence_tokens)
        rows = np.split(text_rows, np.cumsum([len(train) for train in trains])[:-1])
        touched = np.zeros(TOY_DEFAULT_BUCKETS, dtype=bool)
        read = np.zeros(features.shape[0], dtype=bool)
        read[text_rows] = True
        touched[_take_rows(features, np.flatnonzero(read)).indices] = True
        cols = np.flatnonzero(touched)
        width = len(cols)
        column = np.cumsum(touched, dtype=np.int32) - 1  # bucket -> its column in every block
        labels = [
            np.fromiter((LABEL_INDEX[row.label] for row in train), dtype=int, count=len(train)) for train in trains
        ]
        rngs = [np.random.default_rng(entry_hp.seed) for _, entry_hp, _ in entries]
        weights_t = np.zeros((len(entries) * width, N_CLASSES))
        bias = np.zeros((len(entries), N_CLASSES))
        # Each column's K weights as one item: a step scatters whole items.
        weight_rows = weights_t.view(np.dtype((np.void, weights_t.itemsize * N_CLASSES))).reshape(-1)
        entry_of = np.empty(len(entries) * width, dtype=features.indptr.dtype)  # scratch: one count per column
        # Each step swaps its weights into this one ToyParams; the step reads only weights and bias.
        step_params = ToyParams(weights=weights_t[:0].T, bias=bias)
        losses: list[list[float]] = [[] for _ in entries]
        failed: dict[int, EncoderError] = {}

        def model(i: int) -> TrainedModel:
            params = ToyParams(weights=weights_t[i * width : (i + 1) * width].T, bias=bias[i], cols=cols)
            return _trained_model(entries[i][0], entries[i][1], trains[i], params, losses[i])

        for _ in range(hp.epochs):
            alive = [i for i in range(len(entries)) if i not in failed]
            if not alive:
                break
            orders = [rngs[i].permutation(len(rows[i])) for i in alive]
            step = np.concatenate([np.arange(len(order)) // hp.batch_size for order in orders])
            by_step = np.argsort(step, kind="stable")
            ids, lengths, offsets = _row_spans(
                features, np.concatenate([rows[i][order] for i, order in zip(alive, orders)])[by_step]
            )
            epoch_labels = np.concatenate([labels[i][order] for i, order in zip(alive, orders)])[by_step]
            owner = np.repeat(alive, [len(order) for order in orders])
            # Rows of each model in each step, one row of counts per step.
            step_sizes = np.bincount(step * len(entries) + owner, minlength=(step.max() + 1) * len(entries))
            step_sizes = step_sizes.reshape(-1, len(entries))
            owner = owner[by_step]
            del orders, step, by_step  # the steps keep only the per-row arrays they read
            block = owner * width  # each row's first column in the weight matrix
            bounds = np.concatenate([[0], np.cumsum(step_sizes.sum(axis=1))])
            # Every step's batch takes the offsets' index dtype.
            count = np.arange(np.diff(offsets[bounds]).max(), dtype=offsets.dtype)
            entry_of = entry_of.astype(offsets.dtype, copy=False)
            nll = np.empty(len(ids))
            bounds = bounds.tolist()
            # A model that turns non-finite keeps stepping on its own columns
            # until the epoch ends; its NaNs reach no other model.
            with np.errstate(invalid="ignore"):
                for start, stop in zip(bounds[:-1], bounds[1:]):
                    taken = _copy_rows(features, ids[start:stop], offsets[start : stop + 1] - offsets[start])
                    # Number the step's distinct columns without sorting. Their
                    # order does not matter: each row still sums its counts in
                    # stored (bucket) order and each column its rows in row
                    # order, as in that model's own step.
                    keys = column[taken.indices] + np.repeat(block[start:stop], lengths[start:stop])
                    entry_of[keys] = count[: len(keys)]
                    batch_cols = keys[entry_of[keys] == count[: len(keys)]]
                    entry_of[batch_cols] = count[: len(batch_cols)]
                    batch = taken._replace(indices=entry_of[keys], shape=(stop - start, len(batch_cols)))
                    step_weights = np.take(weights_t, batch_cols, axis=0)
                    step_params.weights = step_weights.T
                    nll[start:stop], (grad_w, grad_b) = toy_forward_backward(
                        step_params, batch, epoch_labels[start:stop], owner[start:stop]
                    )
                    grad_w *= hp.learning_rate  # in place: the same products, no temporaries
                    step_weights -= grad_w.T
                    np.put(weight_rows, batch_cols, step_weights.view(weight_rows.dtype).reshape(-1))
                    bias -= hp.learning_rate * grad_b
                # Each step's loss per model, its rows' mean, weighted by its
                # rows and added up step after step from a zero.
                means = _run_sums(nll, step_sizes.ravel()).reshape(step_sizes.shape) / np.maximum(step_sizes, 1)
                running = np.cumsum(np.vstack([np.zeros(len(entries)), means * step_sizes]), axis=0)[-1]
            for i in alive:
                if not (np.isfinite(weights_t[i * width : (i + 1) * width]).all() and np.isfinite(bias[i]).all()):
                    failed[i] = EncoderError("non-finite model parameters after an epoch")
                    continue
                losses[i].append(float(running[i] / len(rows[i])))
                if on_epoch is not None:
                    on_epoch(i, model(i))
        return [failed.get(i) or model(i) for i in range(len(entries))]

    def predict_proba_arrays(self, models: Sequence[TrainedModel], texts: Sequence[str]) -> list[np.ndarray]:
        """Each model's probabilities; the models of one ``cols`` array and token limit make one product per chunk.

        Chunks are the outer loop and groups the inner one, so each chunk's
        rows are copied or hashed once per token limit, and the features are
        never held for all texts at once; each product fills the logits at its
        chunk's positions. ``csr_matvecs`` sums each output row and column on
        its own, so each model's logits are its own product's.
        """
        limits: dict[int, dict[int, list[int]]] = {}  # token limit -> id(cols) -> the group's models
        for index, model in enumerate(models):
            if not isinstance(model.params, ToyParams):
                raise EncoderError("model was not trained by the toy backend")
            limits.setdefault(model.spec.max_sequence_tokens, {}).setdefault(id(model.params.cols), []).append(index)
        logits = np.empty((len(texts), N_CLASSES * len(models)))
        slot = [0] * len(models)  # each model's logits are columns slot * K to (slot + 1) * K
        filled = 0
        for max_tokens, groups in limits.items():
            blocks = []  # per group: bucket -> column table, stacked weights and its logit columns
            for indices in groups.values():
                cols = models[indices[0]].params.cols
                # Buckets without a column read a trailing zero column: every count
                # still adds its (zero) term, so the sums are the dense model's.
                column = np.full(TOY_DEFAULT_BUCKETS, len(cols), dtype=np.int32)
                column[cols] = np.arange(len(cols))
                weights_t = np.empty((len(cols) + 1, len(indices), N_CLASSES))  # one copy of each model's weights
                weights_t[len(cols)] = 0
                for j, index in enumerate(indices):
                    weights_t[: len(cols), j] = models[index].params.weights.T
                    slot[index] = filled + j
                out = slice(N_CLASSES * filled, N_CLASSES * (filled + len(indices)))
                blocks.append((column, weights_t.reshape(len(cols) + 1, -1), out))
                filled += len(indices)
            for positions, batch in _predict_batches(texts, max_tokens):
                for column, weights_t, out in blocks:
                    remapped = batch._replace(
                        indices=column[batch.indices].astype(batch.indptr.dtype, copy=False),
                        shape=(batch.shape[0], len(weights_t)),
                    )
                    logits[positions, out] = _csr_product(remapped, weights_t)
                del batch, remapped  # freed before the next chunk is read
        return [
            _softmax(logits[:, N_CLASSES * slot[i] : N_CLASSES * (slot[i] + 1)] + model.params.bias)
            for i, model in enumerate(models)
        ]

    artifacts = (ARTIFACT_WEIGHTS, ARTIFACT_MANIFEST)  # what ``save`` writes

    def save(self, model: TrainedModel, directory: Path) -> None:
        params = model.params
        with atomic_open(directory / ARTIFACT_WEIGHTS, "wb") as fh:  # a file object: savez adds no ".npz"
            np.savez(fh, weights=params.dense_weights(), bias=params.bias)
        _write_manifest(directory, model, extra=_TOY_GEOMETRY)

    def load(self, directory: Path, manifest: dict[str, str]) -> TrainedModel:
        geometry = {key: manifest.get(key) for key in _TOY_GEOMETRY}
        if geometry != _TOY_GEOMETRY:
            raise EncoderError(f"{directory}: feature geometry {geometry} is not the toy backend's {_TOY_GEOMETRY}")
        path = directory / ARTIFACT_WEIGHTS
        try:
            with np.load(path) as blob:
                arrays = {name: blob[name] for name in _TOY_SHAPES}
        except (OSError, EOFError, ValueError, TypeError, KeyError, zipfile.BadZipFile) as exc:
            raise EncoderError(f"{path}: not a toy weights archive: {exc}") from None
        for name, shape in _TOY_SHAPES.items():
            if arrays[name].shape != shape:
                raise EncoderError(f"{path}: {name} of shape {arrays[name].shape}, not {shape}")
        return _model_from_manifest(directory, manifest, ToyParams(**arrays))


class PretrainedBackend:
    """Adapter slot for a pretrained transformer encoder with a 5-way head.

    The actual runtime (torch + transformers) and the weights are supplied by
    the environment; both loaders are injectable so the error taxonomy stays
    testable without either.
    """

    token_limit = DEFAULT_MAX_TOKENS

    def __init__(
        self,
        key: str,
        model_id: str,
        runtime_importer: Callable | None = None,
        weight_loader: Callable | None = None,
    ):
        self.key = key
        self.model_id = model_id
        self._runtime_importer = runtime_importer or self._import_runtime
        self._weight_loader = weight_loader

    def _import_runtime(self):
        try:
            import torch
            import transformers
        except ImportError as exc:
            raise BackendNotInstalledError(
                f"backend {self.key!r} requires the 'pretrained' extra "
                f"(torch + transformers): {exc}"
            ) from exc
        return torch, transformers

    def _load_pretrained(self, transformers):
        loader = self._weight_loader
        try:
            if loader is not None:
                return loader()
            tokenizer = transformers.AutoTokenizer.from_pretrained(self.model_id)
            model = transformers.AutoModelForSequenceClassification.from_pretrained(
                self.model_id, num_labels=N_CLASSES
            )
            return tokenizer, model
        except (BackendNotInstalledError, BackendWeightsError):
            raise
        except Exception as exc:
            raise BackendWeightsError(
                f"backend {self.key!r}: could not fetch weights for {self.model_id!r} "
                f"(download failed or local cache missing): {exc}"
            ) from exc

    def _fit(
        self, spec: EncoderSpec, hp: HyperParams, train: Sequence[LabeledText], on_epoch: EpochHook | None
    ) -> TrainedModel:
        torch, transformers = self._runtime_importer()
        tokenizer, model = self._load_pretrained(transformers)
        torch.manual_seed(hp.seed)
        texts = [row.norm_text or "" for row in train]
        labels = torch.tensor([LABEL_INDEX[row.label] for row in train])
        optimizer = torch.optim.AdamW(model.parameters(), lr=hp.learning_rate)
        order = np.random.default_rng(hp.seed)
        losses = []
        n = len(texts)
        for _ in range(hp.epochs):
            model.train()  # an on_epoch hook that predicts leaves the model in eval mode
            perm = order.permutation(n)
            running = 0.0
            for start in range(0, n, hp.batch_size):
                idx = perm[start : start + hp.batch_size]
                # Pad to the longest text in the batch, capped at the backend limit.
                batch = tokenizer(
                    [texts[i] for i in idx],
                    padding="longest",
                    truncation=True,
                    max_length=spec.max_sequence_tokens,
                    return_tensors="pt",
                )
                out = model(**batch, labels=labels[idx])
                optimizer.zero_grad()
                out.loss.backward()
                optimizer.step()
                running += float(out.loss) * len(idx)
            losses.append(running / n)
            if on_epoch is not None:
                on_epoch(_trained_model(spec, hp, train, (tokenizer, model), losses))
        return _trained_model(spec, hp, train, (tokenizer, model), losses)

    def fit_many(
        self, entries: Sequence[FitEntry], on_epoch: EntryEpochHook | None = None
    ) -> list[TrainedModel | ArahateError]:
        """One ``_fit`` per entry, in order."""
        outcomes: list[TrainedModel | ArahateError] = []
        for index, (spec, hp, train) in enumerate(entries):
            hook = None if on_epoch is None else lambda model, index=index: on_epoch(index, model)
            try:
                outcomes.append(self._fit(spec, hp, train, hook))
            except ArahateError as exc:
                outcomes.append(exc)
        return outcomes

    def predict_proba_arrays(self, models: Sequence[TrainedModel], texts: Sequence[str]) -> list[np.ndarray]:
        """One model after another, in batches of its batch size."""
        torch, _ = self._runtime_importer()
        probs = []
        for model in models:
            tokenizer, net = model.params
            net.eval()
            rows = [np.zeros((0, N_CLASSES))]  # float64, as ProbabilityMatrix stores them
            with torch.no_grad():
                for start in range(0, len(texts), model.hyperparams.batch_size):
                    chunk = list(texts[start : start + model.hyperparams.batch_size])
                    batch = tokenizer(
                        chunk,
                        padding="longest",
                        truncation=True,
                        max_length=model.spec.max_sequence_tokens,
                        return_tensors="pt",
                    )
                    logits = net(**batch).logits
                    rows.append(torch.softmax(logits, dim=-1).cpu().numpy())
            probs.append(np.concatenate(rows, axis=0))
        return probs

    artifacts = ("hf", ARTIFACT_MANIFEST)  # what ``save`` writes

    def save(self, model: TrainedModel, directory: Path) -> None:
        tokenizer, net = model.params
        tokenizer.save_pretrained(directory / "hf")
        net.save_pretrained(directory / "hf")
        _write_manifest(directory, model, extra={"model_id": self.model_id})

    def load(self, directory: Path, manifest: dict[str, str]) -> TrainedModel:
        _, transformers = self._runtime_importer()
        try:
            tokenizer = transformers.AutoTokenizer.from_pretrained(directory / "hf")
            net = transformers.AutoModelForSequenceClassification.from_pretrained(
                directory / "hf"
            )
        except Exception as exc:
            raise BackendWeightsError(f"cannot load weights from {directory}: {exc}") from exc
        return _model_from_manifest(directory, manifest, (tokenizer, net))


_BACKENDS: dict[str, ToyBackend | PretrainedBackend] = {
    TOY_BACKEND_KEY: ToyBackend(),
    **{key: PretrainedBackend(key, model_id) for key, model_id in PRETRAINED_MODEL_IDS.items()},
}


def get_backend(key: str) -> ToyBackend | PretrainedBackend:
    try:
        return _BACKENDS[key]
    except KeyError:
        raise EncoderError(f"unknown backend key {key!r}; known: {', '.join(sorted(_BACKENDS))}") from None


def fit_many(entries: Sequence[FitEntry], on_epoch: EntryEpochHook | None = None) -> list[TrainedModel | ArahateError]:
    """Fine-tune one model per (spec, hyperparams, rows) entry; see ``fit``.

    Returns, per entry in order, its model or the ArahateError that stopped
    it; one entry's failure stops no other. The toy backend trains entries
    of equal token limit, epochs, batch size and learning rate in one
    lockstep loop. ``on_epoch(index, model)`` sees entry ``index``'s model
    after each of its epochs, on the terms ``fit`` gives.
    """
    outcomes: list = [None] * len(entries)
    by_backend: dict[str, list[int]] = {}
    for index, (spec, _, train) in enumerate(entries):
        try:
            _validate_training_rows(train)
        except EncoderError as exc:
            outcomes[index] = exc
            continue
        by_backend.setdefault(spec.backend_key, []).append(index)
    for key, indices in by_backend.items():
        batch = [(spec, hp, list(train)) for spec, hp, train in (entries[i] for i in indices)]
        for index, outcome in zip(indices, get_backend(key).fit_many(batch, _subset_hook(on_epoch, indices))):
            outcomes[index] = outcome
    return outcomes


def fit(
    spec: EncoderSpec, hp: HyperParams, train: Sequence[LabeledText], on_epoch: EpochHook | None = None
) -> TrainedModel:
    """Fine-tune the spec'd backend on normalized rows covering >= 2 classes.

    The one-entry case of ``fit_many``: returns its model, or raises its
    error. ``on_epoch``, if given, sees the model after every epoch. That
    model shares the live parameters, which the next epoch overwrites: use it
    inside the call, do not keep it.
    """
    hook = None if on_epoch is None else lambda _, model: on_epoch(model)
    (outcome,) = fit_many([(spec, hp, train)], hook)
    if isinstance(outcome, ArahateError):
        raise outcome
    return outcome


def _subset_hook(on_epoch: EntryEpochHook | None, indices: Sequence[int]) -> EntryEpochHook | None:
    """``on_epoch`` for the entries ``indices`` picks: entry i of the subset is entry ``indices[i]``."""
    return None if on_epoch is None else lambda i, model: on_epoch(indices[i], model)


def predict_proba_many(
    models: Sequence[TrainedModel], texts: Sequence[str], ids: Sequence[str] | None = None
) -> list[ProbabilityMatrix]:
    """Each model's N x 5 class probabilities of the same texts, in model order, from one call per backend."""
    texts = list(texts)
    ids = list(map(str, range(len(texts)))) if ids is None else list(ids)
    matrices: list = [None] * len(models)
    for key in dict.fromkeys(model.spec.backend_key for model in models):
        indices = [i for i, model in enumerate(models) if model.spec.backend_key == key]
        for index, probs in zip(indices, get_backend(key).predict_proba_arrays([models[i] for i in indices], texts)):
            matrices[index] = ProbabilityMatrix(ids=list(ids), probs=probs)
    return matrices


def predict_proba(
    model: TrainedModel, texts: Sequence[str], ids: Sequence[str] | None = None
) -> ProbabilityMatrix:
    """N x 5 class probabilities (none for no texts): the one-model case of ``predict_proba_many``."""
    (matrix,) = predict_proba_many([model], texts, ids)
    return matrix


def _write_manifest(directory: Path, model: TrainedModel, extra: dict[str, str]) -> None:
    lines = {
        "format_version": "1",
        "backend": model.spec.backend_key,
        "max_sequence_tokens": str(model.spec.max_sequence_tokens),
        "epochs": str(model.hyperparams.epochs),
        "batch_size": str(model.hyperparams.batch_size),
        "learning_rate": repr(model.hyperparams.learning_rate),
        "seed": str(model.hyperparams.seed),
        "fingerprint": model.train_fingerprint,
    }
    lines.update(extra)
    content = "".join(f"{k}={v}\n" for k, v in lines.items())
    with atomic_open(directory / ARTIFACT_MANIFEST) as fh:
        fh.write(content)


def _read_manifest(directory: Path) -> dict[str, str]:
    manifest = {}
    for line in read_input(directory / ARTIFACT_MANIFEST, "model manifest", EncoderError).splitlines():
        if line and "=" in line:
            key, value = line.split("=", 1)
            manifest[key] = value
    return manifest


def _model_from_manifest(directory: Path, manifest: dict[str, str], params) -> TrainedModel:
    try:
        spec = EncoderSpec(backend_key=manifest["backend"], max_sequence_tokens=int(manifest["max_sequence_tokens"]))
        return TrainedModel(
            spec=spec,
            hyperparams=HyperParams.from_mapping(manifest),
            params=params,
            train_fingerprint=manifest["fingerprint"],
        )
    except KeyError as exc:
        raise EncoderError(f"{directory / ARTIFACT_MANIFEST}: no {exc.args[0]} line") from None
    except (ValueError, ConfigError) as exc:
        raise EncoderError(f"{directory / ARTIFACT_MANIFEST}: {exc}") from None


def save_model(model: TrainedModel, directory: str | Path) -> Path:
    """Persist a model artifact: weights blob + key=value manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    backend = get_backend(model.spec.backend_key)
    backend.save(model, directory)
    return directory


def load_model(directory: str | Path) -> TrainedModel:
    directory = Path(directory)
    manifest = _read_manifest(directory)
    backend = get_backend(manifest.get("backend", ""))
    return backend.load(directory, manifest)
