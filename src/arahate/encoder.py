"""Trainable-classifier contract plus a deterministic reference backend.

Every backend in the table here exposes the same two operations: fine-tune
many models on labelled rows (``fit_many``) and produce an N x 5
class-probability matrix (``predict_proba_array``). The bundled ``toy``
backend is a linear softmax model over hashed character 3-to-5-gram counts
(2^16 buckets) trained with mini-batch gradient descent: no heavyweight
dependencies, bit-reproducible under a fixed seed, and fast enough to
exercise the whole pipeline in tests.

Its features are a pure function of the text, in one fixed geometry: 2^16
buckets and 3-to-5-grams; ``load_model`` rejects a manifest that names
another. ``hashed_ngram_features`` hashes a batch in blocks of whole texts,
one numpy pass per block of at most 2^16 characters, with a table-driven
CRC-32 that is bit-equal to ``zlib.crc32``; its transient memory is bounded
by the block, not the batch. A per-process memo keyed by token limit keeps
one read-only CSR row per distinct text, so a process hashes each text once
however many folds, grid points and ensemble members use it. The memo costs
about one CSR row (~1 KiB for a tweet) per distinct text and is never
evicted.

``fit_many`` trains many models in one call, and ``fit`` is its one-entry
case. The toy backend trains the entries of equal token limit, epochs, batch
size and learning rate as one lockstep group: one step loop whose every step
is one ``toy_forward_backward`` call over all the group's batches of that
step, gathered from the memo's rows without a copy per model. A step builds
no scipy matrix: its batch is a ``StepBatch`` of CSR arrays, and its two
products call scipy's compiled ``csr_matvecs`` and ``csc_matvecs`` directly.
Those are the kernels scipy's ``@`` calls for a CSR matrix, or its
transpose, times a 2-D array, so the products are bit for bit ``@``'s. The
group's models share one column space, the buckets any of its rows touch,
and each owns a block of one float64 weight matrix: about 6 MiB for the ten
folds of a 500-row cross-validation. A trained model keeps only its block
(weights for its sorted bucket ids ``cols``) and expands to every bucket
only when saved. Each model gets bit for bit the weights, bias and losses
its own fit gets, and one that turns non-finite fails alone.

Three pretrained encoder slots sit in the backend table by name; their
weights are fetched by the run environment (never vendored), so using them
requires the ``pretrained`` extra plus network or cache access to the
weights.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools

from .corpus import LabeledText, atomic_open
from .ensemble import ProbabilityMatrix
from .errors import ArahateError, ConfigError
from .labels import LABEL_INDEX, N_CLASSES

log = logging.getLogger(__name__)

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


def hashed_ngram_features(texts: Sequence[str], max_tokens: int | None = None) -> sparse.csr_matrix:
    """Hashed character 3-to-5-gram counts per row, with sorted bucket ids per row.

    An n-gram's bucket is ``zlib.crc32`` of its UTF-8 bytes modulo
    ``TOY_DEFAULT_BUCKETS``, so features are stable across processes and
    platforms. Texts shorter than a 3-gram yield an all-zero row (predictions
    then come from the bias alone). The texts are hashed in blocks of whole
    texts of at most ``_HASH_BLOCK_CHARS`` characters (a longer text is a
    block of its own), so the transient arrays stay the same size however
    large the batch is; see ``_hash_block``.
    """
    if max_tokens is not None:
        texts = [_truncate(text, max_tokens) for text in texts]
    return _hash_blocks(texts)


# Characters hashed per block. A block's arrays take about 120 bytes a
# character, so hashing holds under 8 MiB besides the features it returns.
_HASH_BLOCK_CHARS = 2**16


def _hash_blocks(texts: Sequence[str]) -> sparse.csr_matrix:
    """The features of ``texts``, hashed block by block and joined into one CSR.

    A block is a run of whole texts of at most ``_HASH_BLOCK_CHARS``
    characters, or one longer text. A row depends only on its own text, so
    the joined blocks equal one pass over the whole batch.
    """
    lengths = np.fromiter((len(text) for text in texts), dtype=np.int64, count=len(texts))
    ends = np.cumsum(lengths)
    indptr = np.zeros(len(texts) + 1, dtype=np.int64)
    indices, data = [np.zeros(0, dtype=np.int32)], [np.zeros(0)]
    lo = 0
    while lo < len(texts):
        before = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, before + _HASH_BLOCK_CHARS, side="right")))
        row_cells, block_indices, block_data = _hash_block(texts[lo:hi], lengths[lo:hi])
        indptr[lo + 1 : hi + 1] = row_cells
        indices.append(block_indices)
        data.append(block_data)
        lo = hi
    np.cumsum(indptr, out=indptr)
    return sparse.csr_matrix(
        (np.concatenate(data), np.concatenate(indices), indptr), shape=(len(texts), TOY_DEFAULT_BUCKETS)
    )


def _hash_block(texts: Sequence[str], lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cell count of each row of ``texts``, and every row's sorted bucket ids and their counts."""
    cells, counts = np.unique(_ngram_cells(texts, lengths), return_counts=True)
    rows = cells // TOY_DEFAULT_BUCKETS
    return (
        np.bincount(rows, minlength=len(texts)),
        (cells - rows * TOY_DEFAULT_BUCKETS).astype(np.int32),
        counts.astype(float),
    )


def _ngram_cells(texts: Sequence[str], lengths: np.ndarray) -> np.ndarray:
    """``row * TOY_DEFAULT_BUCKETS + bucket`` of every n-gram of ``texts``, unsorted.

    One numpy pass hashes them all: a table-driven CRC-32 (Sarwate 1988)
    runs over every n-gram's bytes at once, and each larger size extends the
    state of the next smaller one from the same start character, so each
    size costs only its extra characters. Its arrays are freed on return,
    before the cells are sorted.
    """
    data = np.frombuffer("".join(texts).encode("utf-8"), dtype=np.uint8)
    # Byte offset of every character (UTF-8 lead bytes), plus the end.
    char_bytes = np.append(np.flatnonzero((data & 0xC0) != 0x80), data.size)
    # One candidate n-gram per start character; row_end bounds it to its row.
    row = np.repeat(np.arange(len(texts)), lengths)
    row_end = np.repeat(np.cumsum(lengths), lengths)
    start = np.arange(row.size)
    crc = np.full(row.size, 0xFFFFFFFF, dtype=np.uint32)
    keys = [np.zeros(0, dtype=np.int64)]
    done = 0  # characters already folded into crc
    for n in TOY_NGRAM_SIZES:
        keep = start + n <= row_end
        start, row, row_end, crc = start[keep], row[keep], row_end[keep], crc[keep]
        first, stop = char_bytes[start + done], char_bytes[start + n]
        for offset in range(int((stop - first).max(initial=0))):
            at = first + offset
            step = _CRC32_TABLE[(crc ^ data.take(at, mode="clip")) & 0xFF] ^ (crc >> 8)
            crc = np.where(at < stop, step, crc)
        done = n
        keys.append(row * TOY_DEFAULT_BUCKETS + (crc ^ 0xFFFFFFFF).astype(np.int64) % TOY_DEFAULT_BUCKETS)
    return np.concatenate(keys)


# Per-process feature memo: token limit -> (row of each text seen so far,
# hashed rows of those texts). Features are a pure function of the text, so
# folds, grid points and ensemble members share one hashing of each distinct
# text. The stored arrays are read-only: prediction takes copies of its rows,
# and lockstep fits read the rows in place.
_FEATURE_MEMO: dict[int | None, tuple[dict[str, int], sparse.csr_matrix]] = {}


def _memo_rows(texts: Sequence[str], max_tokens: int | None) -> tuple[sparse.csr_matrix, np.ndarray]:
    """The memo's read-only CSR and each text's row in it, after hashing the texts it lacks."""
    row_of, seen = _FEATURE_MEMO.get(max_tokens) or ({}, sparse.csr_matrix((0, TOY_DEFAULT_BUCKETS)))
    new = [text for text in dict.fromkeys(texts) if text not in row_of]
    if new:
        block = hashed_ngram_features(new, max_tokens=max_tokens)
        row_of.update(zip(new, range(len(row_of), len(row_of) + len(new))))
        seen = sparse.vstack([seen, block], format="csr")
        for array in (seen.data, seen.indices, seen.indptr):
            array.flags.writeable = False
        _FEATURE_MEMO[max_tokens] = (row_of, seen)
    return seen, np.fromiter((row_of[text] for text in texts), dtype=np.int64, count=len(texts))


def _gather_rows(indptr: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where rows ``ids`` of a CSR store their entries, in order, and the indptr of those rows stacked."""
    start = indptr[ids]
    counts = indptr[ids + 1] - start
    stacked = np.zeros(len(ids) + 1, dtype=np.int32)  # int32 indices, which scipy would otherwise copy
    np.cumsum(counts, out=stacked[1:])
    return np.arange(stacked[-1]) + np.repeat(start - stacked[:-1], counts), stacked


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


class StepBatch(NamedTuple):
    """A batch as the arrays of an (N, D) CSR matrix: what ``toy_forward_backward`` reads of one."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]


def _csr_product(batch: StepBatch, dense: np.ndarray, transpose: bool = False) -> np.ndarray:
    """``batch @ dense``, or ``batch.T @ dense``, bit for bit as scipy's ``@`` computes it.

    For a CSR matrix times a 2-D array, scipy's ``@`` allocates a zero result
    and calls ``csr_matvecs``; the transpose is the same three arrays read as
    CSC, which ``csc_matvecs`` multiplies. This calls those kernels on the
    batch's arrays directly. Each result row sums its terms in stored order,
    and in the transpose each column's terms arrive in row order. The kernels
    trust the sizes they are given, so the sizes scipy checks are checked here.
    """
    n_rows, n_cols = batch.shape
    dense = np.ascontiguousarray(dense)
    if len(batch.indptr) != n_rows + 1 or len(batch.indices) != len(batch.data) or batch.indptr[-1] > len(batch.data):
        raise ValueError(f"CSR arrays do not fit shape {batch.shape}")
    kernel = _sparsetools.csr_matvecs
    if transpose:
        kernel, n_rows, n_cols = _sparsetools.csc_matvecs, n_cols, n_rows
    if dense.ndim != 2 or dense.shape[0] != n_cols:
        raise ValueError(f"cannot multiply {n_rows}x{n_cols} sparse by {dense.shape} dense")
    out = np.zeros((n_rows, dense.shape[1]), dtype=np.result_type(batch.data, dense))
    kernel(n_rows, n_cols, dense.shape[1], batch.indptr, batch.indices, batch.data, dense.ravel(), out.ravel())
    return out


def toy_forward_backward(
    params: ToyParams, features, labels: Sequence[int], owner: np.ndarray | None = None
) -> tuple[float | np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Mean softmax cross-entropy over a batch plus its analytic gradient.

    ``features`` is an (N, D) ``StepBatch`` of hashed n-gram counts, or any
    matrix scipy can make a CSR of (it is converted once, on entry);
    ``labels`` are class indices. Returns (loss, (grad_weights, grad_bias)).

    Several models step at once when ``owner`` gives each row's model index:
    ``params.bias`` is then one (K,) row per model, each model's rows are
    contiguous and in model order, and models own disjoint weight columns.
    Every model's batch is its own rows: the loss is one mean per model and
    grad_bias one row per model, each summed over that model's rows alone,
    so each model gets bit for bit the gradient a batch of its rows alone
    gets. A stacked call leaves the non-finite check to its caller, which
    fails only the model that turned non-finite.
    """
    if not isinstance(features, StepBatch):
        features = sparse.csr_matrix(features, dtype=float)
    y = np.asarray(labels, dtype=int)
    n = features.shape[0]
    if owner is None:
        if not (np.isfinite(params.weights).all() and np.isfinite(params.bias).all()):
            raise EncoderError("non-finite model parameters")
        owner = np.zeros(n, dtype=int)
    if n == 0:
        raise EncoderError("empty batch")
    bias = params.bias.reshape(-1, N_CLASSES)
    sizes = np.bincount(owner, minlength=len(bias))
    probs = _softmax(_csr_product(features, params.weights.T) + bias[owner])
    nll = -np.log(probs[np.arange(n), y])
    grad_out = probs
    grad_out[np.arange(n), y] -= 1.0
    grad_out /= sizes[owner, None]
    grad_weights = _csr_product(features, grad_out, transpose=True).T
    grad_bias = np.zeros_like(bias)
    np.add.at(grad_bias, owner, grad_out)  # row by row in order, as a sum over one model's rows
    # Each model's rows, led by a zero: reduceat starts a run from its first
    # item and adds the rest as one sum, so every run sums to 0 + its rows,
    # the order in which ``nll[rows].sum()`` adds them. A model without rows
    # sums its zero.
    led = np.zeros(n + len(bias))
    led[np.arange(n) + owner + 1] = nll
    runs = np.arange(len(bias)) + np.cumsum(sizes) - sizes
    loss = np.add.reduceat(led, runs) / np.maximum(sizes, 1)
    if params.bias.ndim == 1:
        return float(loss[0]), (grad_weights, grad_bias[0])
    return loss, (grad_weights, grad_bias)


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

        Model i owns block i of one weight matrix: one column per bucket any
        entry's rows touch. Each stacked step takes every model's batch of
        that step, in model order, from the feature memo's rows (one per
        distinct text), and reads and writes only the columns those batches
        touch. The matrix is
        stored transposed, one row of K weights per column, so a step
        gathers and scatters whole rows.
        """
        spec, hp, _ = entries[0]
        trains = [train for _, _, train in entries]
        features, text_rows = _memo_rows([row.norm_text for train in trains for row in train], spec.max_sequence_tokens)
        rows = np.split(text_rows, np.cumsum([len(train) for train in trains])[:-1])
        in_group = np.zeros(features.shape[0], dtype=bool)
        in_group[text_rows] = True
        touched = np.zeros(TOY_DEFAULT_BUCKETS, dtype=bool)
        touched[features.indices[np.repeat(in_group, np.diff(features.indptr))]] = True
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
        entry_of = np.empty(len(entries) * width, dtype=np.int32)  # scratch: one count of each column in a step
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
            # Shuffle every model once per epoch, then order the epoch's rows
            # by (step, model), so each stacked step is one contiguous slice.
            orders = [rngs[i].permutation(len(rows[i])) for i in alive]
            step = np.concatenate([np.arange(len(order)) // hp.batch_size for order in orders])
            by_step = np.argsort(step, kind="stable")
            epoch_rows = np.concatenate([rows[i][order] for i, order in zip(alive, orders)])[by_step]
            epoch_labels = np.concatenate([labels[i][order] for i, order in zip(alive, orders)])[by_step]
            owner = np.repeat(alive, [len(order) for order in orders])
            # Rows of each model in each step, one row of counts per step.
            step_sizes = np.bincount(step * len(entries) + owner, minlength=(step.max() + 1) * len(entries))
            step_sizes = step_sizes.reshape(-1, len(entries))
            owner = owner[by_step]
            bounds = np.concatenate([[0], np.cumsum(step_sizes.sum(axis=1))])
            running = np.zeros(len(entries))
            # A model that turns non-finite keeps stepping on its own columns
            # until the epoch ends; its NaNs reach no other model.
            with np.errstate(invalid="ignore"):
                for start, stop, sizes in zip(bounds[:-1], bounds[1:], step_sizes):
                    ids, own = epoch_rows[start:stop], owner[start:stop]
                    at, indptr = _gather_rows(features.indptr, ids)
                    # Number the step's distinct columns without sorting. Their
                    # order does not matter: each row still sums its counts in
                    # stored (bucket) order and each column its rows in row
                    # order, as in that model's own step.
                    keys = column[features.indices[at]] + np.repeat(own * width, np.diff(indptr))
                    entry_of[keys] = np.arange(len(keys))
                    entry = entry_of[keys]
                    is_first = entry == np.arange(len(keys))
                    batch_cols = keys[is_first]
                    local = (np.cumsum(is_first, dtype=np.int32) - 1)[entry]
                    batch = StepBatch(indptr, local, features.data[at], (len(ids), len(batch_cols)))
                    step_weights = np.take(weights_t, batch_cols, axis=0)
                    step_params.weights = step_weights.T
                    loss, (grad_w, grad_b) = toy_forward_backward(step_params, batch, epoch_labels[start:stop], own)
                    grad_w *= hp.learning_rate  # in place: the same products, no temporaries
                    step_weights -= grad_w.T
                    weight_rows[batch_cols] = step_weights.view(weight_rows.dtype).reshape(-1)
                    bias -= hp.learning_rate * grad_b
                    running += loss * sizes
            for i in alive:
                if not (np.isfinite(weights_t[i * width : (i + 1) * width]).all() and np.isfinite(bias[i]).all()):
                    failed[i] = EncoderError("non-finite model parameters after an epoch")
                    continue
                losses[i].append(float(running[i] / len(rows[i])))
                if on_epoch is not None:
                    on_epoch(i, model(i))
        return [failed.get(i) or model(i) for i in range(len(entries))]

    def predict_proba_array(self, model: TrainedModel, texts: Sequence[str]) -> np.ndarray:
        params = model.params
        if not isinstance(params, ToyParams):
            raise EncoderError("model was not trained by the toy backend")
        if not texts:
            return np.zeros((0, N_CLASSES))
        seen, rows = _memo_rows(texts, model.spec.max_sequence_tokens)
        features = seen[rows]
        # Buckets without a column read a trailing zero column: every count
        # still adds its (zero) term, so the sums are the dense model's.
        width = len(params.cols)
        column = np.full(TOY_DEFAULT_BUCKETS, width, dtype=np.int32)
        column[params.cols] = np.arange(width, dtype=np.int32)
        remapped = sparse.csr_matrix(
            (features.data, column[features.indices], features.indptr), shape=(len(texts), width + 1)
        )
        weights_t = np.vstack([params.weights.T, np.zeros(N_CLASSES)])
        return _softmax(np.asarray(remapped @ weights_t + params.bias))

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
        blob = np.load(directory / ARTIFACT_WEIGHTS)
        return _model_from_manifest(manifest, ToyParams(weights=blob["weights"], bias=blob["bias"]))


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

    def predict_proba_array(self, model: TrainedModel, texts: Sequence[str]) -> np.ndarray:
        torch, _ = self._runtime_importer()
        tokenizer, net = model.params
        if not texts:
            return np.zeros((0, N_CLASSES))
        net.eval()
        rows = []
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
        return np.concatenate(rows, axis=0)

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
        return _model_from_manifest(manifest, (tokenizer, net))


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


def predict_proba(
    model: TrainedModel, texts: Sequence[str], ids: Sequence[str] | None = None
) -> ProbabilityMatrix:
    """N x 5 class probabilities; an empty text list gives an empty matrix."""
    backend = get_backend(model.spec.backend_key)
    probs = backend.predict_proba_array(model, list(texts))
    if ids is None:
        ids = [str(i) for i in range(len(texts))]
    return ProbabilityMatrix(ids=list(ids), probs=probs)


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
    path = directory / ARTIFACT_MANIFEST
    if not path.exists():
        raise EncoderError(f"not a model artifact directory (no {ARTIFACT_MANIFEST}): {directory}")
    manifest = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line and "=" in line:
            key, value = line.split("=", 1)
            manifest[key] = value
    return manifest


def _model_from_manifest(manifest: dict[str, str], params) -> TrainedModel:
    spec = EncoderSpec(
        backend_key=manifest["backend"],
        max_sequence_tokens=int(manifest["max_sequence_tokens"]),
    )
    return TrainedModel(
        spec=spec,
        hyperparams=HyperParams.from_mapping(manifest),
        params=params,
        train_fingerprint=manifest["fingerprint"],
    )


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
