"""Trainable-classifier contract plus a deterministic reference backend.

Every backend registered here exposes the same two operations: fine-tune on
labelled rows (``fit``) and produce an N x 5 class-probability matrix
(``predict_proba``). The bundled ``toy`` backend is a linear softmax model
over hashed character 3-to-5-gram counts (2^16 buckets) trained with
mini-batch gradient descent: no heavyweight dependencies, bit-reproducible
under a fixed seed, and fast enough to exercise the whole pipeline in tests.

Its features are a pure function of the text. ``hashed_ngram_features``
hashes a batch in one numpy pass with a table-driven CRC-32 that is
bit-equal to ``zlib.crc32``, and ``cached_features`` keeps one read-only
CSR row per distinct text in a per-process memo keyed by (n_buckets,
ngram_sizes, max_tokens), so a process hashes each text once however many
folds, grid points and ensemble members use it. The memo costs about one
CSR row (~1 KiB for a tweet) per distinct text and is never evicted.

Three pretrained encoder slots are registered by name; their weights are
fetched by the run environment (never vendored), so using them requires the
``pretrained`` extra plus network or cache access to the weights.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy import sparse

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
    """Linear softmax parameters over hashed n-gram buckets."""

    weights: np.ndarray  # (K, D)
    bias: np.ndarray  # (K,)
    n_buckets: int = TOY_DEFAULT_BUCKETS
    ngram_sizes: tuple[int, ...] = TOY_NGRAM_SIZES


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


def hashed_ngram_features(
    texts: Sequence[str],
    n_buckets: int = TOY_DEFAULT_BUCKETS,
    ngram_sizes: Sequence[int] = TOY_NGRAM_SIZES,
    max_tokens: int | None = None,
) -> sparse.csr_matrix:
    """Hashed character n-gram counts per row, with sorted bucket ids per row.

    An n-gram's bucket is ``zlib.crc32`` of its UTF-8 bytes modulo
    ``n_buckets``, so features are stable across processes and platforms.
    Texts shorter than the smallest n-gram yield an all-zero row (predictions
    then come from the bias alone). One numpy pass hashes the whole batch: a
    table-driven CRC-32 (Sarwate 1988) runs over every n-gram's bytes at once,
    and each larger size extends the state of the next smaller one from the
    same start character, so each size costs only its extra characters.
    """
    if max_tokens is not None:
        texts = [_truncate(text, max_tokens) for text in texts]
    lengths = np.fromiter((len(text) for text in texts), dtype=np.int64, count=len(texts))
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
    for n in sorted(ngram_sizes):
        keep = start + n <= row_end
        start, row, row_end, crc = start[keep], row[keep], row_end[keep], crc[keep]
        first, stop = char_bytes[start + done], char_bytes[start + n]
        for offset in range(int((stop - first).max(initial=0))):
            at = first + offset
            step = _CRC32_TABLE[(crc ^ data.take(at, mode="clip")) & 0xFF] ^ (crc >> 8)
            crc = np.where(at < stop, step, crc)
        done = n
        keys.append(row * n_buckets + (crc ^ 0xFFFFFFFF).astype(np.int64) % n_buckets)
    cells, counts = np.unique(np.concatenate(keys), return_counts=True)
    rows = cells // n_buckets
    indptr = np.zeros(len(texts) + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=len(texts)), out=indptr[1:])
    return sparse.csr_matrix(
        (counts.astype(float), cells - rows * n_buckets, indptr),
        shape=(len(texts), n_buckets),
    )


# Per-process feature memo: (n_buckets, ngram_sizes, max_tokens) -> (row of each
# text seen so far, hashed rows of those texts). Features are a pure function
# of the text, so folds, grid points and ensemble members share one hashing of
# each distinct text. The stored arrays are read-only; callers get copies.
_FEATURE_MEMO: dict[tuple, tuple[dict[str, int], sparse.csr_matrix]] = {}


def cached_features(
    texts: Sequence[str], n_buckets: int, ngram_sizes: Sequence[int], max_tokens: int | None
) -> sparse.csr_matrix:
    """``hashed_ngram_features`` of ``texts``, hashing only texts this process has not seen."""
    key = (n_buckets, tuple(ngram_sizes), max_tokens)
    row_of, seen = _FEATURE_MEMO.get(key) or ({}, sparse.csr_matrix((0, n_buckets)))
    new = [text for text in dict.fromkeys(texts) if text not in row_of]
    if new:
        block = hashed_ngram_features(new, n_buckets, ngram_sizes, max_tokens=max_tokens)
        row_of.update(zip(new, range(len(row_of), len(row_of) + len(new))))
        seen = sparse.vstack([seen, block], format="csr")
        for array in (seen.data, seen.indices, seen.indptr):
            array.flags.writeable = False
        _FEATURE_MEMO[key] = (row_of, seen)
    return seen[np.fromiter((row_of[text] for text in texts), dtype=np.int64, count=len(texts))]


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def toy_forward_backward(
    params: ToyParams, features, labels: Sequence[int]
) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Mean softmax cross-entropy over a batch plus its analytic gradient.

    ``features`` is an (N, D) matrix (dense or CSR) of hashed n-gram counts;
    ``labels`` are class indices. Returns (loss, (grad_weights, grad_bias)).
    """
    if not (np.isfinite(params.weights).all() and np.isfinite(params.bias).all()):
        raise EncoderError("non-finite model parameters")
    y = np.asarray(labels, dtype=int)
    n = features.shape[0]
    if n == 0:
        raise EncoderError("empty batch")
    logits = features @ params.weights.T + params.bias
    probs = _softmax(np.asarray(logits))
    loss = float(-np.log(probs[np.arange(n), y]).mean())
    grad_out = probs
    grad_out[np.arange(n), y] -= 1.0
    grad_out /= n
    grad_weights = np.asarray((features.T @ grad_out).T)
    grad_bias = grad_out.sum(axis=0)
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


class ToyBackend:
    """Hashed character n-gram bag-of-features + linear softmax head."""

    key = TOY_BACKEND_KEY
    token_limit = DEFAULT_MAX_TOKENS

    def fit(
        self, spec: EncoderSpec, hp: HyperParams, train: Sequence[LabeledText], on_epoch: EpochHook | None = None
    ) -> TrainedModel:
        texts = [row.norm_text or "" for row in train]
        y = np.asarray([LABEL_INDEX[row.label] for row in train], dtype=int)
        params = ToyParams(weights=np.zeros((N_CLASSES, TOY_DEFAULT_BUCKETS)), bias=np.zeros(N_CLASSES))
        features = cached_features(texts, params.n_buckets, params.ngram_sizes, spec.max_sequence_tokens)
        rng = np.random.default_rng(hp.seed)
        n = features.shape[0]
        losses = []
        for _ in range(hp.epochs):
            order = rng.permutation(n)
            # Shuffle once per epoch, so each batch is a contiguous run of CSR rows.
            shuffled, y_shuffled = features[order], y[order]
            running = 0.0
            for start in range(0, n, hp.batch_size):
                stop = min(start + hp.batch_size, n)
                lo, hi = shuffled.indptr[start], shuffled.indptr[stop]
                # A step reads and writes only the buckets its batch touches;
                # with no regularizer every other column's update is zero.
                # np.unique keeps bucket order, so each row and column sums in
                # the same order as a dense step and the result is bit-identical.
                cols, local = np.unique(shuffled.indices[lo:hi], return_inverse=True)
                batch = sparse.csr_matrix(
                    (shuffled.data[lo:hi], local, shuffled.indptr[start : stop + 1] - lo),
                    shape=(stop - start, len(cols)),
                )
                touched = replace(params, weights=params.weights[:, cols])
                loss, (grad_w, grad_b) = toy_forward_backward(touched, batch, y_shuffled[start:stop])
                params.weights[:, cols] = touched.weights - hp.learning_rate * grad_w
                params.bias -= hp.learning_rate * grad_b
                running += loss * (stop - start)
            if not (np.isfinite(params.weights).all() and np.isfinite(params.bias).all()):
                raise EncoderError("non-finite model parameters after an epoch")
            losses.append(running / n)
            if on_epoch is not None:
                on_epoch(_trained_model(spec, hp, train, params, losses))
        return _trained_model(spec, hp, train, params, losses)

    def predict_proba_array(self, model: TrainedModel, texts: Sequence[str]) -> np.ndarray:
        params = model.params
        if not isinstance(params, ToyParams):
            raise EncoderError("model was not trained by the toy backend")
        if not texts:
            return np.zeros((0, N_CLASSES))
        features = cached_features(
            texts, params.n_buckets, params.ngram_sizes, model.spec.max_sequence_tokens
        )
        return _softmax(np.asarray(features @ params.weights.T + params.bias))

    def save(self, model: TrainedModel, directory: Path) -> None:
        params = model.params
        with atomic_open(directory / ARTIFACT_WEIGHTS, "wb") as fh:  # a file object: savez adds no ".npz"
            np.savez(fh, weights=params.weights, bias=params.bias)
        _write_manifest(
            directory,
            model,
            extra={
                "n_buckets": str(params.n_buckets),
                "ngram_sizes": ",".join(str(n) for n in params.ngram_sizes),
            },
        )

    def load(self, directory: Path, manifest: dict[str, str]) -> TrainedModel:
        blob = np.load(directory / ARTIFACT_WEIGHTS)
        params = ToyParams(
            weights=blob["weights"],
            bias=blob["bias"],
            n_buckets=int(manifest["n_buckets"]),
            ngram_sizes=tuple(int(n) for n in manifest["ngram_sizes"].split(",")),
        )
        return _model_from_manifest(manifest, params)


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

    def fit(
        self, spec: EncoderSpec, hp: HyperParams, train: Sequence[LabeledText], on_epoch: EpochHook | None = None
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


_REGISTRY: dict[str, object] = {}


def register_backend(backend) -> None:
    _REGISTRY[backend.key] = backend


def backend_keys() -> list[str]:
    return sorted(_REGISTRY)


def get_backend(key: str):
    try:
        return _REGISTRY[key]
    except KeyError:
        raise EncoderError(
            f"unknown backend key {key!r}; registered: {', '.join(backend_keys())}"
        ) from None


register_backend(ToyBackend())
for _key, _model_id in PRETRAINED_MODEL_IDS.items():
    register_backend(PretrainedBackend(_key, _model_id))


def fit(
    spec: EncoderSpec, hp: HyperParams, train: Sequence[LabeledText], on_epoch: EpochHook | None = None
) -> TrainedModel:
    """Fine-tune the spec'd backend on normalized rows covering >= 2 classes.

    ``on_epoch``, if given, sees the model after every epoch. That model
    shares the live parameters, which the next epoch overwrites: use it
    inside the call, do not keep it.
    """
    backend = get_backend(spec.backend_key)
    _validate_training_rows(train)
    return backend.fit(spec, hp, list(train), on_epoch=on_epoch)


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
