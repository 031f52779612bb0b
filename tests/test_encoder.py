"""Encoder contract: toy backend training, gradients, determinism, persistence."""

from __future__ import annotations

import contextlib
import dataclasses
import importlib.machinery
import math
import sys
import threading
import tracemalloc
import warnings
import zlib
from pathlib import Path
from typing import Sequence
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from arahate import encoder
from arahate.corpus import LabeledText
from arahate.encoder import (
    BackendNotInstalledError,
    BackendWeightsError,
    EncoderError,
    EncoderSpec,
    HyperParams,
    PretrainedBackend,
    TOY_DEFAULT_BUCKETS,
    TOY_NGRAM_SIZES,
    ToyParams,
    hashed_ngram_features,
    load_model,
    save_model,
    toy_forward_backward,
)
from arahate.labels import LABEL_INDEX, LABEL_ORDER, Label

from conftest import as_csr, class_text, class_word, make_separable_corpus, one_model_step, step_batch

TOY = EncoderSpec("toy")
HP = HyperParams(epochs=5, batch_size=8, learning_rate=0.1, seed=1)


def random_batch(rng, n_rows=5, n_buckets=17):
    features = np.abs(rng.normal(size=(n_rows, n_buckets)))
    labels = rng.integers(0, 5, size=n_rows)
    return features, labels


def random_params(rng, n_buckets=17):
    return ToyParams(weights=rng.normal(size=(5, n_buckets)), bias=rng.normal(size=5))


def finite_difference(params: ToyParams, features, labels, h=1e-6):
    grads = []
    for arr in (params.weights, params.bias):
        grad = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            original = arr[idx]
            arr[idx] = original + h
            up, _ = one_model_step(params, features, labels)
            arr[idx] = original - h
            down, _ = one_model_step(params, features, labels)
            arr[idx] = original
            grad[idx] = (up - down) / (2 * h)
        grads.append(grad)
    return tuple(grads)


def max_relative_error(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-4)
        worst = max(worst, float((np.abs(a - n) / denom).max()))
    return worst


class TestHyperParams:
    @pytest.mark.parametrize(
        "epochs,batch,lr",
        [(4, 16, 1e-5), (2, 8, 1e-5), (3, 8, 1e-5)],  # published optima roster
    )
    def test_published_optima_are_valid(self, epochs, batch, lr):
        hp = HyperParams(epochs=epochs, batch_size=batch, learning_rate=lr)
        assert hp.epochs == epochs

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": 0, "batch_size": 8, "learning_rate": 1e-5},
            {"epochs": 1, "batch_size": 0, "learning_rate": 1e-5},
            {"epochs": 1, "batch_size": 8, "learning_rate": 0.0},
            {"epochs": 1, "batch_size": 8, "learning_rate": -1e-5},
            {"epochs": 1, "batch_size": 8, "learning_rate": math.inf},
            {"epochs": 1, "batch_size": 8, "learning_rate": 1e-5, "seed": -1},  # numpy's generators take none
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(EncoderError):
            HyperParams(**kwargs)

    def test_member_seeds_count_up_from_the_shared_seed(self):
        entries = [
            {"key": "toy"},
            {"key": "toy"},
            {"key": "toy", "hyperparams": {"seed": 40}},
            {"key": "toy", "hyperparams": {"epochs": 3}},
        ]
        members = encoder.members_from_entries(entries, 7, {"epochs": 5, "seed": 3})
        assert [hp.seed for _, hp in members] == [3, 4, 40, 6]
        assert [hp.epochs for _, hp in members] == [5, 5, 2, 3]


class TestEncoderSpec:
    def test_unknown_backend_rejected(self):
        with pytest.raises(EncoderError, match="unknown backend"):
            EncoderSpec("no-such-backend")

    def test_max_tokens_capped_at_backend_limit(self):
        assert EncoderSpec("toy", max_sequence_tokens=10_000).max_sequence_tokens == 512

    def test_registry_lists_roster(self):
        keys = encoder._BACKENDS
        assert "toy" in keys
        assert "bert-base-arabertv02-twitter" in keys
        assert "bert-large-arabertv02-twitter" in keys
        assert "MARBERT" in keys


class TestToyForwardBackward:
    def test_zero_params_uniform_loss(self):
        rng = np.random.default_rng(0)
        features, labels = random_batch(rng)
        params = ToyParams(weights=np.zeros((5, 17)), bias=np.zeros(5))
        loss, _ = one_model_step(params, features, labels)
        assert loss == pytest.approx(np.log(5), abs=1e-12)

    def test_perfect_prediction_zero_loss(self):
        params = ToyParams(weights=np.zeros((5, 3)), bias=np.array([1e4, 0, 0, 0, 0.0]))
        features = np.zeros((1, 3))
        loss, _ = one_model_step(params, features, [0])
        assert loss == 0.0

    def test_gradient_matches_finite_differences(self):
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            params = random_params(rng)
            features, labels = random_batch(rng)
            _, analytic = one_model_step(params, features, labels)
            numeric = finite_difference(params, features, labels)
            worst = max(worst, max_relative_error(analytic, numeric))
        assert worst < 1e-4

    def test_gradient_matches_on_sparse_features(self):
        rng = np.random.default_rng(99)
        texts = ["".join(rng.choice(list("ابجدهو"), size=8)) for _ in range(4)]
        features = as_csr(hashed_ngram_features(texts))
        features = features[:, np.unique(features.indices)].toarray()  # the buckets the texts touch
        labels = rng.integers(0, 5, size=4)
        params = random_params(rng, features.shape[1])
        _, analytic = one_model_step(params, features, labels)
        numeric = finite_difference(params, features, labels)
        assert max_relative_error(analytic, numeric) < 1e-4


@st.composite
def step_batches(draw):
    """A StepBatch with empty rows, untouched columns and rows in any column order, plus 1-20 vectors."""
    n_rows, n_cols = draw(st.integers(1, 12)), draw(st.integers(1, 30))
    rows = [draw(st.lists(st.integers(0, n_cols - 1), unique=True, max_size=8)) for _ in range(n_rows)]
    index_dtype = draw(st.sampled_from([np.int32, np.int64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    indptr = np.cumsum([0] + [len(row) for row in rows]).astype(index_dtype)
    indices = np.asarray([col for row in rows for col in row], dtype=index_dtype)
    # Magnitudes over 16 decades, so a sum in another order would round differently.
    data = rng.normal(size=len(indices)) * 10.0 ** rng.integers(-8, 8, size=len(indices))
    n_vecs = draw(st.integers(1, 20))
    x, g = rng.normal(size=(n_cols, n_vecs)), rng.normal(size=(n_rows, n_vecs))
    return encoder.StepBatch(indptr, indices, data, (n_rows, n_cols)), x, g


class TestCsrProduct:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(step_batches())
    @example(  # a single row with one entry, int32 indptr, one vector
        (encoder.StepBatch(np.array([0, 1], np.int32), np.array([2], np.int32), np.array([3.0]), (1, 4)),
         np.arange(4.0).reshape(4, 1), np.ones((1, 1)))
    )
    def test_equals_scipy_matmul_bit_for_bit(self, case):
        batch, x, g = case
        matrix = as_csr(batch)
        for actual, expected in (
            (encoder._csr_product(batch, x), matrix @ x),
            (encoder._csr_product(batch, g, transpose=True), matrix.T @ g),
        ):
            assert actual.shape == expected.shape and actual.dtype == expected.dtype
            assert actual.tobytes() == np.ascontiguousarray(expected).tobytes()

    @pytest.mark.parametrize(
        "indptr, dense_rows, transpose",
        [([0, 1], 4, False), ([0, 1, 1], 3, False), ([0, 1, 1], 4, True)],
        ids=["indptr-too-short", "dense-rows-off", "transposed-dense-rows-off"],
    )
    def test_sizes_that_do_not_fit_raise(self, indptr, dense_rows, transpose):
        # The kernels would read past the arrays; scipy's @ raises ValueError here too.
        batch = encoder.StepBatch(np.array(indptr, np.int32), np.array([2], np.int32), np.array([3.0]), (2, 4))
        with pytest.raises(ValueError):
            encoder._csr_product(batch, np.ones((dense_rows, 5)), transpose=transpose)

    def test_index_dtypes_that_differ_raise(self):
        # The kernels are templated on one index dtype.
        batch = encoder.StepBatch(np.array([0, 1], np.int64), np.array([2], np.int32), np.array([3.0]), (1, 4))
        with pytest.raises(ValueError, match="indptr is int64 but indices are int32"):
            encoder._csr_product(batch, np.ones((4, 5)))


@st.composite
def csr_and_row_ids(draw):
    """A CSR with empty rows and unsorted columns, and ids to take: repeated, unsorted, or none.

    Past 2^31 columns the index arrays are int64, below it int32, as scipy stores them.
    """
    n_rows, n_cols = draw(st.integers(1, 10)), draw(st.sampled_from([30, 2**31 + 30]))
    rows = [draw(st.lists(st.integers(0, n_cols - 1), unique=True, max_size=6)) for _ in range(n_rows)]
    index = np.int64 if n_cols > 2**31 else np.int32
    indptr = np.cumsum([0] + [len(row) for row in rows]).astype(index)
    indices = np.asarray([col for row in rows for col in row], dtype=index)
    data = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=len(indices))
    batch = encoder.StepBatch(indptr, indices, data, (n_rows, n_cols))
    return batch, np.asarray(draw(st.lists(st.integers(0, n_rows - 1), max_size=15)), dtype=np.int64)


class TestTakeRows:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(csr_and_row_ids())
    def test_equals_scipy_row_indexing_bit_for_bit(self, case):
        batch, ids = case
        matrix = as_csr(batch)
        assert matrix.indices.dtype == batch.indices.dtype
        taken, expected = encoder._take_rows(batch, ids), matrix[ids]
        assert taken.shape == expected.shape
        for name in ("indptr", "indices", "data"):
            actual, want = getattr(taken, name), getattr(expected, name)
            assert actual.dtype == want.dtype and actual.tobytes() == want.tobytes(), name

    def test_offsets_past_int32_widen_to_int64(self):
        # An epoch reads a row once per model, so its entries can outgrow an int32 memo's.
        big = encoder.StepBatch(np.array([0, 2**30], np.int32), None, None, (1, TOY_DEFAULT_BUCKETS))
        assert encoder._row_spans(big, [0])[2].dtype == np.int32
        ids, lengths, offsets = encoder._row_spans(big, [0, 0])
        assert ids.dtype == lengths.dtype == np.int32
        assert offsets.dtype == np.int64 and offsets.tolist() == [0, 2**30, 2**31]

    @pytest.mark.parametrize("bad_id", [-1, 3])
    def test_row_id_out_of_range_raises(self, bad_id):
        # The kernel would read outside the matrix's arrays.
        with pytest.raises(IndexError):
            encoder._take_rows(step_batch(np.eye(3)), np.array([0, bad_id]))


class TestSparsetoolsLoader:
    """The kernels load from scipy's extension file, and from ``scipy.sparse`` when that file does not load."""

    @staticmethod
    def kernel_outputs(module, index) -> list[bytes]:
        rng = np.random.default_rng(5)
        matrix = sparse.random(7, 40, density=0.2, format="csr", random_state=6)
        indptr, indices = matrix.indptr.astype(index), matrix.indices.astype(index)
        ids = np.array([3, 0, 6, 3], dtype=index)
        lengths = indptr[ids + 1] - indptr[ids]
        taken_indices, taken_data = np.empty(lengths.sum(), dtype=index), np.empty(lengths.sum())
        module.csr_row_index(len(ids), ids, indptr, indices, matrix.data, taken_indices, taken_data)
        x, g = rng.normal(size=(40, 3)), rng.normal(size=(7, 3))
        product, transposed = np.zeros((7, 3)), np.zeros((40, 3))
        module.csr_matvecs(7, 40, 3, indptr, indices, matrix.data, x.ravel(), product.ravel())
        module.csc_matvecs(40, 7, 3, indptr, indices, matrix.data, g.ravel(), transposed.ravel())
        return [taken_indices.tobytes(), taken_data.tobytes(), product.tobytes(), transposed.tobytes()]

    @pytest.mark.parametrize("index", [np.int32, np.int64])
    def test_direct_load_computes_what_scipy_sparse_does(self, monkeypatch, index):
        from scipy.sparse import _sparsetools

        # With scipy.sparse made unimportable, only the direct load can succeed.
        monkeypatch.setitem(sys.modules, "scipy.sparse", None)
        direct = encoder._load_sparsetools()
        assert direct.__name__ == "scipy.sparse._sparsetools"
        assert self.kernel_outputs(direct, index) == self.kernel_outputs(_sparsetools, index)

    def test_falls_back_when_no_file_is_found(self, monkeypatch):
        from scipy.sparse import _sparsetools

        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".no-such-suffix"])
        assert encoder._load_sparsetools() is _sparsetools

    def test_falls_back_when_the_file_does_not_load(self, monkeypatch):
        from scipy.sparse import _sparsetools

        attempts = []

        def refuse(loader, spec):
            attempts.append(loader.path)
            raise ImportError("refused")

        monkeypatch.setattr(importlib.machinery.ExtensionFileLoader, "create_module", refuse)
        assert encoder._load_sparsetools() is _sparsetools
        assert len(attempts) == 1 and Path(attempts[0]).parent.name == "sparse"


# Run lengths on both sides of numpy's pairwise-summation blocks (8 and 128 items).
RUN_LENGTHS = [0, 1, 7, 8, 9, 127, 128, 129, 300]


class TestRunSums:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        sizes=st.lists(st.sampled_from(RUN_LENGTHS), min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
        zeros=st.sampled_from([0.0, 0.3, 1.0]),
    )
    @example(sizes=RUN_LENGTHS, seed=0, zeros=1.0)
    def test_each_run_sums_as_numpy_sums_it(self, sizes, seed, zeros):
        # Signed magnitudes over 16 decades, a share of them -0.0.
        rng = np.random.default_rng(seed)
        values = rng.choice([-1.0, 1.0], sum(sizes)) * 10.0 ** rng.uniform(-8, 8, sum(sizes))
        values[rng.random(len(values)) < zeros] = -0.0
        sums = encoder._run_sums(values, np.asarray(sizes))
        runs = [values[end - size : end] for size, end in zip(sizes, np.cumsum(sizes))]
        assert [s.tobytes() for s in sums] == [run.sum().tobytes() for run in runs]


def per_ngram_features(texts, max_tokens=None):
    """The per-n-gram loop featurizer, kept as the oracle for the vectorized one."""
    indptr = [0]
    indices: list[int] = []
    data: list[float] = []
    for text in texts:
        if max_tokens is not None and len(text.split()) > max_tokens:
            text = " ".join(text.split()[:max_tokens])
        counts: dict[int, int] = {}
        for n in TOY_NGRAM_SIZES:
            for i in range(len(text) - n + 1):
                bucket = zlib.crc32(text[i : i + n].encode("utf-8")) % TOY_DEFAULT_BUCKETS
                counts[bucket] = counts.get(bucket, 0) + 1
        for bucket in sorted(counts):
            indices.append(bucket)
            data.append(float(counts[bucket]))
        indptr.append(len(indices))
    return sparse.csr_matrix(
        (np.asarray(data, dtype=float), np.asarray(indices), np.asarray(indptr)),
        shape=(len(texts), TOY_DEFAULT_BUCKETS),
    )


def assert_same_csr(actual, expected):
    assert actual.shape == expected.shape
    assert np.array_equal(actual.indptr, expected.indptr)
    assert np.array_equal(actual.indices, expected.indices)
    assert np.array_equal(actual.data, expected.data)


# Arbitrary Unicode plus spaces and multi-byte characters, so truncation and
# UTF-8 character boundaries are exercised often.
TEXTS = st.lists(
    st.text(st.one_of(st.characters(codec="utf-8"), st.sampled_from(" اب😂"))), max_size=8
)
# Empty, sub-trigram, 4-byte emoji, joiner and boundary code points.
EDGE_TEXTS = ["", "ab", "abc", "😂😍🔥", "a😂b\u200dc", "نص عربي", "\x00\x7f\x80\uffff"]


@pytest.fixture
def fresh_memo(monkeypatch):
    monkeypatch.setattr(encoder, "_FEATURE_MEMO", {})


# Emoji, among them a flag whose tag characters run to U+E007F, and BMP
# letters standing in for their code points in a text of equal length.
EMOJI = ["😂", "🔥", "\U0001F3F4\U000E0067\U000E0062\U000E0065\U000E006E\U000E0067\U000E007F"]
BMP_TWIN = str.maketrans(dict(zip("😂🔥\U0001F3F4\U000E0067\U000E0062\U000E0065\U000E006E\U000E007F", "ءآأgbenz")))


def tweet_length_texts(chars: int, extra: Sequence[str] = ()) -> list[str]:
    """Random texts of 40 to 139 Arabic letters or ``extra`` strings, at least ``chars`` characters in all."""
    rng = np.random.default_rng(13)
    letters = np.array(list("ابتثجحخدذرزسشصضطظعغفقكلمنهوي ") + list(extra))
    texts, total = [], 0
    while total < chars:
        texts.append("".join(rng.choice(letters, size=int(rng.integers(40, 140)))))
        total += len(texts[-1])
    return texts


def features_nbytes(features) -> int:
    return features.data.nbytes + features.indices.nbytes + features.indptr.nbytes


@pytest.fixture
def hashed_texts(monkeypatch, fresh_memo):
    """Every text handed to hashed_ngram_features, in call order."""
    seen: list[str] = []

    def spy(texts, *args, **kwargs):
        seen.extend(texts)
        return hashed_ngram_features(texts, *args, **kwargs)

    monkeypatch.setattr(encoder, "hashed_ngram_features", spy)
    return seen


class TestFeaturization:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(texts=TEXTS, max_tokens=st.one_of(st.none(), st.integers(1, 5)))
    @example(texts=EDGE_TEXTS, max_tokens=None)
    @example(texts=EDGE_TEXTS, max_tokens=2)
    def test_matches_per_ngram_loop(self, texts, max_tokens):
        assert_same_csr(hashed_ngram_features(texts, max_tokens), per_ngram_features(texts, max_tokens))

    @pytest.mark.parametrize("block_chars", [1, 3, 7])
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(texts=TEXTS, max_tokens=st.one_of(st.none(), st.integers(1, 5)))
    @example(texts=EDGE_TEXTS, max_tokens=None)
    @example(texts=EDGE_TEXTS, max_tokens=2)
    # Texts longer than every block, and empty texts before, between and after them.
    @example(texts=["", "", "abcdefgh", "", "a", "bc", "", "😂😍🔥 نص", ""], max_tokens=None)
    @example(texts=["", "", "abcdefgh", "", "a", "bc", "", "😂😍🔥 نص", ""], max_tokens=1)
    def test_blocks_match_per_ngram_loop(self, block_chars, texts, max_tokens):
        with mock.patch.object(encoder, "_HASH_BLOCK_CHARS", block_chars):
            assert_same_csr(hashed_ngram_features(texts, max_tokens), per_ngram_features(texts, max_tokens))

    def test_peak_memory_bounded_by_blocks(self):
        # Tweet-length Arabic texts, without and with emoji, filling at least
        # four blocks: hashing them must not hold much more than the matrix it returns.
        for extra in ((), EMOJI):
            texts = tweet_length_texts(4 * encoder._HASH_BLOCK_CHARS, extra)
            tracemalloc.start()
            try:
                features = hashed_ngram_features(texts)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert_same_csr(as_csr(features)[-3:], per_ngram_features(texts[-3:]))
            assert peak < 3 * features_nbytes(features), extra

    def test_astral_code_points_take_no_more_block_memory(self):
        # A table sized by the largest code point would take megabytes for
        # the flag's U+E007F; BMP letters in its place bound the block's peak.
        texts = tweet_length_texts(encoder._HASH_BLOCK_CHARS, EMOJI)[:-1]
        twin = [text.translate(BMP_TWIN) for text in texts]
        assert list(map(len, twin)) == list(map(len, texts)) and max(map(max, twin)) < "\U00010000"
        peaks = []
        tracemalloc.start()
        try:
            for batch in (texts, twin):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                encoder._hash_block(batch, encoder._char_lengths(batch))
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        assert peaks[0] < peaks[1] + 2**20

    def test_more_texts_than_a_cell_key_holds(self):
        # 70,000 empty texts make one block by characters; rows past 2^16 need a second block.
        texts = [""] * 70_000 + ["نص عربي", "😂😍🔥 نص", "abc"]
        assert_same_csr(hashed_ngram_features(texts), per_ngram_features(texts))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        lengths=st.lists(st.integers(0, 9), max_size=30),
        block_chars=st.integers(1, 12),
        block_texts=st.integers(1, 6),
    )
    def test_blocks_are_the_longest_runs_within_both_limits(self, lengths, block_chars, block_texts):
        with mock.patch.multiple(encoder, _HASH_BLOCK_CHARS=block_chars, _HASH_BLOCK_TEXTS=block_texts):
            blocks = list(encoder._blocks(np.array(lengths, dtype=np.int64)))
        ends = [0] + [hi for _, hi in blocks]
        assert [lo for lo, _ in blocks] == ends[:-1] and ends[-1] == len(lengths)
        for lo, hi in blocks:
            fits = hi - lo <= block_texts and sum(lengths[lo:hi]) <= block_chars
            assert fits or hi - lo == 1
            longer = hi < len(lengths) and hi + 1 - lo <= block_texts and sum(lengths[lo : hi + 1]) <= block_chars
            assert not longer

    def test_blocks_hold_at_most_a_cell_key_of_texts(self):
        assert encoder._HASH_BLOCK_TEXTS * TOY_DEFAULT_BUCKETS == 2**32
        blocks = list(encoder._blocks(np.zeros(70_000, dtype=np.int64)))
        assert blocks == [(0, 2**16), (2**16, 70_000)]

    def test_memo_rows_match_oracle(self, fresh_memo):
        texts = ["نص عربي قصير", "اب", "نص عربي قصير", "كلمه " * 6, "اخر"]
        seen, rows = encoder._memo_rows([], None)
        assert encoder._take_rows(seen, rows).shape == (0, TOY_DEFAULT_BUCKETS)
        for max_tokens in (None, 2, None, 2):
            seen, rows = encoder._memo_rows(texts, max_tokens)
            features = encoder._take_rows(seen, rows)
            assert_same_csr(features, per_ngram_features(texts, max_tokens))
            assert not any(array.flags.writeable for array in seen[:3]), max_tokens
        assert features.data.flags.writeable

    @pytest.mark.parametrize("int32_entries", [np.iinfo(np.int32).max, 300])
    def test_memo_fills_keep_earlier_arrays(self, monkeypatch, fresh_memo, int32_entries):
        # Each fill stores new read-only arrays; a low int32 limit promotes the index arrays.
        monkeypatch.setattr(encoder, "_INT32_ENTRIES", int32_entries)
        rng = np.random.default_rng(3)
        row_of, earlier = {}, []
        for size in (1, 2, 3, 5, 8, 13):
            batch = [class_text(LABEL_ORDER[i % 5], rng) for i in range(size)] + ["", "اب"] + list(row_of)[:2]
            view, rows = encoder._memo_rows(batch, None)
            for text, row in zip(batch, rows):
                assert row_of.setdefault(text, row) == row
            assert_same_csr(encoder._take_rows(view, list(row_of.values())), per_ngram_features(list(row_of)))
            for array in view[:3]:
                with pytest.raises(ValueError, match="read-only"):
                    array[:1] = 0
            for old, values in earlier:
                assert all(np.array_equal(array, value) for array, value in zip(old[:3], values))
            earlier.append((view, [array.copy() for array in view[:3]]))
        assert sorted(row_of.values()) == list(range(len(row_of)))
        index = np.int32 if len(view.data) <= int32_entries else np.int64
        assert view.indptr.dtype == view.indices.dtype == index
        assert earlier[0][0].indptr.dtype == np.int32

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(text=st.text(st.sampled_from(" \t\n\u3000\xa0ab"), max_size=14), max_tokens=st.integers(1, 6))
    # The tightest texts either side of the bound: 2k - 1 characters holding k tokens.
    @example(text="a b", max_tokens=1)
    @example(text="a\u3000b\xa0a", max_tokens=2)
    @example(text="a\tb\na", max_tokens=3)
    def test_truncate_matches_the_token_split(self, text, max_tokens):
        tokens = text.split()
        expected = text if len(tokens) <= max_tokens else " ".join(tokens[:max_tokens])
        assert encoder._truncate(text, max_tokens) == expected

    def test_each_distinct_text_hashed_once_across_fits(self, hashed_texts):
        rows = corpus_with_short_rows()
        rows = rows + rows[:5]
        model = encoder.fit(TOY, HP, rows)
        encoder.fit(TOY, HyperParams(2, 4, 0.1, seed=9), rows)
        encoder.predict_proba(model, [row.norm_text for row in rows[:10]])
        assert sorted(hashed_texts) == sorted({row.norm_text for row in rows})

    def test_deterministic_across_calls(self):
        texts = ["نص عربي قصير", "اخر"]
        a = as_csr(hashed_ngram_features(texts)).toarray()
        b = as_csr(hashed_ngram_features(texts)).toarray()
        assert np.array_equal(a, b)

    def test_short_text_zero_row(self):
        row = as_csr(hashed_ngram_features(["اب"])).toarray()
        assert row.sum() == 0

    def test_colliding_ngrams_share_a_cell(self):
        # The trigrams "ازي" and "ذبا" both hash to bucket 54023.
        features = hashed_ngram_features(["ازي ذبا"])
        assert as_csr(features)[0, 54023] == 2.0
        assert_same_csr(features, per_ngram_features(["ازي ذبا"]))

    def test_truncation_limits_tokens(self):
        long_text = " ".join(["كلمه"] * 50)
        short = hashed_ngram_features([" ".join(["كلمه"] * 3)], max_tokens=3)
        truncated = hashed_ngram_features([long_text], max_tokens=3)
        assert np.array_equal(as_csr(short).toarray(), as_csr(truncated).toarray())


class TestFit:
    def test_training_loss_strictly_decreases(self):
        rows = make_separable_corpus(n_per_class=20, seed=1)
        model = encoder.fit(TOY, HP, rows)
        assert len(model.epoch_losses) == HP.epochs
        assert all(a > b for a, b in zip(model.epoch_losses, model.epoch_losses[1:]))

    def test_single_class_training_set_rejected(self):
        rows = [
            row for row in make_separable_corpus(n_per_class=5, seed=2) if row.label == Label.NH
        ]
        with pytest.raises(EncoderError, match="single class"):
            encoder.fit(TOY, HP, rows)

    def test_unnormalized_rows_rejected(self):
        rows = make_separable_corpus(n_per_class=3, seed=3, normalized=False)
        with pytest.raises(EncoderError, match="normalize"):
            encoder.fit(TOY, HP, rows)

    def test_seed_determinism(self):
        rows = make_separable_corpus(n_per_class=10, seed=4)
        m1 = encoder.fit(TOY, HP, rows)
        m2 = encoder.fit(TOY, HP, rows)
        assert m1.train_fingerprint == m2.train_fingerprint
        texts = [row.norm_text for row in rows[:7]]
        assert np.array_equal(
            encoder.predict_proba(m1, texts).probs, encoder.predict_proba(m2, texts).probs
        )

    def test_different_seed_changes_fingerprint(self):
        rows = make_separable_corpus(n_per_class=10, seed=4)
        m1 = encoder.fit(TOY, HP, rows)
        m2 = encoder.fit(TOY, HyperParams(5, 8, 0.1, seed=2), rows)
        assert m1.train_fingerprint != m2.train_fingerprint


def dense_reference_fit(hp: HyperParams, rows):
    """The dense mini-batch loop: every step reads and updates all buckets.

    Logits and gradients come from scipy's public ``@`` on the full-width
    feature rows, not from ``toy_forward_backward``. The bias gradient adds
    the batch's rows one by one, in row order, as a model's own step does.
    """
    features = as_csr(hashed_ngram_features([row.norm_text for row in rows], max_tokens=TOY.max_sequence_tokens))
    y = np.asarray([LABEL_INDEX[row.label] for row in rows])
    weights, bias = np.zeros((5, features.shape[1])), np.zeros(5)
    rng = np.random.default_rng(hp.seed)
    n = len(rows)
    losses = []
    for _ in range(hp.epochs):
        order = rng.permutation(n)
        running = 0.0
        for start in range(0, n, hp.batch_size):
            batch = order[start : start + hp.batch_size]
            x, labels = features[batch], y[batch]
            logits = x @ weights.T + bias
            exp = np.exp(logits - logits.max(axis=1, keepdims=True))
            probs = exp / exp.sum(axis=1, keepdims=True)
            loss = -np.log(probs[np.arange(len(batch)), labels]).sum() / len(batch)
            probs[np.arange(len(batch)), labels] -= 1.0
            probs /= len(batch)
            grad_b = np.zeros(5)
            for row in probs:
                grad_b += row
            weights -= hp.learning_rate * (x.T @ probs).T
            bias -= hp.learning_rate * grad_b
            running += loss * len(batch)
        losses.append(running / n)
    return ToyParams(weights=weights, bias=bias), losses


def text_row(index: int, text: str, label: Label) -> LabeledText:
    return LabeledText(id=f"t{index}", raw_text=text, label=label, source="test", norm_text=text)


def corpus_with_short_rows() -> list[LabeledText]:
    """45 separable rows plus 5 texts shorter than a 3-gram (all-zero feature rows)."""
    rows = make_separable_corpus(n_per_class=9, seed=12)
    short = [text_row(i, "اب", label) for i, label in enumerate(LABEL_ORDER)]
    return rows + short


class TestSparseStep:
    @pytest.mark.parametrize(
        "hp",
        [
            HyperParams(epochs=3, batch_size=7, learning_rate=0.1, seed=2),  # 7 does not divide 50
            HyperParams(epochs=2, batch_size=1, learning_rate=0.5, seed=3),  # all-zero batches
            HyperParams(epochs=2, batch_size=64, learning_rate=0.05, seed=4),  # one batch >= n
        ],
        ids=["ragged-last-batch", "batch-of-one", "batch-covers-all-rows"],
    )
    def test_bit_identical_to_dense_update(self, hp):
        rows = corpus_with_short_rows()
        model = encoder.fit(TOY, hp, rows)
        params, losses = dense_reference_fit(hp, rows)
        assert np.array_equal(model.params.dense_weights(), params.weights)
        assert np.array_equal(model.params.bias, params.bias)
        assert model.epoch_losses == losses

    def test_untouched_buckets_stay_zero(self):
        rows = corpus_with_short_rows()
        model = encoder.fit(TOY, HP, rows)
        features = hashed_ngram_features([row.norm_text for row in rows])
        untouched = np.setdiff1d(np.arange(TOY_DEFAULT_BUCKETS), features.indices)
        weights = model.params.dense_weights()
        assert (weights[:, untouched] == 0.0).all()
        assert (weights[:, np.unique(features.indices)] != 0.0).any(axis=0).all()

    def test_each_step_sees_only_its_batch_buckets(self, monkeypatch):
        widths = []

        def spy(params, features, labels, owner):
            widths.append((params.weights.shape[1], features.shape[1], np.unique(features.indices).size))
            return toy_forward_backward(params, features, labels, owner)

        monkeypatch.setattr(encoder, "toy_forward_backward", spy)
        rows = corpus_with_short_rows()
        encoder.fit(TOY, HP, rows)
        assert len(widths) == HP.epochs * math.ceil(len(rows) / HP.batch_size)
        for weight_cols, feature_cols, distinct in widths:
            assert weight_cols == feature_cols == distinct < TOY_DEFAULT_BUCKETS

    def test_overflowing_step_raises_instead_of_returning_non_finite_weights(self):
        # One batch, one epoch: a 58-count trigram times a huge rate overflows to inf.
        rows = [text_row(0, "ب" * 60, Label.NH), text_row(1, "ت" * 60, Label.GH)]
        with pytest.raises(EncoderError, match="non-finite"), np.errstate(over="ignore"):
            encoder.fit(TOY, HyperParams(epochs=1, batch_size=2, learning_rate=1e308), rows)


@pytest.fixture(scope="module")
def model():
    return encoder.fit(TOY, HP, make_separable_corpus(n_per_class=20, seed=5))


class TestPredictProba:
    def test_rows_sum_to_one(self, model):
        texts = [row.norm_text for row in make_separable_corpus(n_per_class=2, seed=6)]
        probs = encoder.predict_proba(model, texts).probs
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-6
        assert (probs >= 0).all()

    def test_probe_word_from_class_vocabulary(self, model):
        rng = np.random.default_rng(7)
        probe = class_word(Label.Re, rng)
        assert encoder.predict_proba(model, [probe]).argmax_labels() == [Label.Re]

    def test_empty_text_list_gives_empty_matrix(self, model):
        matrix = encoder.predict_proba(model, [])
        assert matrix.probs.shape == (0, 5)
        assert matrix.ids == []

    def test_duplicate_inputs_identical_rows(self, model):
        probs = encoder.predict_proba(model, ["نص نص نص", "نص نص نص"]).probs
        assert np.array_equal(probs[0], probs[1])

    def test_batch_invariance(self, model):
        # Padding/batching must never change per-row predictions.
        texts = [row.norm_text for row in make_separable_corpus(n_per_class=3, seed=8)]
        batched = encoder.predict_proba(model, texts).probs
        single = np.vstack([encoder.predict_proba(model, [t]).probs for t in texts])
        assert np.abs(batched - single).max() < 1e-5

    def test_equals_dense_oracle_bit_for_bit(self, model, tmp_path):
        # Latin letters hash to buckets the compact model has no column for; "j" has no n-gram.
        texts = [row.norm_text for row in make_separable_corpus(n_per_class=3, seed=8)] + ["qwxz vbnk", "j"]
        save_model(model, tmp_path)
        for trained in (model, load_model(tmp_path)):  # compact, then dense
            params = trained.params
            features = hashed_ngram_features(texts, trained.spec.max_sequence_tokens)
            logits = np.asarray(as_csr(features) @ params.dense_weights().T) + params.bias
            exp = np.exp(logits - logits.max(axis=1, keepdims=True))
            expected = exp / exp.sum(axis=1, keepdims=True)
            assert encoder.predict_proba(trained, texts).probs.tobytes() == expected.tobytes()
        assert np.setdiff1d(features.indices, model.params.cols).size > 0

    def test_ids_attached(self, model):
        matrix = encoder.predict_proba(model, ["نص اول", "نص ثاني"], ids=["a", "b"])
        assert matrix.ids == ["a", "b"]


@pytest.fixture(scope="module")
def model_pool(model, tmp_path_factory):
    """Models that share ``cols`` (a lockstep group, and one under another token limit), and models that do not."""
    rows = make_separable_corpus(n_per_class=6, seed=21)
    group = encoder.fit_many([(TOY, HyperParams(2, 8, 0.1, seed=seed), rows) for seed in range(3)])
    assert group[0].params.cols is group[1].params.cols is group[2].params.cols
    short = encoder.fit(EncoderSpec("toy", 2), HyperParams(2, 8, 0.1, seed=4), rows)
    dense = load_model(save_model(model, tmp_path_factory.mktemp("dense")))
    return [*group, dataclasses.replace(group[1], spec=EncoderSpec("toy", 3)), model, short, dense]


PREDICT_TEXTS = [
    row.norm_text for row in make_separable_corpus(n_per_class=2, seed=22)
] + ["", "اب", "qwxz vbnk", "j", "نص " * 9]


class TestPredictProbaMany:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        picks=st.lists(st.integers(0, 6), max_size=7),
        texts=st.lists(st.sampled_from(PREDICT_TEXTS), max_size=9),
    )
    @example(picks=[0, 1, 2], texts=PREDICT_TEXTS)
    @example(picks=[2, 3, 1, 6, 0, 5, 4, 2], texts=PREDICT_TEXTS + PREDICT_TEXTS[:3])
    def test_equals_one_model_at_a_time(self, model_pool, picks, texts):
        models = [model_pool[i] for i in picks]
        many = encoder.predict_proba_many(models, texts)
        assert len(many) == len(models)
        for matrix, model in zip(many, models):
            alone = encoder.predict_proba(model, texts)
            assert matrix.ids == alone.ids == [str(i) for i in range(len(texts))]
            assert matrix.probs.tobytes() == alone.probs.tobytes()

    def test_a_group_takes_its_rows_once(self, model_pool, small_blocks, monkeypatch):
        # Known texts are copied from the memo in one take per token limit,
        # however many groups share the limit; unseen texts are never taken.
        store_some(MIXED_TEXTS)
        calls = []

        def spy(matrix, ids):
            calls.append(list(ids))
            return take_rows(matrix, ids)

        take_rows = encoder._take_rows
        monkeypatch.setattr(encoder, "_take_rows", spy)
        encoder.predict_proba_many(model_pool, MIXED_TEXTS)
        expected = []
        # Token limits in the order the models first name them: 512 (three
        # groups), 3 (one group, nothing stored) and 2 (one group).
        for limit in dict.fromkeys(model.spec.max_sequence_tokens for model in model_pool):
            row_of = memo_rows_of(limit)
            ids = [row_of[text] for text in MIXED_TEXTS if text in row_of]
            if ids:
                expected.append(ids)
        assert calls == expected and len(expected) == 2


# Duplicates, "", sub-trigram texts and one text longer than a block of BLOCK_CHARS.
MIXED_TEXTS = PREDICT_TEXTS + ["كلمه " * 12] + PREDICT_TEXTS[::3]
# Two texts store_some never stores, repeated at scattered positions across several blocks, among texts it stores.
DUPLICATE_TEXTS = MIXED_TEXTS[:5] + ["نص لم يره احد", "اخر جديد", "نص لم يره احد", "qwxz vbnk"] * 5
BLOCK_CHARS = 40


@pytest.fixture
def small_blocks(monkeypatch, fresh_memo):
    """An empty memo and short blocks, so a few texts span several."""
    monkeypatch.setattr(encoder, "_HASH_BLOCK_CHARS", BLOCK_CHARS)


def store_some(texts):
    """Store some texts under two of model_pool's three token limits (512 and 2), none under 3."""
    encoder._memo_rows(texts[::2], TOY.max_sequence_tokens)
    encoder._memo_rows(texts[1::3], 2)


def memo_rows_of(limit) -> dict[str, int]:
    return encoder._FEATURE_MEMO.get(limit, ({}, []))[0]


class TestPredictUnseen:
    def test_prediction_leaves_the_memo_unchanged(self, model_pool, small_blocks):
        store_some(MIXED_TEXTS)

        def snapshot():
            memo = encoder._FEATURE_MEMO.items()
            return {limit: (dict(row_of), [array.copy() for array in stored[:3]]) for limit, (row_of, stored) in memo}

        before = snapshot()
        encoder.predict_proba_many(model_pool, MIXED_TEXTS + ["نص لم يره احد", "اخر جديد"])
        after = snapshot()
        assert before.keys() == after.keys() == {TOY.max_sequence_tokens, 2}
        for limit, (row_of, arrays) in before.items():
            assert after[limit][0] == row_of
            assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(after[limit][1], arrays))

    def test_equals_the_memo_path_bit_for_bit(self, model_pool, small_blocks):
        for texts in (MIXED_TEXTS, DUPLICATE_TEXTS):
            encoder._FEATURE_MEMO.clear()
            store_some(MIXED_TEXTS)
            mixed = encoder.predict_proba_many(model_pool, texts)
            for limit in {model.spec.max_sequence_tokens for model in model_pool}:
                encoder._memo_rows(texts, limit)
            stored = encoder.predict_proba_many(model_pool, texts)
            assert [matrix.probs.tobytes() for matrix in mixed] == [matrix.probs.tobytes() for matrix in stored]

    def test_each_unseen_text_is_hashed_once_per_token_limit(self, model_pool, small_blocks, monkeypatch):
        store_some(MIXED_TEXTS)
        hashed = []

        def spy(texts, max_tokens=None):
            hashed.extend((max_tokens, text) for text in texts)
            return hashed_ngram_features(texts, max_tokens)

        monkeypatch.setattr(encoder, "hashed_ngram_features", spy)
        encoder.predict_proba_many(model_pool, MIXED_TEXTS)
        limits = {model.spec.max_sequence_tokens for model in model_pool}
        # Every position of a text the memo lacks, duplicates included; no text the memo holds.
        expected = [(limit, text) for limit in limits for text in MIXED_TEXTS if text not in memo_rows_of(limit)]
        assert sorted(hashed) == sorted(expected)
        assert not any(text in memo_rows_of(limit) for limit, text in hashed)
        # Three groups share the default limit, and each of its unseen texts was hashed once for all of them.
        assert len({id(m.params.cols) for m in model_pool if m.spec.max_sequence_tokens == TOY.max_sequence_tokens}) == 3

    def test_peak_memory_bounded_by_one_block(self, model, fresh_memo):
        # Unseen tweet-length texts filling at least four blocks: predicting them
        # holds about one block's hashing, not the features of every text.
        texts = tweet_length_texts(4 * encoder._HASH_BLOCK_CHARS)
        _, hi = next(encoder._blocks(encoder._char_lengths(texts)))
        tracemalloc.start()
        try:
            hashed_ngram_features(texts[:hi])
            one_block = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            probs = encoder.predict_proba(model, texts).probs
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert probs.shape == (len(texts), 5) and hi < len(texts) / 3
        assert peak < one_block + features_nbytes(hashed_ngram_features(texts)) / 4


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        rows = make_separable_corpus(n_per_class=10, seed=9)
        model = encoder.fit(TOY, HP, rows)
        directory = save_model(model, tmp_path / "model")
        assert (directory / "manifest.txt").exists()
        assert (directory / "weights.npz").exists()
        loaded = load_model(directory)
        assert loaded.train_fingerprint == model.train_fingerprint
        assert loaded.hyperparams == model.hyperparams
        texts = [row.norm_text for row in rows[:5]]
        assert np.array_equal(
            encoder.predict_proba(loaded, texts).probs,
            encoder.predict_proba(model, texts).probs,
        )

    def test_load_rejects_non_artifact_dir(self, tmp_path):
        with pytest.raises(EncoderError, match="manifest"):
            load_model(tmp_path)

    @pytest.mark.parametrize(
        "line, other", [("n_buckets=65536", "n_buckets=1024"), ("ngram_sizes=3,4,5", "ngram_sizes=2,3")]
    )
    def test_load_rejects_another_feature_geometry(self, tmp_path, line, other):
        directory = save_model(encoder.fit(TOY, HP, make_separable_corpus(n_per_class=4, seed=9)), tmp_path / "model")
        manifest = directory / "manifest.txt"
        manifest.write_text(manifest.read_text(encoding="utf-8").replace(line, other), encoding="utf-8")
        with pytest.raises(EncoderError, match="feature geometry"):
            load_model(directory)


class TestPretrainedErrorTaxonomy:
    def test_not_installed_is_distinguished(self):
        def broken_import():
            raise BackendNotInstalledError("backend 'x' requires the 'pretrained' extra")

        backend = PretrainedBackend("x", "org/x", runtime_importer=broken_import)
        rows = make_separable_corpus(n_per_class=2, seed=10)
        (outcome,) = backend.fit_many([(EncoderSpec("toy"), HP, rows)])
        assert isinstance(outcome, BackendNotInstalledError)

    def test_download_failure_is_distinguished(self):
        class FakeTorch:
            @staticmethod
            def manual_seed(seed):
                pass

        def fake_import():
            return FakeTorch, None

        def failing_loader():
            raise OSError("connection refused")

        backend = PretrainedBackend(
            "x", "org/x", runtime_importer=fake_import, weight_loader=failing_loader
        )
        rows = make_separable_corpus(n_per_class=2, seed=10)
        (outcome,) = backend.fit_many([(EncoderSpec("toy"), HP, rows)])
        assert isinstance(outcome, BackendWeightsError)
        assert "download failed or local cache" in str(outcome)


POOL = corpus_with_short_rows()
# Batch-of-one steps at this rate leave these two rows' weights finite after
# epoch 1 and overflow their logits in epoch 2.
OVERFLOWING = [text_row(0, "ب" * 60, Label.NH), text_row(1, "ت" * 60, Label.GH)]
# Texts shorter than a 3-gram: only the bias moves, and at that rate it stays finite.
BIAS_ONLY = [text_row(2, "اب", Label.NH), text_row(3, "ات", Label.GH)]
OVERFLOW_HP = dict(epochs=3, batch_size=1, learning_rate=1e306)

@st.composite
def fit_entries(draw):
    """1-5 fit entries over at most two shapes, so most calls hold a lockstep group of several."""
    shape = st.tuples(st.sampled_from([512, 2]), st.integers(1, 3), st.integers(1, 9), st.sampled_from([0.1, 0.5]))
    shapes = draw(st.lists(shape, min_size=1, max_size=2))
    entries = []
    for _ in range(draw(st.integers(1, 5))):
        tokens, epochs, batch, lr = draw(st.sampled_from(shapes))
        rows = POOL[draw(st.integers(0, 4)) :: draw(st.integers(1, 3))]  # every class, 16 to 50 rows
        entries.append((EncoderSpec("toy", tokens), HyperParams(epochs, batch, lr, draw(st.integers(0, 3))), rows))
    return entries


def snapshot(model):
    """Everything a fit leaves, with the weights of every bucket."""
    params = model.params
    return (
        model.hyperparams,
        model.train_fingerprint,
        list(model.epoch_losses),
        params.dense_weights().tobytes(),
        params.bias.tobytes(),
    )


def fit_each_alone_and_compare(entries) -> tuple[list, dict[int, list], dict[int, set]]:
    """``fit_many``'s outcomes, the models its hook saw per entry and the threads it saw them on,
    after checking the first two against one ``fit`` per entry: the same model or error, and the
    same models after each epoch."""
    seen: dict[int, list] = {i: [] for i in range(len(entries))}
    threads: dict[int, set] = {i: set() for i in range(len(entries))}

    def on_epoch(i, model):
        seen[i].append(snapshot(model))
        threads[i].add(threading.current_thread())

    with np.errstate(all="ignore"):
        many = encoder.fit_many(entries, on_epoch)
    for i, (spec, hp, rows) in enumerate(entries):
        alone_seen = []
        with np.errstate(all="ignore"):
            try:
                alone = snapshot(encoder.fit(spec, hp, rows, lambda model: alone_seen.append(snapshot(model))))
            except EncoderError as exc:
                alone = str(exc)
        assert seen[i] == alone_seen
        assert (str(many[i]) if isinstance(many[i], EncoderError) else snapshot(many[i])) == alone
    return many, seen, threads


@contextlib.contextmanager
def split_groups(cpus: int, part_min_rows: int = 1):
    """``fit_many`` sees ``cpus`` usable CPUs and splits a group whose parts keep ``part_min_rows`` rows per step."""
    with mock.patch.object(encoder, "_usable_cpus", lambda: cpus), mock.patch.object(
        encoder, "_PART_MIN_ROWS", part_min_rows
    ):
        yield


def no_thread(*args, **kwargs):
    raise AssertionError("a thread was started")


class TestFitMany:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(entries=fit_entries(), overflow=st.booleans(), cpus=st.sampled_from([1, 2, 3]))
    def test_equals_one_fit_per_entry(self, entries, overflow, cpus):
        if overflow:
            # Same shape as its bias-only neighbour, so the two share a lockstep group.
            entries = entries + [
                (TOY, HyperParams(**OVERFLOW_HP, seed=5), OVERFLOWING),
                (TOY, HyperParams(**OVERFLOW_HP, seed=6), BIAS_ONLY),
            ]
        with split_groups(cpus):  # every group of several entries splits on 2 or 3 CPUs
            many, seen, _ = fit_each_alone_and_compare(entries)
        if overflow:
            assert isinstance(many[-2], EncoderError) and [s[0].epochs for s in seen[len(entries) - 2]] == [1]
            assert not isinstance(many[-1], EncoderError)

    def test_stacked_group_equals_dense_oracle(self):
        # 50, 25 and 18 rows in steps of 12: the group's last steps hold rows of the first model only.
        entries = [
            (TOY, HyperParams(3, 12, 0.1, seed=seed), rows)
            for seed, rows in [(2, POOL), (5, POOL[1::2]), (9, POOL[4:22])]
        ]
        models = encoder.fit_many(entries)
        assert len({id(model.params.cols) for model in models}) == 1  # one lockstep group
        for model, (_, hp, rows) in zip(models, entries):
            params, losses = dense_reference_fit(hp, rows)
            assert model.params.dense_weights().tobytes() == params.weights.tobytes()
            assert model.params.bias.tobytes() == params.bias.tobytes()
            assert model.epoch_losses == losses

    @pytest.mark.parametrize("cpus", [2, 3, 4])
    def test_split_parts_equal_one_fit_per_entry(self, cpus):
        # Entries of 50, 25, 18 and 17 rows. In the second group the overflowing
        # entry shares the worker's part with a bias-only one when two CPUs split
        # it. The threads switch every microsecond, so parts interleave finely.
        sizes = [POOL, POOL[1::2], POOL[4:22], POOL[::3]]
        fits = [(TOY, HyperParams(3, 12, 0.1, seed), rows) for seed, rows in enumerate(sizes)]
        overflow = [
            (TOY, HyperParams(**OVERFLOW_HP, seed=seed), rows)
            for seed, rows in [(7, BIAS_ONLY), (5, OVERFLOWING), (6, BIAS_ONLY)]
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with split_groups(cpus):
                many, seen, threads = fit_each_alone_and_compare(fits + overflow)
        finally:
            sys.setswitchinterval(interval)
        assert len({id(model.params.cols) for model in many[: len(fits)]}) == cpus  # a lockstep per part
        failing = len(fits) + 1
        assert [isinstance(outcome, EncoderError) for outcome in many] == [i == failing for i in range(len(many))]
        assert len(seen[failing]) == 1
        for i, snapshots in seen.items():
            assert [hp.epochs for hp, *_ in snapshots] == list(range(1, len(snapshots) + 1))
            assert len(threads[i]) == 1  # one entry's epochs all come from one thread
        assert threads[0] == threads[len(fits)] == {threading.current_thread()}
        assert threads[len(fits) - 1] != threads[0]

    def test_workers_take_the_callers_error_handling(self):
        # numpy's error handling is per thread. The overflowing entry is the
        # worker's part, and it must not warn of what its caller ignores.
        entries = [(TOY, HyperParams(**OVERFLOW_HP, seed=seed), rows) for seed, rows in [(6, BIAS_ONLY), (5, OVERFLOWING)]]
        with split_groups(2), np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            many = encoder.fit_many(entries)
        assert isinstance(many[1], EncoderError)

    @pytest.mark.parametrize("failing", ["calling thread", "worker"])
    def test_a_failing_part_raises_after_every_thread_joins(self, failing):
        entries = [(TOY, HyperParams(3, 12, 0.1, seed=seed), POOL[seed::2]) for seed in range(3)]
        fails = 0 if failing == "calling thread" else len(entries) - 1
        done: list[int] = []

        def on_epoch(i, model):
            if i == fails:
                raise RuntimeError("the hook failed")
            done.append(i)

        before = threading.active_count()
        with split_groups(3), pytest.raises(RuntimeError, match="the hook failed"):
            encoder.fit_many(entries, on_epoch)
        assert threading.active_count() == before
        assert sorted(done) == sorted(i for i in range(len(entries)) if i != fails for _ in range(3))

    @pytest.mark.parametrize(
        "cpus, part_min_rows", [(1, 1), (2, encoder._PART_MIN_ROWS)], ids=["one-cpu", "few-rows"]
    )
    def test_no_thread_starts_without_a_split(self, monkeypatch, cpus, part_min_rows):
        # 10 entries of 8-row steps hold 80 rows per step, fewer than one part keeps.
        entries = [(TOY, HyperParams(2, 8, 0.1, seed=seed), POOL[seed % 3 :: 2]) for seed in range(10)]
        monkeypatch.setattr(threading, "Thread", no_thread)
        with split_groups(cpus, part_min_rows):
            models = encoder.fit_many(entries)
        assert len({id(model.params.cols) for model in models}) == 1


class TestEpochHook:
    def test_toy_hook_sees_every_shorter_fit(self):
        rows = make_separable_corpus(n_per_class=6, seed=12)
        seen = []

        def on_epoch(model):
            seen.append((model.hyperparams, model.train_fingerprint, model.epoch_losses, model.params.weights.copy()))

        final = encoder.fit(TOY, HyperParams(3, 8, 0.1, seed=2), rows, on_epoch=on_epoch)
        assert [hp.epochs for hp, *_ in seen] == [1, 2, 3]
        for hp, fingerprint, losses, weights in seen:
            alone = encoder.fit(TOY, hp, rows)
            assert (fingerprint, losses) == (alone.train_fingerprint, alone.epoch_losses)
            assert np.array_equal(weights, alone.params.weights)
        assert final.epoch_losses == seen[-1][2]


class FakeTensor(np.ndarray):
    """A numpy array with the two torch tensor methods prediction calls."""

    def cpu(self):
        return self

    def numpy(self):
        return np.asarray(self)


def _softmax_rows(logits):
    exp = np.exp(logits - logits.max(axis=1, keepdims=True))
    return exp / exp.sum(axis=1, keepdims=True)


class FakeLoss:
    def __init__(self, value, backward):
        self.value, self.backward = value, backward

    def __float__(self):
        return self.value


class FakeNet:
    """A class-prior 'transformer': its logits are one learned bias vector."""

    def __init__(self, bias=None):
        self.bias = np.zeros(5) if bias is None else bias
        self.grad = None
        self.mode = None

    def parameters(self):
        return [self]

    def train(self):
        self.mode = "train"

    def eval(self):
        self.mode = "eval"

    def __call__(self, input_ids, labels=None):
        if labels is not None and self.mode != "train":
            raise AssertionError("a training step outside train mode")
        logits = np.tile(self.bias, (len(input_ids), 1))
        out = type("Output", (), {"logits": logits.view(FakeTensor)})()
        if labels is not None:
            probs = _softmax_rows(logits)
            grad = probs.copy()
            grad[np.arange(len(labels)), labels] -= 1.0
            out.loss = FakeLoss(
                float(-np.log(probs[np.arange(len(labels)), labels]).mean()),
                lambda: setattr(self, "grad", grad.mean(axis=0)),
            )
        return out

    def save_pretrained(self, directory):
        directory.mkdir(parents=True, exist_ok=True)
        np.save(directory / "bias.npy", self.bias)


class FakeTokenizer:
    def __init__(self):
        self.calls = []

    def __call__(self, texts, padding, truncation, max_length, return_tensors):
        self.calls.append((len(texts), max_length))
        return {"input_ids": np.asarray([[len(text)] for text in texts])}

    def save_pretrained(self, directory):
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "vocab.txt").write_text("fake\n", encoding="utf-8")


class FakeAdamW:
    def __init__(self, params, lr):
        self.params, self.lr = list(params), lr

    def zero_grad(self):
        for param in self.params:
            param.grad = None

    def step(self):
        for param in self.params:
            param.bias = param.bias - self.lr * param.grad


class FakeTorch:
    optim = type("optim", (), {"AdamW": FakeAdamW})
    seeds: list[int] = []

    @classmethod
    def manual_seed(cls, seed):
        cls.seeds.append(seed)

    @staticmethod
    def tensor(data):
        return np.asarray(data)

    @staticmethod
    def no_grad():
        return contextlib.nullcontext()

    @staticmethod
    def softmax(logits, dim):
        assert dim == -1
        return _softmax_rows(np.asarray(logits)).view(FakeTensor)


class FakeTransformers:
    class AutoTokenizer:
        @staticmethod
        def from_pretrained(path):
            if not (path / "vocab.txt").exists():
                raise OSError(f"no tokenizer files in {path}")
            return FakeTokenizer()

    class AutoModelForSequenceClassification:
        @staticmethod
        def from_pretrained(path):
            return FakeNet(np.load(path / "bias.npy"))


class TestPretrainedWithFakeRuntime:
    """PretrainedBackend driven through its injectable loaders; no torch needed."""

    @pytest.fixture
    def marbert(self, monkeypatch):
        backend = PretrainedBackend(
            "MARBERT",
            "UBC-NLP/MARBERT",
            runtime_importer=lambda: (FakeTorch, FakeTransformers),
            weight_loader=lambda: (FakeTokenizer(), FakeNet()),
        )
        monkeypatch.setitem(encoder._BACKENDS, "MARBERT", backend)
        return backend

    # Skewed class shares give the class-prior model something to learn.
    ROWS = [row for row in make_separable_corpus(n_per_class=8, seed=13) if row.label == Label.NH or int(row.id) % 4 == 0]
    SPEC = EncoderSpec("MARBERT", max_sequence_tokens=64)

    def test_fit_calls_the_epoch_hook_in_order(self, marbert):
        seen = []

        def on_epoch(m):
            seen.append((m.hyperparams.epochs, list(m.epoch_losses), m.params[1].bias.copy()))
            encoder.predict_proba(m, ["نص"])  # puts the net in eval mode; the next epoch trains again

        model = encoder.fit(self.SPEC, HyperParams(3, 4, 0.5, seed=5), self.ROWS, on_epoch=on_epoch)
        assert [epochs for epochs, _, _ in seen] == [1, 2, 3]
        assert [len(losses) for _, losses, _ in seen] == [1, 2, 3]
        assert model.epoch_losses == seen[-1][1]
        assert model.epoch_losses[-1] < model.epoch_losses[0]
        assert FakeTorch.seeds[-1] == 5
        tokenizer, _ = model.params
        assert {max_length for _, max_length in tokenizer.calls} == {64}
        assert max(size for size, _ in tokenizer.calls) == 4
        two = encoder.fit(self.SPEC, HyperParams(2, 4, 0.5, seed=5), self.ROWS)
        assert two.epoch_losses == seen[1][1]
        assert np.array_equal(two.params[1].bias, seen[1][2])

    def test_predict_save_and_load(self, marbert, tmp_path):
        model = encoder.fit(self.SPEC, HyperParams(2, 4, 0.5, seed=5), self.ROWS)
        texts = [row.norm_text for row in self.ROWS[:7]]
        probs = encoder.predict_proba(model, texts).probs
        assert probs.shape == (7, 5)
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert model.params[1].mode == "eval"
        assert [size for size, _ in model.params[0].calls[-2:]] == [4, 3]  # batched by batch_size
        assert encoder.predict_proba(model, []).probs.shape == (0, 5)
        save_model(model, tmp_path / "model")
        manifest = (tmp_path / "model" / "manifest.txt").read_text(encoding="utf-8")
        assert "model_id=UBC-NLP/MARBERT\n" in manifest
        loaded = load_model(tmp_path / "model")
        assert (loaded.hyperparams, loaded.train_fingerprint) == (model.hyperparams, model.train_fingerprint)
        assert np.array_equal(encoder.predict_proba(loaded, texts).probs, probs)

    def test_predict_many_equals_one_model_at_a_time(self, marbert, model):
        first = encoder.fit(self.SPEC, HyperParams(2, 4, 0.5, seed=5), self.ROWS)
        second = encoder.fit(self.SPEC, HyperParams(1, 3, 0.5, seed=6), self.ROWS)
        models = [first, model, second, first]  # a toy model between them
        for texts in ([], ["نص", "نص"], [row.norm_text for row in self.ROWS[:7]]):
            many = encoder.predict_proba_many(models, texts)
            alone = [encoder.predict_proba(m, texts) for m in models]
            assert [m.probs.tobytes() for m in many] == [m.probs.tobytes() for m in alone]
        assert len({m.probs.tobytes() for m in alone}) == 3

    def test_load_without_weights_is_a_weights_error(self, marbert, tmp_path):
        model = encoder.fit(self.SPEC, HyperParams(1, 4, 0.5), self.ROWS)
        save_model(model, tmp_path / "model")
        (tmp_path / "model" / "hf" / "vocab.txt").unlink()
        with pytest.raises(BackendWeightsError, match="cannot load weights"):
            load_model(tmp_path / "model")

    def test_weight_loader_failure_is_a_weights_error(self, marbert):
        def offline():
            raise OSError("connection refused")

        marbert._weight_loader = offline
        with pytest.raises(BackendWeightsError, match="could not fetch weights for 'UBC-NLP/MARBERT'"):
            encoder.fit(self.SPEC, HyperParams(1, 4, 0.5), self.ROWS)

    def test_missing_torch_is_not_installed_error(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "torch", None)  # makes `import torch` raise ImportError
        with pytest.raises(BackendNotInstalledError, match="'pretrained' extra"):
            encoder.fit(self.SPEC, HyperParams(1, 4, 0.5), self.ROWS)
