"""Shared fixtures: separable synthetic corpora, small file helpers and the toy step's scipy oracles.

The synthetic corpus gives each class a disjoint Arabic letter pool, so the
classes have disjoint character n-grams and a linear model separates them
easily. Only letters untouched by normalization are used, hence
norm_text == raw_text for these fixtures.
"""

from __future__ import annotations

from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from arahate.corpus import LabeledText, write_jsonl
from arahate.encoder import StepBatch, ToyParams, toy_forward_backward
from arahate.labels import LABEL_ORDER, Label

CLASS_LETTERS = {
    Label.NH: "بتثجح",
    Label.GH: "خدذرز",
    Label.Re: "سشصضط",
    Label.Ra: "ظعغفق",
    Label.Se: "كلمنه",
}


def row_fields(row: LabeledText) -> tuple:
    """A row's type and the (name, value) of each of its fields: what two equal rows share."""
    return type(row), [(f.name, getattr(row, f.name)) for f in fields(row)]


def load_golden_cases(path: Path) -> list[tuple[str, str]]:
    """Read a golden-test corpus: TSV lines of raw text -> expected output."""
    cases = []
    for line_no, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line:
            continue
        parts = line.split("\t")
        assert len(parts) == 2, f"{path} line {line_no}: expected exactly one tab"
        cases.append((parts[0], parts[1]))
    return cases


def class_word(label: Label, rng: np.random.Generator) -> str:
    pool = list(CLASS_LETTERS[label])
    return "".join(rng.choice(pool, size=rng.integers(4, 7)))


def class_text(label: Label, rng: np.random.Generator, n_words: tuple[int, int] = (3, 8)) -> str:
    return " ".join(class_word(label, rng) for _ in range(rng.integers(*n_words)))


def make_separable_corpus(
    n_per_class: int = 10,
    seed: int = 0,
    source: str = "synthetic",
    normalized: bool = True,
    id_prefix: str = "",
) -> list[LabeledText]:
    rng = np.random.default_rng(seed)
    rows = []
    index = 0
    for label in LABEL_ORDER:
        for _ in range(n_per_class):
            text = class_text(label, rng)
            rows.append(
                LabeledText(
                    id=f"{id_prefix}{index}",
                    raw_text=text,
                    label=label,
                    source=source,
                    norm_text=text if normalized else None,
                )
            )
            index += 1
    return rows


@pytest.fixture
def separable_corpus() -> list[LabeledText]:
    return make_separable_corpus(n_per_class=10, seed=11)


@pytest.fixture
def corpus_file(tmp_path: Path, separable_corpus) -> Path:
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, separable_corpus)
    return path


@pytest.fixture
def stopword_file(tmp_path: Path) -> Path:
    path = tmp_path / "stopwords.txt"
    path.write_text("من\nفي\nعن\nعلى\nإلى\nو\n", encoding="utf-8")
    return path


def as_csr(batch: StepBatch) -> sparse.csr_matrix:
    """The scipy CSR matrix of a ``StepBatch``'s arrays: the oracle the toy backend's CSR code is checked against."""
    return sparse.csr_matrix((batch.data, batch.indices, batch.indptr), shape=batch.shape)


def step_batch(dense) -> StepBatch:
    """The ``StepBatch`` of the CSR matrix scipy makes of a dense (N, D) array."""
    matrix = sparse.csr_matrix(dense, dtype=float)
    return StepBatch(matrix.indptr, matrix.indices, matrix.data, matrix.shape)


def one_model_step(params: ToyParams, features, labels) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Mean loss and gradients of one model on dense (N, D) features: a one-model stacked ``toy_forward_backward``.

    The bias is passed as a one-row view, so writes into ``params.bias`` reach the call.
    """
    stacked = ToyParams(weights=params.weights, bias=params.bias[None])
    losses, (grad_w, grad_b) = toy_forward_backward(stacked, step_batch(features), labels, np.zeros(len(labels), int))
    return float(losses.mean()), (grad_w, grad_b[0])
