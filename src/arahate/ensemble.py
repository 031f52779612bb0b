"""Hard (majority) and soft (average) voting over per-model probability matrices."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import atomic_open, open_input
from .errors import ArahateError, ConfigError
from .labels import LABEL_ORDER, N_CLASSES, Label

ROW_SUM_TOL = 1e-6
PROBA_CSV_HEADER = ["id"] + [f"p_{label.value}" for label in LABEL_ORDER]


class VoteError(ArahateError):
    pass


class EnsemblePolicyError(VoteError, ConfigError):
    """A mode, member count or weight list the ensemble policy rejects.

    A ConfigError, so config files, plans and CLI flags that break the policy
    are validation errors (exit 1).
    """


def ensemble_policy(
    n_members: int, mode: str | None = None, weights: Sequence[float] | None = None
) -> tuple[str, np.ndarray | None]:
    """Check how ``n_members`` models combine; returns the mode and the weights.

    Without a mode, one member is "single" and several are "majority".
    "single" takes exactly one member, "majority" and "average" at least two.
    Only "average" takes weights: one per member, finite, non-negative, not
    all zero.
    """
    if mode is None:
        mode = "single" if n_members == 1 else "majority"
    if mode not in ("single", "majority", "average"):
        raise EnsemblePolicyError(f"unknown ensemble mode {mode!r}")
    if mode == "single" and n_members != 1:
        raise EnsemblePolicyError(f"mode 'single' takes exactly one member, got {n_members}")
    if mode != "single" and n_members < 2:
        raise EnsemblePolicyError(f"mode {mode!r} needs at least two members, got {n_members}")
    if weights is None:
        return mode, None
    if mode != "average":
        raise EnsemblePolicyError(f"ensemble weights need mode 'average', not {mode!r}")
    try:
        w = np.asarray(list(weights), dtype=float)
    except (TypeError, ValueError):
        raise EnsemblePolicyError(f"weights must be numbers, got {list(weights)!r}") from None
    if w.shape != (n_members,):
        raise EnsemblePolicyError(f"expected {n_members} weights, got {w.shape}")
    if not np.isfinite(w).all():
        raise EnsemblePolicyError(f"weights must be finite, got {w.tolist()}")
    if (w < 0).any():
        raise EnsemblePolicyError("weights must be non-negative")
    if w.sum() <= 0:
        raise EnsemblePolicyError("weights must not all be zero")
    return mode, w


@dataclass
class ProbabilityMatrix:
    """N x 5 class probabilities for an ordered id list, columns in LABEL_ORDER.

    Every cell must be finite and non-negative, and every row must sum to 1
    within 1e-6.
    """

    ids: list[str]
    probs: np.ndarray

    def __post_init__(self) -> None:
        self.probs = np.asarray(self.probs, dtype=float)
        if self.probs.ndim != 2 or self.probs.shape[1] != N_CLASSES:
            raise VoteError(f"expected an N x {N_CLASSES} matrix, got shape {self.probs.shape}")
        if len(self.ids) != self.probs.shape[0]:
            raise VoteError(f"{len(self.ids)} ids but {self.probs.shape[0]} probability rows")
        if self.probs.size:
            if not np.isfinite(self.probs).all():
                raise VoteError("probabilities must be finite")
            if (self.probs < 0).any():
                raise VoteError("probabilities must be non-negative")
            worst = np.abs(self.probs.sum(axis=1) - 1.0).max()
            if worst > ROW_SUM_TOL:
                raise VoteError(f"probability rows must sum to 1 (worst deviation {worst:.3g})")

    def __len__(self) -> int:
        return len(self.ids)

    def argmax_labels(self) -> list[Label]:
        # np.argmax returns the first maximum, i.e. ties break by column order.
        return [LABEL_ORDER[i] for i in self.probs.argmax(axis=1)]


def _check_aligned(matrices: Sequence[ProbabilityMatrix]) -> None:
    ids = matrices[0].ids
    for m in matrices[1:]:
        if m.ids != ids:
            raise VoteError("probability matrices disagree on row ids or their order")


def majority_vote(matrices: Sequence[ProbabilityMatrix]) -> list[Label]:
    """Each model votes its argmax class per row; plurality wins.

    Ties on vote count break toward the tied class with the highest summed
    probability across models; an exact tie there falls back to the fixed
    column order (NH first).
    """
    return [LABEL_ORDER[i] for i in majority_winners(matrices).tolist()]


def majority_winners(matrices: Sequence[ProbabilityMatrix]) -> np.ndarray:
    """The column in LABEL_ORDER of each row's ``majority_vote`` winner."""
    ensemble_policy(len(matrices), "majority")
    _check_aligned(matrices)
    votes = np.stack([m.probs.argmax(axis=1) for m in matrices])  # (M, N)
    prob_sum = np.sum([m.probs for m in matrices], axis=0)  # (N, K)
    counts = (votes[:, :, None] == np.arange(N_CLASSES)).sum(axis=0)  # (N, K)
    leading = counts == counts.max(axis=1, keepdims=True)
    # Probabilities are non-negative, so -1 never wins; argmax takes the first
    # maximum, so an exact tie on the sum goes to column order.
    return np.where(leading, prob_sum, -1.0).argmax(axis=1)


def average_vote(
    matrices: Sequence[ProbabilityMatrix], weights: Sequence[float] | None = None
) -> tuple[list[Label], ProbabilityMatrix]:
    """Weight-normalized mean of the model rows; argmax of the mean wins.

    Returns the winning labels together with the combined matrix. Argmax ties
    break by column order; scaling all weights by a positive constant does not
    change the labels.
    """
    _, w = ensemble_policy(len(matrices), "average", weights)
    _check_aligned(matrices)
    if w is None:
        w = np.ones(len(matrices))
    w = w / w.sum()
    combined = np.zeros_like(matrices[0].probs)
    for weight, matrix in zip(w, matrices):
        combined += weight * matrix.probs
    pm = ProbabilityMatrix(ids=list(matrices[0].ids), probs=combined)
    return pm.argmax_labels(), pm


def write_proba_csv(path: str | Path, matrix: ProbabilityMatrix) -> None:
    """Persist a probability cache (atomically): header id,p_NH,p_GH,p_Re,p_Ra,p_Se."""
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PROBA_CSV_HEADER)
        # csv writes each float as its repr.
        writer.writerows([row_id, *probs] for row_id, probs in zip(matrix.ids, matrix.probs.tolist()))


def read_proba_csv(path: str | Path) -> ProbabilityMatrix:
    ids = []
    rows = []
    with open_input(path, "probability cache", VoteError, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != PROBA_CSV_HEADER:
            raise VoteError(f"{path}: unexpected header {header!r}")
        for record in reader:
            if len(record) != len(PROBA_CSV_HEADER):
                raise VoteError(f"{path}: malformed row {record!r}")
            ids.append(record[0])
            try:
                rows.append([float(v) for v in record[1:]])
            except ValueError:
                raise VoteError(
                    f"{path} line {reader.line_num}: probabilities must be numbers, got {record[1:]!r}"
                ) from None
    probs = np.asarray(rows, dtype=float) if rows else np.zeros((0, N_CLASSES))
    return ProbabilityMatrix(ids=ids, probs=probs)
