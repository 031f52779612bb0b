"""Classifier façades gluing encoders and voting together for the CV driver.

A fitted classifier exposes predict_labels / predict_proba /
predict_with_confidence over normalized texts; recipes (callables that train
a fresh classifier on a row list) are what cross-validation, tuning and
pseudo-labelling consume.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from . import encoder
from .corpus import LabeledText
from .ensemble import VoteError, _check_weights, average_vote, majority_vote
from .errors import ArahateError
from .labels import LABEL_INDEX, Label

Recipe = Callable[[Sequence[LabeledText]], "object"]


class NotFittedError(ArahateError):
    pass


class SingleModelClassifier:
    """One fine-tuned backend with an argmax decision rule."""

    def __init__(self, spec: encoder.EncoderSpec, hp: encoder.HyperParams):
        self.spec = spec
        self.hp = hp
        self.model: encoder.TrainedModel | None = None

    @property
    def fitted(self) -> bool:
        return self.model is not None

    def fit(self, rows: Sequence[LabeledText]) -> "SingleModelClassifier":
        self.model = encoder.fit(self.spec, self.hp, rows)
        return self

    def _require_fitted(self) -> encoder.TrainedModel:
        if self.model is None:
            raise NotFittedError("classifier has not been trained")
        return self.model

    def predict_proba(self, texts: Sequence[str]) -> np.ndarray:
        return encoder.predict_proba(self._require_fitted(), texts).probs

    def predict_labels(self, texts: Sequence[str]) -> list[Label]:
        return encoder.predict_proba(self._require_fitted(), texts).argmax_labels()

    def predict_with_confidence(self, texts: Sequence[str]) -> tuple[list[Label], np.ndarray]:
        matrix = encoder.predict_proba(self._require_fitted(), texts)
        labels = matrix.argmax_labels()
        confidence = matrix.probs.max(axis=1) if len(matrix) else np.zeros(0)
        return labels, confidence


class VotingEnsembleClassifier:
    """Several fine-tuned backends combined by hard or soft voting."""

    def __init__(
        self,
        members: Sequence[tuple[encoder.EncoderSpec, encoder.HyperParams]],
        mode: str = "majority",
        weights: Sequence[float] | None = None,
    ):
        if mode not in ("majority", "average"):
            raise VoteError(f"unknown ensemble mode {mode!r}")
        if len(members) < 2:
            raise VoteError("a voting ensemble needs at least two members")
        if weights is not None:
            _check_weights(weights, len(members))
        self.members = list(members)
        self.mode = mode
        self.weights = list(weights) if weights is not None else None
        self.models: list[encoder.TrainedModel] | None = None

    @property
    def fitted(self) -> bool:
        return self.models is not None

    def fit(self, rows: Sequence[LabeledText]) -> "VotingEnsembleClassifier":
        self.models = [encoder.fit(spec, hp, rows) for spec, hp in self.members]
        return self

    def _matrices(self, texts: Sequence[str]):
        if self.models is None:
            raise NotFittedError("ensemble has not been trained")
        ids = [str(i) for i in range(len(texts))]
        return [encoder.predict_proba(model, texts, ids) for model in self.models]

    def predict_labels(self, texts: Sequence[str]) -> list[Label]:
        return self.predict_with_confidence(texts)[0]

    def predict_proba(self, texts: Sequence[str]) -> np.ndarray:
        matrices = self._matrices(texts)
        _, combined = average_vote(matrices, self.weights)
        return combined.probs

    def predict_with_confidence(self, texts: Sequence[str]) -> tuple[list[Label], np.ndarray]:
        matrices = self._matrices(texts)
        if not texts:
            return [], np.zeros(0)
        if self.mode == "average":
            labels, combined = average_vote(matrices, self.weights)
            return labels, combined.probs.max(axis=1)
        labels = majority_vote(matrices)
        # Hard voting has no combined distribution; confidence is the mean
        # probability the members assign to the winning class.
        stacked = np.stack([m.probs for m in matrices])  # (M, N, K)
        cols = np.asarray([LABEL_INDEX[label] for label in labels])
        confidence = stacked[:, np.arange(len(labels)), cols].mean(axis=0)
        return labels, confidence


def build_classifier(
    members: Sequence[tuple[encoder.EncoderSpec, encoder.HyperParams]],
    mode: str | None = None,
    weights: Sequence[float] | None = None,
):
    """An untrained classifier over ``members``.

    mode "single" takes exactly one member; "majority" / "average" train every
    member and vote. Without a mode, one member is "single" and several are
    "majority".
    """
    members = list(members)
    if mode is None:
        mode = "single" if len(members) == 1 else "majority"
    if mode == "single":
        if len(members) != 1:
            raise VoteError("mode 'single' takes exactly one member")
        return SingleModelClassifier(*members[0])
    return VotingEnsembleClassifier(members, mode=mode, weights=weights)


def make_recipe(
    members: Sequence[tuple[encoder.EncoderSpec, encoder.HyperParams]],
    mode: str | None = None,
    weights: Sequence[float] | None = None,
) -> Recipe:
    """Build a recipe: rows -> freshly trained classifier (see build_classifier)."""
    members = list(members)
    build_classifier(members, mode, weights)  # reject a bad mode, member count or weights now
    return lambda rows: build_classifier(members, mode, weights).fit(rows)
