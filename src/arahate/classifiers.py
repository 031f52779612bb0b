"""The classifier the CV driver, tuning and pseudo-labelling train and query.

A Classifier is a list of (encoder spec, hyperparameters) members plus the
rule that combines them (see ensemble.ensemble_policy). Its bound ``fit`` is
the recipe cross-validation consumes: rows -> the same classifier, retrained.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import encoder
from .corpus import LabeledText
from .ensemble import average_vote, ensemble_policy, majority_vote
from .errors import ArahateError
from .labels import LABEL_INDEX, Label


class NotFittedError(ArahateError):
    pass


class Classifier:
    """One fine-tuned backend with an argmax rule, or several that vote.

    Without a mode, one member is "single" and several vote by "majority"
    (hard voting); "average" is soft voting with optional per-member weights.
    """

    def __init__(
        self,
        members: Sequence[tuple[encoder.EncoderSpec, encoder.HyperParams]],
        mode: str | None = None,
        weights: Sequence[float] | None = None,
    ):
        self.members = list(members)
        self.mode, self.weights = ensemble_policy(len(self.members), mode, weights)
        self.models: list[encoder.TrainedModel] | None = None

    @property
    def fitted(self) -> bool:
        return self.models is not None

    def fit(self, rows: Sequence[LabeledText]) -> "Classifier":
        self.models = [encoder.fit(spec, hp, rows) for spec, hp in self.members]
        return self

    def predict_labels(self, texts: Sequence[str]) -> list[Label]:
        return self.predict_with_confidence(texts)[0]

    def predict_with_confidence(self, texts: Sequence[str]) -> tuple[list[Label], np.ndarray]:
        if self.models is None:
            raise NotFittedError("classifier has not been trained")
        ids = [str(i) for i in range(len(texts))]
        matrices = [encoder.predict_proba(model, texts, ids) for model in self.models]
        if not texts:
            return [], np.zeros(0)
        if self.mode == "majority":
            labels = majority_vote(matrices)
            # Hard voting has no combined distribution; confidence is the mean
            # probability the members assign to the winning class.
            stacked = np.stack([m.probs for m in matrices])  # (M, N, K)
            cols = np.asarray([LABEL_INDEX[label] for label in labels])
            return labels, stacked[:, np.arange(len(labels)), cols].mean(axis=0)
        if self.mode == "average":
            labels, combined = average_vote(matrices, self.weights)
        else:
            combined = matrices[0]
            labels = combined.argmax_labels()
        return labels, combined.probs.max(axis=1)
