"""The classifier the CV driver, tuning and pseudo-labelling train and query.

A Classifier is a list of (encoder spec, hyperparameters) members plus the
rule that combines them (see ensemble.ensemble_policy). Its bound
``fit_many`` is the recipe cross-validation consumes: one row set per fold ->
one retrained copy per fold, every member of every fold trained in lockstep.
Its members predict in one ``encoder.predict_proba_many`` call, so members
trained in lockstep read the texts' feature rows once and share one product.
"""

from __future__ import annotations

import copy
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

    def fit(self, rows: Sequence[LabeledText]) -> "Classifier":
        (fitted,) = self.fit_many([rows])
        if isinstance(fitted, ArahateError):
            raise fitted
        self.models = fitted.models
        return self

    def fit_many(self, row_sets: Sequence[Sequence[LabeledText]]) -> list["Classifier | ArahateError"]:
        """A fitted copy of this classifier per row set, or the ArahateError that stopped it.

        Every member of every copy trains in one ``encoder.fit_many`` call.
        """
        size = len(self.members)
        outcomes = encoder.fit_many([(spec, hp, rows) for rows in row_sets for spec, hp in self.members])
        fitted: list[Classifier | ArahateError] = []
        for start in range(0, len(outcomes), size):
            models = outcomes[start : start + size]
            errors = [model for model in models if isinstance(model, ArahateError)]
            if errors:
                fitted.append(errors[0])
                continue
            clone = copy.copy(self)
            clone.models = models
            fitted.append(clone)
        return fitted

    def predict_labels(self, texts: Sequence[str]) -> list[Label]:
        return self.predict_with_confidence(texts)[0]

    def predict_with_confidence(self, texts: Sequence[str]) -> tuple[list[Label], np.ndarray]:
        if self.models is None:
            raise NotFittedError("classifier has not been trained")
        matrices = encoder.predict_proba_many(self.models, texts)
        if not texts:
            return [], np.zeros(0)
        if self.mode == "majority":
            labels = majority_vote(matrices)
            # Hard voting has no combined distribution; confidence is the mean
            # probability the members assign to the winning class.
            winners = np.fromiter(map(LABEL_INDEX.__getitem__, labels), dtype=np.intp, count=len(labels))
            stacked = np.stack([m.probs for m in matrices])  # (M, N, K)
            return labels, stacked[:, np.arange(len(labels)), winners].mean(axis=0)
        if self.mode == "average":
            labels, combined = average_vote(matrices, self.weights)
        else:
            combined = matrices[0]
            labels = combined.argmax_labels()
        return labels, combined.probs.max(axis=1)
