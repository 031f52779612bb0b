"""Coordinate search: staged sweeps, caching, tie-breaking, published optima."""

from __future__ import annotations

import csv

import numpy as np
import pytest

from arahate import encoder
from arahate.classifiers import Classifier
from arahate.encoder import EncoderSpec, HyperParams
from arahate.errors import ArahateError
from arahate.evaluate import cross_validate, stratified_folds
from arahate.tune import (
    SearchError,
    SearchGrid,
    coordinate_search,
    make_cv_protocol,
    write_trace_csv,
)

from conftest import make_separable_corpus

SPEC = EncoderSpec("toy")
DATA = []  # lookup-table protocols ignore the corpus


def pointwise(score):
    """A protocol that scores each point of a stage on its own call of ``score``.

    A point whose ``score`` raises an ArahateError fails alone.
    """

    def protocol(spec, points, data):
        outcomes = []
        for hp in points:
            try:
                outcomes.append(score(spec, hp, data))
            except ArahateError as exc:
                outcomes.append(exc)
        return outcomes

    return protocol


def table_protocol(epochs_scores, batch_scores, lr_scores, calls=None):
    """Score lookup mirroring the published single-axis sweeps.

    The three sweeps agree wherever they overlap (the batch sweep at batch 8
    equals the epochs sweep at the chosen epochs, and so on), so a simple
    precedence reproduces every score the staged search can request.
    """

    def protocol(spec, hp, data):
        if calls is not None:
            calls.append((hp.epochs, hp.batch_size, hp.learning_rate))
        if hp.learning_rate != 1e-5:
            return lr_scores[hp.learning_rate]
        if hp.batch_size != 8:
            return batch_scores[hp.batch_size]
        return epochs_scores[hp.epochs]

    return pointwise(protocol)


# Published sweep scores per model: epochs axis (batch 8, lr 1e-5), then batch
# axis at the best epochs, then lr axis at the best (epochs, batch).
PUBLISHED_SWEEPS = {
    "bert-base-arabertv02-twitter": (
        {2: 79.65, 3: 84.60, 4: 84.64, 5: 84.28, 10: 84.14},
        {8: 84.64, 16: 84.66, 32: 84.11, 64: 83.76},
        {1e-5: 84.66, 2e-5: 84.62, 3e-5: 84.53, 4e-5: 84.20, 5e-5: 83.17},
        (4, 16, 1e-5),
    ),
    "bert-large-arabertv02-twitter": (
        {2: 84.59, 3: 83.78, 4: 81.74, 5: 83.24, 10: 79.68},
        {8: 84.59, 16: 84.08, 32: 83.66, 64: 81.88},
        {1e-5: 84.59, 2e-5: 82.25, 3e-5: 78.29, 4e-5: 76.83, 5e-5: 83.66},
        (2, 8, 1e-5),
    ),
    "MARBERT": (
        {2: 83.98, 3: 84.14, 4: 83.91, 5: 83.58, 10: 83.11},
        {8: 84.14, 16: 83.87, 32: 84.07, 64: 82.92},
        {1e-5: 84.14, 2e-5: 83.42, 3e-5: 81.83, 4e-5: 80.55, 5e-5: 79.68},
        (3, 8, 1e-5),
    ),
}


class TestPublishedOptima:
    @pytest.mark.parametrize("model", sorted(PUBLISHED_SWEEPS))
    def test_search_recovers_published_configuration(self, model):
        epochs_scores, batch_scores, lr_scores, expected = PUBLISHED_SWEEPS[model]
        grid = SearchGrid()
        best, trace = coordinate_search(
            SPEC, grid, DATA, table_protocol(epochs_scores, batch_scores, lr_scores)
        )
        assert (best.epochs, best.batch_size, best.learning_rate) == expected
        assert len(trace) == 5 + 4 + 5


class TestSearchMechanics:
    def test_trace_length_and_cache_reuse(self):
        calls = []
        epochs_scores, batch_scores, lr_scores, _ = PUBLISHED_SWEEPS[
            "bert-base-arabertv02-twitter"
        ]
        _, trace = coordinate_search(
            SPEC,
            SearchGrid(),
            DATA,
            table_protocol(epochs_scores, batch_scores, lr_scores, calls),
        )
        assert len(trace) == 14  # sum of axis lengths
        # The incumbent is re-listed per stage but never re-evaluated.
        assert len(calls) == 12
        assert sum(1 for entry in trace if entry.cached) == 2

    def test_best_score_is_trace_maximum(self):
        epochs_scores, batch_scores, lr_scores, _ = PUBLISHED_SWEEPS["MARBERT"]
        protocol = table_protocol(epochs_scores, batch_scores, lr_scores)
        best, trace = coordinate_search(SPEC, SearchGrid(), DATA, protocol)
        best_score = protocol(SPEC, [best], DATA)[0]
        assert best_score >= max(entry.score for entry in trace if entry.score is not None)

    def test_single_point_grid(self):
        grid = SearchGrid(
            epochs_axis=(2,), batch_axis=(8,), lr_axis=(1e-5,),
            initial=HyperParams(2, 8, 1e-5),
        )
        best, trace = coordinate_search(SPEC, grid, DATA, pointwise(lambda s, hp, d: 50.0))
        assert (best.epochs, best.batch_size, best.learning_rate) == (2, 8, 1e-5)
        # One entry per axis: the same point is revisited (cached) per stage.
        assert len(trace) == 3
        assert [entry.cached for entry in trace] == [False, True, True]

    def test_value_repeated_in_an_axis_is_evaluated_once_and_listed_twice(self):
        grid = SearchGrid(epochs_axis=(2, 2), batch_axis=(8,), lr_axis=(1e-5,), initial=HyperParams(2, 8, 1e-5))
        seen = []
        best, trace = coordinate_search(SPEC, grid, DATA, pointwise(lambda s, hp, d: seen.append(hp) or (50.0, hp)))
        assert best == grid.initial and seen == [grid.initial]
        assert [(entry.stage, entry.cached) for entry in trace] == [
            ("epochs", False), ("epochs", True), ("batch", True), ("lr", True)
        ]
        assert all((entry.hp, entry.score, entry.detail) == (grid.initial, 50.0, grid.initial) for entry in trace)

    def test_flat_scores_break_ties_toward_cheap(self):
        grid = SearchGrid(
            epochs_axis=(2, 3, 4), batch_axis=(8, 16), lr_axis=(1e-5, 2e-5),
            initial=HyperParams(3, 16, 2e-5),
        )
        best, _ = coordinate_search(SPEC, grid, DATA, pointwise(lambda s, hp, d: 42.0))
        assert (best.epochs, best.batch_size, best.learning_rate) == (2, 8, 1e-5)

    def test_failed_points_excluded(self):
        def protocol(spec, hp, data):
            if hp.epochs == 4:
                raise ArahateError("diverged")
            return float(hp.epochs)

        best, trace = coordinate_search(SPEC, SearchGrid(), DATA, pointwise(protocol))
        assert best.epochs == 10  # the highest-scoring non-failed point
        failed = [entry for entry in trace if entry.failed]
        assert len(failed) == 1 and failed[0].hp.epochs == 4
        assert failed[0].score is None

    def test_all_points_failing_aborts(self):
        def protocol(spec, hp, data):
            raise ArahateError("nope")

        with pytest.raises(SearchError, match="every grid point failed"):
            coordinate_search(SPEC, SearchGrid(), DATA, protocol)

    def test_initial_must_be_on_axes(self):
        with pytest.raises(SearchError, match="initial"):
            SearchGrid(epochs_axis=(2, 3), initial=HyperParams(4, 8, 1e-5))

    def test_grid_from_mapping_seed_rule(self):
        base = HyperParams(3, 16, 2e-5, seed=9)
        assert SearchGrid.from_mapping({}, base) == SearchGrid(initial=base)
        initial = {"epochs": 1, "batch_size": 8, "learning_rate": 1e-5, "seed": 4}
        grid = SearchGrid.from_mapping({"epochs_axis": [1, 3], "initial": initial}, base)
        assert grid.epochs_axis == (1, 3)
        assert grid.initial == HyperParams(1, 8, 1e-5, seed=9)

    def test_protocol_detail_is_kept(self):
        def protocol(spec, hp, data):
            return 1.0, {"hp": hp}

        _, trace = coordinate_search(SPEC, SearchGrid(), DATA, pointwise(protocol))
        assert trace[0].detail == {"hp": trace[0].hp}


class TestToyEndToEnd:
    def test_more_epochs_help_on_separable_data(self):
        corpus = make_separable_corpus(n_per_class=10, seed=20)
        plan = stratified_folds(corpus, k=5, seed=1)
        protocol = make_cv_protocol(plan)
        grid = SearchGrid(
            epochs_axis=(1, 5), batch_axis=(8,), lr_axis=(0.1,),
            initial=HyperParams(1, 8, 0.1, seed=1),
        )
        best, trace = coordinate_search(EncoderSpec("toy"), grid, corpus, protocol)
        scores = {entry.hp.epochs: entry.score for entry in trace if entry.stage == "epochs"}
        assert scores[5] >= scores[1]
        assert len(trace) == 2 + 1 + 1

    def test_reproducible_trace_scores(self):
        corpus = make_separable_corpus(n_per_class=10, seed=21)
        plan = stratified_folds(corpus, k=5, seed=2)
        grid = SearchGrid(
            epochs_axis=(1, 2), batch_axis=(8,), lr_axis=(0.1,),
            initial=HyperParams(1, 8, 0.1, seed=3),
        )
        first = coordinate_search(EncoderSpec("toy"), grid, corpus, make_cv_protocol(plan))
        second = coordinate_search(EncoderSpec("toy"), grid, corpus, make_cv_protocol(plan))
        assert [e.score for e in first[1]] == [e.score for e in second[1]]
        assert first[0] == second[0]


def separately(plan):
    """The protocol that cross-validates each point on its own, one fit per point and fold."""

    def score(spec, hp, data):
        report = cross_validate(data, Classifier([(spec, hp)]).fit_many, plan)
        return report.micro_f1, report

    return pointwise(score)


def fail_fits_at_step(monkeypatch, step):
    """Make the ``step``-th mini-batch step (0-based) of every toy fit turn its bias non-finite.

    The fit then fails at the end of that step's epoch, alone: the other fits
    of its lockstep group go on.
    """
    real = encoder.toy_forward_backward
    done: dict[int, int] = {}  # steps taken by each model of the running lockstep group

    def patched(params, features, labels, owner):
        if not params.bias.any():  # a lockstep group's first step: every bias starts at zero
            done.clear()
        loss, (grad_w, grad_b) = real(params, features, labels, owner)
        for model in np.unique(owner):
            done[model] = done.get(model, 0) + 1
            if done[model] == step + 1:
                grad_b[model] = np.nan
        return loss, (grad_w, grad_b)

    monkeypatch.setattr(encoder, "toy_forward_backward", patched)


class TestSharedEpochFits:
    # 11 rows per class in 5 folds: fold 0 trains on 40 rows (5 steps of 8 per
    # epoch), folds 1-4 on 45 (6 steps). A failure in step 10 then falls in
    # epoch 3 of fold 0 and in epoch 2 of every other fold.
    CORPUS = make_separable_corpus(n_per_class=11, seed=22)
    PLAN = stratified_folds(CORPUS, k=5, seed=3)
    GRID = SearchGrid(
        epochs_axis=(1, 2, 3), batch_axis=(8, 16), lr_axis=(0.1, 0.2),
        initial=HyperParams(1, 8, 0.1, seed=4),
    )

    @staticmethod
    def rows(trace):
        return [(e.stage, e.hp, e.score, e.failed, e.cached, e.detail) for e in trace]

    def search(self, protocol, monkeypatch, fail_step):
        fits = []  # the hyperparameters of every fit requested, in order
        fit_many = encoder.fit_many
        with monkeypatch.context() as patch:
            patch.setattr(
                encoder, "fit_many", lambda entries, *hook: fits.extend(hp for _, hp, _ in entries) or fit_many(entries, *hook)
            )
            if fail_step is not None:
                fail_fits_at_step(patch, fail_step)
            best, trace = coordinate_search(SPEC, self.GRID, self.CORPUS, protocol)
        return best, trace, fits

    def test_one_fit_per_fold_covers_the_epochs_axis(self, monkeypatch):
        best, trace, fits = self.search(make_cv_protocol(self.PLAN), monkeypatch, None)
        expected_best, expected_trace, separate_fits = self.search(separately(self.PLAN), monkeypatch, None)
        assert best == expected_best
        assert self.rows(trace) == self.rows(expected_trace)
        epochs_fits = [hp.epochs for hp in fits if hp.batch_size == 8 and hp.learning_rate == 0.1]
        assert epochs_fits == [3] * 5
        assert len(separate_fits) - len(fits) == 10  # the 1- and 2-epoch fits of every fold

    def test_failure_at_one_epoch_fails_only_that_epoch_and_above(self, monkeypatch):
        best, trace, fits = self.search(make_cv_protocol(self.PLAN), monkeypatch, 10)
        expected_best, expected_trace, _ = self.search(separately(self.PLAN), monkeypatch, 10)
        assert best == expected_best
        assert self.rows(trace) == self.rows(expected_trace)
        epochs = [(e.hp.epochs, e.failed) for e in trace if e.stage == "epochs"]
        assert epochs == [(1, False), (2, True), (3, True)]
        failure = "training or prediction failed: non-finite model parameters after an epoch"
        assert trace[1].detail == f"fold 1: {failure}"
        assert trace[2].detail == f"fold 0: {failure}"
        # Every fold trains to 3 epochs in one lockstep group: fold 0 fails in
        # epoch 3 and folds 1-4 in epoch 2, each alone. The batch and lr
        # stages then fit the 1-epoch winner's neighbours, one fit per fold.
        assert [hp.epochs for hp in fits] == [3] * 5 + [1] * 10


class TestTraceCsv:
    def test_layout(self, tmp_path):
        epochs_scores, batch_scores, lr_scores, _ = PUBLISHED_SWEEPS[
            "bert-base-arabertv02-twitter"
        ]
        _, trace = coordinate_search(
            SPEC, SearchGrid(), DATA, table_protocol(epochs_scores, batch_scores, lr_scores)
        )
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 14
        assert rows[0].keys() == {
            "stage", "epochs", "batch_size", "learning_rate", "micro_f1", "status"
        }
        assert [row["stage"] for row in rows] == ["epochs"] * 5 + ["batch"] * 4 + ["lr"] * 5
        assert {row["status"] for row in rows} <= {"evaluated", "cached", "failed"}
