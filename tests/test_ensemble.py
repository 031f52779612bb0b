"""Voting: brute-force equivalence, tie rules, weights and cache round trips."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arahate import encoder
from arahate.classifiers import Classifier
from arahate.encoder import EncoderSpec, HyperParams
from arahate.ensemble import (
    EnsemblePolicyError,
    ProbabilityMatrix,
    VoteError,
    average_vote,
    ensemble_policy,
    majority_vote,
    read_proba_csv,
    write_proba_csv,
)
from arahate.labels import LABEL_ORDER, N_CLASSES, Label

from conftest import class_word, make_separable_corpus


def pm(rows, ids=None):
    rows = np.asarray(rows, dtype=float)
    if ids is None:
        ids = [str(i) for i in range(rows.shape[0])]
    return ProbabilityMatrix(ids=ids, probs=rows)


def one_hotish(winner: int, peak=0.6):
    row = np.full(5, (1 - peak) / 4)
    row[winner] = peak
    return row


# Independent re-statement of the voting rule in plain loops, used as the
# oracle: plurality, then highest summed probability among tied classes,
# then lowest column index.
def oracle_majority(model_rows):
    votes = []
    for row in model_rows:
        best, best_p = 0, row[0]
        for k in range(1, 5):
            if row[k] > best_p:
                best, best_p = k, row[k]
        votes.append(best)
    counts = [votes.count(k) for k in range(5)]
    top = max(counts)
    tied = [k for k in range(5) if counts[k] == top]
    if len(tied) > 1:
        sums = {k: sum(row[k] for row in model_rows) for k in tied}
        best_sum = max(sums.values())
        tied = [k for k in tied if sums[k] == best_sum]
    return tied[0]


def loop_majority_vote(matrices):
    """The per-row loop majority_vote replaced; the property test's oracle."""
    votes = np.stack([m.probs.argmax(axis=1) for m in matrices])
    prob_sum = np.sum([m.probs for m in matrices], axis=0)
    out = []
    for row in range(votes.shape[1]):
        counts = np.bincount(votes[:, row], minlength=N_CLASSES)
        tied = np.flatnonzero(counts == counts.max())
        if len(tied) > 1:
            sums = prob_sum[row, tied]
            tied = tied[np.flatnonzero(sums == sums.max())]
        out.append(LABEL_ORDER[int(tied[0])])
    return out


# Rows are quarters: four units dropped into five classes. Sums of quarters are
# exact, so ties on vote count and on summed probability both occur often.
quarter_row = st.lists(st.integers(0, N_CLASSES - 1), min_size=4, max_size=4).map(
    lambda units: np.bincount(units, minlength=N_CLASSES) / 4
)


@st.composite
def quarter_matrices(draw):
    n_models = draw(st.integers(2, 5))
    n_rows = draw(st.integers(0, 6))
    return [
        pm(np.reshape([draw(quarter_row) for _ in range(n_rows)], (n_rows, N_CLASSES)))
        for _ in range(n_models)
    ]


class TestMajorityVote:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(quarter_matrices())
    def test_matches_per_row_loop_on_tied_grids(self, matrices):
        assert majority_vote(matrices) == loop_majority_vote(matrices)

    def test_unanimous(self):
        matrices = [pm([one_hotish(2)]) for _ in range(3)]
        assert majority_vote(matrices) == [Label.Re]

    def test_two_against_one(self):
        matrices = [pm([one_hotish(0)]), pm([one_hotish(0)]), pm([one_hotish(1)])]
        assert majority_vote(matrices) == [Label.NH]

    def test_three_way_tie_resolved_by_probability_sum(self):
        # votes (NH, GH, Re) with GH carrying the largest summed probability
        m1 = pm([[0.40, 0.35, 0.05, 0.10, 0.10]])
        m2 = pm([[0.05, 0.50, 0.25, 0.10, 0.10]])
        m3 = pm([[0.10, 0.14, 0.40, 0.26, 0.10]])
        assert majority_vote([m1, m2, m3]) == [Label.GH]

    def test_exact_tie_falls_back_to_column_order(self):
        # Identical peak mass on the three voted classes: NH wins by order.
        m1 = pm([one_hotish(4)])
        m2 = pm([one_hotish(2)])
        m3 = pm([one_hotish(0)])
        assert majority_vote([m1, m2, m3]) == [Label.NH]

    def test_exhaustive_three_model_patterns(self):
        # All 125 argmax vote patterns against the independent oracle.
        for pattern in itertools.product(range(5), repeat=3):
            rows = [one_hotish(w) for w in pattern]
            matrices = [pm([row]) for row in rows]
            expected = LABEL_ORDER[oracle_majority(rows)]
            assert majority_vote(matrices) == [expected], f"pattern {pattern}"

    def test_random_triples_match_oracle(self):
        rng = np.random.default_rng(123)
        for _ in range(500):
            rows = [rng.dirichlet(np.ones(5)) for _ in range(3)]
            matrices = [pm([row]) for row in rows]
            expected = LABEL_ORDER[oracle_majority(rows)]
            assert majority_vote(matrices) == [expected]

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        matrices = [pm(rng.dirichlet(np.ones(5), size=12)) for _ in range(3)]
        base = majority_vote(matrices)
        for perm in itertools.permutations(matrices):
            assert majority_vote(list(perm)) == base

    def test_misaligned_ids_rejected(self):
        a = pm([one_hotish(0)], ids=["x"])
        b = pm([one_hotish(0)], ids=["y"])
        with pytest.raises(VoteError, match="ids"):
            majority_vote([a, b])

    def test_single_matrix_rejected(self):
        with pytest.raises(VoteError):
            majority_vote([pm([one_hotish(0)])])

    def test_empty_list_rejected(self):
        with pytest.raises(VoteError):
            majority_vote([])


class TestAverageVote:
    def test_identical_matrices_equal_single_argmax(self):
        rng = np.random.default_rng(5)
        probs = rng.dirichlet(np.ones(5), size=9)
        matrix = pm(probs)
        labels, combined = average_vote([matrix, pm(probs.copy()), pm(probs.copy())], [3, 1, 7])
        assert labels == matrix.argmax_labels()
        assert np.abs(combined.probs - probs).max() < 1e-12

    def test_hand_arithmetic_example(self):
        a = pm([[0.6, 0.4, 0, 0, 0]])
        b = pm([[0.2, 0.8, 0, 0, 0]])
        labels, combined = average_vote([a, b])
        assert labels == [Label.GH]
        assert np.allclose(combined.probs[0], [0.4, 0.6, 0, 0, 0])

    def test_degenerate_weight_selects_single_model(self):
        rng = np.random.default_rng(6)
        a, b = pm(rng.dirichlet(np.ones(5), size=4)), pm(rng.dirichlet(np.ones(5), size=4))
        labels, combined = average_vote([a, b], weights=[1, 0])
        assert labels == a.argmax_labels()
        assert np.abs(combined.probs - a.probs).max() < 1e-12

    def test_combined_rows_sum_to_one(self):
        rng = np.random.default_rng(8)
        matrices = [pm(rng.dirichlet(np.ones(5), size=20)) for _ in range(3)]
        _, combined = average_vote(matrices, weights=[0.2, 1.3, 2.5])
        assert np.abs(combined.probs.sum(axis=1) - 1.0).max() < 1e-6

    def test_weight_scaling_invariance(self):
        rng = np.random.default_rng(9)
        matrices = [pm(rng.dirichlet(np.ones(5), size=15)) for _ in range(3)]
        weights = [0.5, 1.5, 2.0]
        base, _ = average_vote(matrices, weights)
        scaled, _ = average_vote(matrices, [w * 37.5 for w in weights])
        assert base == scaled

    def test_random_triples_match_mean_argmax_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(500):
            stack = np.stack([rng.dirichlet(np.ones(5), size=3) for _ in range(3)])
            matrices = [pm(stack[m]) for m in range(3)]
            labels, combined = average_vote(matrices)
            mean = stack.mean(axis=0)
            assert np.abs(combined.probs - mean).max() < 1e-12
            assert [LABEL_ORDER[i] for i in mean.argmax(axis=1)] == labels

    def test_all_zero_weights_rejected(self):
        matrices = [pm([one_hotish(0)]), pm([one_hotish(1)])]
        with pytest.raises(VoteError, match="zero"):
            average_vote(matrices, weights=[0, 0])

    def test_negative_weights_rejected(self):
        matrices = [pm([one_hotish(0)]), pm([one_hotish(1)])]
        with pytest.raises(VoteError, match="non-negative"):
            average_vote(matrices, weights=[1, -1])

    @pytest.mark.parametrize("weights", [[1, np.nan], [1, np.inf], [np.nan, np.nan]])
    def test_non_finite_weights_rejected(self, weights):
        # NaN compares False with everything, so it would slip past the sign
        # and all-zero checks and turn the combined matrix into NaN.
        with pytest.raises(EnsemblePolicyError, match=r"weights must be finite, got \[.*(nan|inf)"):
            ensemble_policy(2, "average", weights)


class TestProbabilityMatrix:
    def test_row_sum_enforced(self):
        with pytest.raises(VoteError, match="sum to 1"):
            pm([[0.5, 0.1, 0.1, 0.1, 0.1]])

    def test_negative_probability_rejected(self):
        with pytest.raises(VoteError, match="non-negative"):
            pm([[1.2, -0.2, 0, 0, 0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_probability_rejected(self, bad):
        # NaN compares False with everything, so a NaN cell would slip past
        # both the sign and the row-sum checks.
        with pytest.raises(VoteError, match="finite"):
            pm([[0.5, 0.5, 0, 0, 0], [bad, 1.0, 0, 0, 0]])

    def test_shape_enforced(self):
        with pytest.raises(VoteError):
            ProbabilityMatrix(ids=["a"], probs=np.ones((1, 4)) / 4)

    def test_id_count_enforced(self):
        with pytest.raises(VoteError):
            ProbabilityMatrix(ids=["a", "b"], probs=np.asarray([one_hotish(0)]))

    def test_argmax_tie_breaks_by_column_order(self):
        matrix = pm([[0.3, 0.3, 0.3, 0.05, 0.05]])
        assert matrix.argmax_labels() == [Label.NH]


class TestVotingDispatch:
    # None weights meaning uniform is covered by
    # TestAverageVote::test_random_triples_match_mean_argmax_oracle.
    MEMBERS = [(EncoderSpec("toy"), HyperParams(1, 8, 0.1, seed=i)) for i in range(3)]

    def test_bad_mode_rejected(self):
        with pytest.raises(VoteError):
            Classifier(self.MEMBERS, mode="plurality")

    def test_weight_count_enforced(self):
        with pytest.raises(VoteError):
            Classifier(self.MEMBERS, mode="average", weights=(1.0, 2.0))

    def test_majority_confidence_equals_per_member_oracle(self):
        classifier = Classifier(self.MEMBERS).fit(make_separable_corpus(n_per_class=6, seed=31))
        rng = np.random.default_rng(32)
        # Words of two classes per text, so the members disagree on some rows.
        texts = [f"{class_word(LABEL_ORDER[i % 5], rng)} {class_word(LABEL_ORDER[i % 3], rng)}" for i in range(40)]
        matrices = [encoder.predict_proba(model, texts) for model in classifier.models]
        labels = majority_vote(matrices)
        winners = [LABEL_ORDER.index(label) for label in labels]
        confidence = np.stack([m.probs for m in matrices])[:, np.arange(len(texts)), winners].mean(axis=0)
        got_labels, got_confidence = classifier.predict_with_confidence(texts)
        assert got_labels == labels
        assert got_confidence.tobytes() == confidence.tobytes()
        assert len({tuple(m.argmax_labels()) for m in matrices}) > 1


# Characters that need quoting or escaping in CSV and JSON lines.
AWKWARD_ID_CHARS = [",", '"', "'", "\n", "\r", "\t", " ", "\\", "a", "7", "ن", "\u2028"]


class TestCacheRoundTrip:
    def test_write_read_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        matrix = pm(rng.dirichlet(np.ones(5), size=13), ids=[f"row-{i}" for i in range(13)])
        path = tmp_path / "cache.csv"
        write_proba_csv(path, matrix)
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header == "id,p_NH,p_GH,p_Re,p_Ra,p_Se"
        back = read_proba_csv(path)
        assert back.ids == matrix.ids
        assert np.array_equal(back.probs, matrix.probs)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(st.text(st.sampled_from(AWKWARD_ID_CHARS), min_size=1, max_size=8), min_size=1, max_size=6, unique=True),
        st.integers(0, 2**32 - 1),
    )
    def test_awkward_ids_round_trip(self, tmp_path_factory, ids, seed):
        matrix = pm(np.random.default_rng(seed).dirichlet(np.ones(5), size=len(ids)), ids=ids)
        path = tmp_path_factory.mktemp("cache") / "cache.csv"
        write_proba_csv(path, matrix)
        back = read_proba_csv(path)
        assert back.ids == ids
        assert np.array_equal(back.probs, matrix.probs)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_rejected(self, tmp_path, cell):
        path = tmp_path / "cache.csv"
        path.write_text(f"id,p_NH,p_GH,p_Re,p_Ra,p_Se\na,1.0,0.0,0.0,0.0,0.0\nb,{cell},1.0,0.0,0.0,0.0\n", encoding="utf-8")
        with pytest.raises(VoteError, match="finite"):
            read_proba_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,a,b,c,d,e\n", encoding="utf-8")
        with pytest.raises(VoteError, match="header"):
            read_proba_csv(path)
