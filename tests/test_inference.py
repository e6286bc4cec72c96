"""Categorical arithmetic, message passing, and the free-energy bound: the package's log-space
helpers, and the reference in tests/reference.py held to exact Bayes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefshare.errors import EmptyInput, ShapeError
from beliefshare.inference import LOG_FLOOR, floored_log, softmax
from beliefshare.world import WorldGraph
from reference import (
    CategoricalBelief,
    DegenerateDistribution,
    FactorMismatch,
    IncompleteParents,
    InvalidAction,
    LikelihoodTensor,
    LogMessage,
    ObservationEvent,
    TransitionTensor,
    build_B1,
    exact_bayes_oracle,
    likelihood_message,
    normalize,
    transition_prediction,
    variational_free_energy,
    vmp_update,
)


def belief(probs, factor="object"):
    return CategoricalBelief(factor, np.asarray(probs, dtype=float))


@st.composite
def prob_vectors(draw, min_size=2, max_size=6):
    n = draw(st.integers(min_size, max_size))
    raw = draw(
        st.lists(st.floats(1e-3, 1.0, allow_nan=False), min_size=n, max_size=n)
    )
    v = np.asarray(raw)
    return v / v.sum()


class TestNormalize:
    def test_proportionality(self):
        assert np.allclose(normalize([2, 2, 0]), [0.5, 0.5, 0])

    def test_singleton(self):
        assert np.allclose(normalize([1]), [1.0])

    def test_hand_bayes_product(self):
        # one not-visible likelihood column applied to a uniform prior
        post = normalize(np.array([0.2, 0.8, 0.8]) / 3.0)
        assert np.allclose(post, [1 / 9, 4 / 9, 4 / 9], atol=1e-12)

    def test_rejects_zero_mass(self):
        with pytest.raises(DegenerateDistribution):
            normalize([0.0, 0.0])
        with pytest.raises(EmptyInput):
            normalize([])

    def test_rejects_negative(self):
        with pytest.raises(DegenerateDistribution):
            normalize([0.5, -0.1])


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(softmax([0.0, 0.0]), [0.5, 0.5])

    def test_constant_vector(self):
        for c in (-3.0, 0.0, 17.5):
            assert np.allclose(softmax([c, c, c]), [1 / 3, 1 / 3, 1 / 3])

    def test_direct_evaluation(self):
        assert np.allclose(softmax([0.0, -np.log(4)]), [0.8, 0.2], atol=1e-12)

    def test_empty(self):
        with pytest.raises(EmptyInput):
            softmax([])

    @given(
        st.lists(st.floats(-30, 30), min_size=1, max_size=8),
        st.floats(-50, 50),
    )
    @settings(max_examples=200)
    def test_shift_invariance(self, logits, c):
        z = np.asarray(logits)
        assert np.allclose(softmax(z + c), softmax(z), atol=1e-12)


class TestTypes:
    def test_belief_rejects_bad_sum(self):
        with pytest.raises(DegenerateDistribution):
            belief([0.5, 0.6])

    def test_belief_rejects_negative(self):
        with pytest.raises(DegenerateDistribution):
            belief([1.2, -0.2])

    def test_vectors_are_non_empty_1d(self):
        for probs in ([], [[0.5, 0.5]]):
            with pytest.raises(ShapeError, match="non-empty 1-D"):
                belief(probs)
            with pytest.raises(ShapeError, match="non-empty 1-D"):
                LogMessage("object", probs)

    def test_likelihood_rejects_non_stochastic(self):
        with pytest.raises(ShapeError):
            LikelihoodTensor("m", ("location",), np.array([[0.99, 0.01], [0.02, 0.99]]))
        with pytest.raises(ShapeError, match="has 2 axes, expected outcome \\+ 2 parents"):
            LikelihoodTensor("m", ("location", "object"), np.eye(2))
        # columns sum to 1, yet an entry lies outside [0, 1]
        with pytest.raises(ShapeError, match="entries must lie in"):
            LikelihoodTensor("m", ("location",), np.array([[1.5, 0.5], [-0.5, 0.5]]))

    def test_transition_rejects_non_stochastic(self):
        table = np.ones((2, 2, 1))
        with pytest.raises(ShapeError):
            TransitionTensor("location", table)
        with pytest.raises(ShapeError, match="3 axes"):
            TransitionTensor("location", np.eye(2))
        with pytest.raises(ShapeError, match="negative"):
            TransitionTensor("location", np.array([[1.5, 0.0], [-0.5, 1.0]])[:, :, None])

    def test_observation_must_be_an_outcome_index(self):
        with pytest.raises(ShapeError):
            ObservationEvent("visibility", np.array([0.5, 0.5]))
        with pytest.raises(ShapeError):
            ObservationEvent("visibility", -1)


def vis_tensor(n=3):
    """Visibility-style table over (location, object): 0.8 co-located, 0.2 apart."""
    table = np.empty((2, n, n))
    table[0] = 0.2
    table[1] = 0.8
    idx = np.arange(n)
    table[0, idx, idx] = 0.8
    table[1, idx, idx] = 0.2
    return LikelihoodTensor("visibility", ("location", "object"), table)


class TestLikelihoodMessage:
    def test_two_factor_contraction_sharp_co_parent(self):
        A = vis_tensor(3)
        loc = belief([1.0, 0.0, 0.0], "location")
        msg = likelihood_message(A, ObservationEvent("visibility", 0), [loc], "object")
        assert np.allclose(msg.logits, np.log([0.8, 0.2, 0.2]), atol=1e-12)

    def test_uniform_table_carries_no_information(self):
        table = np.full((4, 3), 0.25)
        A = LikelihoodTensor("m", ("object",), table)
        for value in (0, 2, 3):
            msg = likelihood_message(A, ObservationEvent("m", value), [], "object")
            assert np.allclose(msg.logits, msg.logits[0])

    def test_near_identity_location_column(self):
        # 0.99 diagonal with the leftover 0.01 split over the other entries
        n = 3
        table = np.full((n, n), 0.005)
        np.fill_diagonal(table, 0.99)
        A = LikelihoodTensor("location", ("location",), table)
        msg = likelihood_message(A, ObservationEvent("location", 2), [], "location")
        assert np.allclose(msg.logits, np.log([0.005, 0.005, 0.99]), atol=1e-12)

    def test_missing_co_parent(self):
        A = vis_tensor(3)
        with pytest.raises(IncompleteParents):
            likelihood_message(A, ObservationEvent("visibility", 0), [], "object")

    def test_unknown_target(self):
        A = vis_tensor(3)
        with pytest.raises(FactorMismatch):
            likelihood_message(A, ObservationEvent("visibility", 0), [], "reward")

    def test_shape_mismatch(self):
        A = vis_tensor(3)
        loc = belief([0.5, 0.5], "location")
        with pytest.raises(ShapeError):
            likelihood_message(A, ObservationEvent("visibility", 0), [loc], "object")

    def test_outcome_out_of_range(self):
        A = vis_tensor(3)
        loc = belief([1.0, 0.0, 0.0], "location")
        with pytest.raises(ShapeError):
            likelihood_message(A, ObservationEvent("visibility", 5), [loc], "object")


class TestTransitionPrediction:
    def test_identity_dynamics(self):
        B = TransitionTensor("object", np.eye(2)[:, :, None])
        msg = transition_prediction(B, belief([0.3, 0.7]), 0)
        assert np.allclose(msg.logits, np.log([0.3, 0.7]), atol=1e-12)

    def test_path_graph_move(self):
        # 0-1-2 path; action = target node, stay if not adjacent
        graph = WorldGraph.from_edges(3, [(0, 1), (1, 2)])
        B1 = build_B1(graph)
        one_hot = belief([1.0, 0.0, 0.0], "location")
        moved = transition_prediction(B1, one_hot, 1)
        assert np.argmax(moved.logits) == 1
        assert moved.logits[0] <= LOG_FLOOR
        stayed = transition_prediction(B1, one_hot, 2)
        assert np.argmax(stayed.logits) == 0

    def test_invalid_action(self):
        B = TransitionTensor("object", np.eye(2)[:, :, None])
        with pytest.raises(InvalidAction):
            transition_prediction(B, belief([0.3, 0.7]), 1)

    def test_belief_must_fit_dynamics(self):
        B = TransitionTensor("object", np.eye(2)[:, :, None])
        with pytest.raises(FactorMismatch):
            transition_prediction(B, belief([0.3, 0.7], "location"), 0)
        with pytest.raises(ShapeError):
            transition_prediction(B, belief([0.2, 0.3, 0.5]), 0)


class TestVmpUpdate:
    def test_flat_prior_single_message(self):
        prior = LogMessage("object", np.zeros(2))
        msg = LogMessage("object", np.log([0.8, 0.2]))
        post = vmp_update(prior, [msg])
        assert np.allclose(post.probs, [0.8, 0.2], atol=1e-12)

    def test_no_evidence_returns_prior(self):
        probs = np.array([0.95, 0.01, 0.04])
        prior = LogMessage("object", floored_log(probs))
        post = vmp_update(prior, [])
        assert np.allclose(post.probs, probs, atol=1e-12)

    def test_three_state_bayes(self):
        prior = LogMessage("object", np.log(np.full(3, 1 / 3)))
        msg = LogMessage("object", np.log([0.2, 0.8, 0.8]))
        post = vmp_update(prior, [msg])
        assert np.allclose(post.probs, [1 / 9, 4 / 9, 4 / 9], atol=1e-12)

    def test_factor_mismatch(self):
        prior = LogMessage("object", np.zeros(2))
        with pytest.raises(FactorMismatch):
            vmp_update(prior, [LogMessage("location", np.zeros(2))])
        with pytest.raises(ShapeError):
            vmp_update(prior, [LogMessage("object", np.zeros(3))])

    @given(prob_vectors(), st.data())
    @settings(max_examples=150)
    def test_matches_exact_bayes_oracle(self, prior_probs, data):
        """Hard observations on one modality: message passing == direct Bayes."""
        n = prior_probs.size
        n_obs = data.draw(st.integers(1, 4))
        columns = []
        msgs = []
        for _ in range(n_obs):
            col = np.asarray(
                data.draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
            )
            columns.append(col)
            msgs.append(LogMessage("object", np.log(col)))
        prior = belief(prior_probs)
        via_oracle = exact_bayes_oracle(prior, columns)
        via_vmp = vmp_update(LogMessage("object", floored_log(prior_probs)), msgs)
        assert np.abs(via_vmp.probs - via_oracle.probs).max() < 1e-10


class TestFreeEnergy:
    def test_zero_at_prior_without_evidence(self):
        q = belief([0.4, 0.6])
        assert variational_free_energy(q, q, []) == pytest.approx(0.0, abs=1e-12)

    def test_equals_negative_log_evidence_at_posterior(self):
        prior = belief([0.5, 0.5])
        msg = LogMessage("object", np.log([0.8, 0.2]))
        q = belief([0.8, 0.2])
        F = variational_free_energy(q, prior, [msg])
        assert F == pytest.approx(np.log(2.0), abs=1e-12)

    def test_mismatched_inputs(self):
        q = belief([0.4, 0.6])
        with pytest.raises(FactorMismatch):
            variational_free_energy(q, belief([0.4, 0.6], "location"), [])
        with pytest.raises(ShapeError):
            variational_free_energy(q, belief([0.2, 0.3, 0.5]), [])
        with pytest.raises(ShapeError):
            variational_free_energy(q, q, [LogMessage("object", np.zeros(3))])

    def test_bound_property_on_grid(self):
        prior = belief([0.5, 0.5])
        msg = LogMessage("object", np.log([0.8, 0.2]))
        f_min = variational_free_energy(belief([0.8, 0.2]), prior, [msg])
        for x in np.linspace(0.001, 0.999, 101):
            f = variational_free_energy(belief([x, 1 - x]), prior, [msg])
            assert f >= f_min - 1e-12

    @given(prob_vectors(min_size=2, max_size=3), st.data())
    @settings(max_examples=100)
    def test_minimum_is_exact_posterior(self, prior_probs, data):
        n = prior_probs.size
        col = np.asarray(data.draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
        prior = belief(prior_probs)
        msg = LogMessage("object", np.log(col))
        evidence = float(prior_probs @ col)
        posterior = exact_bayes_oracle(prior, [col])
        F = variational_free_energy(posterior, prior, [msg])
        assert F == pytest.approx(-np.log(evidence), abs=1e-10)


class TestExactBayesOracle:
    def test_single_column(self):
        post = exact_bayes_oracle(belief([0.5, 0.5]), [np.array([0.8, 0.2])])
        assert np.allclose(post.probs, [0.8, 0.2])

    def test_no_columns_is_identity(self):
        post = exact_bayes_oracle(belief([0.6, 0.4]), [])
        assert np.allclose(post.probs, [0.6, 0.4])

    def test_repeated_contradiction_odds(self):
        # prior odds 19, four 0.25 likelihood ratios: 19/256 odds left
        prior = belief([0.95, 0.05])
        cols = [np.array([0.2, 0.8])] * 4
        post = exact_bayes_oracle(prior, cols)
        odds = 19 * 0.25**4
        assert post.probs[0] == pytest.approx(odds / (1 + odds), abs=1e-12)
        assert post.probs[0] == pytest.approx(0.069, abs=1e-3)

    def test_degenerate(self):
        with pytest.raises(DegenerateDistribution):
            exact_bayes_oracle(belief([1.0, 0.0]), [np.array([0.0, 1.0])])
        with pytest.raises(ShapeError):
            exact_bayes_oracle(belief([1.0, 0.0]), [np.array([0.2, 0.3, 0.5])])
