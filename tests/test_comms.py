"""The reference's sharing channels: message composition, broadcast rounds, and integration
against Bayes oracles."""

import numpy as np
import pytest

from beliefshare import world
from beliefshare.inference import floored_log
from beliefshare.model import make_agent_model
from beliefshare.simulate import CommMode
from reference import (
    LOCATION,
    CategoricalBelief,
    LogMessage,
    ShapeError,
    SharedMessage,
    broadcast_round,
    compose_likelihood_message,
    compose_posterior_message,
    exact_bayes_oracle,
    initial_state,
    integrate_shared,
    integrated_object_belief,
    normalize,
    perceive,
)


def obj_belief(probs):
    return CategoricalBelief(world.OBJECT, np.asarray(probs, dtype=float))


def max_normed(v):
    v = np.asarray(v, dtype=float)
    return v - v.max()


class TestComposePosterior:
    def test_log_of_posterior(self):
        msg = compose_posterior_message(0, obj_belief([0.7, 0.3]))
        assert np.allclose(msg.payload.logits, max_normed(np.log([0.7, 0.3])), atol=1e-12)

    def test_uniform_posterior_constant_payload(self):
        msg = compose_posterior_message(0, obj_belief([0.25] * 4))
        assert np.allclose(msg.payload.logits, msg.payload.logits[0])
        # constant payload means no influence after the softmax
        post = integrate_shared(LogMessage(world.OBJECT, np.log([0.6, 0.1, 0.1, 0.2])), [], [msg])
        assert np.allclose(post.probs, [0.6, 0.1, 0.1, 0.2], atol=1e-12)

    def test_shared_prior_double_counts(self):
        prior = np.array([0.6, 0.4])
        payload = compose_posterior_message(1, obj_belief(prior))
        post = integrate_shared(LogMessage(world.OBJECT, floored_log(prior)), [], [payload])
        assert np.allclose(post.probs, normalize([0.36, 0.16]), atol=1e-12)
        assert post.probs[0] == pytest.approx(0.6923, abs=1e-4)

    def test_mode_tag_none_rejected(self):
        with pytest.raises(ShapeError):
            SharedMessage(0, world.OBJECT, LogMessage(world.OBJECT, np.zeros(2)), CommMode.NONE)
        payload = LogMessage(LOCATION, np.zeros(2))
        with pytest.raises(ShapeError, match="payload factor"):
            SharedMessage(0, world.OBJECT, payload, CommMode.POSTERIOR_SHARING)


class TestComposeLikelihood:
    def test_observation_message_passthrough(self):
        sender_msg = LogMessage(world.OBJECT, np.log([0.2, 0.8, 0.8]))
        msg = compose_likelihood_message(0, [sender_msg], 3)
        assert np.allclose(msg.payload.logits, max_normed(np.log([0.2, 0.8, 0.8])), atol=1e-12)

    def test_no_observation_zero_payload(self):
        msg = compose_likelihood_message(0, [], 3)
        assert np.array_equal(msg.payload.logits, np.zeros(3))
        prior = LogMessage(world.OBJECT, np.log([0.5, 0.25, 0.25]))
        post = integrate_shared(prior, [], [msg])
        assert np.allclose(post.probs, [0.5, 0.25, 0.25], atol=1e-12)

    def test_shared_prior_not_double_counted(self):
        # contrast with posterior sharing: same setup, belief unchanged
        prior = np.array([0.6, 0.4])
        payload = compose_likelihood_message(1, [], 2)
        post = integrate_shared(LogMessage(world.OBJECT, floored_log(prior)), [], [payload])
        assert np.allclose(post.probs, prior, atol=1e-12)

    def test_rejects_non_object_messages(self):
        with pytest.raises(ShapeError):
            compose_likelihood_message(0, [LogMessage(LOCATION, np.zeros(3))], 3)


def run_perception(graph, start, obj_prior, vis_outcome):
    model = make_agent_model(graph, start_node=start, object_prior=obj_prior)
    return perceive(model, initial_state(model), None, vis_outcome)


class TestBroadcastRound:
    def _updates(self, n_agents, vis=None):
        graph = world.default_graph()
        uniform = np.ones(15) / 15
        return [
            run_perception(graph, i, uniform, vis)
            for i in range(n_agents)
        ]

    def test_two_agents_one_message_each(self):
        shared = broadcast_round(self._updates(2, world.NOT_VISIBLE), CommMode.POSTERIOR_SHARING)
        assert [len(s) for s in shared] == [1, 1]
        assert shared[0][0].sender == 1
        assert shared[1][0].sender == 0

    def test_four_agents_three_messages_each(self):
        shared = broadcast_round(self._updates(4, world.NOT_VISIBLE), CommMode.LIKELIHOOD_SHARING)
        assert [len(s) for s in shared] == [3, 3, 3, 3]
        for receiver, msgs in enumerate(shared):
            assert receiver not in [m.sender for m in msgs]

    def test_none_mode_silent(self):
        assert broadcast_round(self._updates(3, world.NOT_VISIBLE), CommMode.NONE) == [[], [], []]

    def test_permutation_symmetry(self):
        updates = self._updates(3, world.NOT_VISIBLE)
        shared = broadcast_round(updates, CommMode.LIKELIHOOD_SHARING)
        permuted = broadcast_round(updates[::-1], CommMode.LIKELIHOOD_SHARING)
        # payload from original sender j shows up unchanged wherever j moved
        for new_receiver, old_receiver in enumerate([2, 1, 0]):
            got = sorted(
                (2 - m.sender, tuple(m.payload.logits)) for m in permuted[new_receiver]
            )
            want = sorted(
                (m.sender, tuple(m.payload.logits)) for m in shared[old_receiver]
            )
            assert got == want


class TestIntegration:
    def test_posterior_payload_is_prior_times_sender_posterior(self):
        graph = world.default_graph()
        rng = np.random.default_rng(6)
        receiver_prior = normalize(rng.random(15) + 0.05)
        sender_posterior = normalize(rng.random(15) + 0.05)
        payload = compose_posterior_message(1, obj_belief(sender_posterior))
        post = integrate_shared(
            LogMessage(world.OBJECT, floored_log(receiver_prior)), [], [payload]
        )
        oracle = exact_bayes_oracle(obj_belief(receiver_prior), [sender_posterior])
        assert np.abs(post.probs - oracle.probs).max() < 1e-10

    def test_co_located_senders_multiply_odds(self):
        # K senders at node 1, all seeing nothing: node-1 odds shrink by 4^-K
        graph = world.default_graph()
        prior = np.ones(15) / 15
        for K in (1, 2, 3):
            updates = [
                run_perception(graph, 1, prior, world.NOT_VISIBLE) for _ in range(K)
            ]
            payloads = [
                compose_likelihood_message(j, u.object_likelihoods, 15)
                for j, u in enumerate(updates)
            ]
            post = integrate_shared(
                LogMessage(world.OBJECT, floored_log(prior)), [], payloads
            )
            column = np.full(15, 0.8)
            column[1] = 0.2
            oracle = exact_bayes_oracle(obj_belief(prior), [column] * K)
            assert np.abs(post.probs - oracle.probs).max() < 1e-6
            odds = (post.probs[1] / post.probs[0])
            assert odds == pytest.approx(0.25**K, rel=1e-4)

    def test_independence_equivalence(self):
        # likelihood sharing == one agent receiving both observations itself
        graph = world.default_graph()
        flat = np.ones(15) / 15
        a = run_perception(graph, 2, flat, world.NOT_VISIBLE)
        b = run_perception(graph, 9, flat, world.NOT_VISIBLE)
        shared = broadcast_round([a, b], CommMode.LIKELIHOOD_SHARING)
        post_a = integrated_object_belief(a, shared[0])

        col_at = lambda node: np.where(np.arange(15) == node, 0.2, 0.8)
        oracle = exact_bayes_oracle(obj_belief(flat), [col_at(2), col_at(9)])
        assert np.abs(post_a.probs - oracle.probs).max() < 1e-10

    def test_no_evidence_round_is_fixed_point(self):
        graph = world.default_graph()
        rng = np.random.default_rng(12)
        priors = [normalize(rng.random(15) + 0.02) for _ in range(3)]
        models = [
            make_agent_model(graph, start_node=i, object_prior=p, observe_visibility=False)
            for i, p in enumerate(priors)
        ]
        updates = [perceive(m, initial_state(m), None, None) for m in models]
        shared = broadcast_round(updates, CommMode.LIKELIHOOD_SHARING)
        for u, s, prior in zip(updates, shared, priors):
            post = integrated_object_belief(u, s)
            assert np.abs(post.probs - prior).max() < 1e-12

    def test_posterior_sharing_amplifies(self):
        # identical positive non-uniform priors: the largest entry must grow
        rng = np.random.default_rng(13)
        for _ in range(20):
            prior = normalize(rng.random(6) + 0.05)
            if np.allclose(prior, prior[0]):
                continue
            payload = compose_posterior_message(1, obj_belief(prior))
            post = integrate_shared(
                LogMessage(world.OBJECT, floored_log(prior)), [], [payload]
            )
            assert post.probs.max() > prior.max()


class TestDoubleCountingIdentity:
    def test_payload_equals_prior_plus_likelihood_sum(self):
        """The posterior payload decomposes into the sender's own messages."""
        graph = world.default_graph()
        rng = np.random.default_rng(14)
        for trial in range(10):
            prior = normalize(rng.random(15) + 0.02)
            model = make_agent_model(graph, start_node=int(rng.integers(15)), object_prior=prior)
            upd = perceive(
                model,
                initial_state(model),
                int(rng.integers(15)),
                int(rng.integers(2)),
            )
            payload = compose_posterior_message(0, upd.object).payload.logits
            decomposed = upd.object_prior_msg.logits.copy()
            for msg in upd.object_likelihoods:
                decomposed = decomposed + msg.logits
            assert np.abs(max_normed(payload) - max_normed(decomposed)).max() < 1e-9
