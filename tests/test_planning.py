"""Policy scores: the reference's enumeration, rollouts and expected free energy, the batched
scorer held to them, and action choice."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefshare import world
from beliefshare.errors import CapExceeded
from beliefshare.inference import softmax
from beliefshare.model import make_agent_model
from beliefshare.planning import (
    HORIZON_CAP,
    INERT_MASS,
    SCORE_BYTES,
    PlannerContext,
    rows_per_call,
    sample_policy_index,
)
from reference import (
    LOCATION,
    VISIBILITY_MODALITY,
    BeliefState,
    CategoricalBelief,
    EmptyInput,
    build_B1,
    enumerate_policies,
    expected_free_energy,
    initial_state,
    kl_divergence,
    normalize,
    rollout_predict,
)


def two_node_world():
    graph = world.WorldGraph.from_edges(2, [(0, 1)])
    model = make_agent_model(graph, start_node=0, object_prior=np.array([0.5, 0.5]))
    return model, initial_state(model)


def grid_model():
    model = make_agent_model(world.default_graph(), start_node=0, object_prior=np.ones(15) / 15)
    return model, initial_state(model)


class TestEnumeratePolicies:
    def test_two_by_one(self):
        assert enumerate_policies(2, 1) == [(0,), (1,)]

    def test_three_by_two(self):
        pols = enumerate_policies(3, 2)
        assert len(pols) == 9
        assert pols[0] == (0, 0)
        assert pols[-1] == (2, 2)

    def test_fifteen_by_two(self):
        assert len(enumerate_policies(15, 2)) == 225

    def test_cap(self):
        with pytest.raises(CapExceeded):
            enumerate_policies(15, 4)
        # the horizon is capped first, so the counted power stays small enough to name exactly
        with pytest.raises(CapExceeded, match="^policies: 759375 is over the cap of 10000$"):
            enumerate_policies(15, 5)
        with pytest.raises(CapExceeded, match="^horizon: 100000 is over the cap of 13$"):
            enumerate_policies(15, 100_000)
        assert len(enumerate_policies(2, HORIZON_CAP)) == 2**13
        with pytest.raises(CapExceeded, match="^horizon: 14 is over the cap of 13$"):
            enumerate_policies(2, HORIZON_CAP + 1)

    def test_bad_args(self):
        with pytest.raises(EmptyInput):
            enumerate_policies(3, 0)


class TestRolloutPredict:
    def test_static_object(self):
        model, state = grid_model()
        states, _ = rollout_predict(model, state, (3, 7))
        for step in states:
            assert np.allclose(step[world.OBJECT], state.object.probs, atol=1e-12)

    def test_one_hot_propagation(self):
        graph = world.WorldGraph.from_edges(3, [(0, 1), (1, 2)])
        model = make_agent_model(graph, start_node=0, object_prior=np.ones(3) / 3)
        states, _ = rollout_predict(model, initial_state(model), (1,))
        assert np.allclose(states[0][LOCATION], [0, 1, 0], atol=1e-12)

    def test_visibility_prediction_half(self):
        model, state = two_node_world()
        _, obs = rollout_predict(model, state, (0,))
        q_v = obs[0][VISIBILITY_MODALITY]
        assert q_v[world.VISIBLE] == pytest.approx(0.5, abs=1e-12)


def brute_force_breakdown(model, state, policy):
    """Outcome-enumeration reference for the expected free energy."""
    loc = state.location.probs.copy()
    obj = state.object.probs.copy()
    info_gain = 0.0
    utility = 0.0
    B_location = build_B1(model.graph).table
    B_object = np.eye(obj.size)  # the object never moves
    for action in policy:
        loc = B_location[:, :, action] @ loc
        obj = B_object @ obj
        if model.observe_visibility:
            A2 = model.A_visibility
            joint = loc[:, None] * obj[None, :]
            for v in range(2):
                q_o = float((A2[v] * joint).sum())
                if q_o > 0:
                    post = A2[v] * joint / q_o
                    info_gain += q_o * kl_divergence(post.ravel(), joint.ravel())
            q_vis = np.array([(A2[v] * joint).sum() for v in range(2)])
            utility += model.visible_bonus * q_vis[world.VISIBLE]
        if model.observe_location:
            A1 = model.A_location
            for o in range(A1.shape[0]):
                q_o = float(A1[o] @ loc)
                if q_o > 0:
                    info_gain += q_o * kl_divergence(A1[o] * loc / q_o, loc)
    return info_gain, utility


class TestExpectedFreeEnergy:
    def test_no_residual_uncertainty(self):
        # deterministic observation of a pinned state: nothing left to learn
        graph = world.WorldGraph.from_edges(2, [(0, 1)])
        model = make_agent_model(
            graph, start_node=0, object_prior=np.array([1.0, 0.0]), observe_location=False
        )
        table = np.zeros((2, 2, 2))
        table[0] = np.eye(2)  # visible exactly when co-located
        table[1] = 1.0 - np.eye(2)
        model.A_visibility = table
        e = expected_free_energy(model, initial_state(model), (0,))
        assert e.info_gain == pytest.approx(0.0, abs=1e-10)

    def test_flat_preferences_zero_utility(self):
        graph = world.WorldGraph.from_edges(2, [(0, 1)])
        model = make_agent_model(graph, 0, np.array([0.5, 0.5]), visible_bonus=0.0)
        e = expected_free_energy(model, initial_state(model), (0, 1))
        assert e.utility == pytest.approx(0.0, abs=1e-12)

    def test_two_node_stay_hand_value(self):
        # visibility modality only; agent on node 0, object fifty-fifty
        graph = world.WorldGraph.from_edges(2, [(0, 1)])
        model = make_agent_model(
            graph, start_node=0, object_prior=np.array([0.5, 0.5]), observe_location=False
        )
        e = expected_free_energy(model, initial_state(model), (0,))
        hand = 0.8 * np.log(1.6) + 0.2 * np.log(0.4)
        assert hand == pytest.approx(0.1927, abs=1e-3)
        assert e.info_gain == pytest.approx(hand, abs=1e-3)
        ig, ut = brute_force_breakdown(model, initial_state(model), (0,))
        assert e.info_gain == pytest.approx(ig, abs=1e-12)

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(11)
        model, _ = grid_model()
        for _ in range(10):
            loc = normalize(rng.random(15) + 0.01)
            obj = normalize(rng.random(15) + 0.01)
            state = BeliefState(
                CategoricalBelief(LOCATION, loc), CategoricalBelief(world.OBJECT, obj)
            )
            policy = tuple(rng.integers(15, size=2))
            e = expected_free_energy(model, state, policy)
            ig, ut = brute_force_breakdown(model, state, policy)
            assert e.info_gain == pytest.approx(ig, abs=1e-10)
            assert e.utility == pytest.approx(ut, abs=1e-10)

    def test_info_gain_nonnegative_randomized(self):
        rng = np.random.default_rng(3)
        model, _ = grid_model()
        for _ in range(25):
            state = BeliefState(
                CategoricalBelief(LOCATION, normalize(rng.random(15) + 1e-3)),
                CategoricalBelief(world.OBJECT, normalize(rng.random(15) + 1e-3)),
            )
            policy = tuple(rng.integers(15, size=2))
            assert expected_free_energy(model, state, policy).info_gain >= 0

    def test_breakdown_identity(self):
        model, state = grid_model()
        e = expected_free_energy(model, state, (1, 2))
        assert e.G == pytest.approx(-e.info_gain - e.utility, abs=1e-12)

    def test_two_node_symmetry(self):
        model, state = two_node_world()
        g_stay = expected_free_energy(model, state, (0,)).G
        g_move = expected_free_energy(model, state, (1,)).G
        assert abs(g_stay - g_move) < 1e-10


def random_connected_graph(rng, n):
    """A random spanning tree on n nodes plus up to n extra edges."""
    edges = [(i, int(rng.integers(i))) for i in range(1, n)]
    edges += [tuple(rng.choice(n, 2, replace=False)) for _ in range(rng.integers(n + 1))]
    return world.WorldGraph.from_edges(n, edges)


@st.composite
def connected_graphs(draw):
    """Connected graphs of 2-8 nodes: a random spanning tree plus extra edges."""
    n = draw(st.integers(2, 8))
    edges = [(i, draw(st.integers(0, i - 1))) for i in range(1, n)]
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges += draw(st.lists(st.sampled_from(pairs), max_size=n))
    return world.WorldGraph.from_edges(n, edges)


class TestMovementRule:
    @settings(max_examples=100, deadline=None)
    @given(connected_graphs(), st.integers(0, 2**32 - 1))
    def test_moves_match_dense_dynamics(self, graph, seed):
        n = graph.n_nodes
        rng = np.random.default_rng(seed)
        planner = PlannerContext(make_agent_model(graph, 0, np.ones(n) / n))
        B1 = build_B1(graph).table
        locs = rng.dirichlet(np.ones(n), size=3)
        dense = np.einsum("ija,kj->kai", B1, locs)  # belief k moved by action a
        # the scorer's form: every belief moved by every action
        every = planner.move(np.repeat(locs, n, axis=0), np.tile(np.arange(n), 3)).reshape(3, n, n)
        assert np.abs(every - dense).max() <= 1e-12
        # the trial loop's form: one action per belief, each row as it moves in any stack
        actions = rng.integers(n, size=3)
        assert np.array_equal(planner.move(locs, actions), every[np.arange(3), actions])
        assert np.array_equal(planner.move(locs[:1], actions[:1]), every[:1, actions[0]])

    def test_context_holds_no_cubic_array(self):
        model, _ = grid_model()
        planner = PlannerContext(model)
        arrays = [v for v in vars(planner).values() if isinstance(v, np.ndarray)]
        assert arrays and all(a.size < 15**3 for a in arrays)


class TestBatchAgreement:
    def test_planner_context_matches_expected_free_energy(self):
        rng = np.random.default_rng(22)
        path = world.WorldGraph.from_edges(5, [(i, i + 1) for i in range(4)])
        cases = [
            (world.default_graph(), (1, 2)),
            (path, (1, 2, 3)),
            (random_connected_graph(np.random.default_rng(23), 6), (1, 2, 3)),
            (world.WorldGraph.from_edges(1, []), (1, 2)),  # no off-diagonal A1 entry
        ]
        flags = [(True, True), (False, True), (True, False)]  # (observe_location, observe_visibility)
        for (graph, horizons), bonus, (loc_on, vis_on) in product(cases, (0.0, 2.0, -1.5), flags):
            n = graph.n_nodes
            model = make_agent_model(
                graph, min(2, n - 1), np.ones(n) / n, bonus, observe_location=loc_on,
                observe_visibility=vis_on,
            )
            planner = PlannerContext(model)
            for horizon in horizons:
                state = BeliefState(
                    CategoricalBelief(LOCATION, normalize(rng.random(n) + 1e-3)),
                    CategoricalBelief(world.OBJECT, normalize(rng.random(n) + 1e-3)),
                )
                G_ref = [expected_free_energy(model, state, p).G for p in enumerate_policies(n, horizon)]
                G_fast = planner.scores(state.location.probs, state.object.probs, horizon)
                assert np.abs(np.asarray(G_ref) - G_fast).max() < 1e-10


class TestStackedScores:
    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(), st.integers(1, 3), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_rows_match_single_beliefs(self, graph, horizon, rows, seed):
        n = graph.n_nodes
        rng = np.random.default_rng(seed)
        planner = PlannerContext(make_agent_model(graph, 0, np.ones(n) / n))
        # half the location beliefs one-hot, as an agent's usually is
        locs = np.array([np.eye(n)[rng.integers(n)] if k % 2 else rng.dirichlet(np.ones(n))
                         for k in range(rows)])
        objs = rng.dirichlet(np.ones(n), size=rows)
        stacked = planner.scores(locs, objs, horizon)
        single = np.array([planner.scores(loc, obj, horizon) for loc, obj in zip(locs, objs)])
        assert stacked.shape == (rows, n**horizon)
        assert np.abs(stacked - single).max() <= 1e-12
        assert np.array_equal(stacked, single)
        # the trial kernel's path: first-move scores, a row's bits the same in any stack
        marginal = planner.first_moves(locs, objs, horizon, 4.0)
        alone = [planner.first_moves(loc[None], obj[None], horizon, 4.0) for loc, obj in zip(locs, objs)]
        assert np.array_equal(marginal, np.concatenate(alone))

    @pytest.mark.parametrize("horizon", [1, 2, 3])
    def test_peaked_beliefs_match_expected_free_energy(self, horizon):
        # the kernel's location beliefs: one node at ~1 and tails of 1e-20 to 1e-17, where most first
        # moves shift less than INERT_MASS; one node's neighbourhood holds just below or just above
        # it, or ~1e-9, which a looser rule would leave unscored. The full G and the first-move
        # backup, the one path that skips inert moves, both hold to the reference.
        graph = world.WorldGraph.grid(1, 6)
        n, edge = graph.n_nodes, 5
        rng = np.random.default_rng(horizon)
        model = make_agent_model(graph, 0, np.ones(n) / n, 2.0)
        planner = PlannerContext(model)
        policies = enumerate_policies(n, horizon)
        for peak, scale in product((0, 1), (1 - 1e-3, 1 + 1e-3, 1e7)):
            loc = 10.0 ** rng.uniform(-20, -17, n)
            ring = graph.adjacency[edge].astype(bool)
            loc[edge] = INERT_MASS * scale - loc[ring].sum() + loc[edge]
            loc[peak] = 1.0 - (loc.sum() - loc[peak])
            mass = planner.move(np.tile(loc, (n, 1)), np.arange(n))[np.arange(n), np.arange(n)]
            assert (mass[edge] >= INERT_MASS) == (scale > 1)
            assert (mass < INERT_MASS).any() and (mass >= INERT_MASS).sum() > 1
            obj = rng.dirichlet(np.ones(n))
            state = BeliefState(CategoricalBelief(LOCATION, loc), CategoricalBelief(world.OBJECT, obj))
            G_ref = np.array([expected_free_energy(model, state, p).G for p in policies])
            assert np.abs(planner.scores(loc, obj, horizon) - G_ref).max() <= 1e-12
            for temperature in (0.01, 1.0, 4.0, 1000.0):
                shares = softmax(-temperature * G_ref).reshape(n, -1).sum(axis=-1)
                logits = planner.first_moves(loc[None], obj[None], horizon, temperature)[0]
                assert np.abs(softmax(logits) - shares).max() <= 1e-12

    def test_one_shifting_move(self):
        # on one node the only first move shifts belief: a single belief scores its later steps as a
        # lone row, which must round as the same row in a stack
        graph = world.WorldGraph.from_edges(1, [])
        model = make_agent_model(graph, 0, np.ones(1))
        planner = PlannerContext(model)
        ones = np.ones((3, 1))
        for horizon in (1, 2, 3):
            stacked = planner.scores(ones, ones, horizon)
            assert np.array_equal(planner.scores(ones[0], ones[0], horizon), stacked[0])
            marginal = planner.first_moves(ones, ones, horizon, 4.0)
            assert np.array_equal(planner.first_moves(ones[:1], ones[:1], horizon, 4.0), marginal[:1])
            G_ref = expected_free_energy(model, initial_state(model), (0,) * horizon).G
            assert abs(stacked[0, 0] - G_ref) <= 1e-12

    def test_rows_per_call(self):
        # a (belief, move) pair with two later steps on 15 nodes ends in 225 scores, 1,800 bytes
        assert rows_per_call(15, 2) == SCORE_BYTES // 1_800
        # one such 100-node pair alone (80 kB) exceeds the budget: still one pair a chunk
        assert 8 * 100**2 > SCORE_BYTES
        assert rows_per_call(100, 2) == 1
        # the longest horizon: 2**13 scores fill the budget; on one node a pair ends in one score
        assert rows_per_call(2, HORIZON_CAP) == 1
        assert rows_per_call(1, HORIZON_CAP) == SCORE_BYTES // 8


class TestSelectAction:
    """Action choice: an index drawn from the softmax of logits, here -temperature * G."""

    def test_equal_scores_sample_uniformly(self):
        G = np.full(4, -1.5)
        rng = np.random.default_rng(8)
        counts = np.bincount(
            [sample_policy_index(-G, rng.random()) for _ in range(8000)], minlength=4
        )
        assert np.all(np.abs(counts / 8000 - 0.25) < 0.02)

    def test_sharp_temperature_picks_argmin(self):
        G = np.array([0.0, -1.0])
        rng = np.random.default_rng(9)
        picks = [sample_policy_index(-200.0 * G, rng.random()) for _ in range(500)]
        assert np.mean(np.asarray(picks) == 1) > 0.999

    def test_softmax_probability_point_eight(self):
        G = np.array([0.0, np.log(4)])
        rng = np.random.default_rng(10)
        first = np.mean([sample_policy_index(-G, rng.random()) == 0 for _ in range(10_000)])
        assert first == pytest.approx(0.8, abs=0.02)
