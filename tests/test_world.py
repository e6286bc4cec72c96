"""Graph environment: tensor builders, dynamics, observation statistics."""

import numpy as np
import pytest
from scipy.stats import chisquare

from beliefshare.errors import ConfigError
from beliefshare.world import (
    VISIBLE,
    WorldGraph,
    WorldState,
    build_A1,
    build_A2,
    build_B1,
    default_graph,
    env_observe,
    env_step,
    format_graph_text,
    load_graph_fixture,
    parse_graph_text,
)


def observation_tensors(n_nodes):
    """The (cum_A1, A2) pair env_observe draws from, for an n-node world."""
    return np.cumsum(build_A1(n_nodes).table, axis=0), build_A2(n_nodes).table


GRID_TENSORS = observation_tensors(15)


@pytest.fixture
def path3():
    return WorldGraph.from_edges(3, [(0, 1), (1, 2)])


class TestWorldGraph:
    def test_default_is_3x5_grid(self):
        g = default_graph()
        assert g.n_nodes == 15
        assert g.adjacency[11, 6] and g.adjacency[11, 12] and g.adjacency[11, 10]
        assert not g.adjacency[11, 13]
        assert g.adjacency[1, 0] and g.adjacency[1, 2] and g.adjacency[1, 6]
        assert not g.adjacency[0, 14]

    def test_symmetry_and_self_adjacency(self):
        g = default_graph()
        assert np.array_equal(g.adjacency, g.adjacency.T)
        assert np.all(np.diag(g.adjacency))

    def test_fixture_round_trip(self):
        g = default_graph()
        again = parse_graph_text(format_graph_text(g))
        assert np.array_equal(g.adjacency, again.adjacency)

    def test_malformed_fixture_line_names_the_line(self):
        for bad in ("x: 0", "0: 1,y", "-1: 0"):
            with pytest.raises(ConfigError, match="line 2"):
                parse_graph_text(f"0: 1\n{bad}\n")

    def test_shipped_fixture_matches_grid(self):
        assert np.array_equal(load_graph_fixture().adjacency, default_graph().adjacency)

    def test_disconnected_warns(self):
        with pytest.warns(UserWarning):
            WorldGraph.from_edges(4, [(0, 1), (2, 3)])


class TestBuilders:
    def test_B1_adjacent_move(self, path3):
        B1 = build_B1(path3)
        assert B1.table[1, 0, 1] == 1.0

    def test_B1_stay_in_place(self, path3):
        B1 = build_B1(path3)
        for j in range(3):
            assert B1.table[j, j, j] == 1.0

    def test_B1_non_adjacent_target_stays(self, path3):
        B1 = build_B1(path3)
        assert B1.table[0, 0, 2] == 1.0
        assert B1.table[2, 0, 2] == 0.0

    def test_B1_columns_stochastic(self):
        B1 = build_B1(default_graph())
        assert np.allclose(B1.table.sum(axis=0), 1.0, atol=1e-9)

    def test_A1_two_nodes(self):
        A1 = build_A1(2)
        assert np.allclose(A1.table[:, 0], [0.99, 0.01])

    def test_A1_single_node(self):
        assert np.allclose(build_A1(1).table, [[1.0]])

    def test_A1_columns_stochastic(self):
        A1 = build_A1(4)
        assert np.allclose(A1.table.sum(axis=0), 1.0, atol=1e-9)
        assert np.allclose(np.diag(A1.table), 0.99)

    def test_A2_slices(self):
        A2 = build_A2(3)
        assert np.allclose(A2.table[:, 1, 1], [0.8, 0.2])
        assert np.allclose(A2.table[:, 1, 2], [0.2, 0.8])
        assert np.allclose(A2.table.sum(axis=0), 1.0, atol=1e-9)


class TestEnvStep:
    def test_adjacent_move(self, path3):
        state = WorldState((0,), 2)
        after = env_step(state, [1], path3)
        assert after.agent_positions == (1,)
        assert after.t == 1

    def test_stay(self, path3):
        state = WorldState((0,), 2)
        assert env_step(state, [0], path3).agent_positions == (0,)
        assert env_step(state, [2], path3).agent_positions == (0,)

    def test_object_static(self, path3):
        state = WorldState((0, 2), 1)
        for actions in ([0, 0], [1, 1], [2, 0]):
            assert env_step(state, actions, path3).object_location == 1

    def test_reversibility(self):
        g = default_graph()
        rng = np.random.default_rng(0)
        for _ in range(50):
            pos = int(rng.integers(15))
            target = int(rng.integers(15))
            state = WorldState((pos,), None)
            after = env_step(state, [target], g)
            back = env_step(after, [pos], g)
            assert back.agent_positions == (pos,)


class TestEnvObserve:
    def test_seed_determinism(self):
        state = WorldState((3, 7), 3)
        a = env_observe(state, np.random.default_rng(99), *GRID_TENSORS)
        b = env_observe(state, np.random.default_rng(99), *GRID_TENSORS)
        assert a == b

    def test_visibility_frequencies(self):
        state = WorldState((3, 7), 3)
        rng = np.random.default_rng(1234)
        draws = [env_observe(state, rng, *GRID_TENSORS) for _ in range(10_000)]
        co_located = np.mean([d.visibility[0] == VISIBLE for d in draws])
        apart = np.mean([d.visibility[1] == VISIBLE for d in draws])
        assert co_located == pytest.approx(0.8, abs=0.02)
        assert apart == pytest.approx(0.2, abs=0.02)

    def test_location_frequencies_chi_square(self):
        state = WorldState((5,), None)
        rng = np.random.default_rng(4321)
        counts = np.zeros(15)
        n = 10_000
        for _ in range(n):
            counts[env_observe(state, rng, *GRID_TENSORS).location[0]] += 1
        expected = build_A1(15).table[:, 5] * n
        assert chisquare(counts, expected).pvalue > 1e-3

    def test_absent_object_false_positive_rate(self):
        state = WorldState((5,), None)
        rng = np.random.default_rng(777)
        freq = np.mean(
            [env_observe(state, rng, *GRID_TENSORS).visibility[0] == VISIBLE for _ in range(10_000)]
        )
        assert freq == pytest.approx(0.2, abs=0.02)

    def test_single_node_world(self):
        state = WorldState((0,), 0)
        rng = np.random.default_rng(5)
        bundle = env_observe(state, rng, *observation_tensors(1))
        assert bundle.location == (0,)
