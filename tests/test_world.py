"""Graph environment: tensor builders, dynamics, observation statistics."""

import numpy as np
import pytest
from scipy.stats import chisquare

from beliefshare.errors import ConfigError, ShapeError
from beliefshare.world import (
    NOT_VISIBLE,
    VISIBLE,
    WorldGraph,
    build_A1,
    build_A2,
    default_graph,
    env_observe,
    env_step,
    parse_graph_text,
)
from reference import build_B1, format_graph_text


def observation_tensors(n_nodes):
    """The (cum_A1, A2) pair env_observe draws from, for an n-node world."""
    return np.cumsum(build_A1(n_nodes), axis=0), build_A2(n_nodes)


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
        # blank lines and comments are skipped
        path = parse_graph_text("# a 0-1-2 path\n\n0: 1  # left end\n\n1: 0,2\n2:\n")
        assert np.array_equal(path.adjacency, WorldGraph.from_edges(3, [(0, 1), (1, 2)]).adjacency)

    def test_adjacency_shape_checked(self):
        with pytest.raises(ShapeError, match="3x3"):
            WorldGraph(3, np.eye(2, dtype=bool))

    def test_malformed_fixture_line_names_the_line(self):
        for bad in ("x: 0", "0: 1,y", "-1: 0"):
            with pytest.raises(ConfigError, match="line 2"):
                parse_graph_text(f"0: 1\n{bad}\n")

    def test_disconnected_rejected(self):
        with pytest.raises(ConfigError, match="^graph: node 2 cannot be reached from node 0$"):
            WorldGraph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ConfigError, match="node 1 cannot"):
            parse_graph_text("0:\n1:\n")


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
        assert np.allclose(A1[:, 0], [0.99, 0.01])

    def test_A1_single_node(self):
        assert np.allclose(build_A1(1), [[1.0]])

    def test_A1_columns_stochastic(self):
        A1 = build_A1(4)
        assert np.allclose(A1.sum(axis=0), 1.0, atol=1e-9)
        assert np.allclose(np.diag(A1), 0.99)

    def test_A2_slices(self):
        A2 = build_A2(3)
        assert np.allclose(A2[:, 1, 1], [0.8, 0.2])
        assert np.allclose(A2[:, 1, 2], [0.2, 0.8])
        assert np.allclose(A2.sum(axis=0), 1.0, atol=1e-9)


class TestEnvStep:
    def test_adjacent_move(self, path3):
        assert env_step([0], [1], path3).tolist() == [1]

    def test_stay(self, path3):
        assert env_step([0], [0], path3).tolist() == [0]
        assert env_step([0], [2], path3).tolist() == [0]

    def test_agents_move_independently(self, path3):
        assert env_step([0, 2], [1, 0], path3).tolist() == [1, 2]

    def test_reversibility(self):
        g = default_graph()
        rng = np.random.default_rng(0)
        for _ in range(50):
            pos = int(rng.integers(15))
            target = int(rng.integers(15))
            after = env_step([pos], [target], g)
            back = env_step(after, [pos], g)
            assert back.tolist() == [pos]


class TestEnvObserve:
    def test_seed_determinism(self):
        a = env_observe([3, 7], 3, np.random.default_rng(99).random((2, 2)), *GRID_TENSORS)
        b = env_observe([3, 7], 3, np.random.default_rng(99).random((2, 2)), *GRID_TENSORS)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_draws_location_then_visibility_per_agent(self):
        # one uniform per outcome, consumed agent by agent: location, then visibility
        cum_A1, A2 = GRID_TENSORS
        positions, obj = [3, 7, 12], 7
        for seed in range(50):
            rng = np.random.default_rng(seed)
            expected = []
            for pos in positions:
                loc = int(np.searchsorted(cum_A1[:, pos], rng.random(), side="right"))
                vis = VISIBLE if rng.random() < A2[VISIBLE, pos, obj] else NOT_VISIBLE
                expected.append((min(loc, 14), vis))
            loc_obs, vis_obs = env_observe(
                positions, obj, np.random.default_rng(seed).random((3, 2)), *GRID_TENSORS
            )
            assert list(zip(loc_obs.tolist(), vis_obs.tolist())) == expected

    def test_visibility_frequencies(self):
        rng = np.random.default_rng(1234)
        draws = np.array(
            [env_observe([3, 7], 3, rng.random((2, 2)), *GRID_TENSORS)[1] for _ in range(10_000)]
        )
        co_located = np.mean(draws[:, 0] == VISIBLE)
        apart = np.mean(draws[:, 1] == VISIBLE)
        assert co_located == pytest.approx(0.8, abs=0.02)
        assert apart == pytest.approx(0.2, abs=0.02)

    def test_location_frequencies_chi_square(self):
        rng = np.random.default_rng(4321)
        counts = np.zeros(15)
        n = 10_000
        for _ in range(n):
            counts[env_observe([5], None, rng.random((1, 2)), *GRID_TENSORS)[0][0]] += 1
        expected = build_A1(15)[:, 5] * n
        assert chisquare(counts, expected).pvalue > 1e-3

    def test_absent_object_false_positive_rate(self):
        rng = np.random.default_rng(777)
        draws = [env_observe([5], None, rng.random((1, 2)), *GRID_TENSORS)[1][0] for _ in range(10_000)]
        freq = np.mean(np.asarray(draws) == VISIBLE)
        assert freq == pytest.approx(0.2, abs=0.02)

    def test_single_node_world(self):
        rng = np.random.default_rng(5)
        loc_obs, _ = env_observe([0], 0, rng.random((1, 2)), *observation_tensors(1))
        assert loc_obs.tolist() == [0]
        # an absent object has no other node to stand in for it: never visible, even at u = 0
        _, vis_obs = env_observe([0], None, np.zeros((1, 2)), *observation_tensors(1))
        assert vis_obs.tolist() == [NOT_VISIBLE]
