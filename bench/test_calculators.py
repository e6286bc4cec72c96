"""Hand values for the benchmark's independent reference calculators."""

import numpy as np
import pytest

import calculators

ONE_NODE = np.ones((1, 1), dtype=bool)


@pytest.mark.parametrize("steps", [1, 2, 5, 20])
def test_one_node_random_walk(steps):
    # both agents always stand on the object; each misses with 0.2 per step
    assert calculators.random_walk_find_rate(ONE_NODE, steps) == pytest.approx(1 - 0.2 ** (2 * steps))


def test_shipped_grid_random_walk():
    grid = calculators.grid_adjacency(3, 5)
    assert calculators.random_walk_find_rate(grid, 20) == pytest.approx(0.41098, abs=5e-6)


def test_grid_adjacency_neighbours():
    grid = calculators.grid_adjacency(3, 5)
    assert sorted(np.flatnonzero(grid[6])) == [1, 5, 6, 7, 11]
    assert sorted(np.flatnonzero(grid[14])) == [9, 13, 14]


def test_echo_chamber_first_step():
    p = calculators.bumped_prior(15, (11, 13), 2.0)
    assert np.allclose(calculators.echo_chamber_posterior(p, 0), p**2 / np.sum(p**2), rtol=1e-15)


def test_echo_chamber_doubles_log_odds():
    p = calculators.bumped_prior(15, (11, 13), 2.0)
    q = calculators.echo_chamber_posterior(p, 3)
    assert np.log(q[11] / q[0]) == pytest.approx(16 * np.log(2.0))


def test_one_node_expected_free_energy():
    # nothing to learn, P(visible) = 0.8 each step: G = -2 * (2 nats * 0.8)
    G = calculators.expected_free_energy_h2(ONE_NODE, np.ones(1), np.ones(1))
    assert G == pytest.approx([-3.2])

