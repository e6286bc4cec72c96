"""Every integer input is checked where it enters, by ``errors.check_count`` or its integer test.

One table covers each count and node index a Python caller passes: a float, a bool, a string, a
value below the floor and a value above the cap each end in one ``ConfigError`` or
``CapExceeded`` line that names the input, and a numpy integer is taken as the same Python int.
The real-valued fields, ``run_sweep``'s modes and an agent's prior entries get the same one line.
"""

import numpy as np
import pytest

from beliefshare import world
from beliefshare.errors import CapExceeded, ConfigError
from beliefshare.simulate import AgentSpec, CommMode, ScenarioConfig, full_design, run_sweep

GRAPH = world.default_graph()
UNIFORM = np.ones(15) / 15


def config(start=0, n_agents=1, **fields):
    """A one-agent config on the shipped grid, with ``fields`` set."""
    agents = [AgentSpec(start, UNIFORM) for _ in range(n_agents)]
    return ScenarioConfig(graph=GRAPH, agents=agents, **{"comm_mode": CommMode.NONE, **fields})


def design(repeats):
    return full_design(config(), repeats, 1)


def sweep(jobs):
    """A one-row sweep on a two-node path, run with ``jobs`` workers."""
    template = ScenarioConfig(
        graph=world.WorldGraph.grid(1, 2), agents=[AgentSpec(0, [0.5, 0.5])], comm_mode="none", steps=2
    )
    return run_sweep(template, ("none",), [[0]], [1], [7], jobs)


def graph(n_nodes):
    return world.WorldGraph.from_edges(n_nodes, [(0, 1)])


def bad(call, kind, message):
    return pytest.param(call, kind, message, id=message)


INTEGER_INPUTS = [
    # agents: the count of a list, so only its floor and its cap
    bad(lambda: config(n_agents=0), ConfigError, "agents: must be >= 1, got 0"),
    bad(lambda: config(n_agents=65), CapExceeded, "agents: 65 is over the cap of 64"),
    bad(lambda: config(steps=1.5), ConfigError, "steps: must be an integer, got 1.5"),
    bad(lambda: config(steps=True), ConfigError, "steps: must be an integer, got True"),
    bad(lambda: config(steps="20"), ConfigError, "steps: must be an integer, got '20'"),
    bad(lambda: config(steps=0), ConfigError, "steps: must be >= 1, got 0"),
    bad(lambda: config(steps=1001), CapExceeded, "steps: 1001 is over the cap of 1000"),
    bad(lambda: config(horizon=1.5), ConfigError, "horizon: must be an integer, got 1.5"),
    bad(lambda: config(horizon=True), ConfigError, "horizon: must be an integer, got True"),
    bad(lambda: config(horizon="2"), ConfigError, "horizon: must be an integer, got '2'"),
    bad(lambda: config(horizon=0), ConfigError, "horizon: must be >= 1, got 0"),
    bad(lambda: config(horizon=14), CapExceeded, "horizon: 14 is over the cap of 13"),
    # the policy count n**horizon is derived from two checked counts: it has only a cap
    bad(lambda: config(horizon=4), CapExceeded, "policies: 50625 is over the cap of 10000"),
    bad(lambda: config(seed=1.5), ConfigError, "seed: must be an integer, got 1.5"),
    bad(lambda: config(seed=False), ConfigError, "seed: must be an integer, got False"),
    bad(lambda: config(seed="42"), ConfigError, "seed: must be an integer, got '42'"),
    bad(lambda: config(seed=-1), ConfigError, "seed: must be >= 0, got -1"),
    # node indices keep their range message: out of the graph is a bad config, not a cap
    bad(lambda: config(start=1.5), ConfigError, "agents[0].start_node: 1.5 out of range"),
    bad(lambda: config(start=True), ConfigError, "agents[0].start_node: True out of range"),
    bad(lambda: config(start="3"), ConfigError, "agents[0].start_node: '3' out of range"),
    bad(lambda: config(start=-1), ConfigError, "agents[0].start_node: -1 out of range"),
    bad(lambda: config(start=15), ConfigError, "agents[0].start_node: 15 out of range"),
    bad(lambda: config(object_location=1.0), ConfigError, "object_location: 1.0 out of range"),
    bad(lambda: config(object_location=True), ConfigError, "object_location: True out of range"),
    bad(lambda: config(object_location="3"), ConfigError, "object_location: '3' out of range"),
    bad(lambda: config(object_location=-1), ConfigError, "object_location: -1 out of range"),
    bad(lambda: config(object_location=15), ConfigError, "object_location: 15 out of range"),
    bad(lambda: config(forced_visibility=1.0), ConfigError, "forced_visibility: must be 0 or 1, got 1.0"),
    bad(lambda: config(forced_visibility=True), ConfigError, "forced_visibility: must be 0 or 1, got True"),
    bad(lambda: config(forced_visibility="1"), ConfigError, "forced_visibility: must be 0 or 1, got '1'"),
    bad(lambda: config(forced_visibility=-1), ConfigError, "forced_visibility: must be 0 or 1, got -1"),
    bad(lambda: config(forced_visibility=2), ConfigError, "forced_visibility: must be 0 or 1, got 2"),
    bad(lambda: design(1.5), ConfigError, "repeats: must be an integer, got 1.5"),
    bad(lambda: design(True), ConfigError, "repeats: must be an integer, got True"),
    bad(lambda: design("5"), ConfigError, "repeats: must be an integer, got '5'"),
    bad(lambda: design(0), ConfigError, "repeats: must be >= 1, got 0"),
    bad(lambda: design(200_001), CapExceeded, "repeats: 200001 is over the cap of 200000"),
    bad(lambda: sweep(1.5), ConfigError, "jobs: must be an integer, got 1.5"),
    bad(lambda: sweep(True), ConfigError, "jobs: must be an integer, got True"),
    bad(lambda: sweep("2"), ConfigError, "jobs: must be an integer, got '2'"),
    bad(lambda: sweep(0), ConfigError, "jobs: must be >= 1, got 0"),
    bad(lambda: graph(2.0), ConfigError, "nodes: must be an integer, got 2.0"),
    bad(lambda: graph(True), ConfigError, "nodes: must be an integer, got True"),
    bad(lambda: graph("2"), ConfigError, "nodes: must be an integer, got '2'"),
    bad(lambda: graph(0), ConfigError, "nodes: must be >= 1, got 0"),
    bad(lambda: graph(1001), CapExceeded, "nodes: 1001 is over the cap of 1000"),
    bad(lambda: world.WorldGraph.grid(1, 1001), CapExceeded, "nodes: 1001 is over the cap of 1000"),
    bad(lambda: world.WorldGraph.grid(0, 5), ConfigError, "rows: must be >= 1, got 0"),
    bad(lambda: world.WorldGraph.from_edges(2, [(0, 1.0)]), ConfigError, "neighbour 1.0 of node 0 out of range"),
    bad(lambda: world.WorldGraph.from_edges(2, [(0, -1)]), ConfigError, "neighbour -1 of node 0 out of range"),
    # the other inputs a Python caller once got past the checks, to a numpy or enum exception
    bad(
        lambda: config(comm_mode="bogus"),
        ConfigError,
        "comm_mode: must be one of none, posterior_sharing, likelihood_sharing, got 'bogus'",
    ),
    bad(lambda: config(observe_location="off"), ConfigError, "observe_location: must be True or False, got 'off'"),
    bad(lambda: config(observe_visibility=1), ConfigError, "observe_visibility: must be True or False, got 1"),
    bad(lambda: config(temperature="4"), ConfigError, "temperature: must be a number, got '4'"),
    bad(lambda: config(temperature=True), ConfigError, "temperature: must be a number, got True"),
    bad(lambda: config(visible_bonus=None), ConfigError, "visible_bonus: must be a number, got None"),
    bad(lambda: AgentSpec(0, ["a"] * 15), ConfigError, "object_prior: entries must be numbers"),
    bad(
        lambda: run_sweep(config(), "none", [[0]], [1], [7]),
        ConfigError,
        "sweep_modes: need a sequence of mode names, got 'none'",
    ),
]


@pytest.mark.parametrize("call, kind, message", INTEGER_INPUTS)
def test_bad_integer_input_is_one_line(call, kind, message):
    with pytest.raises(kind) as caught:
        call()
    assert type(caught.value) is kind and str(caught.value) == message


# field -> a valid value whose numpy twin (an int, for a real field) must give the same config
NUMPY_TWINS = {
    "steps": (np.int64, 20),
    "horizon": (np.int32, 2),
    "seed": (np.uint64, 42),
    "object_location": (np.int16, 3),
    "forced_visibility": (np.int8, 1),
    "observe_location": (np.bool_, False),
    "observe_visibility": (np.bool_, True),
    "temperature": (np.float64, 4.0),
    "visible_bonus": (int, 2.0),
}


@pytest.mark.parametrize("field", NUMPY_TWINS)
def test_numpy_scalars_are_taken_as_python_values(field):
    kind, value = NUMPY_TWINS[field]
    twin = config(**{field: kind(value)})
    assert getattr(twin, field) == value and type(getattr(twin, field)) is type(value)
    assert twin.config_hash() == config(**{field: value}).config_hash()


def test_numpy_node_and_count_arguments_run_as_python_ints():
    assert config(start=np.int64(3)).config_hash() == config(start=3).config_hash()
    assert all(np.array_equal(a, b) for a, b in zip(design(np.uint8(2)), design(2)))
    assert np.array_equal(sweep(np.int64(1)).found_at, sweep(1).found_at)
    assert type(graph(np.int64(2)).n_nodes) is int
