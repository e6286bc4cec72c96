"""Every integer input is checked where it enters, by ``errors.check_count`` (counts and caps) or
``errors.check_index`` (node indices and outcomes), and every prior by ``errors.check_prior``.

One table covers each count and node index a Python caller passes: a float, a bool, a string, a
value below the floor and a value above the cap each end in one ``ConfigError`` or
``CapExceeded`` line that names the input, and a numpy integer is taken as the same Python int.
The real-valued fields, ``run_sweep``'s modes and an agent's prior get the same one line, and a
config file's agent line gets it too, naming the line.
"""

import numpy as np
import pytest

from beliefshare import world
from beliefshare.cli import parse_config_text
from beliefshare.errors import CapExceeded, ConfigError
from beliefshare.simulate import AgentSpec, CommMode, ScenarioConfig, full_design, run_sweep

GRAPH = world.default_graph()
UNIFORM = np.ones(15) / 15


def config(start=0, n_agents=1, prior=UNIFORM, **fields):
    """A one-agent config on the shipped grid, with ``fields`` set."""
    agents = [AgentSpec(start, prior) for _ in range(n_agents)]
    return ScenarioConfig(graph=GRAPH, agents=agents, **{"comm_mode": CommMode.NONE, **fields})


def design(repeats):
    return full_design(config(), repeats, 1)


def sweep(jobs, starts=((0,),), objects=(1,), seeds=(7,)):
    """A sweep on a two-node path, one row unless a design is given, run with ``jobs`` workers."""
    template = ScenarioConfig(
        graph=world.WorldGraph.grid(1, 2), agents=[AgentSpec(0, [0.5, 0.5])], comm_mode="none", steps=2
    )
    return run_sweep(template, ("none",), np.array(starts), np.array(objects), list(seeds), jobs)


def graph(n_nodes):
    return world.WorldGraph.from_edges(n_nodes, [(0, 1)])


def agent_line(line):
    """A config file whose line 2 is ``line``, parsed."""
    return parse_config_text(f"comm_mode = none\n{line}\n")


def bad(call, kind, message, case=None):
    """A table row, named ``case`` or else its message: a row whose message changed keeps the name
    its old message gave it."""
    return pytest.param(call, kind, message, id=case or message)


def bad_line(line, message):
    """A row for a config file's agent ``line``, named by the line."""
    return pytest.param(lambda: agent_line(line), ConfigError, message, id=line)


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
    bad(
        lambda: config(start=1.5), ConfigError, "agents[0].start_node: must be an integer, got 1.5",
        "agents[0].start_node: 1.5 out of range",
    ),
    bad(
        lambda: config(start=True), ConfigError, "agents[0].start_node: must be an integer, got True",
        "agents[0].start_node: True out of range",
    ),
    bad(
        lambda: config(start="3"), ConfigError, "agents[0].start_node: must be an integer, got '3'",
        "agents[0].start_node: '3' out of range",
    ),
    bad(
        lambda: config(start=-1), ConfigError, "agents[0].start_node: must be >= 0, got -1",
        "agents[0].start_node: -1 out of range",
    ),
    bad(
        lambda: config(start=15), ConfigError, "agents[0].start_node: must be < 15, got 15",
        "agents[0].start_node: 15 out of range",
    ),
    bad(
        lambda: config(object_location=1.0), ConfigError, "object_location: must be an integer, got 1.0",
        "object_location: 1.0 out of range",
    ),
    bad(
        lambda: config(object_location=True), ConfigError, "object_location: must be an integer, got True",
        "object_location: True out of range",
    ),
    bad(
        lambda: config(object_location="3"), ConfigError, "object_location: must be an integer, got '3'",
        "object_location: '3' out of range",
    ),
    bad(
        lambda: config(object_location=-1), ConfigError, "object_location: must be >= 0, got -1",
        "object_location: -1 out of range",
    ),
    bad(
        lambda: config(object_location=15), ConfigError, "object_location: must be < 15, got 15",
        "object_location: 15 out of range",
    ),
    bad(
        lambda: config(forced_visibility=1.0), ConfigError, "forced_visibility: must be an integer, got 1.0",
        "forced_visibility: must be 0 or 1, got 1.0",
    ),
    bad(
        lambda: config(forced_visibility=True), ConfigError, "forced_visibility: must be an integer, got True",
        "forced_visibility: must be 0 or 1, got True",
    ),
    bad(
        lambda: config(forced_visibility="1"), ConfigError, "forced_visibility: must be an integer, got '1'",
        "forced_visibility: must be 0 or 1, got '1'",
    ),
    bad(
        lambda: config(forced_visibility=-1), ConfigError, "forced_visibility: must be >= 0, got -1",
        "forced_visibility: must be 0 or 1, got -1",
    ),
    bad(
        lambda: config(forced_visibility=2), ConfigError, "forced_visibility: must be < 2, got 2",
        "forced_visibility: must be 0 or 1, got 2",
    ),
    bad(lambda: design(1.5), ConfigError, "repeats: must be an integer, got 1.5"),
    bad(lambda: design(True), ConfigError, "repeats: must be an integer, got True"),
    bad(lambda: design("5"), ConfigError, "repeats: must be an integer, got '5'"),
    bad(lambda: design(0), ConfigError, "repeats: must be >= 1, got 0"),
    bad(lambda: design(200_001), CapExceeded, "repeats: 200001 is over the cap of 200000"),
    bad(lambda: sweep(1.5), ConfigError, "jobs: must be an integer, got 1.5"),
    bad(lambda: sweep(True), ConfigError, "jobs: must be an integer, got True"),
    bad(lambda: sweep("2"), ConfigError, "jobs: must be an integer, got '2'"),
    bad(lambda: sweep(0), ConfigError, "jobs: must be >= 1, got 0"),
    # a design's rows, nodes and seeds
    bad(
        lambda: sweep(1, starts=np.empty((0, 1), int), objects=[], seeds=[]), ConfigError,
        "trials: must be >= 1, got 0",
    ),
    bad(lambda: sweep(1, objects=[2]), ConfigError, "start or object node: must be < 2, got 2"),
    bad(lambda: sweep(1, starts=[[-1]]), ConfigError, "start or object node: must be >= 0, got -1"),
    bad(lambda: sweep(1, seeds=[None]), ConfigError, "trial seed: must be an integer, got None"),
    bad(lambda: sweep(1, seeds=[1.5]), ConfigError, "trial seed: must be an integer, got 1.5"),
    bad(lambda: sweep(1, seeds=[True]), ConfigError, "trial seed: must be an integer, got True"),
    bad(lambda: sweep(1, seeds=[-1]), ConfigError, "trial seed: must be >= 0, got -1"),
    bad(lambda: graph(2.0), ConfigError, "nodes: must be an integer, got 2.0"),
    bad(lambda: graph(True), ConfigError, "nodes: must be an integer, got True"),
    bad(lambda: graph("2"), ConfigError, "nodes: must be an integer, got '2'"),
    bad(lambda: graph(0), ConfigError, "nodes: must be >= 1, got 0"),
    bad(lambda: graph(1001), CapExceeded, "nodes: 1001 is over the cap of 1000"),
    bad(lambda: world.WorldGraph.grid(1, 1001), CapExceeded, "nodes: 1001 is over the cap of 1000"),
    bad(lambda: world.WorldGraph.grid(0, 5), ConfigError, "rows: must be >= 1, got 0"),
    bad(
        lambda: world.WorldGraph.from_edges(2, [(0, 1.0)]), ConfigError, "edge (0, 1.0): must be an integer, got 1.0",
        "neighbour 1.0 of node 0 out of range",
    ),
    bad(
        lambda: world.WorldGraph.from_edges(2, [(0, -1)]), ConfigError, "edge (0, -1): must be >= 0, got -1",
        "neighbour -1 of node 0 out of range",
    ),
    bad(lambda: world.WorldGraph.from_edges(2, [(5, 0)]), ConfigError, "edge (5, 0): must be < 2, got 5"),
    bad(lambda: world.WorldGraph.from_edges(2, [(0, "1")]), ConfigError, "edge (0, 1): must be an integer, got '1'"),
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
    # an agent's prior, from Python
    bad(
        lambda: config(prior=["a"] * 15), ConfigError, "agents[0].object_prior: entries must be numbers",
        "object_prior: entries must be numbers",
    ),
    bad(lambda: config(prior=[[0.5], [0.5, 0.0]]), ConfigError, "agents[0].object_prior: entries must be numbers"),
    bad(
        lambda: config(prior=np.ones(3) / 3), ConfigError, "agents[0].object_prior: must hold 15 entries, got shape (3,)"
    ),
    bad(
        lambda: config(prior=np.ones((15, 1)) / 15),
        ConfigError,
        "agents[0].object_prior: must hold 15 entries, got shape (15, 1)",
    ),
    bad(lambda: config(prior=np.full(15, np.nan)), ConfigError, "agents[0].object_prior: entries must be finite"),
    bad(lambda: config(prior=UNIFORM * 2), ConfigError, "agents[0].object_prior: must be a normalized distribution"),
    bad(
        lambda: config(prior=np.r_[-0.5, 1.5, np.zeros(13)]),
        ConfigError,
        "agents[0].object_prior: must be a normalized distribution",
    ),
    # a config file's agent line: every bad start node or prior names its line
    bad_line("agent = 15 | uniform", "agent (line 2) start node: must be < 15, got 15"),
    bad_line("agent = -1 | uniform", "agent (line 2) start node: must be >= 0, got -1"),
    bad_line("agent = 0 | peak:99", "agent (line 2) prior node: must be < 15, got 99"),
    bad_line("agent = 0 | bump:1,-1", "agent (line 2) prior node: must be >= 0, got -1"),
    bad_line("agent = 0 | 0.5,0.5", "agent (line 2) prior: must hold 15 entries, got shape (2,)"),
    bad_line("agent = 0 | nan" + ",0" * 14, "agent (line 2) prior: entries must be finite"),
    bad_line("agent = 0 | inf" + ",0" * 14, "agent (line 2) prior: entries must be finite"),
    bad_line("agent = 0 | " + ",".join(["0.5"] * 15), "agent (line 2) prior: must be a normalized distribution"),
    bad_line("agent = 0 | -1,2" + ",0" * 13, "agent (line 2) prior: must be a normalized distribution"),
    bad_line("agent = 0 | peak:1:1.5", "agent (line 2) prior: must be a normalized distribution"),
    bad_line("agent = 0 | peak:1:inf", "agent (line 2) prior: entries must be finite"),
    bad_line("agent = 0 | peak:1:nan", "agent (line 2) prior: entries must be finite"),
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
    assert type(config(start=np.int64(3)).agents[0].start_node) is int
    assert all(np.array_equal(a, b) for a, b in zip(design(np.uint8(2)), design(2)))
    assert np.array_equal(sweep(np.int64(1)).found_at, sweep(1).found_at)
    assert type(graph(np.int64(2)).n_nodes) is int
