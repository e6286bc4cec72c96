"""Ground-truth environment: location graph, hidden object, observation draws.

Also builds the observation tables every agent model and planner reads.
Moving is "name a target node": the move succeeds when the target
neighbours the current node, otherwise the agent stays put.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, ConfigError, check_count, is_integer

OBJECT = "object"

VISIBLE = 0
NOT_VISIBLE = 1

# Largest graph, checked before any n x n array is built. A planning context
# holds about a dozen n x n float tables, ~100 MB at this size.
NODE_CAP = 1_000

# Observation noise levels of the canonical tensors.
LOCATION_ACCURACY = 0.99
DETECTION_RATE = 0.8
FALSE_POSITIVE_RATE = 0.2


@dataclass
class WorldGraph:
    """Symmetric location graph; every node is implicitly adjacent to itself."""

    n_nodes: int
    adjacency: np.ndarray

    def __post_init__(self):
        self.n_nodes = check_count("nodes", self.n_nodes, 1, NODE_CAP)
        adj = np.asarray(self.adjacency, dtype=bool)
        if adj.shape != (self.n_nodes, self.n_nodes):
            raise ConfigError(f"graph: adjacency must be {self.n_nodes}x{self.n_nodes}")
        adj = adj | adj.T
        np.fill_diagonal(adj, True)
        self.adjacency = adj
        unreached = self._unreached()
        if unreached is not None:
            raise ConfigError(f"graph: node {unreached} cannot be reached from node 0")

    def _unreached(self) -> int | None:
        """The lowest node no path from node 0 reaches, or None when the graph is connected."""
        seen = {0}
        frontier = [0]
        while frontier:
            node = frontier.pop()
            for nb in np.flatnonzero(self.adjacency[node]):
                if nb not in seen:
                    seen.add(int(nb))
                    frontier.append(int(nb))
        return min(set(range(self.n_nodes)) - seen, default=None)

    @classmethod
    def from_edges(cls, n_nodes: int, edges) -> "WorldGraph":
        n_nodes = check_count("nodes", n_nodes, 1, NODE_CAP)
        adj = np.zeros((n_nodes, n_nodes), dtype=bool)
        for a, b in edges:
            if not all(is_integer(node) and 0 <= node < n_nodes for node in (a, b)):
                raise ConfigError(f"neighbour {b} of node {a} out of range")
            adj[a, b] = adj[b, a] = True
        return cls(n_nodes, adj)

    @classmethod
    def grid(cls, rows: int, cols: int) -> "WorldGraph":
        """rows x cols lattice with 4-neighbourhood, node index = row * cols + col."""
        n = check_count("nodes", check_count("rows", rows, 1) * check_count("cols", cols, 1), 1, NODE_CAP)
        across = [(node, node + 1) for node in range(n) if (node + 1) % cols]
        return cls.from_edges(n, across + [(node, node + cols) for node in range(n - cols)])


def parse_graph_text(text: str) -> WorldGraph:
    """Parse the adjacency-list fixture format: one "node: nb,nb,..." line per node."""
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, tail = line.partition(":")
        tokens = [head.strip(), *tail.replace(",", " ").split()]
        if not all(tok.isdecimal() for tok in tokens):
            raise ConfigError(f"graph fixture line {lineno}: expected 'node: nb,nb,...', got {line!r}")
        try:
            node, *nbs = (int(tok) for tok in tokens)
        except ValueError as exc:  # more digits than int() reads
            msg = f"graph fixture line {lineno}: a node number is over the cap of {NODE_CAP}"
            raise CapExceeded(msg) from exc
        entries[node] = nbs
    if not entries:
        raise ConfigError("graph fixture is empty")
    edges = [(node, nb) for node, nbs in entries.items() for nb in nbs]
    return WorldGraph.from_edges(max(entries) + 1, edges)


def default_graph() -> WorldGraph:
    """The shipped 15-node world: a 3x5 grid, no diagonals."""
    return WorldGraph.grid(3, 5)


def build_A1(n_nodes: int) -> np.ndarray:
    """Near-identity location observation P(outcome | location): 0.99 on the diagonal.

    The remaining 0.01 is split uniformly over the other entries so every
    column stays stochastic for any node count.
    """
    if n_nodes == 1:
        table = np.ones((1, 1))
    else:
        off = (1.0 - LOCATION_ACCURACY) / (n_nodes - 1)
        table = np.full((n_nodes, n_nodes), off)
        np.fill_diagonal(table, LOCATION_ACCURACY)
    return table


def build_A2(n_nodes: int) -> np.ndarray:
    """Visibility observation P(outcome | location, object): P(visible) = 0.8 when co-located, else 0.2."""
    table = np.empty((2, n_nodes, n_nodes))
    table[VISIBLE] = FALSE_POSITIVE_RATE
    table[NOT_VISIBLE] = 1.0 - FALSE_POSITIVE_RATE
    idx = np.arange(n_nodes)
    table[VISIBLE, idx, idx] = DETECTION_RATE
    table[NOT_VISIBLE, idx, idx] = 1.0 - DETECTION_RATE
    return table


def env_step(positions, actions, graph: WorldGraph) -> np.ndarray:
    """Apply one move per agent: to the target if adjacent, else stay. The object never moves."""
    return np.where(graph.adjacency[actions, positions], actions, positions)


def env_observe(
    positions,
    object_location,
    u: np.ndarray,
    cum_A1: np.ndarray,
    A2: np.ndarray,
) -> tuple:
    """One location and one visibility outcome per agent: (loc_obs, vis_obs).

    ``u`` is (..., 2) uniforms over ``positions``, location then visibility
    per agent, as ``rng.random((agents, 2))`` draws them. ``object_location``
    is None (absent) or broadcasts against ``positions``. Ground truth uses
    the agents' tensors: ``cum_A1`` is the location table cumulated over
    outcomes (axis 0), ``A2`` the visibility table. An absent object behaves
    like "not at the agent's node" everywhere, so visible draws are false
    positives only.
    """
    positions = np.asarray(positions)
    # cum_A1 columns are sorted, so counting entries <= u is searchsorted(side="right")
    loc_obs = np.minimum((cum_A1[:, positions] <= u[..., 0]).sum(axis=0), cum_A1.shape[0] - 1)
    if object_location is not None:
        p_visible = A2[VISIBLE, positions, object_location]
    elif A2.shape[1] > 1:
        # any non-matching column of the visibility table
        p_visible = A2[VISIBLE, positions, positions - 1]
    else:
        p_visible = np.zeros(positions.shape)
    vis_obs = np.where(u[..., 1] < p_visible, VISIBLE, NOT_VISIBLE)
    return loc_obs, vis_obs
