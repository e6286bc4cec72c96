"""Reference values the benchmark checks beliefshare's outputs against.

Everything here is derived from the model as stated (a 3x5 grid, move to the
named node when it is adjacent, location accuracy 0.99, detection 0.8 and
false-positive rate 0.2 for visibility, a 2-nat preference for "visible"),
using only numpy. Nothing is imported from beliefshare, so a fault in the
program cannot also hide in its reference.
"""

import numpy as np

LOCATION_ACCURACY = 0.99
DETECTION_RATE = 0.8
FALSE_POSITIVE_RATE = 0.2
VISIBLE_BONUS = 2.0


def grid_adjacency(rows: int, cols: int) -> np.ndarray:
    """Boolean adjacency of a rows x cols 4-neighbour grid, self loops included."""
    n = rows * cols
    adj = np.eye(n, dtype=bool)
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            if c + 1 < cols:
                adj[node, node + 1] = adj[node + 1, node] = True
            if r + 1 < rows:
                adj[node, node + cols] = adj[node + cols, node] = True
    return adj


def random_walk_find_rate(adjacency: np.ndarray, steps: int, n_agents: int = 2) -> float:
    """Exact find rate of the random baseline, averaged over every sweep combination.

    Each step every agent draws visibility where it stands (the object is
    found when an agent on the object's node draws "visible"), then names a
    uniformly random node and moves there if it is adjacent. Given the
    object node the agents are independent, and their starts are uniform
    and independent, so P(not found) = mean_obj (mean_start q)^n_agents,
    with q the chance one walker never detects the object.
    """
    adj = np.asarray(adjacency, dtype=bool)
    n = adj.shape[0]
    move = adj / n
    np.fill_diagonal(move, 0.0)
    np.fill_diagonal(move, 1.0 - move.sum(axis=1))
    missed = 0.0
    for obj in range(n):
        survive = np.ones(n)
        survive[obj] = 1.0 - DETECTION_RATE
        mass = np.eye(n)  # row = start node, column = current node
        for t in range(steps):
            mass = mass * survive
            if t < steps - 1:
                mass = mass @ move
        missed += mass.sum(axis=1).mean() ** n_agents
    return 1.0 - missed / n


def bumped_prior(n_nodes: int, nodes, ratio: float = 2.0) -> np.ndarray:
    p = np.ones(n_nodes)
    p[list(nodes)] = ratio
    return p / p.sum()


def echo_chamber_posterior(prior: np.ndarray, t: int) -> np.ndarray:
    """Object belief at step t of two frozen, blind agents sharing posteriors.

    Each round a receiver adds the sender's log-posterior to its own, which
    equals its own, so the log-belief doubles: softmax(2^(t+1) log p).
    """
    z = 2.0 ** (t + 1) * np.log(prior)
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def trial_seed(master_seed: int, paired_index: int) -> int:
    return int(np.random.SeedSequence([master_seed, paired_index]).generate_state(1)[0])


def _kl(post: np.ndarray, prior: np.ndarray, axis) -> np.ndarray:
    ratio = np.divide(post, prior, out=np.ones_like(post), where=post > 0)
    return np.sum(np.where(post > 0, post * np.log(ratio), 0.0), axis=axis)


def expected_free_energy_h2(adjacency: np.ndarray, loc: np.ndarray, obj: np.ndarray) -> np.ndarray:
    """G of every horizon-2 policy (a1, a2), index a1 * n + a2, by explicit enumeration.

    Per predicted step: information gain is the outcome-weighted KL from the
    predicted joint state belief to its posterior, for the visibility
    outcome (over location x object) and the location outcome (over
    location); utility is 2 nats times P(visible). G = -(gain + utility).
    """
    adj = np.asarray(adjacency, dtype=bool)
    n = adj.shape[0]
    vis = np.full((n, n), FALSE_POSITIVE_RATE)
    np.fill_diagonal(vis, DETECTION_RATE)
    lik_vis = np.stack([vis, 1.0 - vis])  # [outcome, location, object]
    lik_loc = np.ones((1, 1))  # [outcome, location]; one node is always seen
    if n > 1:
        lik_loc = np.full((n, n), (1.0 - LOCATION_ACCURACY) / (n - 1))
        np.fill_diagonal(lik_loc, LOCATION_ACCURACY)

    def moved(belief, action):
        out = np.where(adj[action], 0.0, belief)
        out[action] += belief[adj[action]].sum()
        return out

    def step_G(belief):
        joint = np.outer(belief, obj)
        q_vis = np.einsum("vlo,lo->v", lik_vis, joint)
        post_vis = lik_vis * joint / q_vis[:, None, None]
        gain = q_vis @ _kl(post_vis, joint[None], axis=(1, 2))
        q_loc = lik_loc @ belief
        post_loc = lik_loc * belief / q_loc[:, None]
        gain += q_loc @ _kl(post_loc, belief[None], axis=1)
        return -(gain + VISIBLE_BONUS * q_vis[0])

    G = np.empty(n * n)
    for a1 in range(n):
        first = moved(loc, a1)
        g1 = step_G(first)
        for a2 in range(n):
            G[a1 * n + a2] = g1 + step_G(moved(first, a2))
    return G
