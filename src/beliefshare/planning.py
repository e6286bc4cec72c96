"""Expected free energy of every policy at once, and stochastic action choice.

A policy is a fixed-length tuple of move targets, and policies run in
lexicographic order. Its score combines the information expected from
predicted observations with a bonus in nats for the predicted chance of
seeing the object; actions are sampled from a softmax over the negated
scores and re-planned every timestep.
"""

import numpy as np

from . import world
from .inference import floored_log, softmax

POLICY_CAP = 10_000
# The longest horizon a graph of two or more nodes plans within POLICY_CAP: 2**13 <= 10,000 < 2**14.
HORIZON_CAP = POLICY_CAP.bit_length() - 1

# Bytes of one (beliefs, policies) float array in a stacked scores call:
# 36 beliefs on the 15-node grid at horizon 2.
SCORE_BYTES = 1 << 16
# A move whose target's neighbourhood holds less belief than this changes no entry of a
# belief by half an ulp of 1 or more: it leaves the belief unchanged to float64 precision.
INERT_MASS = np.finfo(float).eps / 2


class PlannerContext:
    """Precomputed arrays for one agent model's graph, observations and visible bonus.

    Scores the full lexicographic policy product without per-call tensor
    rebuilds; ``scores()`` agrees policy by policy with the one-policy
    reference, ``expected_free_energy`` in ``tests/reference.py``. Moves
    follow the graph's rule, not a dense dynamics tensor: a move to an
    adjacent target goes there, any other target stays put.
    Also carries the log and cumulative observation tables the trial loop
    perceives with, so one context serves a whole trial.
    """

    def __init__(self, model):
        A2 = model.A_visibility
        A1 = model.A_location
        self.A2 = A2
        self.adj = model.graph.adjacency.astype(float)
        self.stay = 1.0 - self.adj
        self.nodes = np.arange(len(A1))
        self.log_A1 = floored_log(A1)
        self.log_A2 = floored_log(A2)
        self.cum_A1 = np.cumsum(A1, axis=0)
        # object-side tables as C-ordered (object, location) matrices: objects @ them give location terms
        self.vis_T = np.ascontiguousarray(A2[world.VISIBLE].T)
        self.w_vis_T = np.ascontiguousarray((A2 * self.log_A2).sum(axis=0).T)
        self.w_loc = (A1 * self.log_A1).sum(axis=0)
        self.off = A1[0, 1] if len(A1) > 1 else 0.0
        self.beta = A1[0, 0] - self.off
        # entropy terms of the nodes a move empties: all but its target
        self.emptied = (self.adj.sum(axis=1) - 1.0) * self._loc_entropy(0.0)
        self.visible_bonus = model.visible_bonus
        self.observe_visibility = model.observe_visibility
        self.observe_location = model.observe_location

    def moves(self, locs: np.ndarray) -> np.ndarray:
        """Location beliefs (..., n) moved by every action: shape (..., n_actions, n).

        Action a keeps the mass of nodes not adjacent to a and collects the
        rest, the neighbourhood mass of its target, on node a. That mass is
        one 2-D ``_rows_times`` product over the flattened stack, a lone
        row doubled so that gemm rounds it: a row's bits do not depend on
        the stack around it.
        """
        out = locs[..., None, :] * self.stay
        out[..., self.nodes, self.nodes] = _rows_times(locs, self.adj)
        return out

    def move(self, locs: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """Location beliefs (R, n) each moved by its row's action: the rule and product of ``moves``."""
        rows = np.arange(len(locs))
        out = locs * self.stay[actions]
        out[rows, actions] = _rows_times(locs, self.adj)[rows, actions]
        return out

    def _loc_entropy(self, x):
        """y log y of the location outcome whose node holds belief x."""
        y = self.off + self.beta * x
        return y * floored_log(y)

    def _move_scores(self, locs: np.ndarray, objs: np.ndarray) -> np.ndarray:
        """-(info gain + utility) of one step after every move: (R, K, n) locations, (R, n) objects.

        Returns (R, K, n_actions) from per-node sums, without building the
        moved beliefs. A move to a keeps the nodes not adjacent to a and
        puts the ``mass`` of the rest on a, so a linear term L'.w is
        (L * w) @ stay + mass * w. The location entropy sums over nodes
        the same way; this relies on the structure of ``world.build_A1``,
        which makes an outcome's probability ``off + beta * x``, x the
        belief on its node.
        """
        mass = _rows_times(locs, self.adj)
        score = np.zeros(mass.shape)
        w = self.w_loc if self.observe_location else 0.0
        if self.observe_visibility:
            c = _rows_times(objs, self.vis_T)[:, None]
            q = _rows_times(locs * c, self.stay) + mass * c
            score += q * floored_log(q) + (1.0 - q) * floored_log(1.0 - q)
            score -= self.visible_bonus * q
            w = w + _rows_times(objs, self.w_vis_T)[:, None]
        if self.observe_location:
            score += _rows_times(self._loc_entropy(locs), self.stay) + self.emptied
            score += self._loc_entropy(mass)
        return score - (_rows_times(locs * w, self.stay) + mass * w)

    def scores(
        self, loc: np.ndarray, obj: np.ndarray, horizon: int, first: np.ndarray | None = None
    ) -> np.ndarray:
        """G over all n_actions**horizon policies in lexicographic order.

        One belief pair gives G of shape (P,); stacks of R location and
        object beliefs give (R, P). The object never moves: every step
        scores against the same belief. ``first`` is the first step's
        scores of these beliefs, as ``scores(loc, obj, 1)`` gives them; a
        caller that scored the first step over a larger stack passes its
        rows and skips that step.

        Later steps are scored only after first moves that shift belief.
        A first move whose target's neighbourhood holds less than
        INERT_MASS (eps / 2) changes each entry of the belief by under
        eps / 2, so it leaves the belief unchanged to float64 precision: a
        trajectory that starts with it scores each later step as the
        trajectory without it scored the step before. Every product is one
        2-D ``_rows_times`` product over the flattened stack, a lone row
        doubled so that gemm, not gemv, rounds it: a row's scores do not
        depend on the stack around it.
        """
        locs = np.atleast_2d(loc)
        objs = np.atleast_2d(obj)
        n = locs.shape[-1]
        G = self._move_scores(locs[:, None], objs)[:, 0] if first is None else np.atleast_2d(first)
        step = G[:, None]  # (R, trajectories, n_actions): the last scored step
        for depth in range(1, horizon):
            # every current trajectory extended by every action
            locs = self.moves(locs)
            if depth == 1:
                # only the first moves that shift belief go on
                shifts = locs[:, self.nodes, self.nodes] >= INERT_MASS
                locs, objs = locs[shifts], objs[np.nonzero(shifts)[0]]
            locs = locs.reshape(len(locs), -1, n)
            # after an inert first move, a step scores as the step before did without that move
            later = np.repeat(step[:, None], n, axis=1)
            later[shifts] = self._move_scores(locs, objs)
            step = later.reshape(len(G), -1, n)
            G = (G[..., None] + step).reshape(len(G), -1)
        return G if np.ndim(loc) > 1 else G[0]


def _rows_times(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x @ m for the C-ordered square matrix m, as one 2-D product over the rows of x (..., n).

    Every row then rounds as it would in any other stack. numpy hands a
    one-row product to gemv, which rounds differently from gemm, so a
    lone row is doubled before the product.
    """
    rows = x.reshape(-1, x.shape[-1])
    out = (np.concatenate([rows, rows]) if len(rows) == 1 else rows) @ m
    return out[: len(rows)].reshape(x.shape)


def rows_per_call(n_nodes: int, horizon: int) -> int:
    """Beliefs per stacked ``scores`` call: each (beliefs, P) float array within SCORE_BYTES; at least 1."""
    return max(1, SCORE_BYTES // (8 * n_nodes**horizon))


def sample_policy_index(G: np.ndarray, temperature: float, u) -> np.ndarray:
    """Policy index per row of G from softmax(-temperature * G), by inverse CDF at the uniforms u.

    One score vector and one uniform give one index. ``temperature`` > 0: ScenarioConfig checks it.
    """
    cum = np.cumsum(softmax(-temperature * G), axis=-1)
    # the CDF is sorted, so counting entries <= u is searchsorted(side="right")
    idx = (cum <= np.asarray(u)[..., None]).sum(axis=-1)
    return np.minimum(idx, G.shape[-1] - 1)
