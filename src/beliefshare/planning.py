"""Expected free energy of every policy at once, and stochastic action choice.

A policy is a fixed-length tuple of move targets, and policies run in
lexicographic order. Its score G combines the information expected from
predicted observations with a bonus in nats for the predicted chance of
seeing the object. An agent takes the first move of a policy drawn from
softmax(-temperature * G) and re-plans every step, so ``first_moves``
gives the logits of that move's marginal by calling itself on each moved
belief, with no n**horizon scores built; ``sample_policy_index`` draws
from their softmax.
"""

import numpy as np

from . import world
from .inference import floored_log, last_axis_max, softmax

POLICY_CAP = 10_000
# The longest horizon a graph of two or more nodes plans within POLICY_CAP: 2**13 <= 10,000 < 2**14.
HORIZON_CAP = POLICY_CAP.bit_length() - 1

# Bytes of the last step's scores a first-move backup holds per chunk of (belief, first move)
# pairs: 546 pairs on the 15-node grid at horizon 2, 36 at horizon 3.
SCORE_BYTES = 1 << 16
# A move whose target's neighbourhood holds less belief than this changes no entry of a
# belief by half an ulp of 1 or more: it leaves the belief unchanged to float64 precision.
INERT_MASS = np.finfo(float).eps / 2


class PlannerContext:
    """Precomputed arrays for one agent model's graph, observations and visible bonus.

    ``scores()`` gives the full lexicographic policy product and agrees
    policy by policy with the one-policy reference,
    ``expected_free_energy`` in ``tests/reference.py``; ``first_moves()``
    gives the logits of the first move's marginal of its softmax. Moves
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

    def move(self, locs: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """Location beliefs (R, n) each moved by its row's action.

        Action a keeps the mass of nodes not adjacent to a and collects the
        rest, its target's neighbourhood mass, on node a: one
        ``_rows_times`` product, so a row's bits do not depend on the stack.
        """
        rows = np.arange(len(locs))
        out = locs * self.stay[actions]
        out[rows, actions] = _rows_times(locs, self.adj)[rows, actions]
        return out

    def _loc_entropy(self, x):
        """y log y of the location outcome whose node holds belief x."""
        y = self.off + self.beta * x
        return y * floored_log(y)

    def _object_terms(self, objs: np.ndarray) -> tuple:
        """Per object belief (R, n) and node: the chance of seeing the object, the log-likelihood weight."""
        w = _rows_times(objs, self.w_vis_T) if self.observe_visibility else np.zeros(objs.shape)
        return _rows_times(objs, self.vis_T), w + (self.w_loc if self.observe_location else 0.0)

    def _move_scores(self, locs: np.ndarray, c: np.ndarray, w: np.ndarray) -> np.ndarray:
        """-(info gain + utility) of one step after every move: (R, n) locations and object terms.

        Returns (R, n_actions) from per-node sums, without building the
        moved beliefs. A move to a keeps the nodes not adjacent to a and
        puts the ``mass`` of the rest on a, so a linear term L'.w is
        (L * w) @ stay + mass * w. The location entropy sums over nodes
        the same way; this relies on the structure of ``world.build_A1``,
        which makes an outcome's probability ``off + beta * x``, x the
        belief on its node.
        """
        mass = _rows_times(locs, self.adj)
        score = np.zeros(mass.shape)
        if self.observe_visibility:
            q = _rows_times(locs * c, self.stay) + mass * c
            # one outcome's entropy term at a time: a backup chunk holds few arrays of its size at once
            score += q * floored_log(q)
            score += (1.0 - q) * floored_log(1.0 - q)
            score -= self.visible_bonus * q
        if self.observe_location:
            score += _rows_times(self._loc_entropy(locs), self.stay) + self.emptied
            score += self._loc_entropy(mass)
        score -= _rows_times(locs * w, self.stay) + mass * w
        return score

    def scores(self, loc: np.ndarray, obj: np.ndarray, horizon: int) -> np.ndarray:
        """G over all n_actions**horizon policies in lexicographic order.

        One belief pair gives G of shape (P,); stacks of R location and
        object beliefs give (R, P). The first step's scores plus, after each
        move, the scores of the moved belief over the remaining horizon. The
        object never moves: every step scores against the same belief. Every
        product is a ``_rows_times`` product: a row's scores do not depend on
        the stack around it.
        """
        locs, objs = np.atleast_2d(loc), np.atleast_2d(obj)
        G = self._move_scores(locs, *self._object_terms(objs))
        if horizon > 1:
            n = len(self.nodes)
            moved = self.move(np.repeat(locs, n, axis=0), np.tile(self.nodes, len(locs)))
            later = self.scores(moved, np.repeat(objs, n, axis=0), horizon - 1).reshape(len(locs), n, -1)
            G = (G[..., None] + later).reshape(len(locs), -1)
        return G if np.ndim(loc) > 1 else G[0]

    def first_moves(self, locs, objs, horizon: int, temperature: float) -> np.ndarray:
        """First-move logits (R, n): their softmax is each first move's share of
        softmax(-temperature * ``scores``), with no policy array built.

        G adds up step by step, so a first move's share is exp(-temperature * s1 + V): s1 the first
        step's score, V the log-sum-exp of this call on the moved belief over the remaining horizon.
        """
        return self._backup(locs, objs, horizon, temperature, -temperature * self.scores(locs, objs, 1))

    def _backup(self, locs, objs, horizon, temperature, logits):
        """``logits`` (-temperature * s1) plus V of every first move: for a move that shifts belief, from
        ``first_moves`` of the moved rows; for an inert one, from the row's own backup one step shorter."""
        if horizon == 1:
            return logits
        n = len(self.nodes)
        h = horizon - 1
        later = np.repeat(_logsumexp(self._backup(locs, objs, h, temperature, logits))[:, None], n, axis=1)
        pairs = np.flatnonzero(_rows_times(locs, self.adj) >= INERT_MASS)
        chunk = rows_per_call(n, h)
        for k in range(0, len(pairs), chunk):
            r, a = np.divmod(pairs[k : k + chunk], n)
            later[r, a] = _logsumexp(self.first_moves(self.move(locs[r], a), objs[r], h, temperature))
        return logits + later


def _logsumexp(x: np.ndarray) -> np.ndarray:
    """log sum exp over the last axis, stably."""
    top = last_axis_max(x)
    return top + np.log(np.exp(x - top[..., None]).sum(axis=-1))


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
    """(Belief, move) pairs per backup chunk, at least 1: with n_nodes**horizon scores each, SCORE_BYTES."""
    return max(1, SCORE_BYTES // (8 * n_nodes**horizon))


def sample_policy_index(logits: np.ndarray, u) -> np.ndarray:
    """Index per row of ``logits`` drawn from their softmax, by inverse CDF at the uniforms u.

    One logit vector and one uniform give one index; the trial loop passes first-move logits, so
    the index is the move.
    """
    cum = np.cumsum(softmax(logits), axis=-1)
    # the CDF is sorted, so counting entries <= u is searchsorted(side="right")
    idx = (cum <= np.asarray(u)[..., None]).sum(axis=-1)
    return np.minimum(idx, logits.shape[-1] - 1)
