"""Categorical belief arithmetic for discrete generative models.

Beliefs are normalized probability vectors over a named latent factor.
Belief updates are sums of log-space messages: a prior message carried
through the dynamics plus one likelihood message per observed modality,
pushed through a softmax. A brute-force Bayes oracle and the variational
free energy are provided so every update path can be cross-checked.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDistribution,
    EmptyInput,
    FactorMismatch,
    IncompleteParents,
    InvalidAction,
    ShapeError,
)

PROB_FLOOR = 1e-16
LOG_FLOOR = float(np.log(PROB_FLOOR))

# Tolerance for "sums to one" checks on constructed tensors and beliefs.
SUM_ATOL = 1e-9

# Factor-wise belief updates iterate until the largest elementwise change
# drops below SWEEP_TOL, or MAX_SWEEPS passes.
SWEEP_TOL = 1e-6
MAX_SWEEPS = 16


def floored_log(p: np.ndarray) -> np.ndarray:
    """Elementwise log with exact zeros mapped to LOG_FLOOR instead of -inf.

    Positive entries keep their true log, however small, so converting a
    distribution to log space and back is lossless away from hard zeros.
    """
    p = np.asarray(p, dtype=float)
    out = np.full(p.shape, LOG_FLOOR)
    return np.log(p, where=p > 0, out=out)


def normalize(v) -> np.ndarray:
    """Scale a non-negative vector to sum to one.

    Raises DegenerateDistribution if the vector has negative entries or no
    mass at all.
    """
    v = np.asarray(v, dtype=float)
    if v.size == 0:
        raise EmptyInput("cannot normalize an empty vector")
    if np.any(v < 0):
        raise DegenerateDistribution("negative entries in probability vector")
    total = v.sum()
    if total <= 0:
        raise DegenerateDistribution("no probability mass to normalize")
    return v / total


def softmax(logits) -> np.ndarray:
    """Stable softmax over the last axis; invariant to adding a constant to a row."""
    z = np.asarray(logits, dtype=float)
    if z.size == 0:
        raise EmptyInput("softmax of an empty vector")
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def kl_divergence(q: np.ndarray, p: np.ndarray) -> float:
    """KL(q || p) in nats, with 0 log 0 = 0 and exact zeros in p log-floored."""
    q = np.asarray(q, dtype=float)
    return float(np.sum(q * floored_log(q)) - q @ floored_log(p))


@dataclass
class CategoricalBelief:
    """Normalized distribution over one latent factor (length = location count)."""

    factor_id: str
    probs: np.ndarray

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=float)
        if self.probs.ndim != 1 or self.probs.size == 0:
            raise ShapeError(f"belief over {self.factor_id!r} must be a non-empty 1-D vector")
        if np.any(self.probs < 0):
            raise DegenerateDistribution(f"belief over {self.factor_id!r} has negative entries")
        if abs(self.probs.sum() - 1.0) > SUM_ATOL:
            raise DegenerateDistribution(
                f"belief over {self.factor_id!r} sums to {self.probs.sum():.12f}, not 1"
            )

    def __len__(self):
        return self.probs.size


@dataclass
class LogMessage:
    """Unnormalized log-space vector over one latent factor.

    Adding a constant to all entries leaves the induced distribution
    unchanged, so messages may be shifted freely (e.g. max-normalized
    for transport).
    """

    factor_id: str
    logits: np.ndarray

    def __post_init__(self):
        self.logits = np.asarray(self.logits, dtype=float)
        if self.logits.ndim != 1 or self.logits.size == 0:
            raise ShapeError(f"message over {self.factor_id!r} must be a non-empty 1-D vector")

    def __len__(self):
        return self.logits.size


@dataclass
class LikelihoodTensor:
    """Conditional probability table P(outcome | parent factors).

    Axes are [outcome, parent_0, parent_1, ...] in the order given by
    ``parent_factors``.
    """

    modality_id: str
    parent_factors: tuple
    table: np.ndarray

    def __post_init__(self):
        self.parent_factors = tuple(self.parent_factors)
        self.table = np.asarray(self.table, dtype=float)
        if self.table.ndim != 1 + len(self.parent_factors):
            raise ShapeError(
                f"{self.modality_id!r} table has {self.table.ndim} axes, "
                f"expected outcome + {len(self.parent_factors)} parents"
            )
        if np.any(self.table < 0) or np.any(self.table > 1):
            raise ShapeError(f"{self.modality_id!r} table entries must lie in [0, 1]")
        slice_sums = self.table.sum(axis=0)
        if not np.allclose(slice_sums, 1.0, atol=SUM_ATOL, rtol=0):
            raise ShapeError(
                f"{self.modality_id!r} conditional slices must sum to 1 over outcomes"
            )

    @property
    def n_outcomes(self) -> int:
        return self.table.shape[0]


@dataclass
class TransitionTensor:
    """Action-conditioned dynamics P(next | prev, action), axes [next, prev, action]."""

    factor_id: str
    table: np.ndarray

    def __post_init__(self):
        self.table = np.asarray(self.table, dtype=float)
        if self.table.ndim != 3:
            raise ShapeError(f"{self.factor_id!r} transition table must have 3 axes")
        if np.any(self.table < 0):
            raise ShapeError(f"{self.factor_id!r} transition table has negative entries")
        if not np.allclose(self.table.sum(axis=0), 1.0, atol=SUM_ATOL, rtol=0):
            raise ShapeError(f"{self.factor_id!r} transition columns must sum to 1")

    @property
    def n_actions(self) -> int:
        return self.table.shape[2]


@dataclass
class ObservationEvent:
    """One observation on a modality: the index of the observed outcome."""

    modality_id: str
    value: int

    def __post_init__(self):
        if not isinstance(self.value, (int, np.integer)):
            raise ShapeError(f"{self.modality_id!r} observation must be an outcome index")
        self.value = int(self.value)
        if self.value < 0:
            raise ShapeError(f"{self.modality_id!r} outcome index must be non-negative")

    def outcome_weights(self, n_outcomes: int) -> np.ndarray:
        """The observation as a one-hot weight vector over outcomes."""
        if self.value >= n_outcomes:
            raise ShapeError(
                f"{self.modality_id!r} outcome {self.value} out of range (<{n_outcomes})"
            )
        w = np.zeros(n_outcomes)
        w[self.value] = 1.0
        return w


def likelihood_message(
    A: LikelihoodTensor,
    obs: ObservationEvent,
    co_parent_beliefs: list,
    target_factor: str,
) -> LogMessage:
    """Message from an observed modality to one of its parent factors.

    Contracts the observation weights and every co-parent belief against
    the log-weighted table, leaving the target factor's axis:

        logits[i] = sum_o obs[o] * sum_co (prod co-parent probs) * logw[o, ..., i, ...]
    """
    if target_factor not in A.parent_factors:
        raise FactorMismatch(
            f"{target_factor!r} is not a parent of modality {A.modality_id!r}"
        )
    needed = [f for f in A.parent_factors if f != target_factor]
    supplied = {b.factor_id: b for b in co_parent_beliefs}
    if sorted(supplied) != sorted(needed):
        raise IncompleteParents(
            f"modality {A.modality_id!r} needs co-parents {needed}, got {sorted(supplied)}"
        )

    logw = floored_log(A.table)
    w_obs = obs.outcome_weights(A.n_outcomes)

    # einsum over [outcome, parent...] leaving the target parent's axis
    letters = "abcdefgh"
    parent_sub = letters[: len(A.parent_factors)]
    operands = [logw, w_obs]
    lhs = ["z" + parent_sub, "z"]
    for axis, factor in enumerate(A.parent_factors):
        if factor == target_factor:
            continue
        belief = supplied[factor]
        if len(belief) != A.table.shape[1 + axis]:
            raise ShapeError(
                f"co-parent {factor!r} has length {len(belief)}, "
                f"axis wants {A.table.shape[1 + axis]}"
            )
        operands.append(belief.probs)
        lhs.append(parent_sub[axis])
    target_axis = A.parent_factors.index(target_factor)
    logits = np.einsum(",".join(lhs) + "->" + parent_sub[target_axis], *operands)
    return LogMessage(target_factor, logits)


def transition_prediction(B: TransitionTensor, prev: CategoricalBelief, action: int) -> LogMessage:
    """Prior message for the next timestep: log of the dynamics applied to the old belief."""
    if prev.factor_id != B.factor_id:
        raise FactorMismatch(f"belief over {prev.factor_id!r} fed to {B.factor_id!r} dynamics")
    if len(prev) != B.table.shape[1]:
        raise ShapeError(f"belief length {len(prev)} does not match {B.factor_id!r} dynamics")
    if not 0 <= action < B.n_actions:
        raise InvalidAction(f"action {action} out of range (<{B.n_actions})")
    predicted = B.table[:, :, action] @ prev.probs
    return LogMessage(B.factor_id, floored_log(predicted))


def vmp_update(prior_msg: LogMessage, likelihood_msgs: list) -> CategoricalBelief:
    """Posterior belief: softmax of the prior message plus all likelihood messages."""
    total = prior_msg.logits.copy()
    for msg in likelihood_msgs:
        if msg.factor_id != prior_msg.factor_id:
            raise FactorMismatch(
                f"message over {msg.factor_id!r} mixed into {prior_msg.factor_id!r} update"
            )
        if len(msg) != len(prior_msg):
            raise ShapeError("message lengths differ within one update")
        total += msg.logits
    return CategoricalBelief(prior_msg.factor_id, softmax(total))


def variational_free_energy(
    q: CategoricalBelief, prior: CategoricalBelief, likelihood_msgs: list
) -> float:
    """Free energy of q in nats: KL(q || prior) minus expected likelihood logits.

    At the exact posterior this equals minus the log evidence; any other q
    scores higher (the bound property).
    """
    if q.factor_id != prior.factor_id:
        raise FactorMismatch(f"q over {q.factor_id!r}, prior over {prior.factor_id!r}")
    if len(q) != len(prior):
        raise ShapeError("q and prior lengths differ")
    accuracy = 0.0
    for msg in likelihood_msgs:
        if len(msg) != len(q):
            raise ShapeError("likelihood message length differs from q")
        accuracy += float(q.probs @ msg.logits)
    return kl_divergence(q.probs, prior.probs) - accuracy


def exact_bayes_oracle(prior: CategoricalBelief, likelihood_columns: list) -> CategoricalBelief:
    """Direct Bayes product, the reference the message-passing path is tested against.

    normalize(prior * prod(columns)); each column is the likelihood of one
    observation evaluated at every value of the factor.
    """
    post = prior.probs.copy()
    for col in likelihood_columns:
        col = np.asarray(col, dtype=float)
        if col.shape != post.shape:
            raise ShapeError("likelihood column length differs from prior")
        post = post * col
    if post.sum() <= 0:
        raise DegenerateDistribution("zero posterior mass everywhere")
    return CategoricalBelief(prior.factor_id, normalize(post))
