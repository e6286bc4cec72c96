"""The one-agent reference the package's batched trial kernel is tested against.

One agent, one message and one policy at a time, with every input
checked: categorical beliefs and log messages, the factor-wise perception
sweep, the two sharing channels and a synchronous broadcast round, and
expected free energy by explicit enumeration over outcomes. No command,
sweep or scenario runs this module. The tests hold it to exact Bayes, and
hold the kernel (``simulate._step_trials``, ``PlannerContext.scores``)
to it within 1e-12.

The agent model is the package's ``model.AgentModel``, whose tables are
plain arrays; the reference wraps them in its own tensor classes.
"""

from dataclasses import dataclass
from itertools import product

import numpy as np

from beliefshare import world
from beliefshare.errors import BeliefShareError, CapExceeded, EmptyInput, ShapeError, check_cap
from beliefshare.inference import MAX_SWEEPS, SWEEP_TOL, floored_log, softmax
from beliefshare.planning import HORIZON_CAP, POLICY_CAP
from beliefshare.simulate import CommMode

# Tolerance for "sums to one" checks on constructed tensors and beliefs.
SUM_ATOL = 1e-9


class DegenerateDistribution(BeliefShareError):
    """A probability vector has no mass to normalize (all zero) or negative entries."""


class IncompleteParents(BeliefShareError):
    """A likelihood contraction is missing (or was given surplus) co-parent beliefs."""


class InvalidAction(BeliefShareError):
    """Action index outside the transition tensor's action axis."""


class FactorMismatch(BeliefShareError):
    """Messages or beliefs refer to different latent factors."""


# ---------------------------------------------------------------------------
# Beliefs, messages and tensors


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


# ---------------------------------------------------------------------------
# The world as tensors and text


def build_B1(graph: world.WorldGraph) -> TransitionTensor:
    """Dense movement dynamics: action a jumps to node a when adjacent, else stays."""
    n = graph.n_nodes
    table = np.zeros((n, n, n))
    for a in range(n):
        for j in range(n):
            if graph.adjacency[a, j]:
                table[a, j, a] = 1.0
            else:
                table[j, j, a] = 1.0
    return TransitionTensor(world.LOCATION, table)


def format_graph_text(graph: world.WorldGraph) -> str:
    """The graph in the fixture format ``world.parse_graph_text`` reads: one "node: nb,nb" line per node."""
    lines = []
    for node in range(graph.n_nodes):
        nbs = [str(nb) for nb in np.flatnonzero(graph.adjacency[node]) if nb != node]
        lines.append(f"{node}: {','.join(nbs)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# One agent's perception


@dataclass
class BeliefState:
    """Current posteriors of one agent plus the action that produced them."""

    location: CategoricalBelief
    object: CategoricalBelief
    last_action: int | None = None


@dataclass
class PerceptionUpdate:
    """Message bundle from one own-evidence update.

    ``object_likelihoods`` holds exactly the observation-derived messages on
    the object factor, which is what likelihood sharing transmits; the prior
    message plus those likelihoods is what posterior sharing transmits.
    """

    location: CategoricalBelief
    object: CategoricalBelief
    object_prior_msg: LogMessage
    object_likelihoods: list


def initial_state(model) -> BeliefState:
    """The model's priors as beliefs, before any action."""
    return BeliefState(
        CategoricalBelief(world.LOCATION, model.location_prior),
        CategoricalBelief(world.OBJECT, model.object_prior),
        None,
    )


def prior_messages(model, state: BeliefState) -> tuple:
    """Prior messages for the next update: initial priors at t=0, dynamics after.

    The object never moves, so its prior message is its current belief.
    """
    if state.last_action is None:
        loc_msg = LogMessage(world.LOCATION, floored_log(state.location.probs))
    else:
        loc_msg = transition_prediction(build_B1(model.graph), state.location, state.last_action)
    return loc_msg, LogMessage(world.OBJECT, floored_log(state.object.probs))


def perceive(
    model,
    state: BeliefState,
    location_obs: int | None,
    visibility_obs: int | None,
) -> PerceptionUpdate:
    """Own-evidence belief update for one timestep.

    The two factors couple through the visibility modality, so updates
    alternate factor-wise until the beliefs stop moving (or MAX_SWEEPS).
    Masked or absent observations simply contribute no message.
    """
    A_location = LikelihoodTensor(world.LOCATION_MODALITY, (world.LOCATION,), model.A_location)
    A_visibility = LikelihoodTensor(
        world.VISIBILITY_MODALITY, (world.LOCATION, world.OBJECT), model.A_visibility
    )
    loc_prior_msg, obj_prior_msg = prior_messages(model, state)

    loc_evidence = loc_prior_msg.logits.copy()
    if model.observe_location and location_obs is not None:
        obs = ObservationEvent(world.LOCATION_MODALITY, location_obs)
        loc_evidence += likelihood_message(A_location, obs, [], world.LOCATION).logits

    vis_event = None
    if model.observe_visibility and visibility_obs is not None:
        vis_event = ObservationEvent(world.VISIBILITY_MODALITY, visibility_obs)

    loc_belief = CategoricalBelief(world.LOCATION, softmax(loc_evidence))
    obj_belief = CategoricalBelief(world.OBJECT, softmax(obj_prior_msg.logits))

    if vis_event is None:
        return PerceptionUpdate(loc_belief, obj_belief, obj_prior_msg, [])

    vis_to_obj = None
    for _ in range(MAX_SWEEPS):
        vis_to_loc = likelihood_message(A_visibility, vis_event, [obj_belief], world.LOCATION)
        new_loc = CategoricalBelief(world.LOCATION, softmax(loc_evidence + vis_to_loc.logits))
        vis_to_obj = likelihood_message(A_visibility, vis_event, [new_loc], world.OBJECT)
        new_obj = CategoricalBelief(
            world.OBJECT, softmax(obj_prior_msg.logits + vis_to_obj.logits)
        )
        delta = max(
            np.abs(new_loc.probs - loc_belief.probs).max(),
            np.abs(new_obj.probs - obj_belief.probs).max(),
        )
        loc_belief, obj_belief = new_loc, new_obj
        if delta < SWEEP_TOL:
            break

    return PerceptionUpdate(loc_belief, obj_belief, obj_prior_msg, [vis_to_obj])


# ---------------------------------------------------------------------------
# The sharing channels
#
# Posterior sharing transmits the sender's full current object posterior
# (prior included); likelihood sharing transmits only what the sender's own
# observations said this timestep, so a round with no new evidence moves
# nobody. Payloads are log-vectors shifted to max entry zero, which the
# softmax downstream cannot tell apart from the unshifted ones.


@dataclass
class SharedMessage:
    """One agent-to-agent payload over the object factor."""

    sender: int
    factor_id: str
    payload: LogMessage
    mode_tag: CommMode

    def __post_init__(self):
        if self.mode_tag == CommMode.NONE:
            raise ShapeError("a shared message cannot carry the 'none' mode")
        if self.payload.factor_id != self.factor_id:
            raise ShapeError("payload factor differs from message factor")


def _max_normalized(logits: np.ndarray) -> np.ndarray:
    return logits - logits.max()


def compose_posterior_message(sender: int, object_posterior: CategoricalBelief) -> SharedMessage:
    """Share the sender's full object posterior as a log payload.

    Because the posterior is the softmax of (prior message + own likelihood
    messages), this payload equals that sum up to an additive constant, so
    the receiver ends up counting the sender's prior as if it were evidence.
    """
    logits = _max_normalized(floored_log(object_posterior.probs))
    return SharedMessage(
        sender, object_posterior.factor_id, LogMessage(object_posterior.factor_id, logits),
        CommMode.POSTERIOR_SHARING,
    )


def compose_likelihood_message(
    sender: int, object_likelihoods: list, n_nodes: int
) -> SharedMessage:
    """Share only the sender's observation-derived object messages.

    With no active observation this timestep the payload is the zero
    vector, which is exactly no influence on the receiver.
    """
    total = np.zeros(n_nodes)
    for msg in object_likelihoods:
        if msg.factor_id != world.OBJECT:
            raise ShapeError("likelihood sharing transmits object-factor messages only")
        total = total + msg.logits
    return SharedMessage(
        sender, world.OBJECT, LogMessage(world.OBJECT, _max_normalized(total)),
        CommMode.LIKELIHOOD_SHARING,
    )


def broadcast_round(updates: list, mode: CommMode) -> list:
    """All-to-all exchange from one synchronous snapshot of every agent.

    ``updates`` holds each agent's own-evidence PerceptionUpdate; the return
    value gives, per receiving agent, the messages from everyone else. Mode
    "none" yields empty lists.
    """
    n = len(updates)
    if mode == CommMode.NONE:
        return [[] for _ in range(n)]
    outgoing = []
    for sender, upd in enumerate(updates):
        if mode == CommMode.POSTERIOR_SHARING:
            outgoing.append(compose_posterior_message(sender, upd.object))
        else:
            outgoing.append(
                compose_likelihood_message(sender, upd.object_likelihoods, len(upd.object))
            )
    return [
        [outgoing[sender] for sender in range(n) if sender != receiver]
        for receiver in range(n)
    ]


def integrate_shared(
    prior_msg: LogMessage, own_likelihoods: list, shared: list
) -> CategoricalBelief:
    """Final object update: own messages plus every shared payload, one softmax."""
    return vmp_update(prior_msg, list(own_likelihoods) + [m.payload for m in shared])


def integrated_object_belief(update: PerceptionUpdate, shared: list) -> CategoricalBelief:
    """Convenience wrapper applying integrate_shared to a perception bundle."""
    return integrate_shared(update.object_prior_msg, update.object_likelihoods, shared)


# ---------------------------------------------------------------------------
# Expected free energy, one policy at a time


@dataclass
class EFEBreakdown:
    """Score of one policy: G = -info_gain - utility (lower is better)."""

    info_gain: float
    utility: float

    @property
    def G(self) -> float:
        return -self.info_gain - self.utility


def enumerate_policies(n_actions: int, horizon: int) -> list:
    """All action sequences of the given length, in lexicographic order; at most POLICY_CAP."""
    if horizon < 1 or n_actions < 1:
        raise EmptyInput("horizon and action count must be at least 1")
    if horizon > HORIZON_CAP:
        raise CapExceeded(f"horizon: {horizon} is over the cap of {HORIZON_CAP}")
    check_cap("policies", POLICY_CAP, n_actions**horizon)
    return list(product(range(n_actions), repeat=horizon))


def rollout_predict(model, beliefs, policy) -> tuple:
    """Predicted per-step state beliefs and observation distributions under a policy.

    Returns (states, observations): two lists with one entry per step,
    ``states[t]`` mapping factor id to a belief vector and
    ``observations[t]`` mapping modality id to an outcome distribution.
    The object never moves, so its belief is the same at every step.
    """
    B = build_B1(model.graph).table
    loc = beliefs.location.probs.copy()
    obj = beliefs.object.probs.copy()
    states = []
    observations = []
    for action in policy:
        loc = B[:, :, action] @ loc
        states.append({world.LOCATION: loc, world.OBJECT: obj})
        obs = {}
        if model.observe_visibility:
            obs[world.VISIBILITY_MODALITY] = np.einsum("vij,i,j->v", model.A_visibility, loc, obj)
        if model.observe_location:
            obs[world.LOCATION_MODALITY] = model.A_location @ loc
        observations.append(obs)
    return states, observations


def expected_free_energy(model, beliefs, policy) -> EFEBreakdown:
    """Score one policy by explicit enumeration over predicted outcomes.

    Information gain is the expected KL from predicted-state prior to the
    posterior given each possible outcome (joint over both factors for the
    visibility modality); utility is the model's visible bonus times the
    predicted probability of a visible outcome. The shared modality never
    enters the rollout.
    """
    states, observations = rollout_predict(model, beliefs, policy)
    info_gain = 0.0
    utility = 0.0
    for state, obs_dists in zip(states, observations):
        loc = state[world.LOCATION]
        obj = state[world.OBJECT]
        if world.VISIBILITY_MODALITY in obs_dists:
            q_o = obs_dists[world.VISIBILITY_MODALITY]
            joint_prior = np.outer(loc, obj)
            for v in range(len(model.A_visibility)):
                if q_o[v] <= 0:
                    continue
                joint_post = normalize(model.A_visibility[v] * joint_prior)
                info_gain += q_o[v] * kl_divergence(joint_post.ravel(), joint_prior.ravel())
            utility += model.visible_bonus * q_o[world.VISIBLE]
        if world.LOCATION_MODALITY in obs_dists:
            q_o = obs_dists[world.LOCATION_MODALITY]
            for o in range(len(model.A_location)):
                if q_o[o] <= 0:
                    continue
                post = normalize(model.A_location[o] * loc)
                info_gain += q_o[o] * kl_divergence(post, loc)
    return EFEBreakdown(info_gain, utility)
