"""One agent's generative model and its per-timestep belief update.

The model has two latent factors, own location and object location, coupled
through the visibility modality. Perception runs factor-wise update sweeps
on the agent's own evidence; the resulting message bundle is what the
communication layer snapshots and what the final integration consumes.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import world
from .inference import (
    MAX_SWEEPS,
    SWEEP_TOL,
    CategoricalBelief,
    LikelihoodTensor,
    LogMessage,
    ObservationEvent,
    TransitionTensor,
    floored_log,
    likelihood_message,
    softmax,
    transition_prediction,
)

# Preference for the visible outcome, in nats: seeing the object is worth 2.
VISIBLE_BONUS = 2.0


@dataclass
class AgentModel:
    """Tensors, priors and visible bonus of one agent on a given graph."""

    graph: world.WorldGraph
    A_location: LikelihoodTensor
    A_visibility: LikelihoodTensor
    location_prior: CategoricalBelief
    object_prior: CategoricalBelief
    visible_bonus: float
    observe_location: bool = True
    observe_visibility: bool = True

    @property
    def n_nodes(self) -> int:
        return self.graph.n_nodes

    @cached_property
    def B_location(self) -> TransitionTensor:
        """Dense n x n x n movement dynamics, built on first read.

        Only the reference path (``perceive``, ``rollout_predict``) reads
        it; the trial loop and the planner apply the movement rule through
        the adjacency matrix instead.
        """
        return world.build_B1(self.graph)


def make_agent_model(
    graph: world.WorldGraph,
    start_node: int,
    object_prior: np.ndarray,
    visible_bonus: float = VISIBLE_BONUS,
    observe_location: bool = True,
    observe_visibility: bool = True,
) -> AgentModel:
    """Standard agent for the object-search task, location prior pinned to the start node."""
    n = graph.n_nodes
    loc_prior = np.zeros(n)
    loc_prior[start_node] = 1.0
    return AgentModel(
        graph=graph,
        A_location=world.build_A1(n),
        A_visibility=world.build_A2(n),
        location_prior=CategoricalBelief(world.LOCATION, loc_prior),
        object_prior=CategoricalBelief(world.OBJECT, np.asarray(object_prior, dtype=float)),
        visible_bonus=visible_bonus,
        observe_location=observe_location,
        observe_visibility=observe_visibility,
    )


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


def initial_state(model: AgentModel) -> BeliefState:
    return BeliefState(model.location_prior, model.object_prior, None)


def prior_messages(model: AgentModel, state: BeliefState) -> tuple:
    """Prior messages for the next update: initial priors at t=0, dynamics after.

    The object never moves, so its prior message is its current belief.
    """
    if state.last_action is None:
        loc_msg = LogMessage(world.LOCATION, floored_log(state.location.probs))
    else:
        loc_msg = transition_prediction(model.B_location, state.location, state.last_action)
    return loc_msg, LogMessage(world.OBJECT, floored_log(state.object.probs))


def perceive(
    model: AgentModel,
    state: BeliefState,
    location_obs: int | None,
    visibility_obs: int | None,
) -> PerceptionUpdate:
    """Own-evidence belief update for one timestep.

    The two factors couple through the visibility modality, so updates
    alternate factor-wise until the beliefs stop moving (or MAX_SWEEPS).
    Masked or absent observations simply contribute no message.
    """
    loc_prior_msg, obj_prior_msg = prior_messages(model, state)

    loc_evidence = loc_prior_msg.logits.copy()
    if model.observe_location and location_obs is not None:
        obs = ObservationEvent(world.LOCATION_MODALITY, location_obs)
        loc_evidence += likelihood_message(model.A_location, obs, [], world.LOCATION).logits

    vis_event = None
    if model.observe_visibility and visibility_obs is not None:
        vis_event = ObservationEvent(world.VISIBILITY_MODALITY, visibility_obs)

    loc_belief = CategoricalBelief(world.LOCATION, softmax(loc_evidence))
    obj_belief = CategoricalBelief(world.OBJECT, softmax(obj_prior_msg.logits))

    if vis_event is None:
        return PerceptionUpdate(loc_belief, obj_belief, obj_prior_msg, [])

    vis_to_obj = None
    for _ in range(MAX_SWEEPS):
        vis_to_loc = likelihood_message(
            model.A_visibility, vis_event, [obj_belief], world.LOCATION
        )
        new_loc = CategoricalBelief(world.LOCATION, softmax(loc_evidence + vis_to_loc.logits))
        vis_to_obj = likelihood_message(
            model.A_visibility, vis_event, [new_loc], world.OBJECT
        )
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
