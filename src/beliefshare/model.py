"""One agent's generative model: observation tables, priors and visible bonus.

The model has two latent factors, own location and object location, coupled
through the visibility modality. The planner reads its tables; the trial
kernel in ``simulate`` updates the beliefs.
"""

from dataclasses import dataclass

import numpy as np

from . import world

# Preference for the visible outcome, in nats: seeing the object is worth 2.
VISIBLE_BONUS = 2.0


@dataclass
class AgentModel:
    """Observation tables, priors and visible bonus of one agent on a given graph, as plain arrays."""

    graph: world.WorldGraph
    A_location: np.ndarray
    A_visibility: np.ndarray
    location_prior: np.ndarray
    object_prior: np.ndarray
    visible_bonus: float
    observe_location: bool = True
    observe_visibility: bool = True

    @property
    def n_nodes(self) -> int:
        return self.graph.n_nodes


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
        location_prior=loc_prior,
        object_prior=np.asarray(object_prior, dtype=float),
        visible_bonus=visible_bonus,
        observe_location=observe_location,
        observe_visibility=observe_visibility,
    )
