"""Multi-agent object search with belief sharing on graph worlds.

Agents hold categorical beliefs over their own location and a hidden
object's location, update them by summing log-space messages, plan by
expected free energy, and can exchange either full posteriors or only
observation-derived likelihood messages. The simulation layer reproduces
the runaway-consensus and evidence-override failure modes of posterior
sharing and the likelihood-sharing remedy.
"""

from .comms import (
    CommMode,
    SharedMessage,
    broadcast_round,
    compose_likelihood_message,
    compose_posterior_message,
    integrate_shared,
)
from .inference import (
    CategoricalBelief,
    LikelihoodTensor,
    LogMessage,
    ObservationEvent,
    TransitionTensor,
    exact_bayes_oracle,
    likelihood_message,
    normalize,
    softmax,
    transition_prediction,
    variational_free_energy,
    vmp_update,
)
from .model import AgentModel, BeliefState, make_agent_model, perceive
from .planning import (
    EFEBreakdown,
    enumerate_policies,
    expected_free_energy,
    rollout_predict,
)
from .simulate import (
    AgentSpec,
    BeliefTrace,
    ScenarioConfig,
    SweepResult,
    TrialResult,
    echo_chamber_config,
    run_sweep,
    run_trial,
    self_doubt_config,
)
from .world import (
    WorldGraph,
    build_A1,
    build_A2,
    build_B1,
    default_graph,
    env_observe,
    env_step,
    load_graph_fixture,
)

__version__ = "0.1.0"
