"""Multi-agent trial loop, the canonical scenarios, and the find-rate sweep.

One trial steps through observe -> communicate -> update -> plan -> act,
halting early once any agent standing on the object's node draws a visible
outcome. Everything is driven by one seeded generator, so a (config, seed)
pair pins the whole trajectory down to the emitted CSV bytes.

The trial loop holds every agent's beliefs as rows of (agents, nodes)
arrays and perceives, broadcasts and integrates for all agents at once;
only action choice runs agent by agent, in a fixed order, because each
choice draws from the generator. The loop computes what the contract
operations (model.perceive, comms.broadcast_round, PlannerContext.scores)
compute one agent at a time, and the test suite holds the two paths to
agreement within 1e-12.
"""

import hashlib
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from . import planning, world
from .comms import CommMode, SharedMessage
from .errors import ConfigError, SweepTooLarge
from .inference import MAX_SWEEPS, SWEEP_TOL, LogMessage, floored_log, softmax
from .model import default_preferences, make_agent_model

SWEEP_TRIAL_CAP = 200_000

FREE = "free"
FROZEN = "frozen"

PLANNED = "plan"
RANDOM = "random"

# Sweep table labels: the three channel modes plus the no-planning baseline.
SWEEP_MODES = ("likelihood_sharing", "posterior_sharing", "none", "random")


@dataclass
class AgentSpec:
    """Start node and object-location prior of one agent."""

    start_node: int
    object_prior: np.ndarray

    def __post_init__(self):
        self.object_prior = np.asarray(self.object_prior, dtype=float)


@dataclass
class ScenarioConfig:
    """Declarative description of one experiment."""

    graph: world.WorldGraph
    agents: list
    object_location: int | None
    comm_mode: CommMode
    horizon: int = 2
    steps: int = 20
    temperature: float = 1.0
    seed: int = 42
    observe_location: bool = True
    observe_visibility: bool = True
    movement: str = FREE
    action_policy: str = PLANNED
    scripted_actions: list | None = None
    scripted_visibility: list | None = None
    visible_bonus: float = 2.0
    graph_ref: str = "default"
    record_trace: bool = True

    def __post_init__(self):
        n = self.graph.n_nodes
        if not self.agents:
            raise ConfigError("agents: need at least one agent")
        if self.steps < 1:
            raise ConfigError(f"steps: must be >= 1, got {self.steps}")
        if self.horizon < 1:
            raise ConfigError(f"horizon: must be >= 1, got {self.horizon}")
        if not (math.isfinite(self.temperature) and self.temperature > 0):
            raise ConfigError(f"temperature: must be finite and positive, got {self.temperature}")
        if not math.isfinite(self.visible_bonus):
            raise ConfigError(f"visible_bonus: must be finite, got {self.visible_bonus}")
        self.comm_mode = CommMode(self.comm_mode)
        if self.movement not in (FREE, FROZEN):
            raise ConfigError(f"movement: must be 'free' or 'frozen', got {self.movement!r}")
        if self.action_policy not in (PLANNED, RANDOM):
            raise ConfigError("action_policy: must be 'plan' or 'random'")
        for i, spec in enumerate(self.agents):
            if not 0 <= spec.start_node < n:
                raise ConfigError(f"agents[{i}].start_node: {spec.start_node} out of range")
            if spec.object_prior.shape != (n,):
                raise ConfigError(f"agents[{i}].object_prior: length must be {n}")
            if not np.all(np.isfinite(spec.object_prior)):
                raise ConfigError(f"agents[{i}].object_prior: entries must be finite")
            if np.any(spec.object_prior < 0) or abs(spec.object_prior.sum() - 1.0) > 1e-9:
                raise ConfigError(f"agents[{i}].object_prior: not a normalized distribution")
        if self.object_location is not None and not 0 <= self.object_location < n:
            raise ConfigError(f"object_location: {self.object_location} out of range")
        if self.scripted_actions is not None:
            if len(self.scripted_actions) != self.n_agents:
                raise ConfigError(f"scripted_actions: need one sequence per agent ({self.n_agents})")
            for i, seq in enumerate(self.scripted_actions):
                if len(seq) < self.steps:
                    raise ConfigError(f"scripted_actions[{i}]: shorter than steps")
                if any(not 0 <= a < n for a in seq):
                    raise ConfigError(f"scripted_actions[{i}]: action out of range")
        if self.scripted_visibility is not None:
            if not self.observe_visibility:
                raise ConfigError("scripted_visibility: requires observe_visibility on")
            if len(self.scripted_visibility) != self.n_agents:
                raise ConfigError(f"scripted_visibility: need one sequence per agent ({self.n_agents})")
            for i, seq in enumerate(self.scripted_visibility):
                if len(seq) < self.steps:
                    raise ConfigError(f"scripted_visibility[{i}]: shorter than steps")
                if any(v not in (world.VISIBLE, world.NOT_VISIBLE) for v in seq):
                    raise ConfigError(f"scripted_visibility[{i}]: outcomes must be 0 or 1")

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    def config_hash(self) -> str:
        h = hashlib.sha256()
        h.update(self.graph.adjacency.tobytes())
        for spec in self.agents:
            h.update(str(spec.start_node).encode())
            h.update(np.asarray(spec.object_prior, dtype=float).tobytes())
        fields = (
            self.object_location,
            self.comm_mode.value,
            self.horizon,
            self.steps,
            self.temperature,
            self.seed,
            self.observe_location,
            self.observe_visibility,
            self.movement,
            self.action_policy,
            self.visible_bonus,
            None if self.scripted_actions is None else [list(s) for s in self.scripted_actions],
            None
            if self.scripted_visibility is None
            else [list(s) for s in self.scripted_visibility],
        )
        h.update(repr(fields).encode())
        return h.hexdigest()[:16]


@dataclass
class BeliefTrace:
    """Per-timestep record of beliefs, actions, observations and payloads.

    ``object_prior_msgs`` and ``object_likelihood_sums`` hold each agent's
    own message decomposition for the step, which is what the sharing
    identity checks compare payloads against. ``messages[t]`` is a list of
    (receiver, SharedMessage) pairs.
    """

    object_beliefs: np.ndarray
    location_beliefs: np.ndarray
    actions: np.ndarray
    observations: np.ndarray
    object_prior_msgs: np.ndarray
    object_likelihood_sums: np.ndarray
    messages: list

    @property
    def n_steps(self) -> int:
        return self.object_beliefs.shape[0]

    @property
    def n_agents(self) -> int:
        return self.object_beliefs.shape[1]


@dataclass
class TrialResult:
    found: bool
    steps_to_find: int | None
    trace: BeliefTrace | None
    config_hash: str
    seed: int


def planner_context(config: ScenarioConfig) -> planning.PlannerContext:
    """The planning and perception context of a config's graph, observations and preferences.

    Every agent shares it: agents differ only in start node and object
    prior, and the context reads neither.
    """
    spec = config.agents[0]
    model = make_agent_model(
        config.graph,
        spec.start_node,
        spec.object_prior,
        default_preferences(config.graph.n_nodes, config.visible_bonus),
        config.observe_location,
        config.observe_visibility,
    )
    return planning.PlannerContext(model)


def run_trial(config: ScenarioConfig, planner: planning.PlannerContext | None = None) -> TrialResult:
    """Execute one trial; fully deterministic given the config's seed.

    ``planner`` is the context for the config's graph, observation and
    preference settings; trials that share those settings can share one.
    """
    if planner is None:
        plans = (
            config.action_policy == PLANNED
            and config.movement == FREE
            and config.scripted_actions is None
        )
        if plans:
            planning.enumerate_policies(config.graph.n_nodes, config.horizon)  # enforces the cap
        planner = planner_context(config)
    n = config.graph.n_nodes
    n_agents = config.n_agents
    agents = np.arange(n_agents)
    mode = config.comm_mode
    rng = np.random.default_rng(config.seed)

    # row i of every (agents, nodes) array belongs to agent i
    locs = np.zeros((n_agents, n))
    locs[agents, [s.start_node for s in config.agents]] = 1.0
    objs = np.array([s.object_prior for s in config.agents], dtype=float)
    actions = None
    positions = np.array([s.start_node for s in config.agents])

    trace = None
    if config.record_trace:
        trace = BeliefTrace(
            object_beliefs=np.zeros((config.steps, n_agents, n)),
            location_beliefs=np.zeros((config.steps, n_agents, n)),
            actions=np.full((config.steps, n_agents), -1, dtype=int),
            observations=np.full((config.steps, n_agents, 2), -1, dtype=int),
            object_prior_msgs=np.zeros((config.steps, n_agents, n)),
            object_likelihood_sums=np.zeros((config.steps, n_agents, n)),
            messages=[],
        )

    steps_to_find = None
    need_env_draws = config.observe_location or (
        config.observe_visibility and config.scripted_visibility is None
    )

    for t in range(config.steps):
        loc_obs = None
        vis_obs = None
        if need_env_draws:
            drawn_loc, drawn_vis = world.env_observe(
                positions, config.object_location, rng, planner.cum_A1, planner.A2
            )
            if config.observe_location:
                loc_obs = drawn_loc
            if config.observe_visibility and config.scripted_visibility is None:
                vis_obs = drawn_vis
        if config.scripted_visibility is not None:
            vis_obs = np.array([seq[t] for seq in config.scripted_visibility], dtype=int)

        # own-evidence update (mirrors model.perceive); the object never moves
        if actions is not None:
            # one-row stacks keep each agent's move a matrix-vector product
            locs = planner.moves(locs[:, None])[agents, 0, actions]
        prior_loc = floored_log(locs)
        prior_obj = floored_log(objs)
        loc_ev = prior_loc if loc_obs is None else prior_loc + planner.log_A1[loc_obs]
        locs = softmax(loc_ev)
        own_objs = softmax(prior_obj)
        vis_msgs = None
        if vis_obs is not None:
            lw = planner.log_A2[vis_obs]
            vis_msgs = np.zeros((n_agents, n))
            # each agent sweeps until its own beliefs settle, as it would alone
            active = np.ones(n_agents, dtype=bool)
            for _ in range(MAX_SWEEPS):
                new_loc = softmax(loc_ev + (lw @ own_objs[:, :, None])[:, :, 0])
                new_msg = (new_loc[:, None] @ lw)[:, 0]
                new_obj = softmax(prior_obj + new_msg)
                delta = np.maximum(
                    np.abs(new_loc - locs).max(axis=1), np.abs(new_obj - own_objs).max(axis=1)
                )
                keep = active[:, None]
                locs = np.where(keep, new_loc, locs)
                own_objs = np.where(keep, new_obj, own_objs)
                vis_msgs = np.where(keep, new_msg, vis_msgs)
                active &= delta >= SWEEP_TOL
                if not active.any():
                    break

        # synchronous broadcast from the own-evidence snapshot
        if mode == CommMode.NONE:
            payloads = None
            objs = own_objs
        else:
            if mode == CommMode.POSTERIOR_SHARING:
                payloads = floored_log(own_objs)
            else:
                payloads = np.zeros((n_agents, n)) if vis_msgs is None else vis_msgs
            payloads = payloads - payloads.max(axis=1, keepdims=True)
            total = prior_obj.copy() if vis_msgs is None else prior_obj + vis_msgs
            # every receiver adds the other agents' payloads in ascending sender order
            for sender in agents:
                total[agents != sender] += payloads[sender]
            objs = softmax(total)

        if trace is not None:
            trace.object_beliefs[t] = objs
            trace.location_beliefs[t] = locs
            trace.observations[t, :, 0] = -1 if loc_obs is None else loc_obs
            trace.observations[t, :, 1] = -1 if vis_obs is None else vis_obs
            trace.object_prior_msgs[t] = prior_obj
            if vis_msgs is not None:
                trace.object_likelihood_sums[t] = vis_msgs
            pairs = [] if payloads is None else [
                (i, j) for i in range(n_agents) for j in range(n_agents) if j != i
            ]
            trace.messages.append([
                (i, SharedMessage(j, world.OBJECT, LogMessage(world.OBJECT, payloads[j].copy()), mode))
                for i, j in pairs
            ])

        if config.object_location is not None and vis_obs is not None:
            if np.any((positions == config.object_location) & (vis_obs == world.VISIBLE)):
                steps_to_find = t + 1
        if steps_to_find is not None or t == config.steps - 1:
            break

        actions = np.empty(n_agents, dtype=int)
        for i in agents:
            if config.scripted_actions is not None:
                actions[i] = config.scripted_actions[i][t]
            elif config.movement == FROZEN:
                actions[i] = positions[i]
            elif config.action_policy == RANDOM:
                actions[i] = rng.integers(n)
            else:
                G = planner.scores(locs[i], objs[i], config.horizon)
                idx = planning.sample_policy_index(G, config.temperature, rng)
                actions[i] = idx // n ** (config.horizon - 1)
        if trace is not None:
            trace.actions[t] = actions
        positions = world.env_step(positions, actions, config.graph)

    if trace is not None:
        # the loop always ends at the break above, after t + 1 steps
        trace.object_beliefs = trace.object_beliefs[: t + 1]
        trace.location_beliefs = trace.location_beliefs[: t + 1]
        trace.actions = trace.actions[: t + 1]
        trace.observations = trace.observations[: t + 1]
        trace.object_prior_msgs = trace.object_prior_msgs[: t + 1]
        trace.object_likelihood_sums = trace.object_likelihood_sums[: t + 1]

    found = steps_to_find is not None
    return TrialResult(found, steps_to_find, trace, config.config_hash(), config.seed)


# ---------------------------------------------------------------------------
# Canonical scenarios


def bumped_prior(n_nodes: int, nodes, ratio: float = 2.0) -> np.ndarray:
    """Uniform prior with the given nodes lifted to ``ratio`` times base mass."""
    p = np.ones(n_nodes)
    p[list(nodes)] = ratio
    return p / p.sum()


def peaked_prior(n_nodes: int, node: int, mass: float = 0.95) -> np.ndarray:
    """Prior with ``mass`` on one node and the rest spread uniformly."""
    p = np.full(n_nodes, (1.0 - mass) / (n_nodes - 1))
    p[node] = mass
    return p


def echo_chamber_config(
    mode: CommMode,
    steps: int = 10,
    bump_nodes=(11, 13),
    bump_ratio: float = 2.0,
    start_nodes=(5, 9),
    seed: int = 42,
    graph: world.WorldGraph | None = None,
) -> ScenarioConfig:
    """Two frozen agents, visibility masked, matching priors lifted at two nodes.

    With nothing to observe, any belief motion can only come from the
    communication channel.
    """
    if graph is None:
        graph = world.default_graph()
    prior = bumped_prior(graph.n_nodes, bump_nodes, bump_ratio)
    return ScenarioConfig(
        graph=graph,
        agents=[AgentSpec(s, prior.copy()) for s in start_nodes],
        object_location=None,
        comm_mode=mode,
        steps=steps,
        observe_visibility=False,
        movement=FROZEN,
        seed=seed,
    )


def self_doubt_config(
    mode: CommMode,
    steps: int = 15,
    peak_node: int = 1,
    peak_mass: float = 0.95,
    n_agents: int = 4,
    start_nodes=(0, 4, 10, 14),
    scripted: bool = False,
    seed: int = 42,
    graph: world.WorldGraph | None = None,
) -> ScenarioConfig:
    """Four agents sharing a strong wrong prior about one node; no object there.

    The scripted variant pins every agent to the believed node drawing
    "not visible" forever, isolating the channel's response to clean
    contradicting evidence.
    """
    if graph is None:
        graph = world.default_graph()
    prior = peaked_prior(graph.n_nodes, peak_node, peak_mass)
    if scripted:
        starts = [peak_node] * n_agents
        return ScenarioConfig(
            graph=graph,
            agents=[AgentSpec(s, prior.copy()) for s in starts],
            object_location=None,
            comm_mode=mode,
            steps=steps,
            observe_location=False,
            scripted_actions=[[peak_node] * steps] * n_agents,
            scripted_visibility=[[world.NOT_VISIBLE] * steps] * n_agents,
            seed=seed,
        )
    return ScenarioConfig(
        graph=graph,
        agents=[AgentSpec(s, prior.copy()) for s in start_nodes[:n_agents]],
        object_location=None,
        comm_mode=mode,
        steps=steps,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Find-rate sweep


@dataclass
class TrialRow:
    trial_id: int
    mode: str
    agent_starts: tuple
    object_location: int
    seed: int
    found: bool
    steps_to_find: int | None


@dataclass
class SweepResult:
    rows: list
    aggregates: dict  # mode -> (find_rate, stderr, n_trials)
    master_seed: int
    repeats: int


def trial_seed(master_seed: int, trial_index: int) -> int:
    """Deterministic per-trial seed; identical for serial and parallel runs."""
    return int(np.random.SeedSequence([master_seed, trial_index]).generate_state(1)[0])


def worker_count(requested: int, n_tasks: int, cpus: int | None) -> int:
    """Sweep worker processes: the request, capped by the CPU and task counts, at least 1."""
    return max(1, min(requested, cpus or 1, n_tasks))


def _run_tasks(template: ScenarioConfig, planner: planning.PlannerContext, tasks: list) -> list:
    out = []
    for trial_id, mode, starts, obj, seed in tasks:
        config = replace(
            template,
            agents=[AgentSpec(s, spec.object_prior) for s, spec in zip(starts, template.agents)],
            object_location=obj,
            comm_mode=CommMode.NONE if mode == RANDOM else CommMode(mode),
            action_policy=RANDOM if mode == RANDOM else PLANNED,
            seed=seed,
            record_trace=False,
        )
        result = run_trial(config, planner)
        out.append(
            TrialRow(trial_id, mode, starts, obj, seed, result.found, result.steps_to_find)
        )
    return out


# Per-process state of pool workers, set once by the pool initializer.
_WORKER = {}


def _sweep_worker_init(template: ScenarioConfig):
    _WORKER["args"] = (template, planner_context(template))


def _sweep_worker_run(tasks: list) -> list:
    return _run_tasks(*_WORKER["args"], tasks)


def run_sweep(
    template: ScenarioConfig,
    modes=SWEEP_MODES,
    repeats: int = 5,
    jobs: int = 1,
    cap: int = SWEEP_TRIAL_CAP,
) -> SweepResult:
    """Find rates over every (agent starts, object location) combination.

    Each trial is ``template`` with the agents' start nodes, the object's
    node, the channel and the seed replaced; everything else, the agents'
    priors included, carries over. The template's seed is the master seed.
    Each combination runs ``repeats`` seeded trials per mode; the same
    trial seed is paired across modes so mode comparisons share their
    random draws. "random" is the no-planning baseline.
    """
    if repeats < 1:
        raise ConfigError("repeats: must be >= 1")
    if template.object_location is not None:
        raise ConfigError("object: a sweep places the object on every node; set it to 'absent'")
    if template.action_policy != PLANNED:
        raise ConfigError("action_policy: a sweep plans; list 'random' in sweep_modes instead")
    n = template.graph.n_nodes
    total = n ** (template.n_agents + 1) * repeats * len(modes)
    if total > cap:
        raise SweepTooLarge(f"{total} trials exceed the cap of {cap}")
    planning.enumerate_policies(n, template.horizon)  # enforces the cap
    combos = [
        (starts, obj)
        for starts in product(range(n), repeat=template.n_agents)
        for obj in range(n)
    ]

    # Enumerate deterministically: modes outer, then combo, then repeat.
    tasks = []
    trial_id = 0
    for mode in modes:
        paired_index = 0
        for starts, obj in combos:
            for _ in range(repeats):
                tasks.append(
                    (trial_id, mode, starts, obj, trial_seed(template.seed, paired_index))
                )
                trial_id += 1
                paired_index += 1

    jobs = worker_count(jobs, len(tasks), os.cpu_count())
    if jobs > 1:
        chunks = [tasks[i::jobs] for i in range(jobs)]
        rows = []
        with ProcessPoolExecutor(
            max_workers=jobs, initializer=_sweep_worker_init, initargs=(template,)
        ) as pool:
            for part in pool.map(_sweep_worker_run, chunks):
                rows.extend(part)
        rows.sort(key=lambda r: r.trial_id)
    else:
        rows = _run_tasks(template, planner_context(template), tasks)

    aggregates = {}
    for mode in modes:
        outcomes = np.array([r.found for r in rows if r.mode == mode], dtype=float)
        rate = float(outcomes.mean())
        stderr = float(np.sqrt(rate * (1.0 - rate) / outcomes.size))
        aggregates[mode] = (rate, stderr, int(outcomes.size))
    return SweepResult(rows, aggregates, template.seed, repeats)
