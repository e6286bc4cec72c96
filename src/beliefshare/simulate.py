"""Multi-agent trials, the canonical scenarios, and the find-rate sweep.

A trial steps through observe -> perceive -> broadcast and integrate ->
plan -> act, halting early once any agent standing on the object's node
draws a visible outcome. Each trial draws from its own seeded generator,
so a (config, seed) pair pins the whole trajectory down to the emitted
CSV bytes.

One kernel, ``_step_trials``, holds this step. It steps a batch of trials
of one channel together as (trials, agents, nodes) belief arrays, and a
trial that finds the object leaves it. ``run_sweep``'s workers hand it
batches of TRIALS_PER_BATCH design rows under each mode in turn; a batch
builds its rows' generators once and rewinds them for each mode.
``run_trial`` is its batch of one and records the trace the scenario
exports write. Each step draws every agent's move from the softmax of its
first-move logits, which one ``PlannerContext.first_moves`` call gives
without a policy array: it backs up the later steps only after the first
moves that shift the belief. A planned or frozen trial draws all its
uniforms as one block when its batch starts; the random walk draws step
by step. Beliefs are updated only where a planner or a trace reads them,
so an untraced random walk steps positions and draws alone. The kernel
computes what the one-agent reference in ``tests/reference.py``
(perceive, broadcast_round, expected_free_energy) computes one agent, one
message and one policy at a time; the tests hold the two to agreement
within 1e-12.
"""

import hashlib
import os
from dataclasses import dataclass, replace
from enum import Enum
from itertools import product

import numpy as np

from . import planning, world
from .errors import ConfigError, check_count, is_integer
from .inference import MAX_SWEEPS, SWEEP_TOL, floored_log, last_axis_max, softmax
from .model import VISIBLE_BONUS, make_agent_model

SWEEP_TRIAL_CAP = 200_000
# Longest trial and most agents: a traced trial holds (steps, agents, nodes) arrays.
STEP_CAP = 1_000
AGENT_CAP = 64
TRIALS_PER_BATCH = 256
# A batch's block of uniforms: the shipped sweep's 256 trials x 20 steps x 6 draws (240 KiB) fit in one.
DRAW_BYTES = 1 << 20
# Largest temperature and |visible_bonus|. With the horizon capped, a policy's score is
# |G| <= HORIZON_CAP * (log 2 + log n + |visible_bonus|): temperature * |G| stays far inside float range.
SCALE_BOUND = 1e6

FREE = "free"
FROZEN = "frozen"

PLANNED = "plan"
RANDOM = "random"

# Sweep table labels: the three channel modes plus the no-planning baseline.
SWEEP_MODES = ("likelihood_sharing", "posterior_sharing", "none", "random")


class CommMode(str, Enum):
    """What each agent sends the others every step: nothing, its posterior, or its own evidence."""

    NONE = "none"
    POSTERIOR_SHARING = "posterior_sharing"
    LIKELIHOOD_SHARING = "likelihood_sharing"


@dataclass
class AgentSpec:
    """Start node and object-location prior of one agent."""

    start_node: int
    object_prior: np.ndarray

    def __post_init__(self):
        try:
            self.object_prior = np.asarray(self.object_prior, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigError("object_prior: entries must be numbers") from exc


@dataclass
class ScenarioConfig:
    """Declarative description of one experiment."""

    graph: world.WorldGraph
    agents: list
    comm_mode: CommMode
    object_location: int | None = None
    horizon: int = 2
    steps: int = 20
    temperature: float = 1.0
    seed: int = 42
    observe_location: bool = True
    observe_visibility: bool = True
    movement: str = FREE
    action_policy: str = PLANNED
    forced_visibility: int | None = None  # every agent's visibility outcome, each step; None draws it
    visible_bonus: float = VISIBLE_BONUS
    graph_ref: str = "default"

    def __post_init__(self):
        n = self.graph.n_nodes
        check_count("agents", len(self.agents or ()), 1, AGENT_CAP)
        self.steps = check_count("steps", self.steps, 1, STEP_CAP)
        self.horizon = check_count("horizon", self.horizon, 1, planning.HORIZON_CAP)
        self.seed = check_count("seed", self.seed, 0)
        for field in ("temperature", "visible_bonus"):
            value = getattr(self, field)
            if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
                raise ConfigError(f"{field}: must be a number, got {value!r}")
            setattr(self, field, float(value))
        if not 0 < self.temperature <= SCALE_BOUND:
            raise ConfigError(f"temperature: must be in (0, {SCALE_BOUND:g}], got {self.temperature}")
        if not abs(self.visible_bonus) <= SCALE_BOUND:
            raise ConfigError(f"visible_bonus: must lie within +-{SCALE_BOUND:g}, got {self.visible_bonus}")
        if self.comm_mode not in list(CommMode):
            raise ConfigError(f"comm_mode: must be one of {', '.join(CommMode)}, got {self.comm_mode!r}")
        self.comm_mode = CommMode(self.comm_mode)
        for flag in ("observe_location", "observe_visibility"):
            if not isinstance(getattr(self, flag), (bool, np.bool_)):
                raise ConfigError(f"{flag}: must be True or False, got {getattr(self, flag)!r}")
            setattr(self, flag, bool(getattr(self, flag)))
        if self.movement not in (FREE, FROZEN):
            raise ConfigError(f"movement: must be 'free' or 'frozen', got {self.movement!r}")
        if self.action_policy not in (PLANNED, RANDOM):
            raise ConfigError("action_policy: must be 'plan' or 'random'")
        if self.action_policy == PLANNED and self.movement == FREE:
            check_count("policies", n**self.horizon, 1, planning.POLICY_CAP)
        for i, spec in enumerate(self.agents):
            if not (is_integer(spec.start_node) and 0 <= spec.start_node < n):
                raise ConfigError(f"agents[{i}].start_node: {spec.start_node!r} out of range")
            if spec.object_prior.shape != (n,):
                raise ConfigError(f"agents[{i}].object_prior: length must be {n}")
            if not np.all(np.isfinite(spec.object_prior)):
                raise ConfigError(f"agents[{i}].object_prior: entries must be finite")
            if np.any(spec.object_prior < 0) or abs(spec.object_prior.sum() - 1.0) > 1e-9:
                raise ConfigError(f"agents[{i}].object_prior: not a normalized distribution")
        if self.object_location is not None:
            if not (is_integer(self.object_location) and 0 <= self.object_location < n):
                raise ConfigError(f"object_location: {self.object_location!r} out of range")
            self.object_location = int(self.object_location)
        if self.forced_visibility is not None:
            if not self.observe_visibility:
                raise ConfigError("forced_visibility: requires observe_visibility on")
            if not is_integer(self.forced_visibility) or self.forced_visibility not in (0, 1):
                raise ConfigError(f"forced_visibility: must be 0 or 1, got {self.forced_visibility!r}")
            self.forced_visibility = int(self.forced_visibility)

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
            None,  # a retired setting's slot: it keeps every other config's hash
            self.forced_visibility,
        )
        h.update(repr(fields).encode())
        return h.hexdigest()[:16]


@dataclass
class BeliefTrace:
    """Per-timestep record of beliefs, actions, observations and payloads.

    Arrays run (steps, agents, ...). ``object_prior_msgs`` and
    ``object_likelihood_sums`` hold each agent's own message decomposition
    for the step, which is what the sharing identity checks compare
    payloads against. ``messages[t, j]`` is the payload agent j sent every
    other agent at step t under ``comm_mode``; under "none" nothing is sent
    and it stays zero. Actions and observations read -1 where none was
    taken or drawn.

    The scenario export writes ``object_beliefs`` and ``messages``; the oracle tests read
    ``location_beliefs``, ``object_prior_msgs`` and ``object_likelihood_sums``, and they and
    demo 01 read ``observations`` and ``actions``.
    """

    object_beliefs: np.ndarray
    location_beliefs: np.ndarray
    actions: np.ndarray
    observations: np.ndarray
    object_prior_msgs: np.ndarray
    object_likelihood_sums: np.ndarray
    messages: np.ndarray
    comm_mode: CommMode

    @classmethod
    def empty(cls, steps: int, trials: int, agents: int, n: int, comm_mode: CommMode) -> "BeliefTrace":
        """Zeroed arrays with a trial axis after the step axis, for a batch of trials."""
        beliefs = (steps, trials, agents, n)
        return cls(
            np.zeros(beliefs), np.zeros(beliefs), np.full(beliefs[:3], -1, dtype=int),
            np.full((*beliefs[:3], 2), -1, dtype=int), np.zeros(beliefs), np.zeros(beliefs),
            np.zeros(beliefs), comm_mode,
        )

    def trial(self, index: int, n_steps: int) -> "BeliefTrace":
        """One trial of a batch trace, cut to the steps it ran."""
        return replace(self, **{
            name: value[:n_steps, index]
            for name, value in vars(self).items() if isinstance(value, np.ndarray)
        })

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
    trace: BeliefTrace


def planner_context(config: ScenarioConfig) -> planning.PlannerContext:
    """The planning and perception context of a config's graph, observations and visible bonus.

    Every agent shares it: agents differ only in start node and object
    prior, and the context reads neither.
    """
    spec = config.agents[0]
    model = make_agent_model(
        config.graph,
        spec.start_node,
        spec.object_prior,
        config.visible_bonus,
        config.observe_location,
        config.observe_visibility,
    )
    return planning.PlannerContext(model)


def _perceive(planner, locs, objs, loc_obs, vis_obs) -> tuple:
    """Own-evidence update of every agent row, as the reference's ``perceive`` updates one agent.

    Returns location and object beliefs, object prior messages, and the
    visibility messages to the object factor (zeros with no visibility
    outcome). Each agent sweeps until its own beliefs settle, as alone.
    """
    prior_obj = floored_log(objs)
    loc_ev = floored_log(locs)
    if loc_obs is not None:
        loc_ev = loc_ev + planner.log_A1[loc_obs]
    locs = softmax(loc_ev)
    objs = softmax(prior_obj)
    vis_msgs = np.zeros(objs.shape)
    if vis_obs is None:
        return locs, objs, prior_obj, vis_msgs
    lw = planner.log_A2[vis_obs]
    active = np.ones(objs.shape[:-1], dtype=bool)
    for _ in range(MAX_SWEEPS):
        new_loc = softmax(loc_ev + (lw @ objs[..., None])[..., 0])
        new_msg = (new_loc[..., None, :] @ lw)[..., 0, :]
        new_obj = softmax(prior_obj + new_msg)
        delta = last_axis_max(np.maximum(np.abs(new_loc - locs), np.abs(new_obj - objs)))
        if not active.all():  # a settled row keeps its beliefs; until a row settles, nothing to select
            keep = active[..., None]
            new_loc = np.where(keep, new_loc, locs)
            new_obj = np.where(keep, new_obj, objs)
            new_msg = np.where(keep, new_msg, vis_msgs)
        locs, objs, vis_msgs = new_loc, new_obj, new_msg
        active &= delta >= SWEEP_TOL
        if not active.any():
            break
    return locs, objs, prior_obj, vis_msgs


def _share(mode: CommMode, prior_obj, own_objs, vis_msgs) -> tuple:
    """Broadcast from the own-evidence snapshot and integrate: (object beliefs, payloads or None)."""
    if mode == CommMode.NONE:
        return own_objs, None
    payloads = floored_log(own_objs) if mode == CommMode.POSTERIOR_SHARING else vis_msgs
    payloads = payloads - last_axis_max(payloads)[..., None]
    total = prior_obj + vis_msgs
    agents = np.arange(payloads.shape[1])
    # every receiver adds the other agents' payloads in ascending sender order
    for sender in agents:
        total[:, agents != sender] += payloads[:, sender, None]
    return softmax(total), payloads


def _choose_actions(config, planner, locs, objs, u) -> np.ndarray:
    """Every agent's move target, drawn from its first move's marginal at the (B, agents) uniforms u."""
    n = config.graph.n_nodes
    logits = planner.first_moves(locs.reshape(-1, n), objs.reshape(-1, n), config.horizon, config.temperature)
    return planning.sample_policy_index(logits, u.ravel()).reshape(u.shape)


def _step_trials(config, planner, starts, objects, rngs, trace=None):
    """The trial step, for B trials of one config at once.

    ``starts`` is (B, agents) start nodes, ``objects`` B object nodes or None
    (absent), ``rngs`` B generators, each at the start of its trial's stream
    (a sweep builds them once per row and batch and rewinds them for each
    mode); the rest comes from ``config``.
    Every stage runs on (B, agents, nodes) belief arrays, and a trial that
    finds the object leaves the batch. Each trial draws from its own
    generator as alone: per step a location and a visibility draw per
    agent, then one action draw per agent. A planned or frozen trial draws
    these uniforms as one block when the batch starts, or one block per
    span of steps where the batch's blocks would pass DRAW_BYTES; the
    stream of doubles is the same. The random walk draws step by step,
    since its integer actions take the generator's cached half-words.
    Beliefs are updated only where a planner or ``trace`` reads them, so
    the random walk without a trace steps positions and draws alone.
    ``trace`` is a BeliefTrace.empty of the batch to fill, or None.
    Returns each trial's step of finding the object, 0 where it did not.
    """
    n = config.graph.n_nodes
    positions = np.array(starts)
    n_trials, n_agents = positions.shape
    live = np.arange(n_trials)  # batch index of each running trial
    obj_nodes = None if objects is None else np.asarray(objects)[:, None]
    locs = np.zeros((n_trials, n_agents, n))
    np.put_along_axis(locs, positions[..., None], 1.0, axis=2)
    objs = np.tile([s.object_prior for s in config.agents], (n_trials, 1, 1))
    found_at = np.zeros(n_trials, dtype=int)
    draw_visibility = config.observe_visibility and config.forced_visibility is None
    observe = config.observe_location or draw_visibility
    walk = config.movement == FREE and config.action_policy == RANDOM
    plan = config.movement == FREE and config.action_policy == PLANNED
    update_beliefs = plan or trace is not None  # read by the planner or the trace
    obs_width = 2 * n_agents * observe  # uniforms per trial and step: observations, then actions
    width = obs_width + n_agents * plan
    span = 1 if walk else max(1, min(config.steps, DRAW_BYTES // (8 * max(width, 1) * n_trials)))
    draws = np.empty((n_trials, 0))  # filled at step 0 when the trials draw anything

    for t in range(config.steps):
        if width and t % span == 0:
            draws = np.array([rng.random(span * width) for rng in rngs]).reshape(len(rngs), span, width)
        loc_obs = vis_obs = None
        if observe:
            u = draws[:, t % span, :obs_width].reshape(-1, n_agents, 2)
            drawn = world.env_observe(positions, obj_nodes, u, planner.cum_A1, planner.A2)
            if config.observe_location:
                loc_obs = drawn[0]
            if draw_visibility:
                vis_obs = drawn[1]
        if config.forced_visibility is not None:
            vis_obs = np.full(positions.shape, config.forced_visibility)

        if update_beliefs:
            locs, own_objs, prior_obj, vis_msgs = _perceive(planner, locs, objs, loc_obs, vis_obs)
            objs, payloads = _share(config.comm_mode, prior_obj, own_objs, vis_msgs)

        if trace is not None:
            trace.object_beliefs[t, live] = objs
            trace.location_beliefs[t, live] = locs
            trace.object_prior_msgs[t, live] = prior_obj
            for obs, column in ((loc_obs, 0), (vis_obs, 1)):
                if obs is not None:
                    trace.observations[t, live, :, column] = obs
            trace.object_likelihood_sums[t, live] = vis_msgs
            if payloads is not None:
                trace.messages[t, live] = payloads

        if obj_nodes is not None and vis_obs is not None:
            hit = ((positions == obj_nodes) & (vis_obs == world.VISIBLE)).any(axis=1)
            found_at[live[hit]] = t + 1
            if hit.any():
                live, positions, locs, objs, obj_nodes, draws = (
                    a[~hit] for a in (live, positions, locs, objs, obj_nodes, draws)
                )
                rngs = [rng for rng, done in zip(rngs, hit) if not done]
        if t == config.steps - 1 or not live.size:
            break

        if plan:
            actions = _choose_actions(config, planner, locs, objs, draws[:, t % span, obs_width:])
        elif walk:
            actions = np.array([rng.integers(n, size=n_agents) for rng in rngs])
        else:
            actions = positions
        if trace is not None:
            trace.actions[t, live] = actions
        if update_beliefs:
            locs = planner.move(locs.reshape(-1, n), actions.ravel()).reshape(locs.shape)
        positions = world.env_step(positions, actions, config.graph)
    return found_at


def run_trial(config: ScenarioConfig) -> TrialResult:
    """Execute one trial and record its trace: the trial step's batch of one.

    Fully deterministic given the config's seed.
    """
    trace = BeliefTrace.empty(config.steps, 1, config.n_agents, config.graph.n_nodes, config.comm_mode)
    objects = None if config.object_location is None else [config.object_location]
    starts = [[s.start_node for s in config.agents]]
    rngs = [np.random.default_rng(config.seed)]
    found_at = _step_trials(config, planner_context(config), starts, objects, rngs, trace)
    steps_to_find = int(found_at[0]) or None
    trace = trace.trial(0, steps_to_find or config.steps)
    return TrialResult(steps_to_find is not None, steps_to_find, trace)


def _run_trials(template: ScenarioConfig, modes, starts, objects, seeds) -> np.ndarray:
    """``run_sweep``'s worker: design rows under every mode; their find steps, (modes, rows).

    Rows run in batches of TRIALS_PER_BATCH. A batch builds each row's generator once and rewinds
    it to its seeded state before each mode, so every mode reads the row's stream from its start.
    """
    runs = []
    for mode in modes:
        if mode == RANDOM:
            config = replace(template, comm_mode=CommMode.NONE, action_policy=RANDOM)
        else:
            config = replace(template, comm_mode=CommMode(mode), action_policy=PLANNED)
        runs.append((config, planner_context(config)))
    found_at = np.zeros((len(modes), len(objects)), dtype=int)
    for i in range(0, len(objects), TRIALS_PER_BATCH):
        rows = slice(i, i + TRIALS_PER_BATCH)
        rngs = [np.random.default_rng(seed) for seed in seeds[rows]]
        states = [rng.bit_generator.state for rng in rngs]
        for m, (config, planner) in enumerate(runs):
            for rng, state in zip(rngs, states):
                rng.bit_generator.state = state
            found_at[m, rows] = _step_trials(config, planner, starts[rows], objects[rows], rngs)
    return found_at


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
    mode: CommMode, steps: int = 10, bump_ratio: float = 2.0, seed: int = 42
) -> ScenarioConfig:
    """Two frozen agents on nodes 5 and 9 of the shipped grid, visibility masked.

    Both hold the same prior, lifted to ``bump_ratio`` times base mass at
    nodes 11 and 13. With nothing to observe, any belief motion can only
    come from the communication channel.
    """
    graph = world.default_graph()
    prior = bumped_prior(graph.n_nodes, (11, 13), bump_ratio)
    return ScenarioConfig(
        graph=graph,
        agents=[AgentSpec(s, prior.copy()) for s in (5, 9)],
        object_location=None,
        comm_mode=mode,
        steps=steps,
        observe_visibility=False,
        movement=FROZEN,
        seed=seed,
    )


def self_doubt_config(
    mode: CommMode, steps: int = 15, scripted: bool = False, seed: int = 42
) -> ScenarioConfig:
    """Four agents on the shipped grid sharing a 0.95 prior on node 1; no object there.

    The agents start on nodes 0, 4, 10 and 14. The scripted variant
    freezes every agent on node 1 and forces each visibility outcome to
    "not visible", isolating the channel's response to clean
    contradicting evidence.
    """
    graph = world.default_graph()
    prior = peaked_prior(graph.n_nodes, 1, 0.95)
    pinned = {"observe_location": False, "movement": FROZEN, "forced_visibility": world.NOT_VISIBLE}
    return ScenarioConfig(
        graph=graph,
        agents=[AgentSpec(s, prior.copy()) for s in ((1, 1, 1, 1) if scripted else (0, 4, 10, 14))],
        object_location=None,
        comm_mode=mode,
        steps=steps,
        seed=seed,
        **(pinned if scripted else {}),
    )


# ---------------------------------------------------------------------------
# Find-rate sweep


@dataclass
class SweepResult:
    """A sweep's trials as arrays: design row j under ``modes[m]`` is trial m * C + j.

    ``starts`` is (C, agents) start nodes, ``objects`` C object nodes and
    ``seeds`` C trial seeds, each shared by every mode. ``found_at`` is
    (modes, C): the step each trial found the object, 0 where it did not.
    """

    modes: tuple
    starts: np.ndarray
    objects: np.ndarray
    seeds: list
    found_at: np.ndarray

    @property
    def aggregates(self) -> dict:
        """mode -> (find rate, its standard error, trial count)."""
        n = self.found_at.shape[1]
        rates = (self.found_at > 0).mean(axis=1)
        return {
            mode: (float(rate), float(np.sqrt(rate * (1.0 - rate) / n)), n)
            for mode, rate in zip(self.modes, rates)
        }


def trial_seed(master_seed: int, trial_index: int) -> int:
    """Deterministic per-trial seed; identical for serial and parallel runs."""
    return int(np.random.SeedSequence([master_seed, trial_index]).generate_state(1)[0])


def worker_count(requested: int, n_rows: int, cpus: int | None) -> int:
    """Sweep worker processes: the request, capped by the CPU and design row counts, at least 1."""
    return max(1, min(requested, cpus or 1, n_rows))


def full_design(template: ScenarioConfig, repeats: int, n_modes: int) -> tuple:
    """The CLI's design: every (agent starts, object node) combination, ``repeats`` rows each.

    Returns (starts, objects, seeds) for ``run_sweep``. Rows run in
    ``product`` order with a combination's repeats together, and row k's
    seed is ``trial_seed(template.seed, k)``. The repeats and the sweep's
    trial count, rows times ``n_modes``, are checked before a row is built.
    """
    repeats = check_count("repeats", repeats, 1, SWEEP_TRIAL_CAP)
    n, width = template.graph.n_nodes, template.n_agents + 1
    check_count("trials", n**width * repeats * n_modes, 0, SWEEP_TRIAL_CAP)
    combos = product(range(n), repeat=width) if n_modes else ()  # run_sweep rejects a sweep of no modes
    design = np.array(list(combos), dtype=int).reshape(-1, width).repeat(repeats, axis=0)
    return design[:, :-1], design[:, -1], [trial_seed(template.seed, k) for k in range(len(design))]


def run_sweep(template: ScenarioConfig, modes, starts, objects, seeds, jobs: int = 1) -> SweepResult:
    """Find rates over a design: one trial per row of (starts, objects, seeds) and mode.

    Row j gives the agents' start nodes, the object's node and the seed, and every mode runs it
    with that seed, so mode comparisons share their random draws. All else, the agents' priors
    included, comes from ``template``; "random" is the no-planning baseline. At most
    SWEEP_TRIAL_CAP trials run; ``full_design`` builds the CLI's design.
    """
    if isinstance(modes, str):
        raise ConfigError(f"sweep_modes: need a sequence of mode names, got {modes!r}")
    if not modes:
        raise ConfigError("sweep_modes: need at least one mode")
    jobs = check_count("jobs", jobs, 1)
    if len(set(modes)) < len(modes):
        raise ConfigError(f"sweep_modes: each mode may be listed once, got {','.join(modes)}")
    if not set(modes) <= set(SWEEP_MODES):
        raise ConfigError(f"sweep_modes: unknown sweep mode in {','.join(modes)}")
    if template.object_location is not None:
        raise ConfigError("object: a sweep places the object on every node; set it to 'absent'")
    if template.action_policy != PLANNED:
        raise ConfigError("action_policy: a sweep plans; list 'random' in sweep_modes instead")
    n = template.graph.n_nodes
    try:
        starts, objects, rows = np.asarray(starts), np.asarray(objects), np.shape(seeds)
        shaped = len(rows) == 1 and rows == objects.shape and starts.shape == (*rows, template.n_agents)
    except ValueError:  # numpy's error for a ragged list
        shaped = False
    if not shaped:
        raise ConfigError(f"trials: need {template.n_agents} starts, an object and a seed per trial")
    if starts.size and not all(np.issubdtype(a.dtype, np.integer) for a in (starts, objects)):
        raise ConfigError("trials: start and object nodes must be integers")
    if starts.size and (min(starts.min(), objects.min()) < 0 or max(starts.max(), objects.max()) >= n):
        raise ConfigError(f"trials: start and object nodes must lie in 0..{n - 1}")
    check_count("trials", len(objects) * len(modes), 0, SWEEP_TRIAL_CAP)
    if not all(is_integer(s) and s >= 0 for s in seeds):
        raise ConfigError("trials: seeds must be non-negative integers")

    # Each worker takes every jobs-th design row and runs it under every mode.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    jobs = worker_count(jobs, len(objects), cpus)
    calls = [(template, modes, starts[k::jobs], objects[k::jobs], seeds[k::jobs]) for k in range(jobs)]
    if jobs > 1:
        # the pool's modules load only here: a serial sweep never imports them
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(_run_trials, *zip(*calls)))
    else:
        parts = [_run_trials(*call) for call in calls]
    found_at = np.empty((len(modes), len(objects)), dtype=int)
    for k, part in enumerate(parts):
        found_at[:, k::jobs] = part
    return SweepResult(tuple(modes), starts, objects, seeds, found_at)
