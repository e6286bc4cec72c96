"""Trial loop semantics, canonical scenarios, and the sweep machinery."""

import concurrent.futures
import os
import re
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefshare import inference, planning, simulate, world
from beliefshare.errors import CapExceeded, ConfigError
from beliefshare.inference import softmax
from beliefshare.model import make_agent_model
from beliefshare.simulate import (
    SWEEP_MODES,
    AgentSpec,
    CommMode,
    ScenarioConfig,
    bumped_prior,
    echo_chamber_config,
    full_design,
    peaked_prior,
    planner_context,
    run_sweep,
    run_trial,
    self_doubt_config,
    trial_seed,
    worker_count,
)
from recorder import recorded_trial
from reference import BeliefState, broadcast_round, initial_state, integrated_object_belief, perceive

GRAPH = world.default_graph()


def sweep_style_config(starts, obj, mode, seed, steps=8, **kwargs):
    uniform = np.ones(15) / 15
    return ScenarioConfig(
        graph=GRAPH,
        agents=[AgentSpec(s, uniform.copy()) for s in starts],
        object_location=obj,
        comm_mode=mode,
        steps=steps,
        seed=seed,
        **kwargs,
    )


def reference_trial(config):
    """Re-run a trial by composing the reference's one-agent operations step by step.

    Must consume the generator in exactly the same order as run_trial.
    """
    n = config.graph.n_nodes
    models = [
        make_agent_model(
            config.graph, s.start_node, s.object_prior, config.visible_bonus,
            config.observe_location, config.observe_visibility,
        )
        for s in config.agents
    ]
    states = [initial_state(m) for m in models]
    cum_A1 = np.cumsum(models[0].A_location, axis=0)
    positions = [s.start_node for s in config.agents]
    planner = planning.PlannerContext(models[0])
    rng = np.random.default_rng(config.seed)
    n_agents = config.n_agents

    object_beliefs, location_beliefs, all_actions = [], [], []
    found, steps_to_find = False, None
    draw_visibility = config.observe_visibility and config.forced_visibility is None
    for t in range(config.steps):
        loc_obs = [None] * n_agents
        vis_obs = [None] * n_agents
        if config.observe_location or draw_visibility:
            drawn_loc, drawn_vis = world.env_observe(
                positions, config.object_location, rng.random((n_agents, 2)), cum_A1,
                models[0].A_visibility,
            )
            if config.observe_location:
                loc_obs = list(drawn_loc)
            if draw_visibility:
                vis_obs = list(drawn_vis)
        if config.forced_visibility is not None:
            vis_obs = [config.forced_visibility] * n_agents

        updates = [
            perceive(models[i], states[i], loc_obs[i], vis_obs[i]) for i in range(n_agents)
        ]
        shared = broadcast_round(updates, config.comm_mode)
        for i in range(n_agents):
            obj = integrated_object_belief(updates[i], shared[i])
            states[i] = BeliefState(updates[i].location, obj, states[i].last_action)
        object_beliefs.append([s.object.probs.copy() for s in states])
        location_beliefs.append([s.location.probs.copy() for s in states])

        if config.object_location is not None:
            for i in range(n_agents):
                if positions[i] == config.object_location and vis_obs[i] == world.VISIBLE:
                    found, steps_to_find = True, t + 1
                    break
        if found or t == config.steps - 1:
            break

        actions = []
        for i in range(n_agents):
            if config.movement == "frozen":
                actions.append(int(positions[i]))
            elif config.action_policy == "random":
                actions.append(int(rng.integers(n)))
            else:
                G = planner.scores(states[i].location.probs, states[i].object.probs, config.horizon)
                idx = planning.sample_policy_index(-config.temperature * G, rng.random())
                actions.append(idx // n ** (config.horizon - 1))
            states[i].last_action = actions[i]
        all_actions.append(actions)
        positions = world.env_step(positions, actions, config.graph)

    return np.array(object_beliefs), np.array(location_beliefs), all_actions, found, steps_to_find


def assert_matches_reference(config):
    result, locations, _, _ = recorded_trial(config)
    obj_ref, loc_ref, actions_ref, found_ref, steps_ref = reference_trial(config)
    assert result.found == found_ref
    assert result.steps_to_find == steps_ref
    assert result.trace.object_beliefs.shape == obj_ref.shape
    assert np.abs(result.trace.object_beliefs - obj_ref).max() < 1e-12
    assert np.abs(locations - loc_ref).max() < 1e-12
    acted = result.trace.actions[: len(actions_ref)]
    assert [list(a) for a in acted] == actions_ref


@st.composite
def random_graph_configs(draw):
    """Connected graphs of 2-8 nodes, 1-3 agents with their own priors, any channel and action policy."""
    n = draw(st.integers(2, 8))
    # a random spanning tree keeps the graph connected; extra edges vary its shape
    edges = [(i, draw(st.integers(0, i - 1))) for i in range(1, n)]
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges += draw(st.lists(st.sampled_from(pairs), max_size=n))
    agents = []
    for _ in range(draw(st.integers(1, 3))):
        weights = np.asarray(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
        agents.append(AgentSpec(draw(st.integers(0, n - 1)), weights / weights.sum()))
    return ScenarioConfig(
        graph=world.WorldGraph.from_edges(n, edges),
        agents=agents,
        object_location=draw(st.none() | st.integers(0, n - 1)),
        comm_mode=draw(st.sampled_from(list(CommMode))),
        horizon=draw(st.integers(1, 2)),
        steps=draw(st.integers(1, 6)),
        temperature=4.0,
        seed=draw(st.integers(0, 2**32 - 1)),
        action_policy=draw(st.sampled_from(["plan", "random"])),
    )


class TestTrialLoopEquivalence:
    @pytest.mark.parametrize(
        "mode", [CommMode.NONE, CommMode.POSTERIOR_SHARING, CommMode.LIKELIHOOD_SHARING]
    )
    def test_matches_contract_composition(self, mode):
        for seed in (0, 1, 2):
            assert_matches_reference(sweep_style_config((3, 12), 9, mode, seed))

    def test_matches_on_scripted_and_frozen_configs(self):
        configs = [
            echo_chamber_config(CommMode.POSTERIOR_SHARING, steps=6),
            self_doubt_config(CommMode.LIKELIHOOD_SHARING, scripted=True, steps=5),
        ]
        for config in configs:
            assert_matches_reference(config)

    @settings(max_examples=200, deadline=None)
    @given(random_graph_configs())
    def test_matches_on_random_graphs(self, config):
        assert_matches_reference(config)

    def test_silent_agents_step_exactly_as_if_alone(self):
        # no draws and no channel: each agent's row is bit-identical to its trial alone
        agents = [AgentSpec(3, peaked_prior(15, 3, 0.9)), AgentSpec(12, bumped_prior(15, (1, 12)))]
        config = ScenarioConfig(
            graph=GRAPH, agents=agents, object_location=None, comm_mode=CommMode.NONE,
            steps=6, observe_location=False, movement="frozen", forced_visibility=world.VISIBLE,
        )
        together, together_locs, _, _ = recorded_trial(config)
        for i in range(2):
            alone, alone_locs, _, _ = recorded_trial(replace(config, agents=[agents[i]]))
            assert np.array_equal(together.trace.object_beliefs[:, i], alone.trace.object_beliefs[:, 0])
            assert np.array_equal(together_locs[:, i], alone_locs[:, 0])


class TestChannelIdentities:
    """What each channel makes of a round's evidence, on traced kernel trials of two and three agents.

    b_j is agent j's object belief before a round and S the round's visibility messages summed over
    the agents, as the kernel's perception gave them (``recorder.recorded_trial``). Posterior sharing
    gives every agent softmax(sum_j log b_j + S), so the agents agree after the first round and from
    then on log b_t = K log b_(t-1) + S_t: evidence a rounds old counts K**a times. Likelihood sharing
    gives agent i softmax(log b_i + S): its own prior and every agent's evidence, each counted once.
    Both hold to 1e-12 until a belief entry falls under FLOOR; the 1e-16 probability floor breaks
    them once a belief saturates.
    """

    FLOOR = 1e-12

    @staticmethod
    def traces(mode):
        """(K, priors, trace, visibility messages) of a recorded trial at K = 2 and 3, the agents'
        object priors unequal."""
        priors = [peaked_prior(15, 3, 0.6), bumped_prior(15, (1, 12)), np.ones(15) / 15]
        for starts in ((3, 12), (0, 7, 14)):
            agents = [AgentSpec(start, prior) for start, prior in zip(starts, priors)]
            for seed in range(6):
                config = ScenarioConfig(
                    graph=GRAPH, agents=agents, object_location=9, comm_mode=mode, steps=12, seed=seed,
                )
                result, _, _, vis_msgs = recorded_trial(config)
                yield len(agents), np.array(priors[: len(agents)]), result.trace, vis_msgs

    def rounds(self, trace, vis_msgs, priors):
        """(t, beliefs before round t, beliefs after it, S_t), up to the first belief entry under FLOOR."""
        before = priors
        for t in range(trace.n_steps):
            after = trace.object_beliefs[t]
            if min(before.min(), after.min()) < self.FLOOR:
                return
            yield t, before, after, vis_msgs[t].sum(axis=0)
            before = after

    def test_posterior_sharing_compounds(self):
        checked = 0
        for K, priors, trace, vis_msgs in self.traces(CommMode.POSTERIOR_SHARING):
            for t, before, after, S in self.rounds(trace, vis_msgs, priors):
                assert np.abs(after - softmax(np.log(before).sum(axis=0) + S)).max() <= 1e-12
                if t:
                    assert np.abs(after - softmax(K * np.log(before[0]) + S)).max() <= 1e-12
                checked += t > 0
        assert checked >= 20

    def test_likelihood_sharing_counts_evidence_once(self):
        checked = 0
        for _, priors, trace, vis_msgs in self.traces(CommMode.LIKELIHOOD_SHARING):
            for t, before, after, S in self.rounds(trace, vis_msgs, priors):
                assert np.abs(after - softmax(np.log(before) + S)).max() <= 1e-12
                checked += t > 0
        assert checked >= 20


class TestFirstMoveMarginal:
    """The kernel samples each first move from the softmax of its logits, ``first_moves``: that is
    the first move's share of softmax(-T * scores) over every policy, to 1e-12."""

    TEMPERATURES = (0.01, 1.0, 4.0, 1000.0)

    @staticmethod
    def location_beliefs(n, rng):
        """One-hot, near one-hot (tails of 1e-16, as the kernel holds them, and of 1e-18) and diffuse."""
        peaks = rng.integers(n, size=3)
        locs = [np.eye(n)[peaks[0]]]
        for peak, tail in zip(peaks[1:], (1e-16, 1e-18)):
            loc = np.full(n, tail)
            loc[peak] = 1.0 - tail * (n - 1)
            locs.append(loc)
        return np.array([*locs, rng.dirichlet(np.ones(n))])

    def assert_marginal(self, planner, locs, objs, horizon):
        n = locs.shape[1]
        G = planner.scores(locs, objs, horizon)
        for temperature in self.TEMPERATURES:
            shares = softmax(-temperature * G).reshape(len(locs), n, -1).sum(axis=-1)
            marginal = softmax(planner.first_moves(locs, objs, horizon, temperature))
            assert np.abs(marginal - shares).max() <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(random_graph_configs(), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_random_graphs(self, config, horizon, seed):
        rng = np.random.default_rng(seed)
        locs = self.location_beliefs(config.graph.n_nodes, rng)
        objs = np.array([config.agents[k % config.n_agents].object_prior for k in range(len(locs))])
        self.assert_marginal(planner_context(config), locs, objs, horizon)

    @pytest.mark.parametrize("horizon", [1, 2, 3])
    def test_grid(self, horizon):
        rng = np.random.default_rng(horizon)
        for observe_location, observe_visibility in ((True, True), (False, True), (True, False)):
            config = sweep_style_config(
                (0, 7), None, CommMode.NONE, 0, observe_location=observe_location,
                observe_visibility=observe_visibility, visible_bonus=-1.5 if observe_location else 2.0,
            )
            locs = self.location_beliefs(15, rng)
            objs = rng.dirichlet(np.ones(15), size=len(locs))
            self.assert_marginal(planner_context(config), locs, objs, horizon)

    def test_horizon_four_on_a_path(self):
        # one level deeper than the other tests, 4**4 = 256 policies: first_moves recurses three times
        path = world.WorldGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        rng = np.random.default_rng(4)
        locs = self.location_beliefs(4, rng)
        objs = rng.dirichlet(np.ones(4), size=len(locs))
        config = ScenarioConfig(
            graph=path, agents=[AgentSpec(0, objs[0])], object_location=None, comm_mode=CommMode.NONE, steps=1,
            seed=0,
        )
        self.assert_marginal(planner_context(config), locs, objs, 4)

    @pytest.mark.parametrize("horizon", [1, 2, 3])
    def test_temperature_extremes(self, horizon):
        # the logits are -T * s1 + V with no division by T: at the smallest temperatures every first
        # move's later steps sum to the same (h - 1) log n, so the moves are equally likely
        rng = np.random.default_rng(horizon)
        planner = planner_context(sweep_style_config((0, 7), None, CommMode.NONE, 0))
        locs = self.location_beliefs(15, rng)
        objs = rng.dirichlet(np.ones(15), size=len(locs))
        for temperature in (5e-324, 1e-300):
            logits = planner.first_moves(locs, objs, horizon, temperature)
            assert np.isfinite(logits).all()
            assert np.abs(softmax(logits) - 1 / 15).max() <= 1e-12
        assert np.isfinite(planner.first_moves(locs, objs, horizon, simulate.SCALE_BOUND)).all()


def generator_before(word: int) -> np.random.Generator:
    """A generator whose next raw PCG64 word is ``word``.

    numpy's PCG64 steps its 128-bit state (state * multiplier + increment) and outputs the state's
    two 64-bit halves xored and rotated right by the top six bits; so pick the stepped state, then
    step it back.
    """
    multiplier = 0x2360ED051FC65DA44385DF649FCCF645
    high = 0x9E3779B97F4A7C15
    rotation = high >> 58
    low = high ^ ((word << rotation | word >> (64 - rotation)) & (2**64 - 1))
    state = np.random.PCG64(8).state
    state["state"]["state"] = ((high << 64 | low) - state["state"]["inc"]) * pow(multiplier, -1, 2**128) % 2**128
    rng = np.random.default_rng()
    rng.bit_generator.state = state
    return rng


def residue_half(r: int, n: int) -> int:
    """A 32-bit x with x * n = r mod 2**32, for an n that 2**32 shares only the factor 8 with."""
    return (r // 8) * pow(n // 8, -1, 2**29) % 2**29


class TestDraws:
    """What the trial step draws, and what it skips when nothing reads it."""

    def test_planned_trial_draws_stepwise_stream(self):
        # each step a location and a visibility draw per agent, then an action draw per agent
        config = sweep_style_config((3, 12), None, CommMode.LIKELIHOOD_SHARING, 21, steps=7)
        trace = run_trial(config).trace
        planner = planner_context(config)
        rng = np.random.default_rng(config.seed)
        positions = np.array([3, 12])
        for t in range(config.steps):
            drawn = world.env_observe(positions, None, rng.random((2, 2)), planner.cum_A1, planner.A2)
            assert np.array_equal(trace.observations[t], np.stack(drawn, axis=-1))
            if t < config.steps - 1:
                rng.random(2)
                positions = world.env_step(positions, trace.actions[t], GRAPH)

    def test_kernel_hands_on_the_generators_doubles(self, monkeypatch):
        # the uniforms the observation draw and the action sampling get are, to the bit, the doubles
        # Generator.random draws: two per agent, then one per agent, each step but the last
        config = sweep_style_config((3, 12), None, CommMode.LIKELIHOOD_SHARING, 23, steps=5)
        handed = []
        observe, choose = world.env_observe, simulate._choose_actions

        def observed(positions, obj, u, *tables):
            handed.append(u.ravel())
            return observe(positions, obj, u, *tables)

        def chosen(config, planner, locs, objs, u):
            handed.append(u.ravel())
            return choose(config, planner, locs, objs, u)

        monkeypatch.setattr(world, "env_observe", observed)
        monkeypatch.setattr(simulate, "_choose_actions", chosen)
        run_trial(config)
        assert np.concatenate(handed).tobytes() == np.random.default_rng(23).random(5 * 4 + 4 * 2).tobytes()

    def test_random_walk_skips_beliefs_nothing_reads(self, monkeypatch):
        template = sweep_template(GRAPH, 2, steps=6)
        starts, objects, seeds = [[0, 7], [3, 3], [14, 1]], [12, 5, 1], [8, 9, 10]
        expected = mode_found_at(template, "random", starts, objects, seeds)

        def unread(*args):
            raise AssertionError("a random-walk sweep perceived")

        monkeypatch.setattr(simulate, "_perceive", unread)
        assert np.array_equal(mode_found_at(template, "random", starts, objects, seeds), expected)
        monkeypatch.undo()
        # a trace reads the beliefs, so a traced random walk still updates them
        config = replace(template, object_location=None, action_policy="random")
        _, beliefs, _, _ = recorded_trial(config)
        assert beliefs.shape == (6, 2, 15)
        assert np.allclose(beliefs.sum(axis=-1), 1.0) and not np.array_equal(beliefs[0], beliefs[-1])

    def test_draw_blocks_split_into_spans(self, monkeypatch):
        template = sweep_template(GRAPH, 2, steps=8, temperature=4.0)
        rng = np.random.default_rng(5)
        starts, objects = rng.integers(15, size=(20, 2)), rng.integers(15, size=20)
        seeds = [trial_seed(6, k) for k in range(20)]
        whole = mode_found_at(template, "likelihood_sharing", starts, objects, seeds)
        # blocks of three steps: 20 trials x 6 uniforms a step
        monkeypatch.setattr(simulate, "DRAW_BYTES", 3 * 8 * 6 * 20)
        assert np.array_equal(mode_found_at(template, "likelihood_sharing", starts, objects, seeds), whole)
        assert len(set(whole.tolist())) >= 3  # unfound trials, and finds at two or more steps

    def test_draw_blocks_held_within_budget(self):
        # 256 trials x 1,000 steps x 64 agents' two draws would be one 262 MB block
        one_node = world.WorldGraph(1, np.ones((1, 1)))
        template = ScenarioConfig(
            graph=one_node, agents=[AgentSpec(0, np.ones(1)) for _ in range(64)], comm_mode=CommMode.NONE,
            steps=simulate.STEP_CAP, observe_visibility=False, movement="frozen",
        )
        starts, objects = np.zeros((256, 64), dtype=int), np.zeros(256, dtype=int)
        tracemalloc.start()
        try:
            found = mode_found_at(template, "none", starts, objects, range(256))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not found.any()
        assert peak < 8 * simulate.DRAW_BYTES

    @pytest.mark.parametrize("n", [1, 2, 7, 15, 16, 1000])
    @pytest.mark.parametrize("n_agents", [1, 2, 3, 5])
    def test_words_give_the_generators_draws(self, n, n_agents):
        # a walk's step: each agent's two observation doubles, then every agent's move; blocks one
        # word longer than a step's doubles refill mid-step, and an odd agent count carries a kept
        # half-word into the next step
        seeds = [trial_seed(31, k) for k in range(5)]
        rows = np.arange(len(seeds))
        block = np.array([simulate._stream_words(seed, 0, 2 * n_agents + 1) for seed in seeds])
        words = simulate._Words(seeds, block)
        rngs = [np.random.default_rng(seed) for seed in seeds]
        for _ in range(4):
            doubles = (words.take(2 * n_agents, rows) >> 11) * 2.0**-53
            assert doubles.tobytes() == np.array([rng.random(2 * n_agents) for rng in rngs]).tobytes()
            moves = words.moves(n, n_agents, rows)
            assert np.array_equal(moves, [rng.integers(n, size=n_agents) for rng in rngs])
        # the same number of words read: the next raw word of each stream agrees
        assert np.array_equal(words.take(1, rows)[:, 0], [rng.bit_generator.random_raw() for rng in rngs])

    @pytest.mark.parametrize(
        "n, word, read",
        [
            # both halves give x * 15 = 0 < 2**32 % 15 = 1: two redraws, a word more than seven moves take
            (15, 0, 5),
            # x * 1000 mod 2**32 is 288 in the low half, below 2**32 % 1000 = 296, and 296 in the high:
            # one redraw, so the second call finds no kept half
            (1000, residue_half(296, 1000) << 32 | residue_half(288, 1000), 4),
        ],
    )
    def test_walk_redraws_rejected_moves(self, n, word, read):
        rng = generator_before(word)
        crafted = np.random.PCG64()
        crafted.state = rng.bit_generator.state
        block = crafted.random_raw(8)
        assert block[0] == word
        words = simulate._Words([None], block[None])  # the block is long enough: no seed is read
        one = np.arange(1)
        for size in (4, 3):  # the second call starts from the half-word the first one kept
            assert np.array_equal(words.moves(n, size, one)[0], rng.integers(n, size=size))
        assert words.pos[0] == read
        assert words.take(1, one)[0, 0] == rng.bit_generator.random_raw()

    def test_walk_refills_blocks_mid_trial(self, monkeypatch):
        # three agents keep a half-word across steps; blocks of two steps' words refill in mid-trial,
        # and the modes after the walk still read the batch's block from its start
        template = sweep_template(GRAPH, 3, steps=9, temperature=4.0)
        rng = np.random.default_rng(41)
        starts, objects = rng.integers(15, size=(20, 3)), rng.integers(15, size=20)
        seeds = [trial_seed(42, k) for k in range(20)]
        modes = ("random", "none", "likelihood_sharing")
        whole = run_sweep(template, modes, starts, objects, seeds).found_at
        stream_words, reads = simulate._stream_words, []

        def counted(seed, start, count):
            reads.append(start)
            return stream_words(seed, start, count)

        monkeypatch.setattr(simulate, "_stream_words", counted)
        monkeypatch.setattr(simulate, "DRAW_BYTES", 2 * 8 * 9 * 20)
        assert np.array_equal(run_sweep(template, modes, starts, objects, seeds).found_at, whole)
        assert sum(start > 0 for start in reads) >= 20  # every trial refilled at least once
        assert len(set(whole[0].tolist())) >= 3  # unfound walks, and finds at two or more steps


class TestDeterminism:
    def test_bit_identical_reruns(self):
        config = sweep_style_config((0, 14), 6, CommMode.LIKELIHOOD_SHARING, 77, steps=12)
        a, a_locs, _, _ = recorded_trial(config)
        b, b_locs, _, _ = recorded_trial(config)
        assert a.found == b.found and a.steps_to_find == b.steps_to_find
        assert np.array_equal(a.trace.object_beliefs, b.trace.object_beliefs)
        assert np.array_equal(a_locs, b_locs)
        assert np.array_equal(a.trace.actions, b.trace.actions)
        assert np.array_equal(a.trace.observations, b.trace.observations)

    def test_trace_rows_normalized(self):
        config = sweep_style_config((2, 8), 4, CommMode.POSTERIOR_SHARING, 3, steps=10)
        result, locations, _, _ = recorded_trial(config)
        assert np.allclose(result.trace.object_beliefs.sum(axis=2), 1.0, atol=1e-9)
        assert np.allclose(locations.sum(axis=2), 1.0, atol=1e-9)

    def test_seed_changes_trajectory(self):
        base = sweep_style_config((0, 14), 6, CommMode.NONE, 1, steps=12)
        other = sweep_style_config((0, 14), 6, CommMode.NONE, 2, steps=12)
        a, b = run_trial(base), run_trial(other)
        assert not np.array_equal(a.trace.observations, b.trace.observations)


class TestPlannerContext:
    def test_build_allocates_no_cubic_table(self):
        # a 200-node grid: the dense movement table alone would be 64 MB
        graph = world.WorldGraph.grid(10, 20)
        config = ScenarioConfig(
            graph=graph, agents=[AgentSpec(0, np.ones(200) / 200)],
            object_location=None, comm_mode=CommMode.NONE, horizon=1,
        )
        tracemalloc.start()
        try:
            planner_context(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000


class TestConfigValidation:
    def test_error_names_field(self):
        uniform = np.ones(15) / 15
        with pytest.raises(ConfigError, match="steps"):
            sweep_style_config((0,), None, CommMode.NONE, 1, steps=0)
        with pytest.raises(ConfigError, match="temperature"):
            sweep_style_config((0,), None, CommMode.NONE, 1, temperature=0.0)
        with pytest.raises(ConfigError, match="agents\\[0\\].start_node"):
            sweep_style_config((99,), None, CommMode.NONE, 1)
        with pytest.raises(ConfigError, match="object_prior"):
            ScenarioConfig(
                graph=GRAPH,
                agents=[AgentSpec(0, uniform * 2)],
                object_location=None,
                comm_mode=CommMode.NONE,
            )
        with pytest.raises(ConfigError, match="object_location"):
            sweep_style_config((0,), 15, CommMode.NONE, 1)
        with pytest.raises(ConfigError, match="movement"):
            sweep_style_config((0,), None, CommMode.NONE, 1, movement="warp")
        with pytest.raises(ConfigError, match="^agents: must be >= 1, got 0$"):
            ScenarioConfig(graph=GRAPH, agents=[], object_location=None, comm_mode=CommMode.NONE)
        with pytest.raises(ConfigError, match="^horizon: must be >= 1"):
            sweep_style_config((0,), None, CommMode.NONE, 1, horizon=0)
        with pytest.raises(ConfigError, match="^action_policy"):
            sweep_style_config((0,), None, CommMode.NONE, 1, action_policy="greedy")
        with pytest.raises(ConfigError, match=r"^agents\[0\]\.object_prior: must hold 15 entries, got shape \(3,\)$"):
            ScenarioConfig(
                graph=GRAPH,
                agents=[AgentSpec(0, np.ones(3) / 3)],
                object_location=None,
                comm_mode=CommMode.NONE,
            )
        with pytest.raises(ConfigError, match="^forced_visibility: requires observe_visibility"):
            sweep_style_config(
                (0,), None, CommMode.NONE, 1, observe_visibility=False, forced_visibility=world.VISIBLE
            )
        with pytest.raises(ConfigError, match="^forced_visibility: must be < 2, got 2$"):
            sweep_style_config((0,), None, CommMode.NONE, 1, forced_visibility=2)

    def test_agent_cap(self):
        # every agent receives every other agent's message each step
        starts = [0] * simulate.AGENT_CAP
        assert sweep_style_config(starts, None, CommMode.NONE, 1).n_agents == simulate.AGENT_CAP
        with pytest.raises(CapExceeded, match="^agents: 65 is over the cap of 64$"):
            sweep_style_config(starts + [0], None, CommMode.NONE, 1)

    def test_horizon_cap(self):
        # every config, planning or not: 2**13 policies fit POLICY_CAP, 2**14 do not
        two = world.WorldGraph.grid(1, 2)
        assert sweep_template(two, horizon=planning.HORIZON_CAP, movement=simulate.FROZEN).horizon == 13
        with pytest.raises(CapExceeded, match="^horizon: 14 is over the cap of 13$"):
            sweep_template(two, horizon=14, movement=simulate.FROZEN)
        with pytest.raises(CapExceeded, match="^policies: 759375 is over the cap of 10000$"):
            sweep_style_config((0,), None, CommMode.NONE, 1, horizon=5)

    def test_every_setting_enters_config_hash(self):
        # another valid value per field; a field missing here fails the test
        other = {
            "graph": world.WorldGraph.grid(1, 15),
            "agents": [AgentSpec(1, np.ones(15) / 15)],
            "comm_mode": CommMode.POSTERIOR_SHARING,
            "object_location": 3,
            "horizon": 1,
            "steps": 5,
            "temperature": 2.0,
            "seed": 2,
            "observe_location": False,
            "observe_visibility": False,
            "movement": "frozen",
            "action_policy": "random",
            "forced_visibility": world.NOT_VISIBLE,
            "visible_bonus": 1.0,
        }
        base = sweep_style_config((0,), None, CommMode.NONE, 1)
        assert set(other) == {f.name for f in fields(ScenarioConfig)} - {"graph_ref"}
        for name, value in other.items():
            assert replace(base, **{name: value}).config_hash() != base.config_hash(), name


class TestFindCriterion:
    def test_absent_object_never_found(self):
        for mode in CommMode:
            config = echo_chamber_config(mode, steps=4)
            result = run_trial(config)
            assert not result.found and result.steps_to_find is None

    def test_sharp_prior_on_object_found_fast(self):
        # starting on the object with a near-certain prior: two draws at 0.8
        found = 0
        n = 400
        for seed in range(n):
            config = ScenarioConfig(
                graph=GRAPH,
                agents=[AgentSpec(7, peaked_prior(15, 7, 0.99))],
                object_location=7,
                comm_mode=CommMode.NONE,
                steps=2,
                temperature=5.0,
                seed=seed,
            )
            found += run_trial(config).found
        assert found / n >= 0.95

    def test_steps_to_find_within_bounds(self):
        config = sweep_style_config((9,), 9, CommMode.NONE, 5, steps=10)
        result = run_trial(config)
        if result.found:
            assert 1 <= result.steps_to_find <= 10

    def test_longer_trials_never_lose_finds(self):
        # a trial is a prefix of the same trial run longer: in every mode, a sweep at 6 steps finds
        # each trial where the 15-step sweep does, cut at step 6
        rng = np.random.default_rng(5)
        starts, objects = rng.integers(15, size=(60, 2)), rng.integers(15, size=60)
        design = starts, objects, [trial_seed(3, k) for k in range(60)]
        short = run_sweep(sweep_template(GRAPH, 2, steps=6, temperature=4.0), SWEEP_MODES, *design).found_at
        long = run_sweep(sweep_template(GRAPH, 2, steps=15, temperature=4.0), SWEEP_MODES, *design).found_at
        assert np.array_equal(short, np.where(long <= 6, long, 0))
        assert (long > 6).any(axis=1).all()  # in every mode the cut drops finds
        assert len(set(short.ravel().tolist())) >= 3  # unfound trials, and finds at two or more steps


class TestProbabilityFloor:
    """Posterior sharing runs beliefs down to exact zeros, which ``floored_log`` maps to LOG_FLOOR."""

    def test_find_steps_independent_of_floor(self, monkeypatch):
        # a floor as low as the smallest double, or at 1e-300, finds every trial at the same step;
        # a floor of 1e-2 would change 36 of these 1,200 trials
        template = sweep_template(GRAPH, 2, steps=20, temperature=4.0)
        rng = np.random.default_rng(7)
        starts, objects = rng.integers(15, size=(300, 2)), rng.integers(15, size=300)
        seeds = [trial_seed(42, k) for k in range(300)]
        design = starts, objects, seeds
        found_at = run_sweep(template, SWEEP_MODES, *design).found_at
        # not vacuous: an unfound posterior-sharing trial of the design holds an exact-zero belief
        k = int(np.flatnonzero(found_at[SWEEP_MODES.index("posterior_sharing")] == 0)[0])
        config = replace(
            template,
            agents=[AgentSpec(int(s), a.object_prior) for s, a in zip(starts[k], template.agents)],
            object_location=int(objects[k]),
            comm_mode=CommMode.POSTERIOR_SHARING,
            seed=seeds[k],
        )
        assert (run_trial(config).trace.object_beliefs == 0).any()
        for floor in (5e-324, 1e-300):
            monkeypatch.setattr(inference, "LOG_FLOOR", float(np.log(floor)))
            assert np.array_equal(run_sweep(template, SWEEP_MODES, *design).found_at, found_at), floor


class TestEchoChamberScenario:
    def test_posterior_sharing_amplifies_to_ceiling(self):
        config = echo_chamber_config(CommMode.POSTERIOR_SHARING)
        trace = run_trial(config).trace
        prior_mass = bumped_prior(15, (11, 13))[[11, 13]].sum()
        for agent in range(2):
            mass = trace.object_beliefs[:, agent, [11, 13]].sum(axis=1)
            seq = np.concatenate([[prior_mass], mass])
            crossed = False
            for a, b in zip(seq, seq[1:]):
                if not crossed:
                    assert b > a  # strict climb until the mass clears 0.9
                else:
                    assert b >= a
                if b > 0.9:
                    crossed = True
            assert mass[-1] > 0.9

    def test_posterior_sharing_strict_increase_at_gentle_bump(self):
        # a 5% bump keeps every one of the 10 steps strictly increasing
        config = echo_chamber_config(CommMode.POSTERIOR_SHARING)
        gentle = bumped_prior(15, (11, 13), 1.05)
        config = replace(config, agents=[AgentSpec(s.start_node, gentle) for s in config.agents])
        trace = run_trial(config).trace
        mass = trace.object_beliefs[:, 0, [11, 13]].sum(axis=1)
        seq = np.concatenate([[gentle[[11, 13]].sum()], mass])
        assert all(b > a for a, b in zip(seq, seq[1:]))
        assert mass[-1] > 0.9

    def test_likelihood_sharing_beliefs_constant(self):
        config = echo_chamber_config(CommMode.LIKELIHOOD_SHARING)
        trace = run_trial(config).trace
        prior = bumped_prior(15, (11, 13))
        assert np.abs(trace.object_beliefs - prior).max() < 1e-9

    def test_no_comm_beliefs_constant(self):
        config = echo_chamber_config(CommMode.NONE)
        trace = run_trial(config).trace
        prior = bumped_prior(15, (11, 13))
        assert np.abs(trace.object_beliefs - prior).max() < 1e-9


class TestSelfDoubtScenario:
    def scripted_oracle(self, mode, rounds=1):
        """Exact Bayes product for four agents pinned to node 1 seeing nothing."""
        prior = peaked_prior(15, 1, 0.95)
        column = np.full(15, 0.8)
        column[1] = 0.2
        belief = prior.copy()
        for _ in range(rounds):
            if mode == CommMode.LIKELIHOOD_SHARING:
                belief = belief * column**4
            else:
                own = belief * column
                own /= own.sum()
                belief = belief * column * own**3
            belief /= belief.sum()
        return belief

    def test_posterior_sharing_overrides_evidence(self):
        trace = run_trial(self_doubt_config(CommMode.POSTERIOR_SHARING, scripted=True)).trace
        after_round_one = trace.object_beliefs[0, :, 1]
        oracle = self.scripted_oracle(CommMode.POSTERIOR_SHARING)
        assert np.all(after_round_one >= 0.99)
        assert np.abs(after_round_one - oracle[1]).max() < 1e-6

    def test_likelihood_sharing_accepts_evidence(self):
        trace = run_trial(self_doubt_config(CommMode.LIKELIHOOD_SHARING, scripted=True)).trace
        after_round_one = trace.object_beliefs[0, :, 1]
        oracle = self.scripted_oracle(CommMode.LIKELIHOOD_SHARING)
        assert np.abs(after_round_one - oracle[1]).max() < 1e-6
        assert np.all(trace.object_beliefs[1, :, 1] < 0.1)

    def test_single_agent_odds_drop_factor_four(self):
        config = self_doubt_config(CommMode.NONE, scripted=True)
        config = replace(config, agents=config.agents[:1], steps=1)
        trace = run_trial(config).trace
        prior = peaked_prior(15, 1, 0.95)
        prior_odds = prior[1] / prior[0]
        post = trace.object_beliefs[0, 0]
        assert post[1] / post[0] == pytest.approx(prior_odds / 4, rel=1e-9)

    def test_steps_cap_checked_before_building(self):
        # a step-long script per agent once held 16 MB here before the cap was checked
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded, match="^steps"):
                self_doubt_config(CommMode.NONE, steps=10**6, scripted=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


def sweep_template(graph, n_agents=1, steps=4, seed=5, **kwargs):
    uniform = np.ones(graph.n_nodes) / graph.n_nodes
    return ScenarioConfig(
        graph=graph,
        agents=[AgentSpec(0, uniform.copy()) for _ in range(n_agents)],
        object_location=None,
        comm_mode=CommMode.NONE,
        steps=steps,
        seed=seed,
        **kwargs,
    )


def full_sweep(template, modes=SWEEP_MODES, repeats=1, jobs=1):
    """run_sweep over the CLI's design, every (starts, object) combination ``repeats`` times."""
    return run_sweep(template, modes, *full_design(template, repeats, len(modes)), jobs)


def mode_found_at(template, mode, starts, objects, seeds):
    """One mode's find steps over a design, through run_sweep."""
    return run_sweep(template, (mode,), starts, objects, seeds).found_at[0]


class TestSweep:
    SMALL = world.WorldGraph.grid(1, 3)

    def test_counts_and_pairing(self):
        result = full_sweep(sweep_template(self.SMALL, seed=5), ("likelihood_sharing", "none"), repeats=2)
        per_mode = 3 * 3 * 2
        assert result.aggregates["likelihood_sharing"][2] == per_mode
        assert result.modes == ("likelihood_sharing", "none")
        assert result.found_at.shape == (2, per_mode)
        # paired seeds: every mode runs combination j with the same starts, object and seed
        assert result.starts.shape == (per_mode, 1)
        assert len(result.objects) == len(result.seeds) == per_mode
        assert result.seeds == [trial_seed(5, k) for k in range(per_mode)]
        combos = list(zip(result.starts[:, 0].tolist(), result.objects.tolist()))
        assert combos == [divmod(k, 3) for k in range(9) for _ in range(2)]

    def test_deterministic_across_runs(self):
        template = sweep_template(self.SMALL, seed=9)
        a = full_sweep(template, ("none", "random"), repeats=2)
        b = full_sweep(template, ("none", "random"), repeats=2)
        assert a.aggregates == b.aggregates
        assert np.array_equal(a.found_at, b.found_at)

    def test_parallel_equals_serial(self):
        template = sweep_template(self.SMALL, seed=11)
        serial = full_sweep(template, ("none",), repeats=2, jobs=1)
        parallel = full_sweep(template, ("none",), repeats=2, jobs=2)
        assert serial.aggregates == parallel.aggregates
        assert np.array_equal(serial.found_at, parallel.found_at)

    def test_sampled_design_parallel_equals_serial(self):
        # three agents: the full enumeration of the shipped grid is 15**4 rows, a sample is 30
        template = sweep_template(GRAPH, n_agents=3, steps=4, temperature=4.0)
        rng = np.random.default_rng(7)
        starts, objects = rng.integers(15, size=(30, 3)), rng.integers(15, size=30)
        seeds = [trial_seed(42, k) for k in range(30)]
        serial = run_sweep(template, SWEEP_MODES, starts, objects, seeds, jobs=1)
        parallel = run_sweep(template, SWEEP_MODES, starts, objects, seeds, jobs=2)
        assert serial.found_at.shape == (len(SWEEP_MODES), 30)
        assert np.array_equal(serial.found_at, parallel.found_at)
        assert serial.found_at.any() and not serial.found_at.all()

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("order", [1, -1])
    def test_mode_independent_of_the_other_modes(self, jobs, order):
        # a worker hands every mode the same block of each row's words, which none writes: every
        # mode reads its row's stream from the start, as when it is swept alone
        template = sweep_template(GRAPH, n_agents=2, steps=6, temperature=4.0)
        rng = np.random.default_rng(17)
        starts, objects = rng.integers(15, size=(40, 2)), rng.integers(15, size=40)
        seeds = [trial_seed(8, k) for k in range(40)]
        modes = SWEEP_MODES[::order]
        together = run_sweep(template, modes, starts, objects, seeds, jobs=jobs)
        for m, mode in enumerate(modes):
            alone = run_sweep(template, (mode,), starts, objects, seeds, jobs=jobs)
            assert np.array_equal(together.found_at[m], alone.found_at[0]), mode
            assert len(set(alone.found_at[0].tolist()) - {0}) >= 3, mode  # finds at three or more steps

    def test_row_independent_of_design(self):
        # every 7th row of a full design, swept alone, ends as it does among all the rows
        template = sweep_template(self.SMALL, n_agents=2, seed=13)
        starts, objects, seeds = full_design(template, 2, len(SWEEP_MODES))
        whole = run_sweep(template, SWEEP_MODES, starts, objects, seeds)
        part = run_sweep(template, SWEEP_MODES, starts[::7], objects[::7], seeds[::7])
        assert part.found_at.shape == (len(SWEEP_MODES), 8)
        assert np.array_equal(part.found_at, whole.found_at[:, ::7])
        assert len(set(part.found_at.ravel().tolist())) >= 3  # unfound rows, and finds at two or more steps

    def test_template_settings_reach_trials(self):
        # an agent that cannot see the object never finds it, whatever the mode
        blind = sweep_template(self.SMALL, steps=6, observe_visibility=False)
        result = full_sweep(blind, ("likelihood_sharing", "random"), repeats=2)
        assert not result.found_at.any()

    def test_rejects_fixed_object_and_random_policy(self):
        with pytest.raises(ConfigError, match="^object"):
            full_sweep(replace(sweep_template(self.SMALL), object_location=1))
        with pytest.raises(ConfigError, match="^action_policy"):
            full_sweep(replace(sweep_template(self.SMALL), action_policy="random"))

    def test_cap(self):
        with pytest.raises(CapExceeded):
            full_design(sweep_template(GRAPH, n_agents=3), 5, len(SWEEP_MODES))
        # on one node the power is 1: repeats x modes alone are over the cap
        with pytest.raises(CapExceeded, match="^trials: 240000 is over the cap of 200000$"):
            full_design(sweep_template(world.WorldGraph.grid(1, 1)), 60_000, len(SWEEP_MODES))
        # repeats are capped where they enter, so the trial count is always small
        with pytest.raises(CapExceeded, match="^repeats: 1000000 is over the cap of 200000$"):
            full_design(sweep_template(world.WorldGraph.grid(1, 1)), 10**6, len(SWEEP_MODES))
        # a sweep of no modes runs no trial: its design has no row, and run_sweep rejects it
        starts, objects, seeds = full_design(sweep_template(GRAPH, n_agents=4), 5, 0)
        assert starts.shape == (0, 4) and objects.shape == (0,) and seeds == []

    def test_design_capped_by_rows_times_modes(self, monkeypatch):
        # run_sweep caps any design it is given, before a trial runs
        def must_not_run(*args, **kwargs):
            raise AssertionError("a trial ran before the trial cap was checked")

        monkeypatch.setattr(simulate, "_run_trials", must_not_run)
        template, rows = sweep_template(world.WorldGraph.grid(1, 1)), np.zeros((50_001, 1), dtype=int)
        with pytest.raises(CapExceeded, match="^trials: 200004 is over the cap of 200000$"):
            run_sweep(template, SWEEP_MODES, rows, rows[:, 0], range(50_001))

    @pytest.mark.parametrize("visible_bonus", [simulate.SCALE_BOUND, -simulate.SCALE_BOUND])
    def test_logits_finite_at_scale_bounds(self, visible_bonus):
        # a sharp softmax underflows to exact zeros by design; nothing may overflow or turn NaN
        template = sweep_template(
            self.SMALL, n_agents=2, temperature=simulate.SCALE_BOUND, visible_bonus=visible_bonus
        )
        with np.errstate(all="raise", under="ignore"):
            result = full_sweep(template)
        assert result.found_at.shape == (len(SWEEP_MODES), 27)

    def test_cap_checked_before_enumerating(self):
        # listing all 15**5 (starts, object) combinations first peaked at ~50 MB
        template = sweep_template(GRAPH, n_agents=4)
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded):
                full_design(template, 5, len(SWEEP_MODES))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_bad_repeats(self):
        with pytest.raises(ConfigError, match="^repeats"):
            full_design(sweep_template(self.SMALL), 0, len(SWEEP_MODES))

    def test_bad_jobs(self):
        with pytest.raises(ConfigError, match="^jobs"):
            full_sweep(sweep_template(self.SMALL), jobs=0)

    def test_unknown_mode_rejected_before_anything_runs(self, monkeypatch):
        # run_sweep checks its modes itself: no pool is built and no trial of a known mode runs first
        def must_not_run(*args, **kwargs):
            raise AssertionError("the sweep started before its modes were checked")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", must_not_run)
        monkeypatch.setattr(simulate, "_run_trials", must_not_run)
        for modes, jobs in ((("bogus",), 2), (("none", "bogus"), 1)):
            with pytest.raises(ConfigError, match="^sweep_modes: unknown sweep mode in"):
                full_sweep(sweep_template(self.SMALL), modes, jobs=jobs)


class TestTrialBatches:
    """A sweep steps many trials at once; each must end as it does alone."""

    @pytest.mark.parametrize("n_agents", [1, 2, 3])
    @pytest.mark.parametrize(
        "flags", [{}, {"observe_location": False}, {"observe_visibility": False}]
    )
    def test_batches_match_single_trials(self, monkeypatch, n_agents, flags):
        # batches of 7, 3 and 2 trials for 1, 2 and 3 agents, none of which divides the 11 trials
        monkeypatch.setattr(simulate, "TRIALS_PER_BATCH", 7 // n_agents)
        template = sweep_template(GRAPH, n_agents, steps=8, temperature=4.0, **flags)
        rng = np.random.default_rng(n_agents)
        starts = rng.integers(15, size=(11, n_agents))
        objects = rng.integers(15, size=11)
        seeds = [trial_seed(3, k) for k in range(11)]
        finds = set()
        for mode in SWEEP_MODES:
            batched = mode_found_at(template, mode, starts, objects, seeds)
            for k in range(11):
                config = replace(
                    template,
                    agents=[AgentSpec(int(s), a.object_prior) for s, a in zip(starts[k], template.agents)],
                    object_location=int(objects[k]),
                    comm_mode=CommMode.NONE if mode == "random" else CommMode(mode),
                    action_policy="random" if mode == "random" else "plan",
                    seed=seeds[k],
                )
                alone = run_trial(config)
                assert (batched[k] > 0, int(batched[k]) or None) == (alone.found, alone.steps_to_find)
            finds.update(batched.tolist())
        if flags.get("observe_visibility", True):
            assert len(finds) >= 3  # unfound trials, and finds at two or more steps

    def test_scoring_splits_agents_over_calls(self, monkeypatch):
        # two beliefs per scoring call: one three-agent trial needs two calls; one belief per call
        # scores every belief alone
        template = sweep_template(GRAPH, 3, steps=6, temperature=4.0)
        design = ([[0, 7, 14], [3, 3, 9]], [12, 5], [8, 9])  # starts, objects, seeds
        whole = mode_found_at(template, "likelihood_sharing", *design)
        for rows in (2, 1):
            monkeypatch.setattr(planning, "SCORE_BYTES", rows * 8 * 15**2)
            assert np.array_equal(mode_found_at(template, "likelihood_sharing", *design), whole)

    def test_rows_independent_of_batch_size(self, monkeypatch):
        template = sweep_template(GRAPH, 2, steps=8, temperature=4.0)
        rng = np.random.default_rng(11)
        starts = rng.integers(15, size=(40, 2))
        objects = rng.integers(15, size=40)
        seeds = [trial_seed(4, k) for k in range(40)]
        sizes = (1, 7, simulate.TRIALS_PER_BATCH)
        finds = set()
        for mode in SWEEP_MODES:
            found = []
            for size in sizes:
                monkeypatch.setattr(simulate, "TRIALS_PER_BATCH", size)
                found.append(mode_found_at(template, mode, starts, objects, seeds))
            assert all(np.array_equal(f, found[-1]) for f in found), mode
            finds.update(found[-1].tolist())
        assert len(finds) >= 3  # unfound trials, and finds at two or more steps

    def test_belief_budget_splits_batches(self, monkeypatch):
        # a batch holds (trials, agents, nodes) belief stacks: a budget of five two-agent trials'
        # stacks on the grid splits 40 rows into eight batches, and no find step moves
        template = sweep_template(GRAPH, 2, steps=8, temperature=4.0)
        rng = np.random.default_rng(12)
        starts = rng.integers(15, size=(40, 2))
        objects = rng.integers(15, size=40)
        seeds = [trial_seed(5, k) for k in range(40)]
        step_trials = simulate._step_trials
        sizes = []

        def counted(config, planner, starts, *rest):
            sizes.append(len(starts))
            return step_trials(config, planner, starts, *rest)

        monkeypatch.setattr(simulate, "_step_trials", counted)
        whole = run_sweep(template, SWEEP_MODES, starts, objects, seeds).found_at
        assert sizes == [40] * len(SWEEP_MODES)
        sizes.clear()
        monkeypatch.setattr(simulate, "BELIEF_BYTES", 5 * 8 * 2 * 15 + 7)
        split = run_sweep(template, SWEEP_MODES, starts, objects, seeds).found_at
        assert sizes == [5] * 8 * len(SWEEP_MODES)
        assert np.array_equal(split, whole)
        assert len(set(whole.ravel().tolist())) >= 3  # unfound trials, and finds at two or more steps

    def test_batch_scores_held_one_chunk_at_a_time(self):
        # a (512, 225) policy score array alone would take 0.9 MB; the backup holds SCORE_BYTES of pairs
        # at a time. One-hot locations shift belief with ~4 first moves each; diffuse ones with all 15
        config = sweep_template(GRAPH, 2)
        planner = planner_context(config)
        rng = np.random.default_rng(2)
        positions = rng.integers(15, size=(256, 2))
        objs = rng.dirichlet(np.ones(15), size=(256, 2))
        u = rng.random((256, 2))
        for locs in (np.eye(15)[positions], rng.dirichlet(np.ones(15), size=(256, 2))):
            simulate._choose_actions(config, planner, locs, objs, u)  # warm up
            tracemalloc.start()
            try:
                actions = simulate._choose_actions(config, planner, locs, objs, u)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert actions.shape == (256, 2)
            assert peak < 16 * planning.SCORE_BYTES

    def test_rejects_bad_trials(self):
        template = sweep_template(GRAPH, 2)
        with pytest.raises(ConfigError, match="^sweep_modes: unknown sweep mode in shouting$"):
            run_sweep(template, ("shouting",), [[0, 1]], [2], [1])
        with pytest.raises(ConfigError, match="^trials: need 2 starts"):
            run_sweep(template, ("none",), [[0]], [2], [1])
        with pytest.raises(ConfigError, match="^trials: need 2 starts"):
            run_sweep(template, ("none",), [[0, 1]], [2], [1, 2])
        # a design of the wrong kind or shape: no seed or object list, ragged starts, nested seeds
        for starts, objects, seeds in (
            ([[0, 1]], [3], None), ([[0, 1]], [3], 5), ([[0, 1]], None, [1]), ([[0, 1], [2]], [3, 4], [1, 2]),
            ([[0, 1]], 3, [1]), ([[0, 1]], [3], [[1]]), ([[0, 1]], [3], [[1], [2, 3]]),
        ):
            with pytest.raises(ConfigError, match="^trials: need 2 starts, an object and a seed per trial$"):
                run_sweep(template, ("none",), starts, objects, seeds)
        with pytest.raises(ConfigError, match="^start or object node: must be < 15, got 15$"):
            run_sweep(template, ("none",), [[0, 15]], [2], [1])
        with pytest.raises(ConfigError, match="^start or object node: must be >= 0, got -1$"):
            run_sweep(template, ("none",), [[0, 1]], [-1], [1])
        # node indices are integers: floats and booleans would index the kernel's arrays wrongly
        with pytest.raises(ConfigError, match="^trials: start and object nodes must be integers$"):
            run_sweep(template, ("none",), [[0, 1]] * 8, [3.0] * 8, list(range(8)))
        with pytest.raises(ConfigError, match="^trials: start and object nodes must be integers$"):
            run_sweep(template, ("none",), [[0, 1]] * 8, [True] * 8, list(range(8)))
        # a seed of None would draw from the OS, so two identical sweeps would differ
        for seeds, message in (
            ([None] * 8, "must be an integer, got None"), ([-1] + list(range(7)), "must be >= 0, got -1"),
            ([1.5] + list(range(7)), "must be an integer, got 1.5"), ([True] * 8, "must be an integer, got True"),
        ):
            with pytest.raises(ConfigError, match=f"^trial seed: {re.escape(message)}$"):
                run_sweep(template, ("none",), [[0, 1]] * 8, [3] * 8, seeds)
        # SeedSequence takes any non-negative integer
        assert run_sweep(template, ("none",), [[0, 1]], [3], [2**70]).found_at.shape == (1, 1)
        unsigned = run_sweep(template, ("none",), [[0, 1]] * 2, [3] * 2, np.array([7, 2**64 - 1], dtype=np.uint64))
        listed = run_sweep(template, ("none",), [[0, 1]] * 2, [3] * 2, [7, 2**64 - 1])
        assert np.array_equal(unsigned.found_at, listed.found_at)


class TestWorkerCount:
    def test_sweep_capped_at_usable_cpus(self, monkeypatch):
        # one CPU this process may run on: a jobs=2 sweep runs serially and builds no pool
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was built")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        template = sweep_template(TestSweep.SMALL, seed=11)
        capped = full_sweep(template, ("none",), repeats=2, jobs=2)
        assert np.array_equal(capped.found_at, full_sweep(template, ("none",), repeats=2).found_at)

    def test_sweep_runs_the_pool_of_the_module(self, monkeypatch):
        # the pool's module loads inside run_sweep, and its attribute is read there: a patched pool runs
        class SerialPool:
            def __init__(self, max_workers):
                built.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *args):
                return map(fn, *args)

        built = []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        template = sweep_template(TestSweep.SMALL, seed=11)
        pooled = full_sweep(template, ("none",), repeats=2, jobs=2)
        assert built == [2]
        assert np.array_equal(pooled.found_at, full_sweep(template, ("none",), repeats=2).found_at)

    def test_one_row_builds_no_pool(self, monkeypatch):
        # workers are capped at the design rows: one row under every mode runs serially
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was built")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        template = sweep_template(GRAPH, n_agents=2, steps=4)
        result = run_sweep(template, SWEEP_MODES, [[0, 4]], [4], [trial_seed(3, 0)], jobs=2)
        assert result.found_at.shape == (len(SWEEP_MODES), 1)

    def test_one_planner_per_worker(self, monkeypatch):
        # the modes set only the channel and the action policy, which the planner does not read
        built = []
        build = planning.PlannerContext
        monkeypatch.setattr(planning, "PlannerContext", lambda model: built.append(model) or build(model))
        run_sweep(sweep_template(GRAPH, n_agents=2), SWEEP_MODES, [[0, 4], [3, 9]], [4, 7], [1, 2])
        assert len(built) == 1

    def test_clamped_to_cpus_and_tasks(self):
        assert worker_count(8, 100, 2) == 2
        assert worker_count(8, 3, 16) == 3
        assert worker_count(2, 100, 16) == 2
        assert worker_count(10**6, 10**6, 4) == 4

    def test_at_least_one(self):
        assert worker_count(0, 10, 4) == 1
        assert worker_count(-3, 10, 4) == 1
        assert worker_count(4, 10, None) == 1
