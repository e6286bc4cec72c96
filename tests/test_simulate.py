"""Trial loop semantics, canonical scenarios, and the sweep machinery."""

import concurrent.futures
import os
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefshare import planning, simulate, world
from beliefshare.errors import CapExceeded, ConfigError
from beliefshare.model import make_agent_model
from beliefshare.simulate import (
    SWEEP_MODES,
    AgentSpec,
    CommMode,
    ScenarioConfig,
    bumped_prior,
    echo_chamber_config,
    peaked_prior,
    planner_context,
    run_sweep,
    run_trial,
    run_trials,
    self_doubt_config,
    trial_seed,
    worker_count,
)
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
                idx = planning.sample_policy_index(G, config.temperature, rng.random())
                actions.append(idx // n ** (config.horizon - 1))
            states[i].last_action = actions[i]
        all_actions.append(actions)
        positions = world.env_step(positions, actions, config.graph)

    return np.array(object_beliefs), np.array(location_beliefs), all_actions, found, steps_to_find


def assert_matches_reference(config):
    result = run_trial(config)
    obj_ref, loc_ref, actions_ref, found_ref, steps_ref = reference_trial(config)
    assert result.found == found_ref
    assert result.steps_to_find == steps_ref
    assert result.trace.object_beliefs.shape == obj_ref.shape
    assert np.abs(result.trace.object_beliefs - obj_ref).max() < 1e-12
    assert np.abs(result.trace.location_beliefs - loc_ref).max() < 1e-12
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
        together = run_trial(config).trace
        for i in range(2):
            alone = run_trial(replace(config, agents=[agents[i]])).trace
            assert np.array_equal(together.object_beliefs[:, i], alone.object_beliefs[:, 0])
            assert np.array_equal(together.location_beliefs[:, i], alone.location_beliefs[:, 0])


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

    def test_random_walk_skips_beliefs_nothing_reads(self, monkeypatch):
        template = sweep_template(GRAPH, 2, steps=6)
        starts, objects, seeds = [[0, 7], [3, 3], [14, 1]], [12, 5, 1], [8, 9, 10]
        expected = run_trials(template, "random", starts, objects, seeds)

        def unread(*args):
            raise AssertionError("a random-walk sweep perceived")

        monkeypatch.setattr(simulate, "_perceive", unread)
        assert np.array_equal(run_trials(template, "random", starts, objects, seeds), expected)
        monkeypatch.undo()
        # a trace reads the beliefs, so a traced random walk still updates them
        config = replace(template, object_location=None, action_policy="random")
        beliefs = run_trial(config).trace.location_beliefs
        assert beliefs.shape == (6, 2, 15)
        assert np.allclose(beliefs.sum(axis=-1), 1.0) and not np.array_equal(beliefs[0], beliefs[-1])

    def test_draw_blocks_split_into_spans(self, monkeypatch):
        template = sweep_template(GRAPH, 2, steps=8, temperature=4.0)
        rng = np.random.default_rng(5)
        starts, objects = rng.integers(15, size=(20, 2)), rng.integers(15, size=20)
        seeds = [trial_seed(6, k) for k in range(20)]
        whole = run_trials(template, "likelihood_sharing", starts, objects, seeds)
        # blocks of three steps: 20 trials x 6 uniforms a step
        monkeypatch.setattr(simulate, "DRAW_BYTES", 3 * 8 * 6 * 20)
        assert np.array_equal(run_trials(template, "likelihood_sharing", starts, objects, seeds), whole)
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
            found = run_trials(template, "none", starts, objects, range(256))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not found.any()
        assert peak < 8 * simulate.DRAW_BYTES


class TestDeterminism:
    def test_bit_identical_reruns(self):
        config = sweep_style_config((0, 14), 6, CommMode.LIKELIHOOD_SHARING, 77, steps=12)
        a = run_trial(config)
        b = run_trial(config)
        assert a.found == b.found and a.steps_to_find == b.steps_to_find
        assert np.array_equal(a.trace.object_beliefs, b.trace.object_beliefs)
        assert np.array_equal(a.trace.location_beliefs, b.trace.location_beliefs)
        assert np.array_equal(a.trace.actions, b.trace.actions)
        assert np.array_equal(a.trace.observations, b.trace.observations)

    def test_trace_rows_normalized(self):
        config = sweep_style_config((2, 8), 4, CommMode.POSTERIOR_SHARING, 3, steps=10)
        trace = run_trial(config).trace
        assert np.allclose(trace.object_beliefs.sum(axis=2), 1.0, atol=1e-9)
        assert np.allclose(trace.location_beliefs.sum(axis=2), 1.0, atol=1e-9)

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
        with pytest.raises(ConfigError, match="^agents: need at least one"):
            ScenarioConfig(graph=GRAPH, agents=[], object_location=None, comm_mode=CommMode.NONE)
        with pytest.raises(ConfigError, match="^horizon: must be >= 1"):
            sweep_style_config((0,), None, CommMode.NONE, 1, horizon=0)
        with pytest.raises(ConfigError, match="^action_policy"):
            sweep_style_config((0,), None, CommMode.NONE, 1, action_policy="greedy")
        with pytest.raises(ConfigError, match="agents\\[0\\].object_prior: length must be 15"):
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
        with pytest.raises(ConfigError, match="^forced_visibility: must be 0 or 1"):
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
        with pytest.raises(CapExceeded, match="^759375 policies exceed the cap of 10000$"):
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
        # same seed means the longer run extends the shorter one's trajectory
        for k in range(40):
            seed = trial_seed(7, k)
            starts = (k % 15, (k * 7) % 15)
            short = run_trial(sweep_style_config(starts, k % 15, CommMode.NONE, seed, steps=6))
            long = run_trial(sweep_style_config(starts, k % 15, CommMode.NONE, seed, steps=12))
            if short.found:
                assert long.found
                assert long.steps_to_find == short.steps_to_find


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
        config = echo_chamber_config(CommMode.POSTERIOR_SHARING, bump_ratio=1.05)
        trace = run_trial(config).trace
        mass = trace.object_beliefs[:, 0, [11, 13]].sum(axis=1)
        seq = np.concatenate([[bumped_prior(15, (11, 13), 1.05)[[11, 13]].sum()], mass])
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
        config = self_doubt_config(CommMode.NONE, scripted=True, n_agents=1, steps=1)
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

    def test_agent_count(self):
        # the unscripted variant has four start nodes; the scripted one stacks up to the cap on node 1
        assert self_doubt_config(CommMode.NONE, n_agents=4).n_agents == 4
        assert self_doubt_config(CommMode.NONE, scripted=True, n_agents=6).n_agents == 6
        with pytest.raises(ConfigError, match="^n_agents"):
            self_doubt_config(CommMode.NONE, n_agents=5)
        with pytest.raises(CapExceeded, match="^agents: 65 is over the cap of 64$"):
            self_doubt_config(CommMode.NONE, scripted=True, n_agents=simulate.AGENT_CAP + 1)


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


class TestSweep:
    SMALL = world.WorldGraph.grid(1, 3)

    def test_counts_and_pairing(self):
        result = run_sweep(
            sweep_template(self.SMALL, seed=5), modes=("likelihood_sharing", "none"), repeats=2
        )
        per_mode = 3 * 3 * 2
        assert result.master_seed == 5
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
        a = run_sweep(template, modes=("none", "random"), repeats=2)
        b = run_sweep(template, modes=("none", "random"), repeats=2)
        assert a.aggregates == b.aggregates
        assert np.array_equal(a.found_at, b.found_at)

    def test_parallel_equals_serial(self):
        template = sweep_template(self.SMALL, seed=11)
        serial = run_sweep(template, modes=("none",), repeats=2, jobs=1)
        parallel = run_sweep(template, modes=("none",), repeats=2, jobs=2)
        assert serial.aggregates == parallel.aggregates
        assert np.array_equal(serial.found_at, parallel.found_at)

    def test_template_settings_reach_trials(self):
        # an agent that cannot see the object never finds it, whatever the mode
        blind = sweep_template(self.SMALL, steps=6, observe_visibility=False)
        result = run_sweep(blind, modes=("likelihood_sharing", "random"), repeats=2)
        assert not result.found_at.any()

    def test_rejects_fixed_object_and_random_policy(self):
        with pytest.raises(ConfigError, match="^object"):
            run_sweep(replace(sweep_template(self.SMALL), object_location=1), repeats=1)
        with pytest.raises(ConfigError, match="^action_policy"):
            run_sweep(replace(sweep_template(self.SMALL), action_policy="random"), repeats=1)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            run_sweep(sweep_template(GRAPH, n_agents=3), repeats=5)
        # on one node the power is 1: repeats x modes alone are over the cap
        with pytest.raises(CapExceeded, match="^240000 trials exceed"):
            run_sweep(sweep_template(world.WorldGraph.grid(1, 1)), repeats=60_000)
        # repeats are capped where they enter, so the trial count is always small
        with pytest.raises(CapExceeded, match="^repeats: 1000000 is over the cap of 200000$"):
            run_sweep(sweep_template(world.WorldGraph.grid(1, 1)), repeats=10**6)

    @pytest.mark.parametrize("visible_bonus", [simulate.SCALE_BOUND, -simulate.SCALE_BOUND])
    def test_logits_finite_at_scale_bounds(self, visible_bonus):
        # a sharp softmax underflows to exact zeros by design; nothing may overflow or turn NaN
        template = sweep_template(
            self.SMALL, n_agents=2, temperature=simulate.SCALE_BOUND, visible_bonus=visible_bonus
        )
        with np.errstate(all="raise", under="ignore"):
            result = run_sweep(template, repeats=1)
        assert result.found_at.shape == (len(SWEEP_MODES), 27)

    def test_cap_checked_before_enumerating(self):
        # listing all 15**5 (starts, object) combinations first peaked at ~50 MB
        template = sweep_template(GRAPH, n_agents=4)
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded):
                run_sweep(template, repeats=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_bad_repeats(self):
        with pytest.raises(ConfigError):
            run_sweep(sweep_template(self.SMALL), repeats=0)

    def test_bad_jobs(self):
        with pytest.raises(ConfigError, match="^jobs"):
            run_sweep(sweep_template(self.SMALL), repeats=1, jobs=0)


class TestTrialBatches:
    """run_trials steps many trials at once; each must end as it does alone."""

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
            batched = run_trials(template, mode, starts, objects, seeds)
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
        starts, objects, seeds = [[0, 7, 14], [3, 3, 9]], [12, 5], [8, 9]
        whole = run_trials(template, "likelihood_sharing", starts, objects, seeds)
        for rows in (2, 1):
            monkeypatch.setattr(planning, "SCORE_BYTES", rows * 8 * 15**2)
            assert np.array_equal(run_trials(template, "likelihood_sharing", starts, objects, seeds), whole)

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
                found.append(run_trials(template, mode, starts, objects, seeds))
            assert all(np.array_equal(f, found[-1]) for f in found), mode
            finds.update(found[-1].tolist())
        assert len(finds) >= 3  # unfound trials, and finds at two or more steps

    def test_batch_scores_held_one_chunk_at_a_time(self):
        # a (512, 225) score array alone would take 0.9 MB; chunks of SCORE_BYTES stay far below
        config = sweep_template(GRAPH, 2)
        planner = planner_context(config)
        rng = np.random.default_rng(2)
        positions = rng.integers(15, size=(256, 2))
        locs = np.eye(15)[positions]
        objs = rng.dirichlet(np.ones(15), size=(256, 2))
        u = rng.random((256, 2))
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
        with pytest.raises(ConfigError, match="^mode"):
            run_trials(template, "shouting", [[0, 1]], [2], [1])
        with pytest.raises(ConfigError, match="^trials"):
            run_trials(template, "none", [[0]], [2], [1])
        with pytest.raises(ConfigError, match="^trials"):
            run_trials(template, "none", [[0, 15]], [2], [1])


class TestWorkerCount:
    def test_sweep_capped_at_usable_cpus(self, monkeypatch):
        # one CPU this process may run on: a jobs=2 sweep runs serially and builds no pool
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was built")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        template = sweep_template(TestSweep.SMALL, seed=11)
        capped = run_sweep(template, modes=("none",), repeats=2, jobs=2)
        assert np.array_equal(capped.found_at, run_sweep(template, modes=("none",), repeats=2).found_at)

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
        pooled = run_sweep(template, modes=("none",), repeats=2, jobs=2)
        assert built == [2]
        assert np.array_equal(pooled.found_at, run_sweep(template, modes=("none",), repeats=2).found_at)

    def test_clamped_to_cpus_and_tasks(self):
        assert worker_count(8, 100, 2) == 2
        assert worker_count(8, 3, 16) == 3
        assert worker_count(2, 100, 16) == 2
        assert worker_count(10**6, 10**6, 4) == 4

    def test_at_least_one(self):
        assert worker_count(0, 10, 4) == 1
        assert worker_count(-3, 10, 4) == 1
        assert worker_count(4, 10, None) == 1
