"""Reduced find-rate comparison across the communication modes.

Runs a random subsample of (start, start, object) combinations instead of
the full 3,375-combination sweep so it finishes in about a minute; use the
CLI (`beliefshare sweep --config configs/find_rate_sweep.cfg ...`) for the
full table. The qualitative picture is stable: likelihood sharing leads,
no-comm trails it, the random walker loses, and posterior sharing falls
behind because one shared false "visible" draw can lock both agents onto a
phantom node (its belief doubles every round, outrunning refutation).
"""

from dataclasses import replace

import numpy as np

from beliefshare import world
from beliefshare.comms import CommMode
from beliefshare.simulate import SWEEP_MODES, AgentSpec, ScenarioConfig, planner_context, run_trial


def main():
    graph = world.default_graph()
    uniform = np.ones(15) / 15
    rng = np.random.default_rng(2024)
    combos = [
        ((int(rng.integers(15)), int(rng.integers(15))), int(rng.integers(15)))
        for _ in range(250)
    ]
    template = ScenarioConfig(
        graph=graph,
        agents=[AgentSpec(0, uniform), AgentSpec(0, uniform)],
        object_location=None,
        comm_mode=CommMode.NONE,
        steps=20,
        temperature=4.0,
        record_trace=False,
    )
    # one context serves every trial: they share graph, observations and preferences
    planner = planner_context(template)

    print(f"{len(combos)} sampled configurations, 20 steps, temperature 4.0\n")
    for mode in SWEEP_MODES:
        found = 0
        steps = []
        for k, (starts, obj) in enumerate(combos):
            config = replace(
                template,
                agents=[AgentSpec(s, uniform) for s in starts],
                object_location=obj,
                comm_mode=CommMode.NONE if mode == "random" else CommMode(mode),
                action_policy="random" if mode == "random" else "plan",
                seed=9000 + k,
            )
            result = run_trial(config, planner)
            found += result.found
            if result.found:
                steps.append(result.steps_to_find)
        rate = found / len(combos)
        mean_steps = np.mean(steps) if steps else float("nan")
        print(f"{mode:20s} find rate {rate:5.3f}   mean steps when found {mean_steps:4.1f}")


if __name__ == "__main__":
    main()
