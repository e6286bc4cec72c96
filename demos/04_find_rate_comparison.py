"""Reduced find-rate comparison across the communication modes.

Runs a random subsample of (start, start, object) combinations instead of
the full 3,375-combination sweep so it finishes in a few seconds; use the
CLI (`beliefshare sweep --config configs/find_rate_sweep.cfg ...`) for the
full table. The qualitative picture is stable: likelihood sharing leads,
no-comm trails it, the random walker loses, and posterior sharing falls
behind because one shared false "visible" draw can lock both agents onto a
phantom node (its belief doubles every round, outrunning refutation).
"""

import numpy as np

from beliefshare import world
from beliefshare.simulate import SWEEP_MODES, AgentSpec, CommMode, ScenarioConfig, run_trials


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
    )
    starts = [s for s, _ in combos]
    objects = [obj for _, obj in combos]
    seeds = [9000 + k for k in range(len(combos))]

    print(f"{len(combos)} sampled configurations, 20 steps, temperature 4.0\n")
    for mode in SWEEP_MODES:
        # the step of each find, 0 where the object was not found
        found_at = run_trials(template, mode, starts, objects, seeds)
        found = found_at > 0
        rate = found.mean()
        mean_steps = found_at[found].mean() if found.any() else float("nan")
        print(f"{mode:20s} find rate {rate:5.3f}   mean steps when found {mean_steps:4.1f}")


if __name__ == "__main__":
    main()
