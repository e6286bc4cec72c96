"""One agent hunting a hidden object on the 15-node grid.

Walks through the full perception-action cycle: noisy observations update
two coupled beliefs (own location, object location), candidate move
sequences are scored by expected information gain plus preference for
seeing the object, and an action is sampled from the score softmax. Runs
one trial and replays its trace, printing the evolving object belief as
a text heatmap.
"""

import numpy as np

from beliefshare import world
from beliefshare.simulate import AgentSpec, CommMode, ScenarioConfig, run_trial

SHADES = " .:-=+*#%@"


def shade(p, lo=0.0, hi=None):
    hi = hi if hi is not None else max(p.max(), 1e-9)
    idx = (np.clip((p - lo) / (hi - lo), 0, 1) * (len(SHADES) - 1)).astype(int)
    return "".join(SHADES[i] for i in idx)


def grid_rows(p):
    return [shade(p[r * 5 : (r + 1) * 5]) for r in range(3)]


def main():
    graph = world.default_graph()
    object_location = 13
    start = 0
    config = ScenarioConfig(
        graph=graph,
        agents=[AgentSpec(start, np.ones(15) / 15)],
        comm_mode=CommMode.NONE,
        object_location=object_location,
        temperature=4.0,
        seed=4,
    )
    result = run_trial(config)
    trace = result.trace

    print(f"object hidden at node {object_location}, agent starts at node {start}")
    print("belief heat uses", repr(SHADES), "from low to high\n")

    positions = np.array([start])
    for t in range(trace.n_steps):
        if t:
            positions = world.env_step(positions, trace.actions[t - 1], graph)
        saw = "visible!" if trace.observations[t, 0, 1] == world.VISIBLE else "nothing"
        rows = grid_rows(trace.object_beliefs[t, 0])
        print(f"t={t:2d}  at node {positions[0]:2d}  sees {saw:9s}  object belief: {rows[0]}")
        for row in rows[1:]:
            print(" " * 44 + row)

    if result.found:
        print(f"\nfound the object in {result.steps_to_find} steps")
    else:
        print("\nran out of time")


if __name__ == "__main__":
    main()
