"""One agent hunting a hidden object on the 15-node grid.

Walks through the full perception-action cycle: noisy observations update
two coupled beliefs (own location, object location), candidate move
sequences are scored by expected information gain plus preference for
seeing the object, and an action is sampled from the score softmax.
Prints the evolving object belief as a text heatmap.
"""

import numpy as np

from beliefshare import planning, world
from beliefshare.model import initial_state, make_agent_model, perceive

SHADES = " .:-=+*#%@"


def shade(p, lo=0.0, hi=None):
    hi = hi if hi is not None else max(p.max(), 1e-9)
    idx = (np.clip((p - lo) / (hi - lo), 0, 1) * (len(SHADES) - 1)).astype(int)
    return "".join(SHADES[i] for i in idx)


def grid_rows(p):
    return [shade(p[r * 5 : (r + 1) * 5]) for r in range(3)]


def main():
    rng = np.random.default_rng(4)
    graph = world.default_graph()
    object_location = 13
    start = 0

    model = make_agent_model(graph, start_node=start, object_prior=np.ones(15) / 15)
    state = initial_state(model)
    planner = planning.PlannerContext(model)
    positions = np.array([start])

    print(f"object hidden at node {object_location}, agent starts at node {start}")
    print("belief heat uses", repr(SHADES), "from low to high\n")

    for t in range(20):
        loc_obs, vis_obs = world.env_observe(
            positions, object_location, rng.random((1, 2)), planner.cum_A1, planner.A2
        )
        update = perceive(model, state, loc_obs[0], vis_obs[0])
        state.location = update.location
        state.object = update.object

        pos = positions[0]
        saw = "visible!" if vis_obs[0] == world.VISIBLE else "nothing"
        rows = grid_rows(state.object.probs)
        print(f"t={t:2d}  at node {pos:2d}  sees {saw:9s}  object belief: {rows[0]}")
        for row in rows[1:]:
            print(" " * 44 + row)

        if pos == object_location and vis_obs[0] == world.VISIBLE:
            print(f"\nfound the object in {t + 1} steps")
            break

        G = planner.scores(state.location.probs, state.object.probs, horizon=2)
        idx = planning.sample_policy_index(G, temperature=4.0, u=rng.random())
        action = idx // 15
        state.last_action = action
        positions = world.env_step(positions, [action], graph)
    else:
        print("\nran out of time")


if __name__ == "__main__":
    main()
