"""A traced trial with the kernel's own perception recorded.

A trial's trace keeps what the scenario export and the demos read. The
oracle and channel-identity tests also read what each step's perception
gave: every agent's location beliefs, object prior messages and visibility
messages. ``recorded_trial`` takes those from ``simulate._perceive`` itself,
so the tests check the very values the kernel went on to share and plan
from.
"""

import numpy as np

from beliefshare import simulate


def recorded_trial(config) -> tuple:
    """``run_trial(config)`` with ``simulate._perceive`` wrapped: (result, location beliefs, object
    prior messages, visibility messages), the last three (steps, agents, nodes), one row per step.

    A traced trial is a batch of one, so each call perceives one row.
    """
    perceive, rows = simulate._perceive, []

    def record(planner, locs, objs, loc_obs, vis_obs):
        perceived = perceive(planner, locs, objs, loc_obs, vis_obs)
        assert len(locs) == 1, f"a traced trial perceived {len(locs)} batch rows at once"
        locations, _, prior_msgs, vis_msgs = perceived
        rows.append((locations[0], prior_msgs[0], vis_msgs[0]))
        return perceived

    simulate._perceive = record
    try:
        result = simulate.run_trial(config)
    finally:
        simulate._perceive = perceive
    assert len(rows) == result.trace.n_steps, "a traced trial perceives once a step"
    return (result, *(np.array(column) for column in zip(*rows)))
