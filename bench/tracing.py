"""Timing and counting wrappers installed on beliefshare's module attributes.

The traced run wraps the public functions each layer exposes, from outside
the package, and records one span per call: name, parent span, start, end
and two integers (steps and agents for a trial, bytes for a writer). Spans
stay in flat arrays in memory and are written out when the run ends.
"""

import os
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.sid = array("q")
        self.name = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.a = array("q")
        self.b = array("q")
        self._stack = [-1]
        self._next_id = 0

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str, label=None, sizes=None):
        """Return fn wrapped in a span; label(args) refines the name, sizes(args, result) -> (a, b)."""
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            span = self._next_id
            self._next_id += 1
            parent = stack[-1]
            stack.append(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            full = name if label is None else f"{name}.{label(args, kwargs)}"
            a, b = (0, 0) if sizes is None else sizes(args, result)
            self.sid.append(span)
            self.name.append(self._name_id(full))
            self.parent.append(parent)
            self.start.append(t0)
            self.end.append(t1)
            self.a.append(a)
            self.b.append(b)
            return result

        return traced

    def arrays(self) -> dict:
        return {
            "sid": np.frombuffer(self.sid, dtype=np.int64),
            "name": np.frombuffer(self.name, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "a": np.frombuffer(self.a, dtype=np.int64),
            "b": np.frombuffer(self.b, dtype=np.int64),
        }

    def save(self, path: Path):
        np.savez(path, names=np.array(self.names), **self.arrays())


def _trial_mode(args, kwargs) -> str:
    config = args[0] if args else kwargs["config"]
    return "random" if config.action_policy == "random" else config.comm_mode.value


def _trial_size(args, result):
    config = args[0]
    if result.trace is not None:
        steps = result.trace.n_steps
    else:
        steps = result.steps_to_find if result.found else config.steps
    return steps, config.n_agents


def _written_bytes(args, paths):
    return sum(os.path.getsize(p) for p in paths), len(paths)


@contextmanager
def installed(tracer: Tracer, cli, simulate, planning, world):
    """Wrap each layer's entry points for the duration of the block, then restore them."""
    planner_cls = getattr(planning, "PlannerContext", None)
    targets = [
        (world, "env_observe", "world.env_observe", {}),
        (world, "env_step", "world.env_step", {}),
        (planner_cls, "scores", "planning.scores", {}),
        (planning, "sample_policy_index", "planning.sample_policy_index", {}),
        (planning, "PlannerContext", "simulate.context_build", {}),
        (simulate, "GraphContext", "simulate.context_build", {}),
        (simulate, "floored_log", "inference.floored_log", {}),
        (simulate, "SharedMessage", "comms.SharedMessage", {}),
        (simulate, "run_trial", "simulate.run_trial", {"label": _trial_mode, "sizes": _trial_size}),
        (cli, "parse_config_text", "cli.parse_config_text", {}),
        (cli, "write_sweep_files", "cli.write_sweep_files", {"sizes": _written_bytes}),
        (cli, "write_trace_files", "cli.write_trace_files", {"sizes": _written_bytes}),
    ]
    # an entry point the program no longer has is skipped and reads 0 calls
    targets = [target for target in targets if hasattr(target[0], target[1])]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in targets]
    try:
        for owner, attr, name, extra in targets:
            setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, **extra))
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics


def _median(values: np.ndarray) -> float:
    return float(np.median(values)) if values.size else 0.0


class Spans:
    """Array view of one tracer's spans with the queries the metrics need."""

    def __init__(self, tracer: Tracer):
        arr = tracer.arrays()
        self.names = tracer.names
        self.name = arr["name"]
        self.parent = arr["parent"]
        self.dur = arr["end"] - arr["start"]
        self.a = arr["a"]
        self.b = arr["b"]
        sid = arr["sid"]
        size = int(sid.max()) + 1 if sid.size else 0
        self.name_of_sid = np.full(size + 1, -1)  # index -1 (no parent) maps to -1
        self.name_of_sid[sid] = self.name
        # time covered by each span's direct children, indexed by span position
        child_time = np.bincount(self.parent[self.parent >= 0], weights=self.dur[self.parent >= 0],
                                 minlength=size)
        self.self_time = self.dur - child_time[sid]

    def mask(self, name: str) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if n == name or n.startswith(name + ".")]
        return np.isin(self.name, ids)

    def from_trials(self) -> np.ndarray:
        """Spans whose direct parent is a run_trial call."""
        trial_ids = [i for i, n in enumerate(self.names) if n.startswith("simulate.run_trial.")]
        return np.isin(self.name_of_sid[self.parent], trial_ids)

    def calls(self, name: str, where=None) -> int:
        m = self.mask(name) if where is None else self.mask(name) & where
        return int(m.sum())

    def us_per_call(self, name: str, where=None) -> float:
        m = self.mask(name) if where is None else self.mask(name) & where
        return _median(self.dur[m]) * 1e6

    def total(self, name: str, where=None) -> float:
        m = self.mask(name) if where is None else self.mask(name) & where
        return float(self.dur[m].sum())


def layer_metrics(sweep: Tracer, sweep_wall: float, scen: Tracer, scen_wall: float,
                  parallel_efficiency: float, modes: tuple, horizon: int, n_actions: int) -> dict:
    """Per-layer metrics of a traced serial sweep and a traced scenario round.

    Sweep-side layers (world, planning, inference, simulate) come from the
    sweep; comms, trace writing and context building from the scenarios.
    A layer's share is its time over the traced commands' wall time.
    """
    sw = Spans(sweep)
    sc = Spans(scen)
    trial_loop = sw.from_trials()
    trials = sw.mask("simulate.run_trial")
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    put("world.env_observe.calls", sw.calls("world.env_observe"), "count")
    put("world.env_observe.us_per_call", sw.us_per_call("world.env_observe"), "us")
    put("world.env_step.calls", sw.calls("world.env_step"), "count")
    put("world.env_step.us_per_call", sw.us_per_call("world.env_step"), "us")
    put("world.share", sw.total("world") / sweep_wall, "fraction")

    scores_us = sw.us_per_call("planning.scores")
    put("planning.scores.calls", sw.calls("planning.scores"), "count")
    put("planning.scores.us_per_call", scores_us, "us")
    put("planning.scores.policies_per_s",
        n_actions ** horizon / (scores_us * 1e-6) if scores_us else 0.0, "policies/s")
    put("planning.sample_policy_index.calls", sw.calls("planning.sample_policy_index"), "count")
    put("planning.sample_policy_index.us_per_call", sw.us_per_call("planning.sample_policy_index"), "us")
    put("planning.share", sw.total("planning") / sweep_wall, "fraction")

    put("inference.floored_log.calls", sw.calls("inference.floored_log", trial_loop), "count")
    put("inference.floored_log.us_per_call", sw.us_per_call("inference.floored_log", trial_loop), "us")
    put("inference.share", sw.total("inference", trial_loop) / sweep_wall, "fraction")

    for mode in modes:
        mask = sw.mask(f"simulate.run_trial.{mode}")
        put(f"simulate.run_trial.{mode}.us_per_step", _median(sw.dur[mask] / sw.a[mask]) * 1e6, "us")
    put("simulate.agent_steps", int((sw.a[trials] * sw.b[trials]).sum()), "count")
    put("simulate.run_trial.self_us_per_step",
        _median(sw.self_time[trials] / sw.a[trials]) * 1e6, "us")
    put("simulate.context_build.calls", sc.calls("simulate.context_build"), "count")
    put("simulate.context_build.us_per_call", sc.us_per_call("simulate.context_build"), "us")
    put("simulate.parallel_efficiency", parallel_efficiency, "ratio")
    simulate_time = float(sw.self_time[trials].sum()) + sw.total("simulate.context_build")
    put("simulate.share", simulate_time / sweep_wall, "fraction")

    put("comms.SharedMessage.calls", sc.calls("comms.SharedMessage"), "count")
    put("comms.SharedMessage.us_per_call", sc.us_per_call("comms.SharedMessage"), "us")
    put("comms.share", sc.total("comms") / scen_wall, "fraction")

    put("cli.parse_config_text.us_per_call", sw.us_per_call("cli.parse_config_text"), "us")
    for kind, spans in (("sweep", sw), ("trace", sc)):
        name = f"cli.write_{kind}_files"
        mask = spans.mask(name)
        put(f"{name}.us_per_call", spans.us_per_call(name), "us")
        put(f"{name}.bytes", int(_median(spans.a[mask])), "bytes")
    put("cli.share", sc.total("cli") / scen_wall, "fraction")
    return m
