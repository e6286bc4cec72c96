"""Command-line entry point and file I/O: configs in, reproducible CSVs out.

Scenario configs are flat ``key = value`` text files (see CONFIG_KEYS).
Every run writes a manifest recording the tool version, config hash, master
seed and a checksum per emitted file; rerunning with the same seed must
reproduce each CSV byte for byte.
"""

import argparse
import hashlib
import json
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone
from itertools import chain, islice, permutations

import numpy as np

from . import __version__, simulate, world
from .errors import BeliefShareError, CapExceeded, ConfigError, FileAccessError, check_index, check_prior
from .simulate import AgentSpec, CommMode, ScenarioConfig, SweepResult

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_CAP = 3

# Rows _write_rows joins per write: a scenario file (2,700 rows at most) is one write, and a
# sweep's trials.csv holds one chunk's text at a time.
ROWS_PER_WRITE = 4096


class _UsageError(ConfigError):
    """A command line the argument parser rejects."""


# main's one error boundary: the first row whose kind matches an error gives its exit code and
# stderr line, so a subclass comes before its base.
ERROR_EXITS = (
    (_UsageError, EXIT_USAGE, "usage error: {}"),
    (ConfigError, EXIT_USAGE, "config error: {}"),
    (FileAccessError, EXIT_IO, "{}"),
    (CapExceeded, EXIT_CAP, "resource cap: {}"),
)


def _flag(value: str) -> bool:
    if value in ("on", "true", "yes", "1"):
        return True
    if value in ("off", "false", "no", "0"):
        return False
    raise ValueError(value)


def _object_node(value: str) -> int | None:
    return None if value == "absent" else int(value)


def _sweep_modes(value: str) -> tuple:
    modes = tuple(value.replace(",", " ").split())
    if not set(modes) <= set(simulate.SWEEP_MODES):
        raise ValueError(value)
    return modes


def _agent(value: str) -> tuple:
    start, sep, prior = value.partition("|")
    if not sep:
        raise ValueError(value)
    return int(start), prior


# Config keys: key -> (converter, what it expects). Any other key is rejected,
# and a key a file leaves out keeps its ScenarioConfig default.
CONFIG_KEYS = {
    "graph": (str, "a graph fixture path, or 'default' for the shipped 15-node grid"),
    "comm_mode": (CommMode, "none, posterior_sharing or likelihood_sharing"),
    "object": (_object_node, "a node index or 'absent' (a sweep needs 'absent')"),
    "horizon": (int, "an integer planning horizon"),
    "steps": (int, "an integer trial length"),
    "temperature": (float, "a number, the action-selection temperature"),
    "seed": (int, "an integer master seed"),
    "observe_location": (_flag, "on/off"),
    "observe_visibility": (_flag, "on/off"),
    "movement": (str, "free or frozen"),
    "action_policy": (str, "plan or random (a sweep needs plan)"),
    "visible_bonus": (float, "a number, the preference in nats for the visible outcome"),
    "sweep_modes": (_sweep_modes, "a comma list of likelihood_sharing, posterior_sharing, none, random"),
    "agent": (_agent, "'<start node> | <object prior spec>', one line per agent"),
}

# Config keys named apart from their ScenarioConfig field.
_FIELDS = {"graph": "graph_ref", "object": "object_location"}


def _fmt(x: float) -> str:
    """Floats at 9 significant digits, the CSV dialect of the package."""
    return f"{x:.9g}"


def _parse_prior(spec: str, n_nodes: int, field: str) -> np.ndarray:
    spec = spec.strip()
    if spec == "uniform":
        return np.ones(n_nodes) / n_nodes
    kind, sep, args = spec.partition(":")
    if sep and kind in ("bump", "peak"):
        head, _, weight = args.partition(":")
        try:
            nodes = [int(tok) for tok in head.replace(",", " ").split()]
            weight = float(weight) if weight else None
        except ValueError as exc:
            raise ConfigError(f"{field}: cannot parse prior spec {spec!r}") from exc
        nodes = [check_index(f"{field} prior node", node, n_nodes) for node in nodes]
        if kind == "bump":
            if not nodes:
                raise ConfigError(f"{field}: 'bump' names no node")
            weight = 2.0 if weight is None else weight
            lifted = len(set(nodes))
            if not (weight >= 0 and 0 < weight * lifted + n_nodes - lifted < np.inf):
                raise ConfigError(f"{field}: a bump weight must be >= 0 and leave a finite, non-zero total")
            return simulate.bumped_prior(n_nodes, nodes, weight)
        if len(nodes) != 1 or n_nodes < 2:
            raise ConfigError(f"{field}: 'peak' takes one node of a graph of two or more")
        return simulate.peaked_prior(n_nodes, nodes[0], 0.95 if weight is None else weight)
    try:
        return np.array([float(tok) for tok in spec.replace(",", " ").split()])
    except ValueError as exc:
        raise ConfigError(f"{field}: cannot parse prior spec {spec!r}") from exc


def _read_text(path: str, what: str) -> str:
    """A UTF-8 input file's text, without a leading byte-order mark; ``what`` names the file in the error."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise FileAccessError(f"cannot read {what}: {exc}") from exc


def parse_config_text(text: str, base_dir: str = ".") -> tuple:
    """Parse a scenario config; returns (ScenarioConfig, sweep_modes)."""
    settings, set_on = {}, {}  # key -> its setting, and the line that set it
    agent_lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        convert, expected = CONFIG_KEYS[key]
        try:
            setting = convert(value)
        except ValueError as exc:
            raise ConfigError(f"{key} (line {lineno}): expected {expected}, got {value!r}") from exc
        if key == "agent":
            agent_lines.append((lineno, *setting))
        elif key in set_on:
            raise ConfigError(f"{key} (line {lineno}): already set on line {set_on[key]}")
        else:
            settings[key], set_on[key] = setting, lineno

    graph_ref = settings.get("graph", "default")
    if graph_ref == "default":
        graph = world.default_graph()
    else:
        graph = world.parse_graph_text(_read_text(os.path.join(base_dir, graph_ref), "graph fixture"))
    if "comm_mode" not in settings:
        raise ConfigError("comm_mode: missing required key")
    if not agent_lines:
        raise ConfigError("agent: need at least one 'agent = start | prior' line")
    agents = []
    for lineno, start, prior in agent_lines:
        field = f"agent (line {lineno})"
        start = check_index(f"{field} start node", start, graph.n_nodes)
        prior = check_prior(f"{field} prior", _parse_prior(prior, graph.n_nodes, field), graph.n_nodes)
        agents.append(AgentSpec(start, prior))
    sweep_modes = settings.pop("sweep_modes", simulate.SWEEP_MODES)
    fields = {_FIELDS.get(key, key): value for key, value in settings.items()}
    return ScenarioConfig(graph=graph, agents=agents, **fields), sweep_modes


def _format(value) -> str:
    """One setting as a config file spells it."""
    if isinstance(value, bool):
        return "on" if value else "off"
    if value is None:
        return "absent"
    if isinstance(value, CommMode):
        return value.value
    if isinstance(value, float):
        # repr round-trips exactly; the 9-digit dialect is for emitted CSVs only
        return repr(value)
    if isinstance(value, AgentSpec):
        return f"{value.start_node} | {','.join(_format(float(p)) for p in value.object_prior)}"
    return str(value)


def serialize_config(config: ScenarioConfig, sweep_modes=None) -> str:
    """Emit a config in the flat format parse_config_text reads: its settings in CONFIG_KEYS order."""
    lines = []
    for key in CONFIG_KEYS:
        if key == "agent":
            values = config.agents
        elif key == "sweep_modes":
            values = [] if sweep_modes is None else [",".join(sweep_modes)]
        else:
            values = [getattr(config, _FIELDS.get(key, key))]
        lines += [f"{key} = {_format(value)}" for value in values]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Output writers


def _write_rows(out_dir: str, name: str, header, rows, delimiter: str = ",") -> str:
    """Write ``out_dir/name``: the ``header`` row unless None, then ``rows``; returns the path.

    The one place the export format is decided: UTF-8, LF line ends, fields joined by ``delimiter``,
    one write per ROWS_PER_WRITE rows. Fields go unquoted: each is a number or a fixed label, which
    never needs quoting.
    """
    rows = iter(rows if header is None else chain([header], rows))
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        # every row ends in a newline, so only spent rows join to an empty text
        while text := "".join(delimiter.join(map(str, row)) + "\n" for row in islice(rows, ROWS_PER_WRITE)):
            fh.write(text)
    return path


def write_trace_files(trace, out_dir: str) -> list:
    """Belief-trace CSV, per-agent heatmap matrices (a row per node), and the payload log."""
    mode = trace.comm_mode.value
    # each value formatted once, as [t][agent][node], however many files and receivers show it
    beliefs = [[list(map(_fmt, row)) for row in step] for step in trace.object_beliefs.tolist()]
    sent = trace.messages.tolist() if trace.comm_mode != CommMode.NONE else []
    payloads = [[list(map(_fmt, row)) for row in step] for step in sent]
    agent_rows = ((t, agent, row) for t, step in enumerate(beliefs) for agent, row in enumerate(step))
    cells = ((t, agent, world.OBJECT, node, p) for t, agent, row in agent_rows for node, p in enumerate(row))
    heatmaps = (zip(*steps) for steps in zip(*beliefs))  # an agent's steps, transposed to a row per node
    messages = (
        (t, sender, receiver, mode, node, logit)
        for t, step in enumerate(payloads)
        for receiver, sender in permutations(range(trace.n_agents), 2)
        for node, logit in enumerate(step[sender])
    )
    return [
        _write_rows(out_dir, "trace.csv", ["t", "agent_id", "factor", "node", "probability"], cells),
        *(_write_rows(out_dir, f"heatmap_agent{a}.tsv", None, rows, "\t") for a, rows in enumerate(heatmaps)),
        _write_rows(out_dir, "messages.csv", ["t", "sender", "receiver", "mode", "node", "logit"], messages),
    ]


def write_sweep_files(result: SweepResult, out_dir: str) -> list:
    """trials.csv, one row per trial (combination j of mode m is trial m * C + j), and aggregate.csv."""
    starts = [";".join(str(s) for s in row) for row in result.starts.tolist()]
    combos = list(zip(starts, result.objects.tolist(), result.seeds))
    trials = (
        [m * len(combos) + j, mode, *combos[j], "true" if step else "false", step or ""]
        for m, mode in enumerate(result.modes)
        for j, step in enumerate(result.found_at[m].tolist())
    )
    aggregates = (
        [mode, _fmt(rate), _fmt(stderr), count] for mode, (rate, stderr, count) in result.aggregates.items()
    )
    trials_header = ["trial_id", "mode", "agent_starts", "object_location", "seed", "found", "steps_to_find"]
    return [
        _write_rows(out_dir, "trials.csv", trials_header, trials),
        _write_rows(out_dir, "aggregate.csv", ["mode", "find_rate", "stderr", "n_trials"], aggregates),
    ]


def _export(out_dir: str, write_files, record, config: ScenarioConfig, sweep_modes=None) -> None:
    """Write a command's files with ``write_files(record, out_dir)``, then a manifest of them."""
    try:
        os.makedirs(out_dir, exist_ok=True)
        files = []
        for path in write_files(record, out_dir):
            with open(path, "rb") as fh:
                data = fh.read()
            digest = hashlib.sha256(data).hexdigest()
            files.append({"name": os.path.basename(path), "sha256": digest, "bytes": len(data)})
        manifest = {
            "tool_version": __version__,
            "config_hash": config.config_hash(),
            "master_seed": config.seed,
            "created_at": datetime.now(timezone.utc).isoformat(),
            "files": files,
            "resolved_config": serialize_config(config, sweep_modes),
        }
        with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8", newline="\n") as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise FileAccessError(f"cannot write outputs: {exc}") from exc


# ---------------------------------------------------------------------------
# Commands


SCENARIO_BUILDERS = {
    "echo-chamber": simulate.echo_chamber_config,
    "self-doubt": simulate.self_doubt_config,
}


def cmd_scenario(name: str, mode: str, out_dir: str, seed: int = 42) -> int:
    """Run a named scenario and export its belief traces; returns EXIT_OK or raises."""
    config = SCENARIO_BUILDERS[name](CommMode(mode), seed=seed)
    result = simulate.run_trial(config)
    _export(out_dir, write_trace_files, result.trace, config)
    return EXIT_OK


def cmd_sweep(config_path: str, repeats: int, out_dir: str, seed: int | None = None, jobs: int = 1) -> int:
    """Run the find-rate sweep described by a config file; returns EXIT_OK or raises."""
    text = _read_text(config_path, "config")
    config, sweep_modes = parse_config_text(text, base_dir=os.path.dirname(config_path) or ".")
    if seed is not None:
        config = replace(config, seed=seed)
    design = simulate.full_design(config, repeats, len(sweep_modes))
    result = simulate.run_sweep(config, sweep_modes, *design, jobs)
    _export(out_dir, write_sweep_files, result, config, sweep_modes)
    for mode, (rate, stderr, count) in result.aggregates.items():
        print(f"{mode}: find rate {rate:.3f} +/- {stderr:.3f} over {count} trials")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="beliefshare", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_scenario = sub.add_parser("scenario", help="run a canonical scenario and export traces")
    p_scenario.add_argument("name", choices=sorted(SCENARIO_BUILDERS))
    p_scenario.add_argument("--mode", required=True, choices=[mode.value for mode in CommMode])
    p_scenario.add_argument("--out", required=True, help="output directory")
    p_scenario.add_argument("--seed", type=int, default=42)

    p_sweep = sub.add_parser("sweep", help="run the find-rate sweep from a config file")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--repeats", type=int, default=5)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--jobs", type=int, default=1)
    return parser


def main(argv=None) -> int:
    """Run one command; the program's only place where an error becomes an exit code and a stderr line."""
    try:
        args = build_parser().parse_args(argv)
        if args.command == "scenario":
            return cmd_scenario(args.name, args.mode, args.out, args.seed)
        return cmd_sweep(args.config, args.repeats, args.out, args.seed, args.jobs)
    except BeliefShareError as exc:
        code, line = next((code, line) for kind, code, line in ERROR_EXITS if isinstance(exc, kind))
        print(line.format(exc), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
