"""Checks on the files the `sweep` and `scenario` commands write.

Each check returns a list of failure messages; an empty list means the
output passed. Expected values come from calculators.py, never from
beliefshare itself.
"""

import csv
import hashlib
import json
import math
from itertools import product
from pathlib import Path

import numpy as np

import calculators

# %.9g keeps 9 significant digits: a relative rounding error of at most 5e-9.
CSV_RTOL = 6e-9
# Values below this are denormal in double precision and carry no relative precision.
TINY = 1e-290
FIND_RATE_Z = 4.0


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_csv(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= CSV_RTOL * abs(ref) + TINY


def check_manifest(out_dir: Path, expected_files: list) -> list:
    """Every listed file exists with the recorded checksum and size, and nothing is missing."""
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    names = [entry["name"] for entry in manifest["files"]]
    if names != expected_files:
        return [f"{out_dir}: manifest lists {names}, expected {expected_files}"]
    failures = []
    for entry in manifest["files"]:
        path = out_dir / entry["name"]
        data = path.read_bytes()
        if hashlib.sha256(data).hexdigest() != entry["sha256"]:
            failures.append(f"{path}: sha256 differs from the manifest")
        if len(data) != entry["bytes"]:
            failures.append(f"{path}: {len(data)} bytes, manifest says {entry['bytes']}")
    return failures


# ---------------------------------------------------------------------------
# sweep


def check_sweep(out_dir: Path, *, master_seed: int, modes: tuple, repeats: int,
                n_agents: int, steps: int, adjacency: np.ndarray) -> list:
    """Bookkeeping, find rates and aggregates of one `sweep` output directory."""
    n = adjacency.shape[0]
    combos = [(starts, obj) for starts in product(range(n), repeat=n_agents) for obj in range(n)]
    per_mode = len(combos) * repeats
    failures = check_manifest(out_dir, ["trials.csv", "aggregate.csv"])

    rows = _read_csv(out_dir / "trials.csv")
    header = ["trial_id", "mode", "agent_starts", "object_location", "seed", "found", "steps_to_find"]
    if rows[0] != header:
        return failures + [f"trials.csv header {rows[0]}"]
    rows = rows[1:]
    if len(rows) != per_mode * len(modes):
        return failures + [f"trials.csv has {len(rows)} rows, expected {per_mode * len(modes)}"]

    seeds = [calculators.trial_seed(master_seed, i) for i in range(per_mode)]
    found = {mode: 0 for mode in modes}
    for k, row in enumerate(rows):
        mode = modes[k // per_mode]
        paired = k % per_mode
        starts, obj = combos[paired // repeats]
        expected = [str(k), mode, ";".join(map(str, starts)), str(obj), str(seeds[paired])]
        if row[:5] != expected:
            return failures + [f"trials.csv row {k}: {row[:5]}, expected {expected}"]
        if row[5] == "true" and row[6].isdigit() and 1 <= int(row[6]) <= steps:
            found[mode] += 1
        elif row[5] != "false" or row[6] != "":
            return failures + [f"trials.csv row {k}: found={row[5]!r} steps_to_find={row[6]!r}"]

    rates = {mode: found[mode] / per_mode for mode in modes}
    stderrs = {mode: math.sqrt(r * (1.0 - r) / per_mode) for mode, r in rates.items()}
    aggregate = _read_csv(out_dir / "aggregate.csv")
    expected_rows = len(modes) + 1
    if aggregate[0] != ["mode", "find_rate", "stderr", "n_trials"] or len(aggregate) != expected_rows:
        return failures + [f"aggregate.csv: unexpected layout {aggregate}"]
    for row, mode in zip(aggregate[1:], modes):
        ok = (row[0] == mode and _close(float(row[1]), rates[mode])
              and _close(float(row[2]), stderrs[mode]) and row[3] == str(per_mode))
        if not ok:
            failures.append(
                f"aggregate.csv {row}: recomputed rate {rates[mode]!r} stderr {stderrs[mode]!r}"
            )

    exact = calculators.random_walk_find_rate(adjacency, steps, n_agents)
    exact_se = math.sqrt(exact * (1.0 - exact) / per_mode)
    if "random" in rates and abs(rates["random"] - exact) > FIND_RATE_Z * exact_se:
        failures.append(f"random find rate {rates['random']:.4f}, exact {exact:.5f} +/- {exact_se:.4f}")
    # posterior_sharing is exempt: its phantom lock-on is the known failure.
    for mode in ("likelihood_sharing", "none"):
        if mode in rates and rates[mode] - exact <= FIND_RATE_Z * stderrs[mode]:
            failures.append(
                f"{mode} find rate {rates[mode]:.4f} does not beat the random walk's "
                f"{exact:.5f} by {FIND_RATE_Z} standard errors ({stderrs[mode]:.4f})"
            )
    return failures


# ---------------------------------------------------------------------------
# scenarios

# The two canonical scenarios as the package documents them.
SCENARIOS = {
    "echo-chamber": {"agents": 2, "steps": 10},
    "self-doubt": {"agents": 4, "steps": 15},
}
N_NODES = 15
ECHO_PRIOR = calculators.bumped_prior(N_NODES, (11, 13), 2.0)
SHARING_MODES = ("posterior_sharing", "likelihood_sharing")


def _message_blocks(messages: list) -> list:
    """messages.csv rows grouped per payload: (t, sender, receiver, mode, logits)."""
    blocks = []
    for i in range(0, len(messages), N_NODES):
        block = messages[i:i + N_NODES]
        blocks.append((*block[0][:4], np.array([float(r[5]) for r in block])))
    return blocks


def check_scenario(out_dir: Path, name: str, mode: str) -> list:
    """Traces, heatmaps, messages and manifest of one `scenario` output directory."""
    spec = SCENARIOS[name]
    n_agents, steps = spec["agents"], spec["steps"]
    heatmaps = [f"heatmap_agent{i}.tsv" for i in range(n_agents)]
    failures = check_manifest(out_dir, ["trace.csv", *heatmaps, "messages.csv"])

    trace = _read_csv(out_dir / "trace.csv")
    if trace[0] != ["t", "agent_id", "factor", "node", "probability"]:
        return failures + [f"trace.csv header {trace[0]}"]
    trace = trace[1:]
    if len(trace) != steps * n_agents * N_NODES:
        return failures + [f"trace.csv has {len(trace)} rows, expected {steps * n_agents * N_NODES}"]
    keys = [[str(t), str(a), "object", str(node)]
            for t in range(steps) for a in range(n_agents) for node in range(N_NODES)]
    if [row[:4] for row in trace] != keys:
        failures.append("trace.csv rows are not ordered by (t, agent, node)")
    text = np.array([row[4] for row in trace]).reshape(steps, n_agents, N_NODES)
    probs = text.astype(float)
    sums = probs.sum(axis=2)
    if np.abs(sums - 1.0).max() > 1e-8:
        failures.append(f"trace.csv: a (t, agent) row sums to {sums.flat[np.abs(sums - 1).argmax()]!r}")

    for agent, heatmap in enumerate(heatmaps):
        lines = (out_dir / heatmap).read_text(encoding="utf-8").split("\n")
        cells = [line.split("\t") for line in lines[:-1]]
        if lines[-1] != "" or cells != text[:, agent, :].T.tolist():
            failures.append(f"{heatmap} does not match trace.csv")

    messages = _read_csv(out_dir / "messages.csv")
    if messages[0] != ["t", "sender", "receiver", "mode", "node", "logit"]:
        return failures + [f"messages.csv header {messages[0]}"]
    messages = messages[1:]
    expected = steps * n_agents * (n_agents - 1) * N_NODES if mode in SHARING_MODES else 0
    if len(messages) != expected:
        return failures + [f"messages.csv has {len(messages)} rows, expected {expected}"]
    blocks = _message_blocks(messages)
    if any(block[3] != mode for block in blocks):
        failures.append("messages.csv carries another mode's tag")
    if any(block[4].max() != 0.0 for block in blocks):
        failures.append("messages.csv: a payload's largest logit is not 0")

    if name == "echo-chamber":
        for t in range(steps):
            ref = calculators.echo_chamber_posterior(ECHO_PRIOR, t) if mode == "posterior_sharing" else ECHO_PRIOR
            if not all(_close(x, r) for x, r in zip(probs[t].ravel(), np.tile(ref, n_agents))):
                failures.append(f"echo-chamber {mode}: belief at t={t} differs from the closed form")
                break
        if mode == "likelihood_sharing" and any(np.any(block[4] != 0.0) for block in blocks):
            failures.append("echo-chamber likelihood_sharing: a payload is not all zero")
    elif mode == "likelihood_sharing":
        # one visibility observation moves object log-odds by at most log(0.8 / 0.2)
        floor = -math.log(4.0) * (1.0 + CSV_RTOL)
        if any(block[4].min() < floor for block in blocks):
            failures.append("self-doubt likelihood_sharing: a payload logit is below -log 4")
    return failures
