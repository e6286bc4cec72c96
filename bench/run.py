"""Benchmark of beliefshare's find-rate sweep and scenario exports.

    python3 bench/run.py --workload paper-sweep --seed 1 --seconds 10 --trace 0

Drives the program only through ``cli.main`` (the ``beliefshare`` command),
in-process, from the sources under ``src/``. Every run checks the files the
commands write against values computed in calculators.py and prints, as its
last line, one JSON object: correct, attempted, failed and the metrics.
``--trace 0`` gives the end-to-end metrics of the chosen workload;
``--trace 1`` gives the per-layer metrics of one traced run. See README.md.
"""

import os

# Single-threaded BLAS on a 2-core machine; set before numpy loads so the
# sweep's pool workers and the set-up processes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import calculators  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# The shipped sweep inputs (configs/find_rate_sweep.cfg) with steps cut from
# 20 to 10: one sweep is 13,500 trials whatever the steps, and at 20 steps it
# takes ~90 s at --jobs 1, longer than a run may last. At 10 steps the planned
# modes still beat the random walk by 7 or more standard errors.
SWEEP_MODES = ("likelihood_sharing", "posterior_sharing", "none", "random")
SWEEP_STEPS = 10
SWEEP_AGENTS = 2
SWEEP_HORIZON = 2
SWEEP_REPEATS = 1
SWEEP_CONFIG = f"""\
graph = default
comm_mode = likelihood_sharing
object = absent
steps = {SWEEP_STEPS}
horizon = {SWEEP_HORIZON}
temperature = 4.0
seed = 42
sweep_modes = {",".join(SWEEP_MODES)}
""" + "agent = 0 | uniform\n" * SWEEP_AGENTS
GRID = calculators.grid_adjacency(3, 5)
SWEEP_TRIALS = GRID.shape[0] ** (SWEEP_AGENTS + 1) * SWEEP_REPEATS * len(SWEEP_MODES)

SWEEP_JOBS = {"paper-sweep": 1, "paper-sweep-jobs2": 2}
WORKLOADS = (*SWEEP_JOBS, "scenarios")
SCENARIO_NAMES = ("echo-chamber", "self-doubt")
SCENARIO_MODES = ("posterior_sharing", "likelihood_sharing", "none")

SETUP_SAMPLES = 5
TRACED_SCENARIO_ROUNDS = 3
EFE_BELIEFS = 20
EFE_TOL = 1e-9

SETUP_CODE = {
    # a fresh process imports the package and parses the workload's config
    "sweep": (
        "import sys; sys.path.insert(0, sys.argv[1]); from beliefshare import cli; "
        "cli.parse_config_text(open(sys.argv[2], encoding='utf-8').read(), base_dir=sys.argv[3])"
    ),
    "scenarios": (
        "import sys; sys.path.insert(0, sys.argv[1]); from beliefshare import cli; "
        "cli.build_parser().parse_args(sys.argv[2:])"
    ),
}


class Program:
    """The beliefshare modules, imported from the checkout's sources."""

    def __init__(self):
        if not (SRC / "beliefshare" / "__init__.py").is_file():
            raise SystemExit(f"bench: no beliefshare sources under {SRC}")
        sys.path.insert(0, str(SRC))
        from beliefshare import cli, model, planning, simulate, world

        self.cli, self.model, self.planning, self.simulate, self.world = (
            cli, model, planning, simulate, world)
        digest = hashlib.sha256()
        for path in sorted((SRC / "beliefshare").rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
        self.fingerprint = digest.hexdigest()


class Tally:
    """Operations attempted and failed, and every failed output check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def result(self, metrics: dict) -> dict:
        for line in self.failures:
            print(f"check failed: {line}", file=sys.stderr)
        return {"correct": not self.failures, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def timed_main(prog: Program, argv: list) -> tuple:
    """Run one CLI command; returns (exit code, wall seconds). Its stdout goes to stderr."""
    with contextlib.redirect_stdout(sys.stderr):
        t0 = time.perf_counter()
        code = prog.cli.main(argv)
        return code, time.perf_counter() - t0


def measure_setup(kind: str, args: list) -> float:
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE[kind], str(SRC), *args],
                       check=True, timeout=120, cwd=ROOT)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def recall_digests(prog: Program, key: str, digests: dict) -> list:
    """Compare output digests with an earlier run of the same program and inputs, if any.

    The record lives in bench/out of this checkout, one small file per key,
    so reruns of a seed, and serial against parallel sweeps of it, must
    write identical bytes.
    """
    key = hashlib.sha256(f"{prog.fingerprint}\0{key}".encode()).hexdigest()
    record = OUT / "digests" / f"{key}.json"
    if record.exists():
        known = json.loads(record.read_text())
        return [f"{name}: bytes differ from an earlier run with the same inputs"
                for name, sha in digests.items() if known.get(name) != sha]
    record.parent.mkdir(parents=True, exist_ok=True)
    tmp = record.with_suffix(".tmp")
    tmp.write_text(json.dumps(digests, sort_keys=True))
    tmp.replace(record)
    return []


# ---------------------------------------------------------------------------
# sweeps


def sweep_once(prog: Program, tally: Tally, seed: int, jobs: int, out_dir: Path) -> float | None:
    """One `beliefshare sweep` of the workload's inputs, checked; returns its wall time."""
    config_path = OUT / "paper_sweep.cfg"
    shutil.rmtree(out_dir, ignore_errors=True)
    code, seconds = timed_main(prog, ["sweep", "--config", str(config_path), "--repeats",
                                      str(SWEEP_REPEATS), "--out", str(out_dir),
                                      "--seed", str(seed), "--jobs", str(jobs)])
    tally.attempted += SWEEP_TRIALS
    if code != 0:
        tally.failed += SWEEP_TRIALS
        return None
    tally.failures += checks.check_sweep(
        out_dir, master_seed=seed, modes=SWEEP_MODES, repeats=SWEEP_REPEATS,
        n_agents=SWEEP_AGENTS, steps=SWEEP_STEPS, adjacency=GRID)
    digests = {name: checks.sha256_file(out_dir / name) for name in ("trials.csv", "aggregate.csv")}
    tally.failures += recall_digests(prog, f"sweep\0{SWEEP_CONFIG}\0{seed}", digests)
    return seconds


def write_sweep_config():
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "paper_sweep.cfg").write_text(SWEEP_CONFIG, encoding="utf-8")


def sweep_workload(prog: Program, tally: Tally, workload: str, seed: int, seconds: float) -> dict:
    write_sweep_config()
    setup = measure_setup("sweep", [str(OUT / "paper_sweep.cfg"), str(OUT)])
    times = []
    spent = 0.0
    while spent < seconds:
        t = sweep_once(prog, tally, seed, SWEEP_JOBS[workload], OUT / workload / "sweep")
        if t is None:
            break
        times.append(t)
        spent += t
    if not times:
        raise SystemExit("bench: the sweep command failed")
    return {
        "setup_s": metric(setup, "s"),
        "trials_per_s": metric(statistics.median(SWEEP_TRIALS / t for t in times), "trials/s"),
        "scenarios_per_s": metric(statistics.median(1.0 / t for t in times), "runs/s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }


# ---------------------------------------------------------------------------
# scenarios


def scenario_round(prog: Program, tally: Tally, seed: int, out_root: Path) -> float:
    """Both scenarios under the three channels at one seed, checked; returns the commands' wall time."""
    spent = 0.0
    for name in SCENARIO_NAMES:
        for mode in SCENARIO_MODES:
            out_dir = out_root / name / mode
            shutil.rmtree(out_dir, ignore_errors=True)
            code, seconds = timed_main(prog, ["scenario", name, "--mode", mode,
                                              "--out", str(out_dir), "--seed", str(seed)])
            tally.attempted += 1
            spent += seconds
            if code != 0:
                tally.failed += 1
                continue
            tally.failures += checks.check_scenario(out_dir, name, mode)
            digests = {p.name: checks.sha256_file(p) for p in sorted(out_dir.iterdir())
                       if p.name != "manifest.json"}
            tally.failures += recall_digests(prog, f"scenario\0{name}\0{mode}\0{seed}", digests)
    return spent


def scenario_workload(prog: Program, tally: Tally, seed: int, seconds: float) -> dict:
    setup = measure_setup("scenarios", ["scenario", "self-doubt", "--mode", "posterior_sharing",
                                        "--out", str(OUT), "--seed", str(seed)])
    rates = []
    spent = 0.0
    while spent < seconds:
        t = scenario_round(prog, tally, calculators.trial_seed(seed, len(rates)), OUT / "scenarios")
        rates.append(len(SCENARIO_NAMES) * len(SCENARIO_MODES) / t)
        spent += t
    rate = statistics.median(rates)
    # each scenario run is one trial of the program
    return {
        "setup_s": metric(setup, "s"),
        "trials_per_s": metric(rate, "trials/s"),
        "scenarios_per_s": metric(rate, "runs/s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }


# ---------------------------------------------------------------------------
# traced run


def check_scores(prog: Program, seed: int) -> list:
    """PlannerContext.scores against the benchmark's own EFE enumeration, all h=2 policies."""
    graph = prog.world.default_graph()
    if not np.array_equal(graph.adjacency, GRID):
        return ["the shipped graph is not the 3x5 grid"]
    n = graph.n_nodes
    planner = prog.planning.PlannerContext(prog.model.make_agent_model(graph, 0, np.full(n, 1.0 / n)))
    rng = np.random.default_rng([seed, EFE_BELIEFS])
    worst = 0.0
    for k in range(EFE_BELIEFS):
        # half the location beliefs one-hot, as an agent's usually is
        loc = np.eye(n)[rng.integers(n)] if k % 2 else rng.dirichlet(np.full(n, 0.5))
        obj = rng.dirichlet(np.ones(n))
        G = planner.scores(loc, obj, SWEEP_HORIZON)
        worst = max(worst, float(np.abs(G - calculators.expected_free_energy_h2(GRID, loc, obj)).max()))
    if worst > EFE_TOL:
        return [f"PlannerContext.scores differs from the EFE enumeration by {worst:.3g}"]
    return []


def traced_run(prog: Program, tally: Tally, workload: str, seed: int) -> dict:
    """Untraced --jobs 2 sweep, traced serial sweep, traced scenario rounds.

    Every traced run covers every layer, whatever the workload, so each
    per-layer metric has a measured value.
    """
    out = OUT / workload / "trace"
    write_sweep_config()
    parallel = sweep_once(prog, tally, seed, 2, out / "sweep-jobs2")

    sweep_tracer = tracing.Tracer()
    with tracing.installed(sweep_tracer, prog.cli, prog.simulate, prog.planning, prog.world):
        serial = sweep_once(prog, tally, seed, 1, out / "sweep")

    scen_tracer = tracing.Tracer()
    scen_wall = 0.0
    with tracing.installed(scen_tracer, prog.cli, prog.simulate, prog.planning, prog.world):
        for r in range(TRACED_SCENARIO_ROUNDS):
            scen_wall += scenario_round(prog, tally, calculators.trial_seed(seed, r), out / "scenarios")

    tally.failures += check_scores(prog, seed)
    if parallel is None or serial is None:
        raise SystemExit("bench: a traced sweep failed; no per-layer metrics")
    metrics = tracing.layer_metrics(
        sweep_tracer, serial, scen_tracer, scen_wall,
        parallel_efficiency=serial / (2.0 * parallel),
        modes=SWEEP_MODES, horizon=SWEEP_HORIZON, n_actions=GRID.shape[0])
    metrics_doc = {"traced_sweep_trials_per_s": SWEEP_TRIALS / serial,
                   "untraced_jobs2_trials_per_s": SWEEP_TRIALS / parallel, "metrics": metrics}
    (out / "layers.json").write_text(json.dumps(metrics_doc, indent=1))
    sweep_tracer.save(out / "spans_sweep.npz")
    scen_tracer.save(out / "spans_scenarios.npz")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    prog = Program()
    tally = Tally()
    if args.trace:
        metrics = traced_run(prog, tally, args.workload, args.seed)
    elif args.workload in SWEEP_JOBS:
        metrics = sweep_workload(prog, tally, args.workload, args.seed, args.seconds)
    else:
        metrics = scenario_workload(prog, tally, args.seed, args.seconds)
    print(json.dumps(tally.result(metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
