"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. Criterion 7 executes the
full find-rate sweep twice (once here, once for the determinism check) and
dominates the runtime; everything else finishes in seconds.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.special import xlogy

import golden
from beliefshare import world
from beliefshare.cli import cmd_scenario, cmd_sweep
from beliefshare.comms import CommMode
from beliefshare.inference import (
    CategoricalBelief,
    LogMessage,
    exact_bayes_oracle,
    floored_log,
    likelihood_message,
    normalize,
    variational_free_energy,
    vmp_update,
)
from beliefshare.model import initial_state, make_agent_model
from beliefshare.planning import expected_free_energy
from beliefshare.simulate import (
    echo_chamber_config,
    peaked_prior,
    run_trial,
    self_doubt_config,
    bumped_prior,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
SWEEP_CONFIG = REPO_ROOT / "configs" / "find_rate_sweep.cfg"


def report(criterion: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# -- criterion 1 -------------------------------------------------------------


def test_criterion_1_oracle_equivalence():
    """vmp_update == exact Bayes on 1000 random single-modality instances."""
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        prior = normalize(rng.random(n) + 1e-3)
        n_out = int(rng.integers(2, 5))
        table = normalize_columns(rng.random((n_out, n)) + 1e-2)
        from beliefshare.inference import LikelihoodTensor, ObservationEvent

        A = LikelihoodTensor("m", ("object",), table)
        n_obs = int(rng.integers(1, 5))
        outcomes = rng.integers(0, n_out, size=n_obs)
        msgs = [
            likelihood_message(A, ObservationEvent("m", int(o)), [], "object")
            for o in outcomes
        ]
        via_vmp = vmp_update(LogMessage("object", floored_log(prior)), msgs)
        oracle = exact_bayes_oracle(
            CategoricalBelief("object", prior), [table[o] for o in outcomes]
        )
        worst = max(worst, float(np.abs(via_vmp.probs - oracle.probs).max()))
    elapsed = time.perf_counter() - t0
    report(
        "1 (oracle equivalence)",
        worst < 1e-10 and elapsed < 1.0,
        f"max error {worst:.2e} over 1000 instances in {elapsed:.2f}s",
    )


def normalize_columns(table):
    return table / table.sum(axis=0, keepdims=True)


# -- criterion 2 -------------------------------------------------------------


def simplex_grid(n_states: int, points: int = 101) -> np.ndarray:
    if n_states == 2:
        x = np.linspace(0.0, 1.0, points)
        return np.column_stack([x, 1.0 - x])
    grid = []
    for i in range(points):
        for j in range(points - i):
            grid.append((i, j, points - 1 - i - j))
    return np.asarray(grid, dtype=float) / (points - 1)


def test_criterion_2_free_energy_bound():
    """F(exact posterior) = -log evidence; every grid q scores at least that."""
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    worst_eq = 0.0
    bound_ok = True
    for k in range(200):
        n = 2 if k % 2 == 0 else 3
        prior_probs = normalize(rng.random(n) + 0.05)
        col = rng.random(n) * 0.9 + 0.05
        prior = CategoricalBelief("object", prior_probs)
        msg = LogMessage("object", np.log(col))
        posterior = exact_bayes_oracle(prior, [col])
        f_star = variational_free_energy(posterior, prior, [msg])
        evidence = float(prior_probs @ col)
        worst_eq = max(worst_eq, abs(f_star + np.log(evidence)))

        # full grid, batch-evaluated with the same decomposition
        qs = simplex_grid(n)
        f_grid = (
            xlogy(qs, qs).sum(axis=1)
            - qs @ floored_log(prior_probs)
            - qs @ msg.logits
        )
        bound_ok &= bool((f_grid >= f_star - 1e-10).all())
        # spot-check the batch against the scalar implementation
        for idx in rng.integers(0, len(qs), size=3):
            q = qs[idx]
            if q.sum() == 0:
                continue
            f_scalar = variational_free_energy(
                CategoricalBelief("object", q), prior, [msg]
            )
            assert abs(f_scalar - f_grid[idx]) < 1e-12
    elapsed = time.perf_counter() - t0
    report(
        "2 (free-energy bound)",
        worst_eq < 1e-10 and bound_ok and elapsed < 5.0,
        f"|F* + log evidence| <= {worst_eq:.2e}, grid bound {'held' if bound_ok else 'violated'}, {elapsed:.2f}s",
    )


# -- criterion 3 -------------------------------------------------------------


def test_criterion_3_efe_hand_value():
    """Two-node stay policy: information gain 0.1927 nats."""
    graph = world.WorldGraph.from_edges(2, [(0, 1)])
    model = make_agent_model(
        graph, start_node=0, object_prior=np.array([0.5, 0.5]), observe_location=False
    )
    e = expected_free_energy(model, initial_state(model), (0,))

    # brute-force enumeration over the two outcomes
    A2 = model.A_visibility.table
    loc = np.array([1.0, 0.0])
    obj = np.array([0.5, 0.5])
    joint = loc[:, None] * obj[None, :]
    brute = 0.0
    for v in range(2):
        q_o = float((A2[v] * joint).sum())
        post = (A2[v] * joint / q_o).ravel()
        prior = joint.ravel()
        brute += q_o * float(np.sum(xlogy(post, post)) - post @ floored_log(prior))
    ok = abs(e.info_gain - 0.1927) < 1e-3 and abs(e.info_gain - brute) < 1e-12
    report(
        "3 (EFE hand value)",
        ok,
        f"info gain {e.info_gain:.6f} nats (hand value 0.1927, brute force {brute:.6f})",
    )


# -- criterion 4 -------------------------------------------------------------


def test_criterion_4_echo_chamber():
    """Posterior sharing amplifies an evidence-free prior; likelihood sharing holds still.

    At the default bump (ratio 2) the squared-belief recursion saturates
    float64 at exactly 1.0 by step ~6, so strictness is asserted until the
    mass clears 0.9 (the scenario's oracle phrasing) and non-decreasing
    after; a gentle 1.05 bump keeps all ten steps strictly increasing.
    """
    t0 = time.perf_counter()
    trace = run_trial(echo_chamber_config(CommMode.POSTERIOR_SHARING)).trace
    prior_mass = bumped_prior(15, (11, 13))[[11, 13]].sum()
    ok = True
    detail = []
    for agent in range(2):
        mass = trace.object_beliefs[:, agent, [11, 13]].sum(axis=1)
        seq = np.concatenate([[prior_mass], mass])
        crossed = False
        for a, b in zip(seq, seq[1:]):
            ok &= (b > a) if not crossed else (b >= a)
            if b > 0.9:
                crossed = True
        ok &= bool(mass[-1] > 0.9)
    detail.append(f"default bump final mass {trace.object_beliefs[-1, 0, [11, 13]].sum():.6f}")

    gentle = run_trial(echo_chamber_config(CommMode.POSTERIOR_SHARING, bump_ratio=1.05)).trace
    mass = gentle.object_beliefs[:, 0, [11, 13]].sum(axis=1)
    seq = np.concatenate([[bumped_prior(15, (11, 13), 1.05)[[11, 13]].sum()], mass])
    strict_all = all(b > a for a, b in zip(seq, seq[1:])) and mass[-1] > 0.9
    ok &= strict_all
    detail.append(f"gentle bump strictly increasing all 10 steps: {strict_all}")

    fix = run_trial(echo_chamber_config(CommMode.LIKELIHOOD_SHARING)).trace
    drift = np.abs(fix.object_beliefs - bumped_prior(15, (11, 13))).max()
    ok &= bool(drift < 1e-9)
    detail.append(f"likelihood-sharing drift {drift:.2e}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    report("4 (echo chamber)", ok, "; ".join(detail) + f"; {elapsed:.2f}s")


# -- criterion 5 -------------------------------------------------------------


def test_criterion_5_self_doubt():
    """Four pinned agents seeing nothing: sharing scheme decides who wins."""
    t0 = time.perf_counter()
    prior = peaked_prior(15, 1, 0.95)
    column = np.full(15, 0.8)
    column[1] = 0.2

    post_trace = run_trial(self_doubt_config(CommMode.POSTERIOR_SHARING, scripted=True)).trace
    own = normalize(prior * column)
    oracle_post = exact_bayes_oracle(
        CategoricalBelief("object", prior), [column, own, own, own]
    ).probs
    got_post = post_trace.object_beliefs[0, :, 1]
    err_post = float(np.abs(got_post - oracle_post[1]).max())

    lik_trace = run_trial(self_doubt_config(CommMode.LIKELIHOOD_SHARING, scripted=True)).trace
    oracle_lik = exact_bayes_oracle(
        CategoricalBelief("object", prior), [column] * 4
    ).probs
    got_lik = lik_trace.object_beliefs[0, :, 1]
    err_lik = float(np.abs(got_lik - oracle_lik[1]).max())

    elapsed = time.perf_counter() - t0
    ok = (
        bool((got_post >= 0.99).all())
        and err_post < 1e-6
        and oracle_lik[1] == pytest.approx(0.069, abs=1e-3)
        and bool((lik_trace.object_beliefs[:2, :, 1] < 0.1).any(axis=0).all())
        and err_lik < 1e-6
        and elapsed < 1.0
    )
    report(
        "5 (self-doubt)",
        ok,
        f"posterior-sharing node-1 belief {got_post[0]:.6f} (oracle {oracle_post[1]:.6f}, err {err_post:.1e}); "
        f"likelihood-sharing {got_lik[0]:.6f} (oracle {oracle_lik[1]:.6f}, err {err_lik:.1e}); {elapsed:.2f}s",
    )


# -- criterion 6 -------------------------------------------------------------


def test_criterion_6_double_counting_identity():
    """Posterior payloads decompose into the sender's prior + likelihood messages."""
    configs = [
        echo_chamber_config(CommMode.POSTERIOR_SHARING),
        self_doubt_config(CommMode.POSTERIOR_SHARING, scripted=True),
        self_doubt_config(CommMode.POSTERIOR_SHARING, scripted=False),
    ]
    worst = 0.0
    checked = 0
    for config in configs:
        trace = run_trial(config).trace
        for t in range(trace.n_steps):
            for sender in range(trace.n_agents):
                decomposed = (
                    trace.object_prior_msgs[t, sender]
                    + trace.object_likelihood_sums[t, sender]
                )
                payload = trace.messages[t, sender]
                dev = np.abs(
                    (payload - payload.max()) - (decomposed - decomposed.max())
                ).max()
                worst = max(worst, float(dev))
                checked += 1
    report(
        "6 (double-counting identity)",
        worst < 1e-9 and checked > 0,
        f"max deviation {worst:.2e} over {checked} payloads across 3 scenarios",
    )


# -- criteria 7 and 8 --------------------------------------------------------


@pytest.fixture(scope="module")
def sweep_runs(tmp_path_factory):
    out_a = tmp_path_factory.mktemp("sweep_a")
    out_b = tmp_path_factory.mktemp("sweep_b")
    # Two worker processes (one on a single-CPU machine): a parallel sweep
    # writes the same bytes as a serial one, and each run takes about half
    # the wall time.
    t0 = time.perf_counter()
    code_a = cmd_sweep(str(SWEEP_CONFIG), repeats=5, out_dir=str(out_a), jobs=2)
    code_b = cmd_sweep(str(SWEEP_CONFIG), repeats=5, out_dir=str(out_b), jobs=2)
    elapsed = time.perf_counter() - t0
    assert code_a == 0 and code_b == 0
    return out_a, out_b, elapsed


def read_aggregate(out_dir) -> dict:
    rows = (out_dir / "aggregate.csv").read_text().strip().split("\n")[1:]
    table = {}
    for row in rows:
        mode, rate, stderr, n = row.split(",")
        table[mode] = (float(rate), float(stderr), int(n))
    return table


def test_criterion_7_find_rate_ordering(sweep_runs):
    """Full-sweep mean find rates, compared at the criterion's margins.

    The posterior-sharing clauses are expected to fail: with the faithful
    update rule, shared log-odds double every round, so one shared false
    "visible" draw (rate 0.2 off-object) locks both agents onto a phantom
    node; posterior-sharing find rates sit far below likelihood sharing on
    this fixture. See the test output for the measured table.
    """
    out_a, _, elapsed = sweep_runs
    agg = read_aggregate(out_a)
    lik, lik_se, n = agg["likelihood_sharing"]
    post, post_se, _ = agg["posterior_sharing"]
    none, none_se, _ = agg["none"]
    rand, rand_se, _ = agg["random"]

    def significant(diff, se_a, se_b):
        return diff > 2.0 * np.hypot(se_a, se_b)

    clauses = {
        "|likelihood - posterior| < 5 pts": abs(lik - post) < 0.05,
        "likelihood > none + 5 pts (significant)": lik - none > 0.05
        and significant(lik - none, lik_se, none_se),
        "posterior > none + 5 pts (significant)": post - none > 0.05
        and significant(post - none, post_se, none_se),
        "none > random + 5 pts (significant)": none - rand > 0.05
        and significant(none - rand, none_se, rand_se),
    }
    table = (
        f"likelihood {lik:.3f}+/-{lik_se:.3f}, posterior {post:.3f}+/-{post_se:.3f}, "
        f"none {none:.3f}+/-{none_se:.3f}, random {rand:.3f}+/-{rand_se:.3f} "
        f"(n={n}/mode, {elapsed/60:.1f} min for two runs)"
    )
    failures = [name for name, ok in clauses.items() if not ok]
    report(
        "7 (find-rate ordering)",
        not failures,
        table + ("; failed clauses: " + "; ".join(failures) if failures else ""),
    )


def test_criterion_8_determinism(sweep_runs, tmp_path):
    """Same master seed: scenario and sweep CSVs reproduce byte for byte."""
    out_a, out_b, _ = sweep_runs
    ok = True
    detail = []
    for name in ("trials.csv", "aggregate.csv"):
        same = (out_a / name).read_bytes() == (out_b / name).read_bytes()
        ok &= same
        detail.append(f"sweep {name} {'identical' if same else 'DIFFERS'}")

    for scenario, mode in (
        ("echo-chamber", "posterior_sharing"),
        ("echo-chamber", "likelihood_sharing"),
        ("self-doubt", "posterior_sharing"),
        ("self-doubt", "likelihood_sharing"),
    ):
        d1 = tmp_path / f"{scenario}-{mode}-1"
        d2 = tmp_path / f"{scenario}-{mode}-2"
        assert cmd_scenario(scenario, mode, str(d1)) == 0
        assert cmd_scenario(scenario, mode, str(d2)) == 0
        for name in sorted(os.listdir(d1)):
            if name.endswith(".csv") or name.endswith(".tsv"):
                same = (d1 / name).read_bytes() == (d2 / name).read_bytes()
                ok &= same
                if not same:
                    detail.append(f"{scenario}/{mode}/{name} DIFFERS")
    report("8 (determinism)", ok, "; ".join(detail) or "all outputs byte-identical")


def test_criterion_8_golden_sweep(sweep_runs):
    """The shipped sweep's CSVs match the digests recorded in tests/golden.json."""
    out_a, _, _ = sweep_runs
    golden.check("shipped_sweep", golden.sweep_digests(out_a))
