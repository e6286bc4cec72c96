"""Config files, CSV export, manifests, exit codes."""

import ast
import csv
import hashlib
import importlib
import io
import json
import os
import pkgutil
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beliefshare
from beliefshare import cli, world
from beliefshare.cli import (
    EXIT_CAP,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    cmd_scenario,
    cmd_sweep,
    main,
    parse_config_text,
    serialize_config,
)
from beliefshare.errors import BeliefShareError, ConfigError
from beliefshare.simulate import AgentSpec, CommMode, ScenarioConfig
from reference import format_graph_text

MINIMAL = """
comm_mode = likelihood_sharing
agent = 0 | uniform
agent = 14 | uniform
"""


class TestParseConfig:
    def test_minimal_defaults(self):
        config, modes = parse_config_text(MINIMAL)
        assert config.graph.n_nodes == 15
        assert config.horizon == 2
        assert config.steps == 20
        assert config.temperature == 1.0
        assert config.seed == 42
        assert config.comm_mode == CommMode.LIKELIHOOD_SHARING
        assert config.n_agents == 2
        assert config.object_location is None
        assert modes == ("likelihood_sharing", "posterior_sharing", "none", "random")

    def test_prior_specs(self):
        text = MINIMAL + "agent = 3 | bump:11,13\nagent = 4 | peak:1:0.9\n"
        config, _ = parse_config_text(text + "agent = 5 | bump:0,1:0\nagent = 6 | bump:2:3\n")
        bump = config.agents[2].object_prior
        assert bump[11] == pytest.approx(2 / 17)
        assert bump[0] == pytest.approx(1 / 17)
        peak = config.agents[3].object_prior
        assert peak[1] == pytest.approx(0.9)
        assert config.agents[4].object_prior[[0, 1, 2]] == pytest.approx([0, 0, 1 / 13])
        assert config.agents[5].object_prior[[2, 3]] == pytest.approx([3 / 17, 1 / 17])

    def test_explicit_prior_vector(self):
        vec = np.ones(15) / 15
        text = "comm_mode = none\nagent = 0 | " + ",".join(str(x) for x in vec) + "\n"
        config, _ = parse_config_text(text)
        assert np.allclose(config.agents[0].object_prior, vec)

    def test_unnormalized_prior_rejected(self):
        text = "comm_mode = none\nagent = 0 | " + ",".join(["0.5"] * 15) + "\n"
        with pytest.raises(ConfigError, match="agent"):
            parse_config_text(text)

    def test_missing_mode_names_field(self):
        with pytest.raises(ConfigError, match="comm_mode"):
            parse_config_text("agent = 0 | uniform\n")

    def test_bad_values_name_field(self):
        with pytest.raises(ConfigError, match="steps"):
            parse_config_text(MINIMAL + "steps = soon\n")
        with pytest.raises(ConfigError, match="observe_location"):
            parse_config_text(MINIMAL + "observe_location = maybe\n")
        with pytest.raises(ConfigError, match="object"):
            parse_config_text(MINIMAL + "object = somewhere\n")

    def test_observe_flags_off(self):
        config, _ = parse_config_text(MINIMAL + "observe_location = off\nobserve_visibility = off\n")
        assert config.observe_location is False
        assert config.observe_visibility is False

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key 'colour'"):
            parse_config_text(MINIMAL + "colour = blue\n")

    def test_round_trip(self):
        config, modes = parse_config_text(MINIMAL + "object = 7\ntemperature = 2.5\n")
        text = serialize_config(config, modes)
        again, _ = parse_config_text(text)
        assert serialize_config(again, modes) == text
        assert again.comm_mode == config.comm_mode
        assert again.config_hash() == config.config_hash()

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_round_trip_random_graph_and_agents(self, data):
        n = data.draw(st.integers(1, 8))
        # a random spanning tree keeps the graph connected; extra edges vary its shape
        edges = [(i, data.draw(st.integers(0, i - 1))) for i in range(1, n)]
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        if pairs:
            edges += data.draw(st.lists(st.sampled_from(pairs), max_size=n))
        graph = world.WorldGraph.from_edges(n, edges)
        agents = []
        for _ in range(data.draw(st.integers(1, 3))):
            weights = np.asarray(data.draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
            agents.append(AgentSpec(data.draw(st.integers(0, n - 1)), weights / weights.sum()))
        with tempfile.TemporaryDirectory() as tmp:
            fixture = Path(tmp) / "graph.txt"
            fixture.write_text(format_graph_text(graph))
            config = ScenarioConfig(
                graph=graph,
                agents=agents,
                object_location=data.draw(st.none() | st.integers(0, n - 1)),
                comm_mode=data.draw(st.sampled_from(list(CommMode))),
                temperature=data.draw(st.floats(0.01, 100.0)),
                visible_bonus=data.draw(st.floats(-10.0, 10.0)),
                graph_ref=str(fixture),
            )
            again, _ = parse_config_text(serialize_config(config))
        assert again.config_hash() == config.config_hash()
        assert np.array_equal(again.graph.adjacency, config.graph.adjacency)
        assert len(again.agents) == len(agents)
        for got, spec in zip(again.agents, agents):
            assert got.start_node == spec.start_node
            assert np.array_equal(got.object_prior, spec.object_prior)

    def test_custom_graph_file(self, tmp_path):
        graph_path = tmp_path / "triangle.txt"
        graph_path.write_text("0: 1,2\n1: 0,2\n2: 0,1\n")
        text = f"graph = {graph_path.name}\ncomm_mode = none\nagent = 0 | uniform\n"
        config, _ = parse_config_text(text, base_dir=str(tmp_path))
        assert config.graph.n_nodes == 3
        assert config.graph.adjacency.all()


def read_csv(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    assert b"\r" not in raw
    lines = raw.decode("utf-8").strip().split("\n")
    return [line.split(",") for line in lines]


def run_main(argv, capsys):
    """Exit code and stderr lines of one CLI invocation."""
    code = main(argv)
    return code, capsys.readouterr().err.strip().splitlines()


class TestCmdScenario:
    def test_unknown_scenario_or_mode(self, tmp_path, capsys):
        code, err = run_main(["scenario", "nonsense", "--mode", "none", "--out", str(tmp_path)], capsys)
        assert code == EXIT_USAGE
        assert err == [
            "usage error: argument name: invalid choice: 'nonsense' (choose from 'echo-chamber', 'self-doubt')"
        ]
        code, err = run_main(["scenario", "echo-chamber", "--mode", "telepathy", "--out", str(tmp_path)], capsys)
        assert code == EXIT_USAGE
        assert err == [
            "usage error: argument --mode: invalid choice: 'telepathy' "
            "(choose from 'none', 'posterior_sharing', 'likelihood_sharing')"
        ]

    def test_unwritable_out_dir(self, tmp_path, capsys):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file, not a directory")
        code, err = run_main(["scenario", "echo-chamber", "--mode", "none", "--out", str(blocked)], capsys)
        assert code == EXIT_IO
        assert len(err) == 1 and err[0].startswith("cannot write outputs:")

    def test_echo_chamber_outputs(self, tmp_path):
        out = tmp_path / "echo"
        assert cmd_scenario("echo-chamber", "posterior_sharing", str(out)) == EXIT_OK
        rows = read_csv(out / "trace.csv")
        assert rows[0] == ["t", "agent_id", "factor", "node", "probability"]
        assert len(rows) - 1 == 10 * 2 * 15  # steps x agents x nodes
        matrix = np.loadtxt(out / "heatmap_agent0.tsv")
        assert matrix.shape == (15, 10)
        assert matrix[[11, 13], -1].sum() > 0.9

        messages = read_csv(out / "messages.csv")
        assert messages[0] == ["t", "sender", "receiver", "mode", "node", "logit"]
        assert len(messages) - 1 == 10 * 2 * 15  # each step, both directions

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tool_version"] == cli.__version__
        assert manifest["master_seed"] == 42
        # scenario defaults are echoed back in resolved form
        assert "steps = 10" in manifest["resolved_config"]
        assert "movement = frozen" in manifest["resolved_config"]
        names = {f["name"] for f in manifest["files"]}
        assert names == {"trace.csv", "heatmap_agent0.tsv", "heatmap_agent1.tsv", "messages.csv"}
        for entry in manifest["files"]:
            digest = hashlib.sha256((out / entry["name"]).read_bytes()).hexdigest()
            assert digest == entry["sha256"]

    def test_echo_chamber_likelihood_matrix_constant(self, tmp_path):
        out = tmp_path / "echo_fix"
        assert cmd_scenario("echo-chamber", "likelihood_sharing", str(out)) == EXIT_OK
        matrix = np.loadtxt(out / "heatmap_agent0.tsv")
        assert np.abs(matrix - matrix[:, [0]]).max() < 1e-9

    def test_self_doubt_node_one_row_drops(self, tmp_path):
        out = tmp_path / "doubt"
        assert cmd_scenario("self-doubt", "likelihood_sharing", str(out)) == EXIT_OK
        matrix = np.loadtxt(out / "heatmap_agent0.tsv")
        assert matrix.shape[0] == 15
        # agents start certain it's at node 1; evidence must erode that row
        assert matrix[1, -1] < matrix[1, 0]

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert cmd_scenario("self-doubt", "posterior_sharing", str(a), seed=7) == EXIT_OK
        assert cmd_scenario("self-doubt", "posterior_sharing", str(b), seed=7) == EXIT_OK
        for name in ("trace.csv", "messages.csv", "heatmap_agent0.tsv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_float_format_nine_significant_digits(self, tmp_path):
        out = tmp_path / "fmt"
        cmd_scenario("echo-chamber", "posterior_sharing", str(out))
        for row in read_csv(out / "trace.csv")[1:50]:
            mantissa = row[4].replace(".", "").replace("-", "").lstrip("0")
            mantissa = mantissa.split("e")[0]
            assert len(mantissa) <= 9

    @pytest.mark.parametrize("delimiter", [",", "\t"])
    def test_row_writer_matches_csv_dialect(self, tmp_path, delimiter):
        # _write_rows joins fields unquoted; for every kind of field the exports hold, that is
        # byte for byte what csv.writer writes
        header = ["trial_id", "mode", "agent_starts", "object_location", "seed", "found", "steps_to_find"]
        rows = [
            [0, "likelihood_sharing", "3;7", 7, 2**70, "true", 4],
            [1, "none", "0;14", 2, 5, "false", ""],
            ["posterior_sharing", *map(cli._fmt, (1e-16, -0.0, float("inf"), float("nan"))), 3],
        ]
        expected = io.StringIO()
        csv.writer(expected, delimiter=delimiter, lineterminator="\n").writerows([header, *rows])
        path = cli._write_rows(str(tmp_path), "rows.csv", header, iter(rows), delimiter)
        assert Path(path).read_bytes() == expected.getvalue().encode("utf-8")
        assert "1e-16" in expected.getvalue() and '"' not in expected.getvalue()

    @pytest.mark.parametrize("per_write", [1, 2, 3, 1000])
    def test_row_writer_chunks_write_the_same_bytes(self, tmp_path, monkeypatch, per_write):
        # _write_rows joins and writes ROWS_PER_WRITE rows at a time; the chunk size never shows
        rows = [[t, "none", cli._fmt(t / 7)] for t in range(7)]
        whole = cli._write_rows(str(tmp_path), "whole.csv", ["t", "mode", "p"], iter(rows))
        writes = []

        def counting_open(*args, **kwargs):
            fh = open(*args, **kwargs)
            write = fh.write
            fh.write = lambda text: writes.append(text) or write(text)
            return fh

        monkeypatch.setattr(cli, "ROWS_PER_WRITE", per_write)
        monkeypatch.setattr(cli, "open", counting_open, raising=False)
        chunked = cli._write_rows(str(tmp_path), "chunked.csv", ["t", "mode", "p"], iter(rows))
        assert Path(chunked).read_bytes() == Path(whole).read_bytes()
        assert len(writes) == -(-8 // per_write)  # the header and 7 rows, per_write rows a write
        cli._write_rows(str(tmp_path), "empty.tsv", None, iter([]), "\t")
        assert (tmp_path / "empty.tsv").read_bytes() == b""

    def test_scenario_files_are_one_write(self, tmp_path):
        # every scenario file fits one chunk; self-doubt's messages.csv is the longest
        longest = 0
        for name in cli.SCENARIO_BUILDERS:
            for mode in CommMode:
                out = tmp_path / f"{name}-{mode.value}"
                cmd_scenario(name, mode.value, str(out))
                for path in [*out.glob("*.csv"), *out.glob("*.tsv")]:
                    longest = max(longest, path.read_bytes().count(b"\n"))
        assert longest == 15 * 4 * 3 * 15 + 1  # steps x senders x receivers x nodes, and the header
        assert longest <= cli.ROWS_PER_WRITE


SWEEP_CFG = """
comm_mode = none
steps = 4
temperature = 4.0
agent = 0 | uniform
graph = tiny.txt
sweep_modes = likelihood_sharing,none,random
"""


class TestCmdSweep:
    def write_inputs(self, tmp_path):
        (tmp_path / "tiny.txt").write_text("0: 1\n1: 0,2\n2: 1\n")
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CFG)
        return cfg

    def test_missing_config(self, tmp_path, capsys):
        argv = ["sweep", "--config", str(tmp_path / "no.cfg"), "--repeats", "2", "--out", str(tmp_path / "out")]
        code, err = run_main(argv, capsys)
        assert code == EXIT_IO
        assert len(err) == 1 and err[0].startswith("cannot read config:") and "no.cfg" in err[0]

    def test_outputs_and_counts(self, tmp_path, capsys):
        cfg = self.write_inputs(tmp_path)
        out = tmp_path / "out"
        assert cmd_sweep(str(cfg), 2, str(out)) == EXIT_OK
        rows = read_csv(out / "trials.csv")
        assert rows[0] == [
            "trial_id", "mode", "agent_starts", "object_location",
            "seed", "found", "steps_to_find",
        ]
        # 3 starts x 3 objects x 2 repeats x 3 modes
        assert len(rows) - 1 == 3 * 3 * 2 * 3
        agg = read_csv(out / "aggregate.csv")
        assert agg[0] == ["mode", "find_rate", "stderr", "n_trials"]
        assert {r[0] for r in agg[1:]} == {"likelihood_sharing", "none", "random"}
        assert all(r[3] == "18" for r in agg[1:])
        # trial ids run mode by mode; the k-th trial of every mode shares starts, object and seed
        trials = rows[1:]
        assert [int(r[0]) for r in trials] == list(range(len(trials)))
        blocks = [trials[m * 18 : (m + 1) * 18] for m in range(3)]
        assert [{r[1] for r in block} for block in blocks] == [{"likelihood_sharing"}, {"none"}, {"random"}]
        for block in blocks[1:]:
            assert [r[2:5] for r in block] == [r[2:5] for r in blocks[0]]
        assert "find rate" in capsys.readouterr().out

    def test_rerun_byte_identical(self, tmp_path):
        cfg = self.write_inputs(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert cmd_sweep(str(cfg), 2, str(a), seed=3) == EXIT_OK
        assert cmd_sweep(str(cfg), 2, str(b), seed=3) == EXIT_OK
        assert (a / "trials.csv").read_bytes() == (b / "trials.csv").read_bytes()
        assert (a / "aggregate.csv").read_bytes() == (b / "aggregate.csv").read_bytes()

    def test_cap_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "big.cfg"
        cfg.write_text(
            "comm_mode = none\nagent = 0 | uniform\nagent = 1 | uniform\nagent = 2 | uniform\n"
        )
        argv = ["sweep", "--config", str(cfg), "--repeats", "5", "--out", str(tmp_path / "out")]
        code, err = run_main(argv, capsys)
        assert code == EXIT_CAP
        assert err == ["resource cap: trials: 1012500 is over the cap of 200000"]

    def test_bad_config_usage_exit(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("comm_mode = wrong\nagent = 0 | uniform\n")
        argv = ["sweep", "--config", str(cfg), "--repeats", "1", "--out", str(tmp_path / "out")]
        code, err = run_main(argv, capsys)
        assert code == EXIT_USAGE
        assert len(err) == 1 and err[0].startswith("config error: comm_mode (line 1): expected")

    def test_errors_raise_from_commands(self, tmp_path, capsys):
        # a direct call raises; main alone turns the error into an exit code and one stderr line
        cfg = self.write_inputs(tmp_path)
        out = str(tmp_path / "out")
        with pytest.raises(ConfigError, match="seed"):
            cmd_scenario("echo-chamber", "none", out, seed=-1)
        with pytest.raises(ConfigError, match="seed"):
            cmd_sweep(str(cfg), 1, out, seed=-1)
        for argv in (
            ["scenario", "echo-chamber", "--mode", "none", "--out", out, "--seed", "-1"],
            ["sweep", "--config", str(cfg), "--repeats", "1", "--out", out, "--seed", "-1"],
        ):
            code, err = run_main(argv, capsys)
            assert code == EXIT_USAGE
            assert err == ["config error: seed: must be >= 0, got -1"]
        assert not os.path.exists(out)


class TestSweepInputs:
    """Sweep configs: every key takes effect or is rejected, bad inputs end in one line."""

    def sweep(self, tmp_path, capsys, extra="", name="out", args=(), base=SWEEP_CFG):
        (tmp_path / "tiny.txt").write_text("0: 1\n1: 0,2\n2: 1\n")
        # a key set twice is rejected: a key that ``extra`` sets is commented out of ``base``,
        # which keeps every line number
        reset = {line.partition("=")[0].strip() for line in extra.splitlines()} - {"agent"}
        base = "".join(
            f"# {line}" if line.partition("=")[0].strip() in reset else line for line in base.splitlines(True)
        )
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(base + extra)
        out = tmp_path / name
        argv = ["sweep", "--config", str(cfg), "--repeats", "2", "--out", str(out), *args]
        return (*run_main(argv, capsys), out)

    def test_visible_bonus_changes_trials(self, tmp_path, capsys):
        code, _, base = self.sweep(tmp_path, capsys, name="base")
        assert code == EXIT_OK
        code, _, flat = self.sweep(tmp_path, capsys, "visible_bonus = 0\n", name="flat")
        assert code == EXIT_OK
        assert (base / "trials.csv").read_bytes() != (flat / "trials.csv").read_bytes()

    def test_seed_override_enters_config_hash(self, tmp_path, capsys):
        hashes = []
        for seed in ("1", "2"):
            code, _, out = self.sweep(tmp_path, capsys, name=seed, args=("--seed", seed))
            assert code == EXIT_OK
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["master_seed"] == int(seed)
            assert f"seed = {seed}" in manifest["resolved_config"]
            hashes.append(manifest["config_hash"])
        assert hashes[0] != hashes[1]

    @pytest.mark.parametrize(
        "extra, key", [("object = 1\n", "object"), ("action_policy = random\n", "action_policy")]
    )
    def test_sweep_rejects_key(self, tmp_path, capsys, extra, key):
        code, err, _ = self.sweep(tmp_path, capsys, extra)
        assert code == EXIT_USAGE
        assert len(err) == 1 and f"config error: {key}:" in err[0]

    @pytest.mark.parametrize(
        "extra, key",
        [
            ("agent = 1 | nan,0.5,0.5\n", "agents[1].object_prior"),
            ("temperature = nan\n", "temperature"),
            ("temperature = inf\n", "temperature"),
            ("visible_bonus = nan\n", "visible_bonus"),
            # finite, but temperature * G past float range made every policy probability NaN
            ("temperature = 1e308\n", "temperature"),
            ("temperature = 1000001\n", "temperature"),
            ("visible_bonus = 1e308\n", "visible_bonus"),
            ("visible_bonus = -1000001\n", "visible_bonus"),
        ],
    )
    def test_non_finite_value_rejected(self, tmp_path, capsys, extra, key):
        code, err, out = self.sweep(tmp_path, capsys, extra)
        assert code == EXIT_USAGE
        assert len(err) == 1 and f"config error: {key}:" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra, words",
        [
            ("temprature = 9\n", "unknown config key 'temprature'"),
            ("agent = 0 | peak:99\n", "agent (line 8): node 99 out of range"),
            ("agent = 0 | bump:1,99\n", "agent (line 8): node 99 out of range"),
            ("agent = 0 | peak:-1\n", "agent (line 8): node -1 out of range"),
            ("graph = one.txt\nagent = 0 | peak:0\n", "agent (line 9): 'peak' takes one node"),
            ("sweep_modes = none,telepathy\n", "sweep_modes (line 8): expected"),
            ("sweep_modes = none,none\n", "sweep_modes: each mode may be listed once"),
            ("sweep_modes =\n", "sweep_modes: need at least one mode"),
            ("agent = 0 | bump:1,x\n", "agent (line 8): cannot parse prior spec"),
            ("agent = 0 | 0.5,x,0.5\n", "agent (line 8): cannot parse prior spec"),
            ("agent = 0 | 0.5,0.5\n", "agent (line 8): prior has 2 entries, world has 3"),
            ("agent = 0 | bump:1:inf\n", "agent (line 8): a bump weight must be >= 0"),
            ("agent = 0 | bump:1:-2\n", "agent (line 8): a bump weight must be >= 0"),
            ("agent = 0 | bump:0,1,2:0\n", "agent (line 8): a bump weight must be >= 0"),
            ("agent = 0 | bump:1,2:1e308\n", "agent (line 8): a bump weight must be >= 0"),
            ("agent = 0 | bump::7\n", "agent (line 8): 'bump' names no node"),
            ("agent = 0 | bump:\n", "agent (line 8): 'bump' names no node"),
            ("agent = x | uniform\n", "agent (line 8): expected"),
            ("agent = 0 uniform\n", "agent (line 8): expected"),
            ("agent = 7 | uniform\n", "agents[1].start_node: 7 out of range"),
            ("steps 4\n", "line 8: expected 'key = value'"),
            ("temperature = abc\n", "temperature (line 8): expected a number"),
            ("seed = -1\n", "seed: must be >= 0"),
            (None, "agent: need at least one"),
        ],
    )
    def test_bad_line_rejected(self, tmp_path, capsys, extra, words):
        (tmp_path / "one.txt").write_text("0:\n")
        if extra is None:  # the sweep config without its agent line
            code, err, _ = self.sweep(tmp_path, capsys, base=SWEEP_CFG.replace("agent = 0 | uniform\n", ""))
        else:
            code, err, _ = self.sweep(tmp_path, capsys, extra)
        assert code == EXIT_USAGE
        assert len(err) == 1 and err[0].startswith("config error:") and words in err[0]

    def test_repeated_key_rejected(self, tmp_path, capsys):
        # a second 'steps' line once silently replaced the first; 'agent' lines stay repeatable
        cfg = tmp_path / "twice.cfg"
        cfg.write_text(SWEEP_CFG.replace("graph = tiny.txt\n", "") + "agent = 1 | uniform\nsteps = 3\n")
        out = tmp_path / "out"
        code, err = run_main(["sweep", "--config", str(cfg), "--repeats", "1", "--out", str(out)], capsys)
        assert code == EXIT_USAGE
        assert err == ["config error: steps (line 8): already set on line 3"]
        assert not out.exists()

    def test_graph_fixture_node_cap(self, tmp_path, capsys):
        # a 5001 x 5001 adjacency matrix would take 25 MB
        (tmp_path / "huge.txt").write_text("5000: 0\n")
        tracemalloc.start()
        try:
            code, err, _ = self.sweep(tmp_path, capsys, "graph = huge.txt\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_CAP
        assert err == ["resource cap: nodes: 5001 is over the cap of 1000"]
        assert peak < 1_000_000

    @pytest.mark.parametrize(
        "fixture, line", [("0: 1\n1: 0\n{big}: 0\n", 3), ("0: {big}\n1: 0\n", 1)]
    )
    def test_fixture_number_too_long_to_read(self, tmp_path, capsys, fixture, line):
        # 5,000 digits is past the 4,300 that int() reads
        (tmp_path / "long.txt").write_text(fixture.format(big="9" * 5000))
        code, err, out = self.sweep(tmp_path, capsys, "graph = long.txt\n")
        assert code == EXIT_CAP
        assert err == [f"resource cap: graph fixture line {line}: a node number is over the cap of 1000"]
        assert not out.exists()

    def test_steps_cap(self, tmp_path, capsys):
        # an agent that cannot see the object would walk all 10**9 steps of every trial
        (tmp_path / "two.txt").write_text("0: 1\n1: 0\n")
        extra = "graph = two.txt\nsteps = 1000000000\nobserve_visibility = off\n"
        code, err, out = self.sweep(tmp_path, capsys, extra)
        assert code == EXIT_CAP
        assert len(err) == 1 and err[0] == "resource cap: steps: 1000000000 is over the cap of 1000"
        assert not out.exists()

    def test_disconnected_graph_fixture(self, tmp_path, capsys):
        # two nodes and no edge: the object on node 1 is out of reach from node 0
        (tmp_path / "split.txt").write_text("0:\n1:\n")
        base = "graph = split.txt\ncomm_mode = none\nsteps = 2\nagent = 0 | uniform\nsweep_modes = none\n"
        code, err, out = self.sweep(tmp_path, capsys, base=base)
        assert code == EXIT_USAGE
        assert err == ["config error: graph: node 1 cannot be reached from node 0"]
        assert not out.exists()

    def test_missing_graph_fixture_is_io_error(self, tmp_path, capsys):
        code, err, _ = self.sweep(tmp_path, capsys, "graph = missing.txt\n")
        assert code == EXIT_IO
        assert len(err) == 1 and "missing.txt" in err[0]

    def test_malformed_graph_fixture_names_line(self, tmp_path, capsys):
        (tmp_path / "bad.txt").write_text("0: 1\nx: 0\n")
        code, err, _ = self.sweep(tmp_path, capsys, "graph = bad.txt\n")
        assert code == EXIT_USAGE
        assert len(err) == 1 and "line 2" in err[0]

    def test_non_decimal_digit_in_fixture_names_line(self, tmp_path, capsys):
        # "²" is a digit to str.isdigit but not a decimal int() can read
        (tmp_path / "bad.txt").write_text("0: 1\n1: \u00b2\n", encoding="utf-8")
        code, err, out = self.sweep(tmp_path, capsys, "graph = bad.txt\n")
        assert code == EXIT_USAGE
        assert len(err) == 1 and err[0].startswith("config error: graph fixture line 2:")
        assert not out.exists()

    @pytest.mark.parametrize(
        "cfg_head, fixture_head, what",
        [(b"# caf\xe9\n", b"", "config"), (b"", b"# \xff\n", "graph fixture")],
    )
    def test_file_not_utf8_is_io_error(self, tmp_path, capsys, cfg_head, fixture_head, what):
        # 0xE9 (Latin-1 "é") before a newline and a lone 0xFF are not UTF-8
        (tmp_path / "bad.txt").write_bytes(fixture_head + b"0: 1\n1: 0\n")
        cfg = tmp_path / "sweep.cfg"
        cfg.write_bytes(cfg_head + SWEEP_CFG.replace("tiny.txt", "bad.txt").encode())
        out = tmp_path / "out"
        code, err = run_main(["sweep", "--config", str(cfg), "--repeats", "1", "--out", str(out)], capsys)
        assert code == EXIT_IO
        assert len(err) == 1 and err[0].startswith(f"cannot read {what}:")
        assert not out.exists()

    def test_policy_cap_exit(self, tmp_path, capsys):
        # 15**4 policies on the shipped grid; one-step trials never plan
        cfg = tmp_path / "deep.cfg"
        cfg.write_text(
            "comm_mode = none\nsteps = 1\nhorizon = 4\nagent = 0 | uniform\nsweep_modes = none\n"
        )
        argv = ["sweep", "--config", str(cfg), "--repeats", "1", "--out", str(tmp_path / "out")]
        code, err = run_main(argv, capsys)
        assert code == EXIT_CAP
        assert len(err) == 1 and "policies" in err[0]

    @pytest.mark.parametrize(
        "extra, words",
        [
            ("horizon = 4000\n", "horizon: 4000 is over the cap of 13"),
            ("horizon = 1000000000\n", "horizon: 1000000000 is over the cap of 13"),
            # one node: the policy count n**horizon is 1 whatever the horizon
            (
                "graph = one.txt\nobserve_visibility = off\nsteps = 2\nhorizon = 1000000000\n",
                "horizon: 1000000000 is over the cap of 13",
            ),
            ("agent = 0 | uniform\n" * 4000, "agents: 4001 is over the cap of 64"),
        ],
    )
    def test_huge_counts_capped_without_building(self, tmp_path, capsys, extra, words):
        # each exponent is capped before any count is built: no 4,000-digit power, no 10**9-digit one
        (tmp_path / "one.txt").write_text("0:\n")
        tracemalloc.start()
        try:
            code, err, out = self.sweep(tmp_path, capsys, extra)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_CAP
        assert err == [f"resource cap: {words}"]
        assert not out.exists()
        assert peak < 4_000_000

    @pytest.mark.parametrize("lines", [500, 2000])
    def test_agent_cap_on_one_node(self, tmp_path, capsys, lines):
        # one node: the trial cap n**(agents + 1) is 1 whatever the agent count
        (tmp_path / "one.txt").write_text("0:\n")
        extra = "graph = one.txt\nobserve_visibility = off\n" + "agent = 0 | uniform\n" * lines
        code, err, out = self.sweep(tmp_path, capsys, extra)
        assert code == EXIT_CAP
        assert err == [f"resource cap: agents: {lines + 1} is over the cap of 64"]
        assert not out.exists()

    def test_negative_seed_flag_rejected(self, tmp_path, capsys):
        code, err, _ = self.sweep(tmp_path, capsys, args=("--seed", "-1"))
        assert code == EXIT_USAGE
        assert len(err) == 1 and "seed: must be >= 0" in err[0]

    @pytest.mark.parametrize("jobs", ["-5", "0"])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, jobs):
        code, err, out = self.sweep(tmp_path, capsys, args=("--jobs", jobs))
        assert code == EXIT_USAGE
        assert len(err) == 1 and f"config error: jobs: must be >= 1, got {jobs}" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize(
        "fixture, words", [("", "graph fixture is empty"), ("0: 5\n", "neighbour 5 of node 0 out of range")]
    )
    def test_invalid_graph_fixture(self, tmp_path, capsys, fixture, words):
        (tmp_path / "bad.txt").write_text(fixture)
        code, err, _ = self.sweep(tmp_path, capsys, "graph = bad.txt\n")
        assert code == EXIT_USAGE
        assert len(err) == 1 and err[0] == f"config error: {words}"

    def test_out_is_a_file(self, tmp_path, capsys):
        (tmp_path / "taken").write_text("a file, not a directory")
        code, err, _ = self.sweep(tmp_path, capsys, name="taken")
        assert code == EXIT_IO
        assert len(err) == 1 and err[0].startswith("cannot write outputs:")


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def steps_copy(config, steps, tmp_path):
    """A copy in tmp_path of a shipped config, set to run ``steps`` steps."""
    text, count = re.subn(r"(?m)^steps = \d+$", f"steps = {steps}", config.read_text(encoding="utf-8"))
    assert count == 1, config.name
    copy = tmp_path / config.name
    copy.write_text(text, encoding="utf-8")
    return copy


class TestShippedConfigs:
    def test_every_config_runs(self, tmp_path, capsys):
        # a shipped config cannot rot: each one sweeps, on a one-step copy
        configs = sorted(CONFIGS.glob("*.cfg"))
        assert len(configs) >= 2
        for config in configs:
            out = tmp_path / f"{config.stem}_out"
            argv = ["sweep", "--config", str(steps_copy(config, 1, tmp_path)), "--repeats", "1", "--out", str(out)]
            assert run_main(argv, capsys) == (EXIT_OK, []), config.name

    def test_self_doubt_sweep_pairs_with_find_rate_sweep(self, tmp_path):
        trials = []
        for name in ("find_rate_sweep.cfg", "self_doubt_sweep.cfg"):
            out = tmp_path / f"{name}_out"
            assert cmd_sweep(str(steps_copy(CONFIGS / name, 3, tmp_path)), 1, str(out)) == EXIT_OK
            trials.append(read_csv(out / "trials.csv")[1:])
        uniform, peaked = trials
        # row by row the same trial id, mode, starts, object and seed
        assert [row[:5] for row in uniform] == [row[:5] for row in peaked]
        # the random walk reads no prior, so its trials end alike; nothing here gates the planned modes
        random = [k for k, row in enumerate(uniform) if row[1] == "random"]
        assert len(random) == len(uniform) // 4
        assert [uniform[k] for k in random] == [peaked[k] for k in random]


class TestMain:
    def test_import_leaves_scipy_unloaded(self):
        # SciPy is a test-only dependency: the package must not import it
        src = Path(cli.__file__).resolve().parents[1]
        code = "import beliefshare.cli, sys; assert 'scipy' not in sys.modules"
        env = {**os.environ, "PYTHONPATH": str(src)}
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)

    def test_import_leaves_process_pool_unloaded(self):
        # only a sweep at --jobs 2 or more loads the pool's modules, and logging with them
        src = Path(cli.__file__).resolve().parents[1]
        unloaded = ("multiprocessing", "concurrent.futures", "logging")
        code = f"import beliefshare.cli, sys; assert not set({unloaded}) & set(sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(src)}
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)

    def test_version_matches_pyproject(self):
        # a regex, not tomllib: Python 3.10, which the package supports, has no tomllib
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        assert re.search(r'(?m)^version = "([^"]+)"$', text).group(1) == beliefshare.__version__

    def test_usage_error(self, capsys):
        assert main([]) == EXIT_USAGE
        assert main(["scenario"]) == EXIT_USAGE
        capsys.readouterr()

    def test_scenario_through_main(self, tmp_path):
        code = main(
            ["scenario", "echo-chamber", "--mode", "likelihood_sharing", "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_OK

    def test_negative_scenario_seed_rejected(self, tmp_path, capsys):
        argv = ["scenario", "echo-chamber", "--mode", "none", "--out", str(tmp_path / "o"), "--seed", "-1"]
        code, err = run_main(argv, capsys)
        assert code == EXIT_USAGE
        assert len(err) == 1 and "seed: must be >= 0" in err[0]

    def test_sweep_jobs_through_main(self, tmp_path, capsys):
        (tmp_path / "tiny.txt").write_text("0: 1\n1: 0\n")
        cfg = tmp_path / "s.cfg"
        cfg.write_text("comm_mode = none\nsteps = 3\nagent = 0 | uniform\ngraph = tiny.txt\nsweep_modes = none\n")
        argv = ["sweep", "--config", str(cfg), "--repeats", "1", "--out", str(tmp_path / "o"), "--jobs", "2"]
        assert main(argv) == EXIT_OK
        capsys.readouterr()


class TestErrorKinds:
    """main maps each error to its exit code by kind, so every kind src raises needs a row of its own."""

    SRC = Path(cli.__file__).resolve().parent

    def test_every_src_error_kind_has_an_exit_row(self):
        for module in pkgutil.iter_modules([str(self.SRC)]):
            importlib.import_module(f"beliefshare.{module.name}")
        kinds, stack = [], [BeliefShareError]
        while stack:
            subclasses = stack.pop().__subclasses__()
            kinds += subclasses
            stack += subclasses
        # the reference's error kinds subclass the same base but live with the tests
        src_kinds = [kind for kind in kinds if kind.__module__.startswith("beliefshare.")]
        assert src_kinds
        unmapped = [k for k in src_kinds if not any(issubclass(k, row[0]) for row in cli.ERROR_EXITS)]
        assert not unmapped

    def test_no_src_raise_names_the_base(self):
        raised = []
        for path in sorted(self.SRC.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    raised.append(getattr(exc, "id", getattr(exc, "attr", None)))
        assert raised and "BeliefShareError" not in raised
