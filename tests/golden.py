"""Golden digests: the output bytes every refactor must keep.

``golden.json`` holds sha256 digests of

- every file of both scenario exports under the three channels at seeds
  1-3, each ``manifest.json`` without its ``created_at``;
- ``trials.csv`` and ``aggregate.csv`` of the benchmark's sweep inputs
  (the shipped config at 10 steps, ``--repeats 1 --seed 1 --jobs 1``);
- the same two files of the shipped 67,500-trial sweep at two workers;
- the standard output of each demo;

and the Python and numpy versions it was recorded under. A change that
means to alter output bytes records the file again:

    PYTHONPATH=src python tests/golden.py

which runs the shipped sweep too (about 10 s at two workers on a 2-core machine).
"""

import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from beliefshare.cli import cmd_scenario, cmd_sweep

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden.json")
SWEEP_CONFIG = ROOT / "configs" / "find_rate_sweep.cfg"
SWEEP_FILES = ("trials.csv", "aggregate.csv")
SCENARIOS = ("echo-chamber", "self-doubt")
CHANNELS = ("posterior_sharing", "likelihood_sharing", "none")
SEEDS = (1, 2, 3)
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("[0-9][0-9]_*.py"))


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_digest(path: Path) -> str:
    """Digest of a file's bytes; a manifest's without its ``created_at``."""
    if path.name != "manifest.json":
        return sha256(path.read_bytes())
    manifest = json.loads(path.read_text(encoding="utf-8"))
    del manifest["created_at"]
    return sha256(json.dumps(manifest, sort_keys=True).encode())


def sweep_digests(out_dir) -> dict:
    return {name: file_digest(Path(out_dir) / name) for name in SWEEP_FILES}


def scenario_digests(tmp: Path) -> dict:
    digests = {}
    for name in SCENARIOS:
        for mode in CHANNELS:
            for seed in SEEDS:
                out = tmp / name / mode / str(seed)
                assert cmd_scenario(name, mode, str(out), seed) == 0
                for path in sorted(out.iterdir()):
                    digests[f"{name}/{mode}/{seed}/{path.name}"] = file_digest(path)
    return digests


def bench_sweep_digests(tmp: Path) -> dict:
    """The shipped sweep config at 10 steps, one repeat, master seed 1, one process."""
    text, count = re.subn(r"(?m)^steps = \d+$", "steps = 10", SWEEP_CONFIG.read_text(encoding="utf-8"))
    assert count == 1, "the shipped sweep config has no single 'steps' line"
    config = tmp / "bench_sweep.cfg"
    config.write_text(text, encoding="utf-8")
    assert cmd_sweep(str(config), repeats=1, out_dir=str(tmp / "bench_sweep"), seed=1, jobs=1) == 0
    return sweep_digests(tmp / "bench_sweep")


def demo_digests() -> dict:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    digests = {}
    for script in DEMOS:
        proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)], env=env,
                              capture_output=True, timeout=120, check=True)
        digests[script] = sha256(proc.stdout)
    return digests


def check(section: str, digests: dict):
    """Assert that ``digests`` equal the recorded section, naming both versions if they differ."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    recorded = golden[section]
    differ = sorted(k for k in recorded.keys() | digests.keys() if recorded.get(k) != digests.get(k))
    message = f"{section}: {len(differ)} digests differ from {GOLDEN.name}: {differ[:5]}"
    if differ and golden["versions"] != versions():
        message += f"; recorded under {golden['versions']}, running under {versions()}"
    assert not differ, message


def record():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        shipped = tmp / "shipped_sweep"
        assert cmd_sweep(str(SWEEP_CONFIG), repeats=5, out_dir=str(shipped), jobs=2) == 0
        golden = {
            "versions": versions(),
            "scenarios": scenario_digests(tmp),
            "bench_sweep": bench_sweep_digests(tmp),
            "shipped_sweep": sweep_digests(shipped),
            "demos": demo_digests(),
        }
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
