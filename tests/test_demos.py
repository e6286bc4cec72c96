"""The demo scripts run end to end against the public API."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script", ["01_single_agent_search.py", "02_echo_chamber.py", "03_self_doubt.py"]
)
def test_demo_exits_cleanly(script):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_find_rate_demo_imports():
    # loading the demo without running it still fails on a deleted public name
    path = ROOT / "demos" / "04_find_rate_comparison.py"
    spec = importlib.util.spec_from_file_location("find_rate_demo", path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    assert callable(demo.main)
