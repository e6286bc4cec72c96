"""The suite's own pytest settings: with every warning an error, a failing property test still
gets its failure report, and the tests after it still run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

THROWAWAY_TESTS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_runs_after_the_failure():
    pass
"""


def test_failing_property_test_is_reported(tmp_path):
    (tmp_path / "test_throwaway.py").write_text(THROWAWAY_TESTS)
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
            "-p", "no:cacheprovider", "test_throwaway.py",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output
    assert "Falsifying example: test_fails(" in output
    assert "1 failed, 1 passed" in output
