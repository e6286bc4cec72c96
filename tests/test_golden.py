"""Output bytes against tests/golden.json; see golden.py for what it holds and how to record it.

The shipped sweep's digests are checked in test_acceptance.py, on the
sweep criterion 7 already runs.
"""

import golden


def test_scenario_exports(tmp_path):
    golden.check("scenarios", golden.scenario_digests(tmp_path))


def test_benchmark_sweep(tmp_path):
    golden.check("bench_sweep", golden.bench_sweep_digests(tmp_path))


def test_demo_output():
    golden.check("demos", golden.demo_digests())
