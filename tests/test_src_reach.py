"""Every function in ``src`` runs when the program is used: the package holds no code that only
the tests reach. The one-agent reference the tests check the kernel against lives in
``tests/reference.py``."""

import ast
import importlib.util
import sys
from pathlib import Path

from beliefshare import cli
from beliefshare.simulate import CommMode

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(cli.__file__).resolve().parent

# a sweep config that sets every key, over a 3-node path fixture, with both prior kinds
SWEEP_CONFIG = """
graph = path3.txt
comm_mode = none
object = absent
horizon = 2
steps = 2
temperature = 4.0
seed = 3
observe_location = on
observe_visibility = on
movement = free
action_policy = plan
visible_bonus = 2.0
sweep_modes = likelihood_sharing, posterior_sharing, none, random
agent = 0 | bump:1
agent = 2 | peak:1
"""


def defined_functions() -> dict:
    """(file, first line) -> name of every top-level function and method in src.

    A code object's first line is its first decorator's, if it has one.
    """
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            for fn in node.body if isinstance(node, ast.ClassDef) else [node]:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([fn.lineno, *(d.lineno for d in fn.decorator_list)])
                    found[(str(path), first)] = f"{path.name}: {fn.name}"
    return found


def use_the_program(tmp_path):
    """A sweep, every scenario under every mode, demo 01, and one rejected command line."""
    (tmp_path / "path3.txt").write_text("0: 1\n1: 2\n2:\n")
    config = tmp_path / "sweep.cfg"
    config.write_text(SWEEP_CONFIG)
    argv = ["sweep", "--config", str(config), "--repeats", "1", "--out", str(tmp_path / "sweep"), "--jobs", "1"]
    assert cli.main(argv) == cli.EXIT_OK
    for name in cli.SCENARIO_BUILDERS:
        for mode in CommMode:
            out = tmp_path / f"{name}-{mode.value}"
            assert cli.main(["scenario", name, "--mode", mode.value, "--out", str(out)]) == cli.EXIT_OK
    spec = importlib.util.spec_from_file_location("demo01", ROOT / "demos" / "01_single_agent_search.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.main()
    assert cli.main(["sweep"]) == cli.EXIT_USAGE


def test_every_src_function_runs_outside_the_tests(tmp_path):
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        use_the_program(tmp_path)
    finally:
        sys.setprofile(previous)
    reached = {(str(Path(name).resolve()), line) for name, line in called}
    unreached = [name for key, name in defined_functions().items() if key not in reached]
    assert not unreached, f"only the tests reach these src functions: {unreached}"
