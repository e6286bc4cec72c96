"""Every function in ``src`` runs when the program is used: the package holds no code that only
the tests reach, and no parameter that its function ignores. The one-agent reference the tests
check the kernel against lives in ``tests/reference.py``. README's src line count is current."""

import ast
import importlib.util
import re
import sys
from dataclasses import fields
from pathlib import Path

from beliefshare import cli
from beliefshare.simulate import BeliefTrace, CommMode

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


def test_every_src_name_is_read_in_src():
    """Every module-level name a src module defines is read somewhere in src, and no src module
    imports ``warnings``.

    A name is read where it is loaded, bare or as an attribute; an import alone does not count.
    Dataclass fields are class attributes and stay out of the scan: the benchmark builds its
    planner through ``model.make_agent_model``, which fills ``AgentModel``'s priors, and only the
    tests read those.
    """
    defined, loaded, warned = [], set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((path.stem, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(path.stem, t.id) for t in targets if isinstance(t, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id if isinstance(node, ast.Name) else node.attr)
            if isinstance(node, ast.Import):
                warned += [path.name for alias in node.names if alias.name.split(".")[0] == "warnings"]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "warnings":
                warned.append(path.name)
    unread = [f"{module}.{name}" for module, name in defined if name not in loaded]
    assert not unread, f"no src code reads these names: {unread}"
    assert not warned, f"these src modules import warnings: {warned}"


def test_every_src_parameter_is_read():
    """Every parameter of a src function is read in its body (``self`` and ``cls`` excepted): no
    caller passes a value that the function ignores."""
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = fn.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            names = [n for stmt in fn.body for n in ast.walk(stmt) if isinstance(n, ast.Name)]
            read = {n.id for n in names if isinstance(n.ctx, ast.Load)}
            unread += [f"{path.name}: {fn.name}({p})" for p in params if p not in {"self", "cls"} | read]
    assert not unread, f"these src parameters are never read: {unread}"


def test_readme_line_count_is_current():
    """README's Layout gives the src line count as ``wc -l`` would print its total."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    stated = re.search(r"src/beliefshare/\s+([\d,]+) lines \(wc -l\)", readme)
    assert stated, "README states no src line count"
    counted = sum(path.read_bytes().count(b"\n") for path in SRC.glob("*.py"))
    assert int(stated.group(1).replace(",", "")) == counted


def test_src_lines_fit_110_columns():
    """Every src line is at most 110 characters long."""
    long = [
        f"{path.name}:{number}" for path in sorted(SRC.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1) if len(line) > 110
    ]
    assert not long, f"these src lines are over 110 characters: {long}"


def test_trace_fields_have_a_reader():
    """Src or ``demos/`` reads every ``BeliefTrace`` field: a traced trial keeps only what a command,
    an export or a demo reads. A field is read where it is loaded outside an assignment target, so
    the kernel's writes into the trace do not count."""
    read = set()
    for path in [*sorted(SRC.glob("*.py")), *sorted((ROOT / "demos").glob("*.py"))]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assigns = [node for node in ast.walk(tree) if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))]
        targets = [t for node in assigns for t in (node.targets if isinstance(node, ast.Assign) else [node.target])]
        written = {node for target in targets for node in ast.walk(target)}
        read |= {
            node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node not in written
        }
    unread = [field.name for field in fields(BeliefTrace) if field.name not in read]
    assert not unread, f"nothing in src or demos reads these trace fields: {unread}"


def innermost_functions(path: Path, wanted) -> list:
    """``file: function`` for each node of a src file that ``wanted`` accepts, naming the innermost
    function around it (``<module>`` for none)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = {node: "<module>" for node in ast.walk(tree) if wanted(node)}
    for fn in ast.walk(tree):  # outer functions first, so an inner one overwrites them
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.update({node: fn.name for node in ast.walk(fn) if wanted(node)})
    return [f"{path.name}: {fn}" for fn in found.values()]


def called_name(node) -> str | None:
    """The name a call or raise names, bare or as an attribute."""
    return getattr(node, "id", getattr(node, "attr", None))


def test_caps_are_checked_in_one_place():
    """``CapExceeded`` is raised only by ``errors.check_count``, and by the fixture reader for a
    node number too long for ``int()`` to read, which leaves no value to check."""

    def raises_cap(node):
        if not isinstance(node, ast.Raise):
            return False
        return called_name(node.exc.func if isinstance(node.exc, ast.Call) else node.exc) == "CapExceeded"

    raised = [site for path in sorted(SRC.glob("*.py")) for site in innermost_functions(path, raises_cap)]
    assert sorted(raised) == ["errors.py: check_count", "world.py: parse_graph_text"]


def test_files_are_opened_in_one_place():
    """``open`` is called only by ``cli._read_text`` (inputs), ``cli._write_rows`` (every CSV and
    TSV) and ``cli._export`` (the digest read-back and manifest.json)."""

    def opens(node):
        return isinstance(node, ast.Call) and called_name(node.func) == "open"

    opened = {site for path in sorted(SRC.glob("*.py")) for site in innermost_functions(path, opens)}
    assert sorted(opened) == ["cli.py: _export", "cli.py: _read_text", "cli.py: _write_rows"]


def test_node_axis_maxima_in_one_place():
    """No src function takes a max over the last axis, which numpy reduces one row at a time: the
    node-axis maxima go through ``inference.last_axis_max``, which takes them in one pass."""

    def last_axis(value) -> bool:
        if isinstance(value, ast.UnaryOp) and isinstance(value.op, ast.USub):
            return isinstance(value.operand, ast.Constant) and value.operand.value == 1
        return isinstance(value, ast.Constant) and value.value == -1

    def takes_max(node):
        if not (isinstance(node, ast.Call) and called_name(node.func) in {"max", "amax"}):
            return False
        return any(kw.arg == "axis" and last_axis(kw.value) for kw in node.keywords)

    taken = {site for path in sorted(SRC.glob("*.py")) for site in innermost_functions(path, takes_max)}
    assert sorted(taken) == []


def test_indices_are_checked_in_one_place():
    """No src file but ``errors.py`` holds a hand-written index rule: a chained ``0 <= x < n``
    comparison, or a read of an ``is_integer`` test. Node indices and outcomes go through
    ``errors.check_index``, counts through ``errors.check_count``."""

    def hand_written(node):
        if isinstance(node, ast.Compare):
            starts_at_zero = isinstance(node.left, ast.Constant) and node.left.value == 0
            return starts_at_zero and len(node.ops) > 1 and isinstance(node.ops[0], ast.LtE)
        return called_name(node) == "is_integer" and isinstance(getattr(node, "ctx", None), ast.Load)

    found = [
        site for path in sorted(SRC.glob("*.py")) if path.name != "errors.py"
        for site in innermost_functions(path, hand_written)
    ]
    assert found == []


def test_random_streams_are_read_in_one_place():
    """No src code builds a generator (``default_rng``) or calls a generator's ``.random(`` or
    ``.integers(``, and only ``simulate._stream_words`` names ``PCG64``: every trial reads its draws
    as raw words of its seed's stream through that one function. ``trial_seed``'s ``SeedSequence``,
    which derives the seeds, stays allowed."""

    def draws(node):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            return node.func.attr in {"random", "integers"}
        return called_name(node) == "default_rng"

    def names_pcg64(node):
        return called_name(node) == "PCG64"

    drawn = [site for path in sorted(SRC.glob("*.py")) for site in innermost_functions(path, draws)]
    streamed = [site for path in sorted(SRC.glob("*.py")) for site in innermost_functions(path, names_pcg64)]
    assert drawn == []
    assert streamed == ["simulate.py: _stream_words"]
