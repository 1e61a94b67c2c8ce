"""Static checks on the package source; no linter is installed, so these use ast."""

import argparse
import ast
import importlib
import importlib.util
import inspect
import json
import re
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import laurent_eulerian
from laurent_eulerian import cli

PACKAGE = Path(laurent_eulerian.__file__).parent
# __init__.py imports names only to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# the benchmark drives the package from outside and names layers by string
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TESTS = Path(__file__).resolve().parent
PYPROJECT = TESTS.parent / "pyproject.toml"
README = TESTS.parent / "README.md"
# kept in src although no program path calls them: tests check the program
# against them.  The benchmark's tracer reads ExactMatrix.__dict__["rank"];
# normal_form is public, and the planned unit check by a multiplication matrix
# calls it; eulerian_bruteforce is public; the rest copy no program path, so
# moving them to the tests would move lines without removing any
TEST_ORACLES = {
    "normal_form",
    "ExactMatrix.rank",
    "ray_matrix",
    "eulerian_bruteforce",
    "MultiPoly.graded_degree",
    "CircularPermutation.add_one",
    "CircularPermutation.circular_ascents",
}


def unused_imports(source: str) -> list:
    """Names a module imports but never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_detector_flags_only_unread_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import Iterator, Optional\n"
        "from .a import b as c, d\n"
        "def f(x: Optional[int]) -> None:\n"
        "    return np.zeros(d(x))\n"
    )
    assert unused_imports(source) == ["os", "Iterator", "c"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_one_clock():
    # every budget is a Deadline; no other module keeps its own clock
    readers = [p.name for p in MODULES if "time.monotonic" in p.read_text()]
    assert readers == ["deadline.py"]


def true_divisions(source: str) -> list:
    """'line: code' for each true division, / or /=, outside RationalField:
    over ints it makes a float."""
    tree = ast.parse(source)
    exempt = {id(node) for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef) and cls.name == "RationalField"
              for node in ast.walk(cls)}
    return [f"{node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
            and id(node) not in exempt]


def importers(source: str, module: str) -> list:
    """The qualified name of the innermost function or class around each
    import of module, or "" for one at the top level."""
    tree = ast.parse(source)
    return [enclosing(tree, node) for node in ast.walk(tree)
            if isinstance(node, ast.Import) and any(a.name == module for a in node.names)
            or isinstance(node, ast.ImportFrom) and node.module == module]


def enclosing(tree, node) -> str:
    """The qualified name of the innermost function or class of tree around
    node, or "" at the top level."""
    around = [q for q, d in definitions(tree) if d.lineno <= node.lineno <= d.end_lineno]
    return max(around, key=len, default="")


def callers(source: str, callees: set) -> list:
    """enclosing() of each call whose callee, as written, is in callees."""
    tree = ast.parse(source)
    return [enclosing(tree, node) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and ast.unparse(node.func) in callees]


def test_division_detectors():
    source = (
        "import fractions\n"
        "class RationalField:\n"
        "    def inv(self, a): return one() / a\n"
        "def one():\n"
        "    from fractions import Fraction\n"
        "    return Fraction(1)\n"
        "class Box:\n"
        "    def half(self, a):\n"
        "        a /= 2\n"
        "        return a // 2, a / 2\n"
    )
    assert true_divisions(source) == ["9: a /= 2", "10: a / 2"]
    assert importers(source, "fractions") == ["", "one"]
    assert sorted(callers(source, {"Fraction", "one"})) == ["RationalField.inv", "one"]


def test_rationals_on_first_division():
    # a QQ value is an int until RationalField divides, and only that
    # division loads fractions (and the decimal it imports)
    found = {p.name: true_divisions(p.read_text()) for p in MODULES}
    assert {name: lines for name, lines in found.items() if lines} == {}
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert [f"{stem}.{q}" for stem, source in sources.items()
            for q in importers(source, "fractions")] == ["algebra._fraction_one"]


def test_one_entry_into_the_basis():
    # generators and s-polynomial remainders enter the basis by one step, so
    # a change to how an element enters is made in one place
    tree = ast.parse((PACKAGE / "groebner.py").read_text())
    body = dict(definitions(tree))["_buchberger"]
    adds = [node for node in ast.walk(body)
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "add"]
    assert len(adds) == 1


# numpy's allocators of a new array, as experiments.py calls them
NUMPY_ALLOCATORS = {f"np.{name}{like}" for name in ("zeros", "empty", "ones", "full")
                    for like in ("", "_like")}


def test_one_slice_matrix_allocation():
    # every span and Koszul matrix is a zeroed view of one int16 workspace per
    # graded_quotient_dims call: _workspace is the one allocation of a slice
    # matrix, made once per call and by _zeroed only for a matrix past the
    # workspace.  np.full builds the Koszul column map, one int per span row
    source = (PACKAGE / "experiments.py").read_text()
    found = Counter(callers(source, NUMPY_ALLOCATORS))
    assert found == {"_workspace": 1, "_koszul_syzygies": 1}
    assert sorted(callers(source, {"_workspace"})) == ["_zeroed", "graded_quotient_dims"]


def test_one_weight_zero_walk():
    # the slices take their keys straight from the walk, which is the one
    # weight-zero enumeration in the package: no slice decodes exponent
    # vectors, and the tuple walk and the key packing are gone
    experiments = ast.parse((PACKAGE / "experiments.py").read_text())
    named = read_names(experiments, strings=True)
    named.update(a.name for a in ast.walk(experiments) if isinstance(a, ast.alias))
    assert "weight_zero_exponents" not in named
    defined = {q for p in MODULES for q, _ in definitions(ast.parse(p.read_text()))}
    assert not defined & {"_weight_zero_rec", "_slice_keys"}


def none_deadlines(source: str) -> list:
    """'line: code' for each deadline parameter that defaults to anything but
    NO_DEADLINE, and each comparison or conditional that pairs a deadline
    with None."""
    def is_deadline(node) -> bool:
        return (isinstance(node, ast.Name) and node.id == "deadline"
                or isinstance(node, ast.Attribute) and node.attr == "deadline")

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            defaults = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
            defaults += [(p, d) for p, d in zip(args.kwonlyargs, args.kw_defaults) if d]
            found += [f"{node.lineno}: {p.arg}={ast.unparse(d)}" for p, d in defaults
                      if p.arg == "deadline"
                      and not (isinstance(d, ast.Name) and d.id == "NO_DEADLINE")]
        elif isinstance(node, (ast.Compare, ast.IfExp)):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
            else:
                operands = [node.body, node.orelse]
            if any(map(is_deadline, operands)) and any(
                    isinstance(o, ast.Constant) and o.value is None for o in operands):
                found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


def test_none_deadline_detector():
    source = (
        "def f(x, deadline=None): pass\n"
        "def g(deadline: Deadline = NO_DEADLINE): pass\n"
        "def h(*, deadline=Deadline(1)): pass\n"
        "def k(deadline): pass\n"
        "if deadline is not None: pass\n"
        "if self.deadline == None: pass\n"
        "y = slices(deadline if t else None)\n"
        "z = seconds is None\n"
        "w = Deadline(None)\n"
    )
    assert none_deadlines(source) == [
        "1: deadline=None",
        "3: deadline=Deadline(1)",
        "5: deadline is not None",
        "6: self.deadline == None",
        "7: deadline if t else None",
    ]


def test_one_budget_path():
    # no budget is NO_DEADLINE, a Deadline that never expires, so every
    # budgeted loop checks unconditionally: no None stands in for a deadline
    found = {p.name: none_deadlines(p.read_text()) for p in MODULES}
    assert {name: lines for name, lines in found.items() if lines} == {}


def deadline_checkers(modules) -> set:
    """'module.qualname' of every function that calls deadline.check()."""
    found = set()
    for path in modules:
        for qualname, node in definitions(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and any(
                    isinstance(c, ast.Call) and ast.unparse(c.func) == "deadline.check"
                    for c in ast.walk(node)):
                found.add(f"{path.stem}.{qualname}")
    return found


def test_deadline_checks_are_listed():
    # the deadline module's docstring is the one list of the places that
    # check a budget; a check added or removed elsewhere must change it
    from laurent_eulerian import deadline
    listed = set(re.findall(r"^- `([\w.]+)`:", deadline.__doc__, re.M))
    assert listed == deadline_checkers(MODULES)


def definitions(tree) -> list:
    """(qualified name, node) of every function, class and method, nested too."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.append((prefix + child.name, child))
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def read_names(tree, strings: bool = False) -> Counter:
    """How often each name is read as a variable or an attribute (and, with
    strings, written as a string constant)."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names[node.value] += 1
    return names


def _registered(node) -> bool:
    """A CLI subcommand: decorated with cli._command(...)."""
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "_command"
        for d in node.decorator_list
    )


def dead_definitions(sources, outside: Counter, oracles) -> list:
    """Qualified names of the definitions in sources that nothing reaches: not
    read by name in sources outside their own body, not in outside, not a
    registered subcommand and not an oracle.  Dunder methods are implicit."""
    trees = [ast.parse(source) for source in sources]
    read = sum((read_names(tree) for tree in trees), Counter())
    dead = []
    for tree in trees:
        for qualname, node in definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if _registered(node) or qualname in oracles or outside[name]:
                continue
            if read[name] - read_names(node)[name] == 0:
                dead.append(qualname)
    return dead


def test_dead_definition_detector():
    source = (
        "def used(): return helper()\n"
        "def helper(): return 1\n"
        "def recursive(n): return recursive(n - 1) if n else 0\n"
        "def traced(): pass\n"
        "def oracle(): pass\n"
        "@_command('x')\n"
        "def _run(args, report): pass\n"
        "class Box:\n"
        "    def __init__(self): self.inner = lambda: 0\n"
        "    def method(self): pass\n"
        "    def unread(self): pass\n"
    )
    caller = "print(used(), Box().method())\n"
    outside = read_names(ast.parse("FUNCTIONS = ('traced',)"), strings=True)
    assert dead_definitions([source, caller], outside, {"oracle"}) == [
        "recursive", "Box.unread"]
    # without the caller, used() and Box are unread too; helper is still read
    assert dead_definitions([source], outside, {"oracle"}) == [
        "used", "recursive", "Box", "Box.method", "Box.unread"]


def test_no_dead_definitions():
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    outside = sum((read_names(ast.parse(p.read_text()), strings=True)
                   for p in sorted(PERFBENCH.glob("*.py"))), Counter())
    assert outside["constant_term_iterative"]  # the benchmark's tracer is read
    assert dead_definitions(sources, outside, TEST_ORACLES) == []


def unpassed_defaults(sources, exempt) -> list:
    """'qualname: parameter' for each defaulted parameter of a function in
    sources that no call in sources passes, by keyword or by position.  Calls
    are matched by the callee's name; a call with *args or **kwargs passes
    every parameter, a method's positions skip self or cls, and a call of a
    class reaches its __init__ and its __new__."""
    trees = [ast.parse(source) for source in sources]
    calls = {}
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            calls.setdefault(name, []).append(node)

    def passes(call, param, position) -> bool:
        if any(kw.arg in (param, None) for kw in call.keywords):
            return True
        return position is not None and (
            len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args))

    found = []
    for tree in trees:
        defs = definitions(tree)
        owner = {id(f): c.name for _, c in defs if isinstance(c, ast.ClassDef)
                 for f in c.body if isinstance(f, ast.FunctionDef)}
        for qualname, node in defs:
            if isinstance(node, ast.ClassDef) or qualname in exempt:
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in node.decorator_list)
            if id(node) in owner and not static:
                positional = positional[1:]
            name = owner[id(node)] if node.name in ("__init__", "__new__") else node.name
            params = [(p.arg, k) for k, p in enumerate(positional)]
            params = params[len(params) - len(args.defaults):]
            params += [(p.arg, None) for p, d in zip(args.kwonlyargs, args.kw_defaults)
                       if d is not None]
            for param, position in params:
                if not any(passes(call, param, position) for call in calls.get(name, [])):
                    found.append(f"{qualname}: {param}")
    return found


def test_unpassed_default_detector():
    source = (
        "def f(a, b=1, c=2, *, d=3, e=4): pass\n"
        "def g(x=0): pass\n"
        "def h(y=0): pass\n"
        "def oracle(z=0): pass\n"
        "class Box:\n"
        "    def __init__(self, w=0): pass\n"
        "    def method(self, v=0): pass\n"
        "    @staticmethod\n"
        "    def static(u=0): pass\n"
        "class Pair(tuple):\n"
        "    def __new__(cls, a, b=0): return super().__new__(cls, (a, b))\n"
        "f(0, 1, e=5)\n"
        "g(*[1])\n"
        "Box(1).method()\n"
        "Box.static(1)\n"
        "Pair(1)\n"
    )
    # the super().__new__ call does not pass b: only a call of Pair would
    assert unpassed_defaults([source], {"oracle"}) == [
        "f: c", "f: d", "h: y", "Box.method: v", "Pair.__new__: b"]
    # a call in another source counts, and **kwargs passes every parameter
    assert unpassed_defaults([source, "f(**{}); h(2); Pair(1, b=2)"], {"oracle"}) == [
        "Box.method: v"]


def test_every_default_is_passed():
    # a default that no program path overrides is a constant behind an
    # option; only the benchmark and the tests pass main's argv
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    assert unpassed_defaults(sources, TEST_ORACLES | {"main"}) == []


def tracer_table(name: str) -> tuple:
    """A literal table of the benchmark's tracer, read without importing it."""
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"tracing.py has no table {name}")


def test_tracer_names_resolve():
    # the benchmark wraps these by name; a rename or a changed method kind
    # would otherwise show only in the benchmark's own suite
    functions, methods = tracer_table("FUNCTIONS"), tracer_table("METHODS")
    assert functions and methods
    for _, home, attr in functions:
        module = importlib.import_module(f"{PACKAGE.name}.{home}")
        fn = getattr(module, attr, None)
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__, (home, attr)
    kinds = {}
    for _, home, cls_name, attr in methods:
        cls = getattr(importlib.import_module(f"{PACKAGE.name}.{home}"), cls_name)
        assert attr in cls.__dict__, (cls_name, attr)
        kinds[f"{cls_name}.{attr}"] = type(cls.__dict__[attr])
    assert kinds["GenericFormSet.generate"] is classmethod


def test_tracer_names_each_basis_kind():
    # the benchmark labels each groebner_of_ideal span from the IdealSpec it
    # is called with; a spec that lost m, n or max_power would fail every
    # traced groebner task
    spec = importlib.util.spec_from_file_location("tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    IdealSpec = laurent_eulerian.IdealSpec
    assert tracing._basis_kind(IdealSpec(2, 3)) == "groebner.basis.degree_ideal"
    assert tracing._basis_kind(IdealSpec(2, 3, 2 + 3)) == "groebner.basis.unit_ideal"


def test_oracles_are_defined():
    # an oracle that no longer exists should leave the list too
    defined = {q for p in MODULES for q, _ in definitions(ast.parse(p.read_text()))}
    assert TEST_ORACLES <= defined


def top_level_imports(source: str) -> set:
    """The top-level modules a source imports, relative imports left out."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_records_are_not_dataclasses():
    # @dataclass generates and execs each record's methods at import, and
    # dataclasses pulls in copy: about 13 ms and 0.2 MB on every start
    importers = [p.name for p in sorted(PACKAGE.glob("*.py"))
                 if "dataclasses" in top_level_imports(p.read_text())]
    assert importers == []


# the modules, other than the package's own, that importing the CLI loads
# after numpy; each costs every run its start-up time and resident memory
CLI_IMPORTS = {"__future__", "_json", "json"}


def test_cli_import_surface():
    # a fresh interpreter, isolated from the environment and the user site
    code = (f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); "
            "import numpy; before = set(sys.modules); import laurent_eulerian.cli; "
            "print(*sorted(set(sys.modules) - before))")
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                         text=True, check=True).stdout.split()
    added = {name.split(".")[0] for name in out} - {PACKAGE.name}
    assert sorted(added - CLI_IMPORTS) == []
    assert "laurent_eulerian.cli" in out


def test_cli_run_loads_no_argparse():
    # argparse imports gettext, and its first parser imports locale: about
    # 0.55 MB of every run.  locale arrives while parsing, not at import, so
    # a whole run is checked
    code = (f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); "
            "from laurent_eulerian.cli import main; "
            "code = main(['--format', 'json', 'eulerian', '--n', '4', '--k', '1']); "
            "print(code, *sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert out[-1] == "0"
    assert json.loads("\n".join(out[:-1]))["result"] == 11


def test_runs_without_division_load_no_rationals():
    # fractions imports decimal: about 0.4 MB of a run.  The QQ Groebner
    # reduction and the Chow solve are fraction-free, so only printing a
    # non-integral basis or solution loads them: here the QQ basis of (2,3)
    marker = "loaded:"
    code = (f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); "
            "from laurent_eulerian.cli import main; "
            "loaded = lambda: sorted({'decimal', 'fractions'} & set(sys.modules)); "
            "argvs = [a.split() for a in sys.argv[1:]]; "
            "codes = [main(argv) for argv in argvs[:-1]]; "
            f"print({marker!r}, *codes, *loaded()); "
            "code = main(argvs[-1]); "
            f"print({marker!r}, code, *loaded())")
    integer_runs = ["decomposition --m 3 --n 3", "hilbert-slices --m 2 --n 3",
                    "eulerian --n 4 --k 1", "worpitzky --k 5",
                    "groebner --m 2 --n 2 --field 32003 --max-power 4",
                    "--format json degree --m 2 --n 2",
                    "--format json theorem-matrix --max-total 4",
                    "degree --m 2 --n 3 --field 32003", "chow-expand --m 3 --n 3 --k 5"]
    argvs = integer_runs + ["--format json groebner --m 2 --n 3"]
    out = subprocess.run([sys.executable, "-I", "-c", code, *argvs], capture_output=True,
                         text=True, check=True).stdout
    before, first, basis, last = re.split(f"^{marker}(.*)$", out, flags=re.M)[:4]
    assert first.split() == ["0"] * len(integer_runs)
    assert last.split() == ["0", "decimal", "fractions"]
    assert "x_2^3 + -4/3*x_1*x_2 + 2/3*x_-1^2" in json.loads(basis)["result"]
    degree, grid = [json.loads(r) for r in re.findall(r"^\{$.*?^\}$", before, re.M | re.S)]
    assert degree["result"] == {"m": 2, "n": 2, "eulerian": 4, "groebner_degree": 4,
                                "intersection_degree": 4, "unit_ideal": None,
                                "status": "ok"}
    assert degree["agreement"] is True and grid["agreement"] is True
    assert [c["unit_ideal"] for c in grid["result"]] == [True] * 6


def command_faults(source: str, commands: dict) -> list:
    """'run: fault' for each registered run function (commands maps its name
    to its declared arguments) that writes report["inputs"], which dispatch
    fills, or never reads args.<dest> for an argument it declares."""
    runs = {node.name: node for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.FunctionDef) and node.name in commands}
    found = []
    for name, arguments in commands.items():
        nodes = list(ast.walk(runs[name]))
        if any(isinstance(n, ast.Subscript) and isinstance(n.ctx, ast.Store)
               and ast.unparse(n) == "report['inputs']" for n in nodes):
            found.append(f"{name}: writes inputs")
        read = {n.attr for n in nodes if isinstance(n, ast.Attribute)
                and isinstance(n.value, ast.Name) and n.value.id == "args"}
        parser = argparse.ArgumentParser(add_help=False)
        found += [f"{name}: never reads {dest}" for dest in
                  (parser.add_argument(flag, **kwargs).dest for flag, kwargs in arguments)
                  if dest not in read]
    return found


def test_command_fault_detector():
    source = (
        "def _a(args, report):\n"
        "    report['inputs'] = {'m': args.m}\n"
        "    report['result'] = args.m + args.budget_seconds\n"
        "def _b(args, report):\n"
        "    report['result'] = args.m\n"
    )
    commands = {"_a": [("--m", {}), ("--budget-seconds", {})],
                "_b": [("--m", {}), ("--max-power", {})]}
    assert command_faults(source, commands) == ["_a: writes inputs", "_b: never reads max_power"]


def test_commands_read_every_argument_and_leave_inputs_to_dispatch():
    # dispatch echoes every declared argument as an input, so an option the
    # run never reads would be a knob that does nothing
    commands = {run.__name__: arguments for _, arguments, run in cli.COMMANDS.values()}
    assert command_faults(Path(cli.__file__).read_text(), commands) == []


def test_test_imports_are_declared():
    # `pip install -e .[test]` must give everything the tests import
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    declared = set(project["dependencies"]) | set(project["optional-dependencies"]["test"])
    local = set(sys.stdlib_module_names) | {"laurent_eulerian", "conftest"}
    imported = set().union(*(top_level_imports(p.read_text()) for p in TESTS.glob("*.py")))
    assert sorted(imported - local - declared) == []


def test_readme_examples_parse():
    # every `laurent-eulerian ...` line of a README code block, except loop
    # bodies (lines with a shell variable), is a valid invocation
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(), re.M | re.S)
    lines = [line.strip() for block in blocks for line in block.splitlines()]
    commands = [shlex.split(line, comments=True)[1:] for line in lines
                if line.startswith("laurent-eulerian ") and "$" not in line]
    for argv in commands:
        cli.parse_args(argv)  # a bad example exits 2
    assert sorted({argv[0] for argv in commands}) == sorted(cli.COMMANDS)


def test_exports_match_imports():
    # __all__ lists exactly the names __init__.py imports, and each resolves
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {a.asname or a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for a in node.names}
    assert sorted(laurent_eulerian.__all__) == sorted(imported)
    for name in laurent_eulerian.__all__:
        assert getattr(laurent_eulerian, name) is not None, name
