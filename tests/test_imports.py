"""Lints of the engine modules, with the standard library only.

Unused imports: every name a module imports must be used in that module;
the package __init__ only re-exports, so it is exempt.  Dead locals: a plain
`name = ...` in a function must be read in that function or in a function
nested in it; tuple, loop and `_`-prefixed targets are exempt.  Dead
definitions: every function, method or class defined in a module must be
named (called, read as an attribute or imported) somewhere in src/, tests/
or demos/; dunder names are exempt.  One clock: report.py, which times every
check, is the only module that imports time or calls a clock."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "kappa_hopf"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_lint_flags_an_unused_import():
    assert unused_imports("import os\nfrom x import a, b as c\nc()\n") == [(1, "os"), (2, "a")]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(module):
    assert unused_imports(module.read_text()) == []


SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_statements(func):
    """Nodes of func's body, not descending into nested scopes."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def dead_locals(source):
    dead = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        inner = list(ast.walk(func))
        read = {n.id for n in inner if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        read |= {name for n in inner if isinstance(n, (ast.Global, ast.Nonlocal))
                 for name in n.names}
        for node in _own_statements(func):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                name = node.targets[0].id
                if not name.startswith("_") and name not in read:
                    dead.append((node.lineno, name))
    return sorted(dead)


def test_lint_flags_a_dead_local():
    assert dead_locals("def f(x):\n    y = x\n    z = 2\n    return z\n") == [(2, "y")]


def test_lint_spares_exempt_and_closure_reads():
    source = (
        "def f(x):\n"
        "    a, b = x\n"
        "    for c in x:\n"
        "        pass\n"
        "    _d = 1\n"
        "    e = 2\n"
        "    def g():\n"
        "        return e\n"
        "    return g\n"
    )
    assert dead_locals(source) == []


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_dead_locals(module):
    assert dead_locals(module.read_text()) == []


def _referenced_names(source):
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    return names


def dead_definitions(source, sources):
    """Functions, methods and classes defined in source whose name appears in
    none of sources; pass source among them so that its own uses count."""
    named = set().union(*map(_referenced_names, sources))
    dead = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not (node.name.startswith("__") and node.name.endswith("__"))
                and node.name not in named):
            dead.append((node.lineno, node.name))
    return sorted(dead)


def test_lint_flags_a_dead_definition():
    source = (
        "def f():\n"
        "    return 1\n"
        "class C:\n"
        "    def m(self):\n"
        "        return f()\n"
        "    def __len__(self):\n"
        "        return 0\n"
    )
    assert dead_definitions(source, [source]) == [(3, "C"), (4, "m")]


def test_lint_spares_named_definitions():
    source = (
        "def f():\n"
        "    return 1\n"
        "class C:\n"
        "    def m(self):\n"
        "        return 2\n"
    )
    users = ["from pkg.mod import f\n", "import pkg.C\n", "x.m()\n"]
    assert dead_definitions(source, [source, *users]) == []


@pytest.fixture(scope="module")
def project_sources():
    return [p.read_text() for d in ("src", "tests", "demos")
            for p in sorted((ROOT / d).rglob("*.py"))]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_dead_definitions(module, project_sources):
    assert dead_definitions(module.read_text(), project_sources) == []


# calls that read a clock: the time module's clocks and datetime's now/today
CLOCK_CALLS = {"time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
               "monotonic_ns", "process_time", "process_time_ns", "thread_time",
               "thread_time_ns", "now", "utcnow", "today"}


def clock_reads(source):
    """(line, name) of every import of the time module and every clock call."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            hits += [(node.lineno, a.name) for a in node.names if a.name == "time"]
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            hits.append((node.lineno, "time"))
        elif isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if name in CLOCK_CALLS:
                hits.append((node.lineno, name))
    return sorted(hits)


def test_lint_flags_clock_reads():
    source = (
        "import time\n"
        "from time import monotonic as m\n"
        "import datetime\n"
        "t = datetime.datetime.now()\n"
        "u = time.perf_counter() - m()\n"
    )
    # the aliased monotonic is caught at its import
    assert clock_reads(source) == [(1, "time"), (2, "time"), (4, "now"), (5, "perf_counter")]


def test_lint_spares_other_timing_words():
    source = "import timeit\nelapsed = report.duration_ms\nx = times(3)\n"
    assert clock_reads(source) == []


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_one_clock(module):
    reads = clock_reads(module.read_text())
    assert bool(reads) == (module.name == "report.py"), reads
