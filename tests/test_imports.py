"""Lints of the engine modules, with the standard library only.

Unused imports: every name a module imports must be used in that module;
the package __init__ only re-exports, so it is exempt.  Dead locals: a plain
`name = ...` in a function must be read in that function or in a function
nested in it; tuple, loop and `_`-prefixed targets are exempt.  Dead
definitions: every function, method or class defined in a module must be
named (called, read as an attribute or imported) somewhere in src/, tests/
or demos/; dunder names are exempt.  One fraction type: of the engine
modules, only scalars.py names RationalFn.  No shadowed modules: no local
of a function rebinds a sibling module that its module imports with
`from . import`.  One clock: report.py, which times every check, is the
only module that imports time or calls a clock.  No unset knobs: every defaulted parameter of a module-level
function or method must be passed, by keyword or by position, by some call
in src/, tests/, demos/ or perfbench/.  No write-only attributes: every
attribute or dataclass field assigned in src/ must be read somewhere in
src/, tests/, demos/ or perfbench/; storing into it by subscript or calling
its update, clear or setdefault is no read.  No stale package data: every
package-data glob in pyproject.toml matches at least one file.

The cross-file lints (dead definitions, unset knobs, write-only attributes)
look each module up in an index of all sources.  One module-scoped fixture
parses every source once and builds the three indexes from those trees; it
keeps the indexes only, so no tree is shared between tests."""

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


def _trees(*sources):
    return [ast.parse(source) for source in sources]


def referenced_names(trees):
    """Every name that the parsed sources read, name as an attribute or
    import."""
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.split(".")[-1])
    return names


def dead_definitions(source, named):
    """Functions, methods and classes defined in source whose name is not in
    named, the referenced_names of sources that include source itself, so
    that its own uses count."""
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
    assert dead_definitions(source, referenced_names(_trees(source))) == [(3, "C"), (4, "m")]


def test_lint_spares_named_definitions():
    source = (
        "def f():\n"
        "    return 1\n"
        "class C:\n"
        "    def m(self):\n"
        "        return 2\n"
    )
    users = ["from pkg.mod import f\n", "import pkg.C\n", "x.m()\n"]
    assert dead_definitions(source, referenced_names(_trees(source, *users))) == []


@pytest.fixture(scope="module")
def indexes():
    """The cross-file indexes, from one parse of each source: the names that
    src/, tests/ and demos/ reference, and the arguments passed and the
    attributes read there and in perfbench/.  The trees die with this call."""
    project = [ast.parse(p.read_text()) for d in ("src", "tests", "demos")
               for p in sorted((ROOT / d).rglob("*.py"))]
    callers = project + [ast.parse(p.read_text()) for p in sorted((ROOT / "perfbench").rglob("*.py"))]
    return {"names": referenced_names(project), "arguments": passed_arguments(callers),
            "attribute_reads": attribute_reads(callers)}


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_dead_definitions(module, indexes):
    assert dead_definitions(module.read_text(), indexes["names"]) == []


def test_only_scalars_names_rationalfn():
    # RationalFn is the read-only per-power view of an HSeries; every other
    # engine module computes with HSeries values.  The package __init__ only
    # names it in its export table, as a string, so it is not scanned.
    naming = [p.name for p in MODULES if "RationalFn" in referenced_names(_trees(p.read_text()))]
    assert naming == ["scalars.py"]


def shadowed_modules(source):
    """(line, name) of every local of a function (an assignment, loop or
    `with` target, or a parameter) that rebinds a sibling module imported
    with `from . import name`.  Such a module is how the engine reaches a
    layer function (`ncalg.normal_order`), so that each is bound in one place."""
    tree = ast.parse(source)
    modules = {a.asname or a.name for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
               for a in node.names}
    hits = set()
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for node in ast.walk(func):
                if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                        and node.id in modules):
                    hits.add((node.lineno, node.id))
                elif isinstance(node, ast.arg) and node.arg in modules:
                    hits.add((node.lineno, node.arg))
    return sorted(hits)


def test_lint_flags_a_shadowed_module():
    source = (
        "from . import ncalg, quotient\n"
        "def f(ncalg):\n"
        "    quotient = None\n"
        "    hopf = None\n"
        "    return ncalg, quotient, hopf\n"
    )
    assert shadowed_modules(source) == [(2, "ncalg"), (3, "quotient")]


def test_lint_spares_fields_and_other_names():
    source = (
        "from . import models\n"
        "class C:\n"
        "    models: dict\n"
        "    def f(self, model):\n"
        "        return models.load(model), self.models\n"
    )
    assert shadowed_modules(source) == []


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_shadowed_modules(module):
    assert shadowed_modules(module.read_text()) == []


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


def defaulted_parameters(source):
    """(line, function, parameter, position) of every defaulted parameter of
    a module-level function or method.  position is the parameter's index
    among a call's positional arguments (self or cls not counted), None for
    a keyword-only parameter."""
    found = []

    def collect(func, method):
        args = func.args
        positional = args.posonlyargs + args.args
        static = any(getattr(d, "id", None) == "staticmethod" for d in func.decorator_list)
        skip = 1 if method and not static else 0
        first = len(positional) - len(args.defaults)
        for k, arg in enumerate(positional[first:], first):
            found.append((func.lineno, func.name, arg.arg, k - skip))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                found.append((func.lineno, func.name, arg.arg, None))

    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            collect(node, False)
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    collect(sub, True)
    return found


def passed_arguments(trees):
    """{callee name: [keywords passed, most positional arguments passed]} over
    every call in the parsed sources; a starred argument passes every
    position and a ** argument every keyword."""
    passed = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            entry = passed.setdefault(name, [set(), 0])
            entry[0].update(kw.arg or "**" for kw in node.keywords)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            entry[1] = max(entry[1], float("inf") if starred else len(node.args))
    return passed


def unset_knobs(source, passed):
    """(line, function, parameter) of every defaulted parameter in source that
    no call in passed (the passed_arguments of sources that include source)
    passes; calls match by name, and a call of a class counts toward its
    __init__.  Parameters named path (a diagnostics label) are exempt, and
    the defaults of nested functions are not looked at."""
    classes = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and sub.name == "__init__":
                    classes[sub.lineno] = node.name
    unset = []
    for line, func, param, position in defaulted_parameters(source):
        if param == "path":
            continue
        callees = [func] + ([classes[line]] if line in classes else [])
        if not any(param in kws or "**" in kws or (position is not None and most > position)
                   for kws, most in (passed.get(c, (set(), 0)) for c in callees)):
            unset.append((line, func, param))
    return unset


def test_lint_flags_an_unset_knob():
    source = (
        "def f(a, b=1, *, c=2):\n"
        "    return a\n"
        "class C:\n"
        "    def __init__(self, x=0):\n"
        "        pass\n"
        "    def m(self, y=1):\n"
        "        pass\n"
    )
    users = ["f(1)\n", "C()\n", "obj.m()\n"]
    assert unset_knobs(source, passed_arguments(_trees(source, *users))) == [
        (1, "f", "b"), (1, "f", "c"), (4, "__init__", "x"), (6, "m", "y")]


def test_lint_spares_passed_and_exempt_knobs():
    source = (
        "def f(a, b=1, *, c=2, path='<string>'):\n"
        "    def g(d=3):\n"
        "        return d\n"
        "    return g\n"
        "class C:\n"
        "    def __init__(self, x=0):\n"
        "        pass\n"
        "    def m(self, y=1):\n"
        "        pass\n"
        "    @staticmethod\n"
        "    def s(z=1):\n"
        "        pass\n"
    )
    users = ["f(1, 2, c=3)\n", "C(5)\n", "obj.m(**options)\n", "C.s(1)\n"]
    assert unset_knobs(source, passed_arguments(_trees(source, *users))) == []


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unset_knobs(module, indexes):
    assert unset_knobs(module.read_text(), indexes["arguments"]) == []


# calls that only change the container they are made on
MUTATORS = {"update", "clear", "setdefault"}


def _is_dataclass(node):
    return any(getattr(d, "id", None) == "dataclass"
               or getattr(getattr(d, "func", None), "id", None) == "dataclass"
               for d in node.decorator_list)


def attribute_writes(source):
    """(line, name) of every attribute assigned in source (`x.name = ...`,
    augmented or annotated) and of every field of a dataclass."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(t.lineno, t.attr) for target in targets for t in ast.walk(target)
                      if isinstance(t, ast.Attribute) and isinstance(t.ctx, ast.Store)]
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            found += [(s.lineno, s.target.id) for s in node.body
                      if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
    return found


def attribute_reads(trees):
    """Names of the attributes the parsed sources read: `x.name` loaded, or
    named by getattr or hasattr.  Storing into `x.name[k]` and calling
    `x.name.update`, `.clear` or `.setdefault` only write to x.name, so they
    are no reads."""
    reads = set()
    for tree in trees:
        writes_into = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
                writes_into.add(id(node.value))
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in MUTATORS):
                writes_into.add(id(node.func.value))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and id(node) not in writes_into):
                reads.add(node.attr)
            elif (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) in ("getattr", "hasattr")
                    and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)):
                reads.add(node.args[1].value)
    return reads


def write_only_attributes(source, read):
    """(line, name) of every attribute or dataclass field that source assigns
    and that is not in read, the attribute_reads of sources that include
    source itself."""
    return sorted((line, name) for line, name in attribute_writes(source) if name not in read)


def test_lint_flags_a_write_only_attribute():
    source = (
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class D:\n"
        "    kept: int\n"
        "    unread: int = 0\n"
        "class C:\n"
        "    def __init__(self, d):\n"
        "        self.table = {}\n"
        "        self.log = []\n"
        "        self.count = d.kept\n"
        "        self.table['k'] = 1\n"
        "        self.log.clear()\n"
        "    def bump(self):\n"
        "        self.count += 1\n"
    )
    assert write_only_attributes(source, attribute_reads(_trees(source))) == [
        (5, "unread"), (8, "table"), (9, "log"), (10, "count"), (14, "count")]


def test_lint_spares_read_attributes():
    source = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class D:\n"
        "    kept: int\n"
        "class C:\n"
        "    def __init__(self, d):\n"
        "        self.table = {}\n"
        "        self.flag = d.kept\n"
        "        self.table.update(x=1)\n"
    )
    users = ["print(c.table['x'])\n", "getattr(c, 'flag', None)\n"]
    assert write_only_attributes(source, attribute_reads(_trees(source, *users))) == []


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_write_only_attributes(module, indexes):
    assert write_only_attributes(module.read_text(), indexes["attribute_reads"]) == []


def test_every_package_data_glob_matches_a_file():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    setuptools = tomllib.loads((ROOT / "pyproject.toml").read_text())["tool"]["setuptools"]
    where = ROOT.joinpath(*setuptools["packages"]["find"]["where"])
    unmatched = [(package, pattern)
                 for package, patterns in setuptools["package-data"].items()
                 for pattern in patterns
                 if not any(where.joinpath(*package.split(".")).glob(pattern))]
    assert unmatched == []
