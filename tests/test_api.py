"""Tooling checks over the package source."""

import ast
import pathlib
import re

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "rcdlab"
README = SRC.parents[1] / "README.md"


def _unread_parameters(path):
    """(line, function, parameter) for every parameter its function never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        read = {
            n.id
            for stmt in node.body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        out += [(node.lineno, node.name, p) for p in params if p not in read]
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    # a parameter nobody reads lets a caller set a value and believe it mattered
    assert _unread_parameters(path) == []


def test_the_check_sees_an_ignored_parameter(tmp_path):
    f = tmp_path / "m.py"
    f.write_text("def check(flow, dt=None):\n    return flow\n\n"
                 "def outer(a, b):\n    def inner():\n        return b\n    return a, inner\n")
    assert _unread_parameters(f) == [(1, "check", "dt")]


def _own_nodes(function):
    """The nodes of a function's body outside the functions nested in it."""
    todo = list(function.body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))


def _unread_locals(path):
    """(line, function, name) for every local a function assigns and neither it
    nor a function nested in it reads; _ and global or nonlocal names excepted."""
    tree = ast.parse(path.read_text(), filename=str(path))
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {n.id for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        shared = {name for n in _own_nodes(node) if isinstance(n, (ast.Global, ast.Nonlocal)) for name in n.names}
        out += [(n.lineno, node.name, n.id) for n in _own_nodes(node)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store) and n.id not in read | shared | {"_"}]
    return sorted(out)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_local_is_read(path):
    # a value nobody reads is work, sometimes a whole LP, that changes nothing
    assert _unread_locals(path) == []


def test_the_check_sees_an_unread_local(tmp_path):
    f = tmp_path / "m.py"
    f.write_text("def solve(a):\n    cost, _, u, v = a\n    for k, t in enumerate(v):\n        cost += k\n"
                 "    n = 0\n\n    def inner():\n        nonlocal n\n        n = 1\n        unused = 2\n"
                 "        return cost\n    return inner, n\n")
    assert _unread_locals(f) == [(2, "solve", "u"), (3, "solve", "t"), (10, "inner", "unused")]


def _scipy_optimize_uses(path, name):
    """Lines that import or call scipy.optimize's function of that name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy.optimize"):
            out += [node.lineno for alias in node.names if alias.name == name]
        elif isinstance(node, ast.Attribute) and node.attr == name:
            out.append(node.lineno)
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_uses_scipy_linprog(path):
    # every LP is one direct HiGHS call through solvers.linprog
    assert _scipy_optimize_uses(path, "linprog") == []


def test_the_check_sees_scipy_linprog(tmp_path):
    f = tmp_path / "m.py"
    f.write_text("from scipy.optimize import minimize, linprog\nimport scipy.optimize\n\n"
                 "def solve(c):\n    return scipy.optimize.linprog(c)\n")
    assert _scipy_optimize_uses(f, "linprog") == [1, 5]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_uses_scipy_minimize(path):
    # dirichlet._lbfgsb drives L-BFGS-B's C core directly, and _hull_minimize
    # is the package's own interior-point method
    assert _scipy_optimize_uses(path, "minimize") == []


def test_the_check_sees_scipy_minimize(tmp_path):
    f = tmp_path / "m.py"
    f.write_text("from scipy.optimize import minimize, linprog\nimport scipy.optimize\n\n"
                 "def solve(f, x0):\n    return scipy.optimize.minimize(f, x0)\n")
    assert _scipy_optimize_uses(f, "minimize") == [1, 5]


def _private_scipy_modules(paths):
    """The private scipy modules the files import or load with
    _scipy_extension("..."), each named up to its first component that starts
    with an underscore."""
    out = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_scipy_extension":
                names = [a.value for a in node.args if isinstance(a, ast.Constant) and isinstance(a.value, str)]
            else:
                continue
            for parts in (name.split(".") for name in names if name.startswith("scipy.")):
                private = [i for i, part in enumerate(parts) if part.startswith("_")]
                if private:
                    out.add(".".join(parts[: private[0] + 1]))
    return sorted(out)


def test_the_package_imports_only_two_private_scipy_modules():
    # linprog drives HiGHS and dirichlet._lbfgsb L-BFGS-B through these; a
    # scipy release may change either without notice
    assert _private_scipy_modules(sorted(SRC.glob("*.py"))) == ["scipy.optimize._highspy", "scipy.optimize._lbfgsb"]


def test_the_check_sees_a_private_scipy_import(tmp_path):
    f = tmp_path / "m.py"
    f.write_text("from scipy.optimize._slsqplib import slsqp\nimport scipy.sparse\nfrom numpy._core import umath\n"
                 "from scipy.optimize import _lbfgsb, minimize\nimport scipy.optimize._highspy._core as core\n")
    assert _private_scipy_modules([f]) == ["scipy.optimize._highspy", "scipy.optimize._lbfgsb",
                                           "scipy.optimize._slsqplib"]
    f.write_text("import scipy.sparse\nslsqp = _scipy_extension(\"scipy.optimize._slsqplib\").slsqp\n"
                 "name = \"scipy.optimize._lbfgsb\"\n")
    assert _private_scipy_modules([f]) == ["scipy.optimize._slsqplib"]


def _functions_naming(paths, attr):
    """(file, function) of every function of the files whose own body names
    attr as an attribute, such as _highs._Highs( or highs.getModelStatus."""
    out = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    isinstance(n, ast.Attribute) and n.attr == attr for n in _own_nodes(node)):
                out.append((path.name, node.name))
    return sorted(out)


def test_one_function_builds_highs_instances_and_reads_their_status():
    # linprog is the one LP wrapper: it alone makes HiGHS instances (or takes
    # an idle one) and interprets a solver status
    paths = sorted(SRC.glob("*.py"))
    assert _functions_naming(paths, "_Highs") == [("solvers.py", "linprog")]
    assert _functions_naming(paths, "getModelStatus") == [("solvers.py", "linprog")]


def test_the_check_sees_a_second_lp_wrapper(tmp_path):
    f = tmp_path / "m.py"
    f.write_text("def solve(lp):\n    h = _highs._Highs()\n    return h.getModelStatus()\n\n"
                 "def other(h):\n    def inner():\n        return h.getModelStatus()\n    return inner\n")
    assert _functions_naming([f], "_Highs") == [("m.py", "solve")]
    assert _functions_naming([f], "getModelStatus") == [("m.py", "inner"), ("m.py", "solve")]


def _kept_state(paths):
    """(module, name) of every function of the files under a functools cache
    or lru_cache decorator, and of every module-level name bound to a
    weakref.WeakKeyDictionary(...) or collections.deque(...)."""
    def called(node):
        node = node.func if isinstance(node, ast.Call) else node
        return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)

    out = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    called(d) in ("cache", "lru_cache") for d in node.decorator_list):
                out.append((path.stem, node.name))
        for node in tree.body:
            if (isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.Call)
                    and called(node.value) in ("WeakKeyDictionary", "deque")):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                out += [(path.stem, t.id) for t in targets if isinstance(t, ast.Name)]
    return sorted(out)


# the state the package keeps between calls, each with the measurement that
# keeps it (at 1 BLAS thread)
_KEPT_STATE = {
    ("dirichlet", "_openblas_threads"): "the /proc/self/maps scan and ctypes lookups take about 0.4 ms a call",
    ("heat", "_SPECTRAL"): "semigroup_apply on cycle:64 takes 17 us with the eigenbasis kept, 450 us without",
    ("ot", "_ARCS"): "the ascending slopes on random_metric:128 take 46 us with the arcs kept, 1.45 ms without",
    ("solvers", "_IDLE"): "a new HiGHS instance costs 70 to 110 us, more than many small LPs take to solve",
}


def test_the_package_keeps_only_measured_state():
    # a cache that nothing measured keeps memory and a second source of truth
    # for nothing; transport models are laid out anew for each LP
    assert [s for s in _kept_state(sorted(SRC.glob("*.py"))) if s not in _KEPT_STATE] == []


def test_the_check_sees_caches_and_module_state(tmp_path):
    f = tmp_path / "m.py"
    f.write_text("import collections, functools, weakref\nfrom functools import lru_cache\n\n"
                 "@functools.lru_cache(maxsize=None)\ndef a(n):\n    return n\n\n@lru_cache\ndef b(n):\n    return n\n\n"
                 "@functools.cache\ndef c():\n    return 1\n\n@functools.wraps(c)\ndef d():\n    return 2\n\n"
                 "_E = weakref.WeakKeyDictionary()\n_F: collections.deque = collections.deque(maxlen=4)\n_G = dict()\n\n"
                 "def h():\n    local = collections.deque()\n    return local\n")
    assert _kept_state([f]) == [("m", "_E"), ("m", "_F"), ("m", "a"), ("m", "b"), ("m", "c")]


def _unreferenced_definitions(defining, searched):
    """(file, line, name) for every function, method and class defined in the
    defining files, dunders excepted, that no Name, Attribute or import in
    the searched files names."""
    named = set()
    for path in searched:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name.rsplit(".", 1)[-1])
    out = []
    for path in defining:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))
                    and node.name not in named):
                out.append((path.name, node.lineno, node.name))
    return sorted(out)


def test_every_definition_is_referenced():
    # code that nothing calls is kept working by nobody
    root = SRC.parents[1]
    searched = [p for d in ("src", "tests", "perfbench") for p in sorted((root / d).rglob("*.py"))]
    assert _unreferenced_definitions(sorted(SRC.glob("*.py")), searched) == []


def test_the_check_sees_an_unreferenced_definition(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text("class Space:\n    def __init__(self):\n        pass\n\n    def size(self):\n        return 1\n\n"
                   "    def dead(self):\n        return 0\n\n"
                   "def build():\n    return Space()\n\ndef unused():\n    pass\n\ndef imported():\n    pass\n")
    user = tmp_path / "user.py"
    user.write_text("from lib import imported\n\ndef test():\n    return build().size()\n")
    assert _unreferenced_definitions([lib], [lib, user]) == [("lib.py", 8, "dead"), ("lib.py", 14, "unused")]


def _ledger_rows(readme):
    """The stripped cells of each row of the table under readme's
    '## API ledger' heading."""
    section = readme.read_text().split("\n## API ledger\n", 1)[1].split("\n## ", 1)[0]
    return [[cell.strip() for cell in line.split("|")[1:-1]] for line in section.splitlines() if line.startswith("|")]


def _exports_and_ledger_names(init, readme):
    """The names init imports, and the names that first-column cells of the
    ledger give in backquotes."""
    exports = {a.asname or a.name for node in ast.parse(init.read_text()).body
               if isinstance(node, ast.ImportFrom) for a in node.names}
    return exports, {name for row in _ledger_rows(readme) for name in re.findall(r"`(\w+)`", row[0])}


def _unledgered_exports(init, readme):
    """The exports that no ledger row names."""
    exports, ledger = _exports_and_ledger_names(init, readme)
    return sorted(exports - ledger)


def _stale_ledger_names(init, readme):
    """The names ledger rows give that are not exports."""
    exports, ledger = _exports_and_ledger_names(init, readme)
    return sorted(ledger - exports)


def test_every_export_has_a_ledger_row():
    # a public name states what it checks, what it returns and who calls it
    assert _unledgered_exports(SRC / "__init__.py", README) == []


def test_every_ledger_row_names_an_export():
    # a row for a deleted or private name documents code nobody can call
    assert _stale_ledger_names(SRC / "__init__.py", README) == []


def _uncalled_results(readme):
    """The names of the ledger rows that state a result, their statement
    cell not starting with "—", yet name "none" as their caller."""
    return sorted(name for row in _ledger_rows(readme)
                  if not row[1].startswith("—") and re.match(r"none\b", row[-1])
                  for name in re.findall(r"`(\w+)`", row[0]))


def test_every_stated_result_has_a_caller():
    # a check that no criterion, task or workload runs gates nothing
    assert _uncalled_results(README) == []


def _ledger_fixture(tmp_path):
    init = tmp_path / "__init__.py"
    init.write_text("from .a import (\n    kept,\n    probe,\n)\nfrom .b import Report, checked\n\n__version__ = '0'\n")
    readme = tmp_path / "README.md"
    readme.write_text("# lib\n\n## API ledger\n\n| name | statement | returns | caller |\n|---|---|---|---|\n"
                      "| `kept`, `Report` | like `probe` | residual | none |\n| `checked` | a law | residual | criterion 1 |\n"
                      "| `gone` | — builds | plain value | none: users |\n\n## Notes\n\n"
                      "| `probe` | a law | residual | none |\n| `elsewhere` | | | |\n")
    return init, readme


def test_the_check_sees_a_missing_ledger_row(tmp_path):
    assert _unledgered_exports(*_ledger_fixture(tmp_path)) == ["probe"]


def test_the_check_sees_a_stale_ledger_row(tmp_path):
    assert _stale_ledger_names(*_ledger_fixture(tmp_path)) == ["gone"]


def test_the_check_sees_a_stated_result_without_a_caller(tmp_path):
    assert _uncalled_results(_ledger_fixture(tmp_path)[1]) == ["Report", "kept"]


def _tagged_measures(path):
    """Lines that call ProbMeasure with a third positional argument or meta=."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "ProbMeasure":
            if len(node.args) > 2 or any(k.arg == "meta" for k in node.keywords):
                out.append(node.lineno)
    return out


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "measures.py"], ids=lambda p: p.name)
def test_only_the_measure_constructors_tag_a_measure(path):
    # the geodesic builder reads mu0's profile tag, so a tag comes only from a
    # constructor that derives it from the weights it builds
    assert _tagged_measures(path) == []


def test_the_check_sees_a_tagged_measure(tmp_path):
    f = tmp_path / "m.py"
    f.write_text("from rcdlab import measures\nfrom rcdlab.measures import ProbMeasure\n\n"
                 "def build(s, w, tag):\n    a = ProbMeasure(s, w)\n    b = ProbMeasure(s, w, tag)\n"
                 "    return a, b, measures.ProbMeasure(s, w, meta=tag)\n")
    assert _tagged_measures(f) == [6, 7]
