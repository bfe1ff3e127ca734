"""Tooling checks over the package source."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "rcdlab"


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
    # _hull_minimize drives SLSQP's C core and _dual_minimize L-BFGS-B's directly
    assert _scipy_optimize_uses(path, "minimize") == []


def test_the_check_sees_scipy_minimize(tmp_path):
    f = tmp_path / "m.py"
    f.write_text("from scipy.optimize import minimize, linprog\nimport scipy.optimize\n\n"
                 "def solve(f, x0):\n    return scipy.optimize.minimize(f, x0)\n")
    assert _scipy_optimize_uses(f, "minimize") == [1, 5]


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
