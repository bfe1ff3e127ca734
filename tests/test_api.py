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
