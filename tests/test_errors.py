"""Static guards on the two error families of the CLI exit-code contract:
``ConfigError`` exits 1 and ``IoError`` exits 2. Any other exception that
leaves the package escapes ``cli.main`` as a traceback."""

from __future__ import annotations

import ast
import glob
import inspect
import os

import speclab
from speclab import errors

SOURCES = sorted(glob.glob(os.path.join(os.path.dirname(speclab.__file__), "*.py")))
FAMILIES = {"ConfigError", "IoError"}


def _name(node: ast.expr | None) -> str | None:
    """The class a ``raise`` or ``except`` names: ``X``, ``X(...)`` or ``m.X``."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _caught(handlers: list[ast.ExceptHandler]) -> set[str | None]:
    names: set[str | None] = set()
    for handler in handlers:
        kinds = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        names.update(_name(kind) for kind in kinds)
    return names


def _stray_raises(tree: ast.AST, path: str) -> list[str]:
    """Each ``raise`` in ``tree`` that names neither family nor a class that
    an enclosing ``try`` of the same function catches, as ``path:line``."""
    stray: list[str] = []

    def visit(node: ast.AST, caught: frozenset) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            caught = frozenset()  # a handler outside the function is not its own
        if isinstance(node, ast.Raise) and node.exc is not None:
            name = _name(node.exc)
            if name not in FAMILIES and name not in caught:
                stray.append(f"{os.path.basename(path)}:{node.lineno} raises {name}")
        if isinstance(node, ast.Try):
            inner = caught | _caught(node.handlers)
            for child in node.body:
                visit(child, inner)
            for child in (*node.handlers, *node.orelse, *node.finalbody):
                visit(child, caught)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, caught)

    visit(tree, frozenset())
    return stray


def test_every_raise_names_an_error_family_or_is_caught_in_place():
    stray = []
    for path in SOURCES:
        with open(path, encoding="utf-8") as fh:
            stray += _stray_raises(ast.parse(fh.read(), path), path)
    assert stray == []


def test_the_guard_sees_a_stray_raise():
    source = (
        "def f():\n"
        "    try:\n"
        "        raise ValueError('caught here')\n"
        "    except (KeyError, ValueError):\n"
        "        raise ValueError('not caught')\n"
        "    raise errors.ConfigError('a family')\n"
        "def g():\n"
        "    raise KeyError('no try of its own')\n"
    )
    assert _stray_raises(ast.parse(source), "m.py") == ["m.py:5 raises ValueError", "m.py:8 raises KeyError"]


def test_errors_defines_one_class_per_exit_code():
    classes = {
        name for name, obj in vars(errors).items()
        if inspect.isclass(obj) and obj.__module__ == errors.__name__
    }
    assert classes == {"SpecLabError", "ConfigError", "IoError"}
    assert (errors.ConfigError.exit_code, errors.IoError.exit_code) == (1, 2)
    assert issubclass(errors.ConfigError, errors.SpecLabError)
    assert issubclass(errors.IoError, errors.SpecLabError)
