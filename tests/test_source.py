"""Checks on the package source itself, read as syntax trees."""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tensorindep"


def self_calls(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of each call by which a function of ``tree`` calls itself.

    A call from a function nested inside it counts too, as does a method
    calling itself through ``self`` or ``cls``.
    """
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute) and getattr(func.value, "id", None) in (
                "self",
                "cls",
            ):
                name = func.attr
            else:
                continue
            if name == node.name:
                found.append((call.lineno, name))
    return sorted(found)


def test_no_function_calls_itself():
    # Every search runs as a loop over an explicit stack, so its depth is
    # not bounded by the interpreter's recursion limit.
    found = [
        f"{path.name}:{line} {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, name in self_calls(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def test_self_calls_are_found():
    tree = ast.parse(
        "def direct(n):\n"
        "    return direct(n - 1)\n"
        "def outer():\n"
        "    def inner():\n"
        "        return outer()\n"
        "    return inner\n"
        "class C:\n"
        "    def method(self):\n"
        "        return self.method()\n"
        "def loop(n):\n"
        "    while n:\n"
        "        n -= 1\n"
        "    return direct(n)\n"
    )
    assert self_calls(tree) == [(2, "direct"), (5, "outer"), (9, "method")]
