"""No module of ``tdk`` imports a name that it never uses.

A pass over the syntax tree with the standard ``ast`` module, as the
project takes no linter as a test dependency.  An import binds names in the
scope it appears in: the module, a class body or a function body, so an
import inside a function must be read inside that function.  A name counts
as used when its scope reads it anywhere below it (nested functions, classes
and quoted annotations included), and a module-level name also when
``__all__`` lists it.  ``from __future__`` imports bind nothing, and an
import whose line carries ``# noqa: F401`` is a deliberate re-export.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "tdk"
MODULES = sorted(path.name for path in SRC.glob("*.py"))
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _annotations(node):
    """The annotation expressions of a function or annotated assignment."""
    if isinstance(node, ast.AnnAssign):
        return [node.annotation]
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        a = node.args
        args = a.posonlyargs + a.args + a.kwonlyargs + [x for x in (a.vararg, a.kwarg) if x]
        returns = [node.returns] if node.returns else []
        return [x.annotation for x in args if x.annotation] + returns
    return []


def _reads(scope):
    """Every name read below ``scope``, quoted annotations parsed."""
    names = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        for ann in _annotations(node):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names |= _reads(ast.parse(ann.value, mode="eval"))
    return names


def _exported(tree):
    """The names a literal ``__all__`` of the module lists."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            try:
                return set(ast.literal_eval(node.value))
            except ValueError:
                return set()
    return set()


def unused_imports(source):
    """(line, name) of each imported name that its scope never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    exported = _exported(tree)
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                if isinstance(child, ast.ImportFrom) and child.module == "__future__":
                    continue
                reads = _reads(scope) | (exported if isinstance(scope, ast.Module) else set())
                for alias in child.names:
                    if any("# noqa: F401" in lines[i - 1] for i in (alias.lineno, child.lineno)):
                        continue
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in reads:
                        found.append((alias.lineno, name))
            visit(child, child if isinstance(child, SCOPES) else scope)

    visit(tree, tree)
    return found


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_no_unused_name(module):
    assert unused_imports((SRC / module).read_text()) == []


def test_the_check_finds_unused_imports_in_every_scope():
    source = '''\
from __future__ import annotations
import os
import os.path as osp
from json import dumps, loads  # noqa: F401
from re import compile as rx

__all__ = ["rx"]


def f() -> "Path":
    from pathlib import Path
    import sys
    return os.sep


class C:
    from math import pi
    from math import tau

    def area(self):
        return self.pi
'''
    assert unused_imports(source) == [(3, "osp"), (12, "sys"), (17, "pi"), (18, "tau")]
