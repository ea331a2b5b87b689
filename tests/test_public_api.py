"""The public surface of every ``repro`` package stays importable and typed.

Deleting code leaves two kinds of dangling reference behind that nothing
else in the suite trips over: an ``__all__`` entry naming something that is
gone (``from repro.serving import *`` then raises), and an annotation naming
something never imported (``from __future__ import annotations`` keeps it
hidden until ``typing.get_type_hints`` resolves it).
"""

from __future__ import annotations

import ast
import importlib
import inspect
import sys
import typing

import pytest

PACKAGES = [
    "repro.baselines",
    "repro.compile",
    "repro.core",
    "repro.datasets",
    "repro.experiments",
    "repro.hierarchy",
    "repro.nn",
    "repro.serving",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_exists(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names what it no longer defines: {missing}"
    assert len(set(module.__all__)) == len(module.__all__), f"{package}.__all__ repeats a name"
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def _typing_only_names(module) -> dict:
    """Names ``module`` imports under ``if TYPE_CHECKING:`` (import-cycle guards)."""
    names = {}
    for node in ast.parse(inspect.getsource(module)).body:
        if not (isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING"):
            continue
        for statement in node.body:
            if isinstance(statement, ast.ImportFrom):
                source = importlib.import_module(
                    "." * statement.level + (statement.module or ""), module.__package__
                )
                for alias in statement.names:
                    names[alias.asname or alias.name] = getattr(source, alias.name)
    return names


def _annotated(item):
    """``item`` and, for a class, the functions and property getters it defines."""
    yield item
    if inspect.isclass(item):
        for member in vars(item).values():
            member = member.fget if isinstance(member, property) else member
            if inspect.isfunction(member):
                yield member


@pytest.mark.parametrize("package", PACKAGES)
def test_public_type_hints_resolve(package):
    """Every public function, class and method annotates with names its
    module imports -- at run time, or only for type checking."""
    module = importlib.import_module(package)
    for name in module.__all__:
        item = getattr(module, name)
        if not (inspect.isfunction(item) or inspect.isclass(item)):
            continue
        typing_only = _typing_only_names(sys.modules[item.__module__])
        for target in _annotated(item):
            typing.get_type_hints(target, localns=typing_only or None)
