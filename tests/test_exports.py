"""Every exported name resolves, so a deleted function leaves no stale
export, and every imported name is used or exported, so a deleted use
leaves no stale import."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import greedytree

MODULES = ["greedytree"] + [
    f"greedytree.{info.name}" for info in pkgutil.iter_modules(greedytree.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


# perfbench/layers.py wraps these two where ``greedy`` looks them up, so the
# module keeps them though it calls neither.
UNUSED_IMPORTS_KEPT = {
    ("greedytree.greedy", "f_completion"),
    ("greedytree.greedy", "subfunction_summary"),
}


def _unused_imports(source: str) -> list[str]:
    """Names the module imports but neither reads nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported = [
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    path = Path(importlib.import_module(name).__file__)
    unused = [n for n in _unused_imports(path.read_text()) if (name, n) not in UNUSED_IMPORTS_KEPT]
    assert not unused, f"{name} imports but never uses: {unused}"


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom typing import Any, List\n"
    source += "__all__ = ['Any']\nnp.zeros(List)\n"
    assert _unused_imports(source) == ["os"]
