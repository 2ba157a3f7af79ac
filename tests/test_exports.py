"""Every exported name resolves, so a moved or deleted function cannot
leave a stale entry in ``__all__``; and every exported name is used by
the package itself, so the public API holds only what the pipeline and
the CLI need."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import sparsett

MODULES = ["sparsett"] + [
    f"sparsett.{info.name}" for info in pkgutil.iter_modules(sparsett.__path__)
]

# Exported names that no module of the package uses, with the reason
# each stays.
UNUSED_EXPORTS = {
    "depar_general": "floating-point deparallelisation that acceptance criterion 10 checks",
    "load_tt": "reads the trains that `decompose --save-tt` writes",
    "__version__": "package metadata",
}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    assert exported, f"{name} has no __all__"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"


def _uses(tree: ast.AST, name: str) -> bool:
    """Whether ``tree`` reads ``name``, outside the ``def`` or ``class``
    that defines it and outside ``__all__``."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name == name:
                continue
        elif isinstance(node, ast.Assign):
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                continue
        elif isinstance(node, ast.Name):
            if node.id == name and isinstance(node.ctx, ast.Load):
                return True
        elif isinstance(node, ast.Attribute) and node.attr == name:
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


def test_every_export_is_used():
    trees = [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(sparsett.__file__).parent.glob("*.py"))
        if path.name != "__init__.py"
    ]
    unused = {n for n in sparsett.__all__ if not any(_uses(t, n) for t in trees)}
    assert not unused - UNUSED_EXPORTS.keys(), (
        f"exported but used by no module of the package: {sorted(unused - UNUSED_EXPORTS.keys())}"
    )
    assert unused == UNUSED_EXPORTS.keys(), (
        f"stale entries in UNUSED_EXPORTS: {sorted(UNUSED_EXPORTS.keys() - unused)}"
    )
