"""Each module's public surface stays honest: its ``__all__`` names only what
the module binds, and it imports nothing it does not use.  Read from the
source with ``ast``, so no linter is needed.  The package holds each of
those names once, as the module's own object."""

import ast
import importlib
from pathlib import Path

import pytest

import fbsplit

_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fbsplit"
_MODULES = sorted(p for p in _PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    """Each name a module-level import binds, with its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                names[name] = node.lineno
    return names


def _bound_names(tree):
    """Every name the module body binds at module level."""
    bound = set(_imported_names(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            bound.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return bound


def _all_entries(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.stem)
def test_every_all_entry_is_bound(path):
    tree = ast.parse(path.read_text())
    missing = set(_all_entries(tree)) - _bound_names(tree)
    assert not missing, f"{path.name}: __all__ names unbound {sorted(missing)}"


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.stem)
def test_no_module_level_import_goes_unused(path):
    tree = ast.parse(path.read_text())
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used.update(_all_entries(tree))
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_package_holds_every_module_all_once():
    owners = {}
    for path in _MODULES:
        module = importlib.import_module(f"fbsplit.{path.stem}")
        for name in getattr(module, "__all__", ()):
            assert name not in owners, f"{name} exported by {owners.get(name)} and {path.stem}"
            owners[name] = path.stem
            assert getattr(fbsplit, name, None) is getattr(module, name), \
                f"fbsplit.{name} is not {path.stem}.{name}"
