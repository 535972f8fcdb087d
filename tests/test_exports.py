import ast
import importlib
import pkgutil
from pathlib import Path

import polyadnet

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    # a stale __all__ entry only fails at "import *"; name it here instead
    modules = [polyadnet] + [
        importlib.import_module(f"polyadnet.{info.name}")
        for info in pkgutil.iter_modules(polyadnet.__path__)
    ]
    stale = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert stale == []


def _public_api(tree: ast.Module, module: str):
    """(qualified name, name) of each ``__all__`` entry and public method."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            for elt in node.value.elts:
                yield f"{module}.{elt.value}", elt.value
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and item.name[0] != "_":
                    yield f"{module}.{node.name}.{item.name}", item.name


def _references(tree: ast.Module) -> set[str]:
    """Names read as a name or an attribute, except inside a definition of
    the same name; imports and ``__all__`` strings are no reference."""
    found = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and node.id not in inside:
            found.add(node.id)
        if isinstance(node, ast.Attribute) and node.attr not in inside:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def test_no_public_name_serves_only_the_tests():
    # every exported name and public method has a caller in the package or
    # the benchmark; a helper only tests need belongs in tests/oracles.py
    src = {p: ast.parse(p.read_text()) for p in sorted((ROOT / "src" / "polyadnet").glob("*.py"))}
    bench = [ast.parse(p.read_text()) for p in sorted((ROOT / "perfbench").glob("*.py"))]
    used = set().union(*map(_references, [*src.values(), *bench]))
    unused = [
        qualified
        for path, tree in src.items()
        for qualified, name in _public_api(tree, path.stem)
        if name not in used
    ]
    assert unused == []
