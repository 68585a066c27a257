"""Every helper and module-level name in ``src/hnzz`` has a reader.

A module-level function, class or assignment, or a non-dunder method,
private ones included, counts as used when its name appears outside its
own definition as an AST name or attribute in the Python files of
``src/hnzz``, ``bench/`` or ``scripts/``.  Strings, docstrings and
comments do not count, so a JSON key or a sentence that happens to spell
a helper's name keeps nothing alive.  Tests do not count either: a
helper that only the tests call belongs in the tests.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# entry points the README documents for library callers, and the tests'
# independent subspace checker
KEEP = {
    "is_semistable",
    "hn_r_filtration_eval",
    "sheaf_euler_characteristic",
    "recover_barcode_via_truncations",
    "subspace_contains",
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module):
    """(qualified name, bare name, node) of each module-level function, class
    and assignment target, and of each non-dunder method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name, node
        elif isinstance(node, ast.ClassDef):
            yield node.name, node.name, node
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name):
                    yield f"{node.name}.{item.name}", item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not _is_dunder(target.id):
                    yield target.id, target.id, node


def _names(node: ast.AST) -> Counter:
    """How often each name or attribute occurs under ``node``."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    )


def test_every_helper_has_a_caller():
    trees = {path.stem: ast.parse(path.read_text()) for path in (ROOT / "src" / "hnzz").glob("*.py")}
    used = sum((_names(tree) for tree in trees.values()), Counter())
    for folder in ("bench", "scripts"):
        for path in (ROOT / folder).rglob("*.py"):
            used += _names(ast.parse(path.read_text()))
    dead = sorted(
        f"{module}.{qualified}"
        for module, tree in trees.items()
        for qualified, name, node in _definitions(tree)
        if name not in KEEP and used[name] == _names(node)[name]
    )
    assert dead == [], f"names that nothing in src/hnzz, bench/ or scripts/ reads: {dead}"
