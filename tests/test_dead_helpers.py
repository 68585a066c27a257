"""Every helper in ``src/hnzz`` has a caller.

A public function or a non-dunder method counts as used when its name
appears outside its own ``def``: as an AST name or attribute anywhere in
``src/hnzz`` (strings and docstrings do not count), or as a word in the
Python files of ``bench/`` or ``scripts/``.  Tests do not count: a
helper that only the tests call belongs in the tests.
"""

import ast
import re
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


def _definitions(tree: ast.Module):
    """(qualified name, def node) of each public function and non-dunder method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item


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
    words = set()
    for folder in ("bench", "scripts"):
        for path in (ROOT / folder).rglob("*.py"):
            words.update(re.findall(r"\w+", path.read_text()))
    dead = sorted(
        f"{module}.{qualified}"
        for module, tree in trees.items()
        for qualified, node in _definitions(tree)
        if node.name not in KEEP | words and used[node.name] == _names(node)[node.name]
    )
    assert dead == [], f"helpers that nothing in src/hnzz, bench/ or scripts/ calls: {dead}"
