"""Every helper and module-level name in ``src/hnzz`` has a reader.

A module-level function, class or assignment, or a non-dunder method,
private ones included, counts as used when its name appears outside its
own definition as an AST name or attribute in the Python files of
``src/hnzz``, ``bench/`` or ``scripts/``.  Strings, docstrings and
comments do not count, so a JSON key or a sentence that happens to spell
a helper's name keeps nothing alive.  An attribute ``C.name`` on a class
``C`` defined in ``src/hnzz`` counts only for the method ``C.name``, so
``Matrix.zeros(...)`` keeps no module-level ``zeros`` alive.
Tests do not count either: a helper that only the tests call belongs in
the tests.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# entry points the README documents for library callers (``lift_truncated``
# is the paper's unwinding, which ``classify_lift`` sweeps without building;
# ``recover_N_multiplicities`` reads one class, and ``campaign.check_b``
# reads many through the same private step), and the tests' independent
# subspace checker
KEEP = {
    "is_semistable",
    "hn_r_filtration_eval",
    "sheaf_euler_characteristic",
    "recover_barcode_via_truncations",
    "recover_N_multiplicities",
    "lift_truncated",
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


def _names(node: ast.AST, classes: set[str]) -> Counter:
    """How often each name or attribute occurs under ``node``; an attribute
    of one of ``classes`` counts under its qualified name ``C.name``."""
    out: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            base = sub.value
            on_class = isinstance(base, ast.Name) and base.id in classes
            out[f"{base.id}.{sub.attr}" if on_class else sub.attr] += 1
    return out


def test_every_helper_has_a_caller():
    trees = {path.stem: ast.parse(path.read_text()) for path in (ROOT / "src" / "hnzz").glob("*.py")}
    classes = {
        node.name for tree in trees.values() for node in tree.body if isinstance(node, ast.ClassDef)
    }
    used = sum((_names(tree, classes) for tree in trees.values()), Counter())
    for folder in ("bench", "scripts"):
        for path in (ROOT / folder).rglob("*.py"):
            used += _names(ast.parse(path.read_text()), classes)

    def unread(qualified: str, name: str, node: ast.AST) -> bool:
        own = _names(node, classes)
        return all(used[key] == own[key] for key in {qualified, name})

    dead = sorted(
        f"{module}.{qualified}"
        for module, tree in trees.items()
        for qualified, name, node in _definitions(tree)
        if name not in KEEP and unread(qualified, name, node)
    )
    assert dead == [], f"names that nothing in src/hnzz, bench/ or scripts/ reads: {dead}"
