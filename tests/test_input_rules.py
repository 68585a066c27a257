"""Each input rule of ``src/hnzz`` has one definition.

An int proper is ``errors.is_int`` / ``check_ints``, and a value of one
type is ``errors.check_type`` (``linalg.check_field`` for a field).  An
``if isinstance(...)`` that raises ``ValidationError``, or an
``isinstance(x, bool)`` test, anywhere but in ``errors`` and the
definitions below is a hand-rolled copy of one of them, and fails here.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hnzz"

# (module, definition) of each hand-rolled test that may stay, with the reason
ALLOWED = {
    ("linalg", "RationalField.coerce"): "runs once per QQ matrix entry",
    ("linalg", "PrimeField.coerce"): "runs once per GF(p) matrix entry",
    ("linalg", "check_field"): "the field rule itself",
    ("linalg", "Matrix.__init__"): "the row-shape tests: data and each row a list or tuple",
    ("quiver", "StabilityCondition.__post_init__"): "weights come as a list or tuple only",
}


def _is_isinstance(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2)


def _raises_validation_error(statements) -> bool:
    for statement in statements:
        for node in ast.walk(statement):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "ValidationError":
                    return True
    return False


def _hand_rolled(tree: ast.Module):
    """The dotted name of the innermost definition around each hand-rolled test."""

    def visit(node, name):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{name}.{node.name}" if name else node.name
        if isinstance(node, ast.If) and any(map(_is_isinstance, ast.walk(node.test))):
            if _raises_validation_error(node.body):
                yield name
        if _is_isinstance(node) and any(isinstance(sub, ast.Name) and sub.id == "bool"
                                        for sub in ast.walk(node.args[1])):
            yield name
        for child in ast.iter_child_nodes(node):
            yield from visit(child, name)

    yield from visit(tree, "")


def test_each_input_rule_has_one_definition():
    found = {
        (path.stem, name)
        for path in SRC.glob("*.py") if path.stem != "errors"
        for name in _hand_rolled(ast.parse(path.read_text()))
    }
    assert found - ALLOWED.keys() == set(), "call the shared rule in errors (or check_field)"
    assert ALLOWED.keys() - found == set(), "an allowed definition no longer tests by hand"
