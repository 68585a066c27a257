"""No code in ``src/hnzz`` keys its work by Python object identity.

The barcode sweep shares work by a crossing's place in the period of
the path, so equal matrices held by distinct objects cost the same as
one object reused.  An ``id(...)`` call makes a result or its cost
depend on which objects a caller happened to reuse, and fails here.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hnzz"


def test_no_identity_keys():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "id"
    ]
    assert found == [], "work keyed by object identity; key it by value or by position"
