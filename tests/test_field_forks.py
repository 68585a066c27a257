"""Only a few places in ``src/hnzz`` ask which field they have.

Elimination, products and the flag operations run one integer-row kernel
for QQ and GF(p), and the field supplies its own row step.  An
``isinstance`` test naming ``RationalField`` or ``PrimeField`` anywhere
but in the definitions below is a per-field fork, and fails here.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hnzz"
FIELD_CLASSES = {"RationalField", "PrimeField"}

# (module, top-level definition) of each field test that may stay
ALLOWED = {
    ("linalg", "random_invertible_rng"),  # residues over GF(p), small ints over QQ
    ("serialize", "_field_to_json"),  # the instance format writes each field its own way
    ("serialize", "_entry_to_json"),
    ("serialize", "instance_from_json"),
    ("generators", "gen_affine"),  # a random nonzero eigenvalue of the field
    ("hn", "_check_oracle_guard"),  # the oracle runs over prime fields only
}


def _field_tests(tree: ast.Module):
    """The name of each top-level definition once per field-class isinstance test in it."""
    for top in tree.body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2):
                named = {sub.id if isinstance(sub, ast.Name) else sub.attr
                         for sub in ast.walk(node.args[1])
                         if isinstance(sub, (ast.Name, ast.Attribute))}
                if named & FIELD_CLASSES:
                    yield getattr(top, "name", "<module>")


def test_field_class_tests_stay_where_they_are():
    found = {
        (path.stem, name)
        for path in SRC.glob("*.py")
        for name in _field_tests(ast.parse(path.read_text()))
    }
    assert found - ALLOWED == set(), "a new per-field fork; run it through the field's methods"
    assert ALLOWED - found == set(), "an allowed definition no longer tests its field"
