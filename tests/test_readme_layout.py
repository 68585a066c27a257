"""README's "Library layout" table names the public surface, and only it.

Every name in the table exists in the package.

A backticked identifier in the table must name a builtin (``int``), an
``hnzz`` submodule (``affine``, ``hnzz.linalg``), or an attribute path of
``hnzz`` or of one of its submodules (``HNReport.merged``,
``campaign.fast_report``).  A call suffix such as ``(rep, u, v)`` is
dropped, and ``draw_a``/``check_a`` counts as two names.  A change that
deletes or renames a documented name must mend the table too.

The table is also the public surface: it names every public function
and class of the library modules (``public_names`` of
``tests/test_library_fuzz.py``), bare or as ``module.name``, and no
private name.  A helper that only its own package calls takes a leading
underscore and is described in its module's docstring instead.
"""

import builtins
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import hnzz
from test_library_fuzz import public_names

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {
    info.name: importlib.import_module(f"hnzz.{info.name}")
    for info in pkgutil.iter_modules(hnzz.__path__)
}


def layout_names() -> list[str]:
    section = README.read_text(encoding="utf-8").split("## Library layout", 1)[1]
    section = section.split("\n## ", 1)[0]
    names = set()
    for span in re.findall(r"`([^`]+)`", section):
        for part in re.sub(r"\(.*\)$", "", span).split("/"):
            if re.fullmatch(r"[A-Za-z_][\w.]*", part):
                names.add(part)
    return sorted(names)


def resolves(name: str) -> bool:
    head, *rest = name.split(".")
    if head == "hnzz":
        obj = hnzz
    elif head in MODULES:
        obj = MODULES[head]
    elif hasattr(builtins, head):
        obj = getattr(builtins, head)
    else:
        owners = [m for m in MODULES.values() if hasattr(m, head)]
        if not owners:
            return False
        obj = getattr(owners[0], head)
    for attr in rest:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_table_found():
    assert len(layout_names()) > 40


@pytest.mark.parametrize("name", layout_names())
def test_documented_name_exists(name):
    assert resolves(name), f"README's Library layout names {name!r}, which hnzz does not define"


def test_table_names_every_public_name():
    named = set(layout_names())
    missing = sorted(name for name in public_names()
                     if name not in named and name.split(".", 1)[1] not in named)
    assert missing == [], f"public, but not in README's Library layout table: {missing}"


def test_table_names_no_private_name():
    private = [name for name in layout_names()
               if any(part.startswith("_") for part in name.split("."))]
    assert private == [], f"README's Library layout table names private {private}"
