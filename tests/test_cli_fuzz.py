"""Fuzz of the CLI input boundary: arbitrary JSON never escapes ``main``.

Every instance or weights file, however malformed, must end in one of the
documented exit codes; an exception leaving ``main`` fails the test.
Examples are derandomized so the suite stays deterministic.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hnzz.affine import CCW, CW, AffineQuiver, indec_N
from hnzz.cli import main
from hnzz.generators import equioriented_quiver
from hnzz.linalg import GF, QQ
from hnzz.serialize import instance_to_json
from hnzz.zigzag import Interval, interval_module

EXIT_CODES = {0, 2, 3, 4, 5}

# the keys and words of the instance format, so that documents get past
# the first lookup often enough to reach the deeper checks
WORDS = ("field", "kind", "prime", "rational", "p", "quiver", "affine", "n",
         "orientation", "vertices", "edges", "src", "dst", "dims", "matrices",
         "edge", "rows")

scalars = (st.none() | st.booleans() | st.integers(-20, 20) | st.floats()
           | st.text(max_size=6) | st.sampled_from(WORDS))
keys = st.sampled_from(WORDS) | st.text(max_size=6)
json_docs = st.recursive(
    scalars,
    lambda kids: st.lists(kids, max_size=8) | st.dictionaries(keys, kids, max_size=8),
    max_leaves=24,
)

_CYCLE = AffineQuiver(3, (CW, CW, CCW))
VALID_INSTANCES = (
    instance_to_json(interval_module(equioriented_quiver(3), Interval(0, 2), GF(2))),
    instance_to_json(interval_module(equioriented_quiver(2), Interval(0, 1), QQ)),
    instance_to_json(indec_N(_CYCLE, 0, 4, GF(3)), _CYCLE),
)


def _paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@st.composite
def mutated_instances(draw):
    """A valid instance with one node replaced by an arbitrary document."""
    doc = copy.deepcopy(draw(st.sampled_from(VALID_INSTANCES)))
    path = draw(st.sampled_from(list(_paths(doc))))
    value = draw(json_docs)
    if not path:
        return value
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def _exit_code(tmp_dir, argv, files):
    for name, doc in files.items():
        (tmp_dir / name).write_text(json.dumps(doc))
    argv = [str(tmp_dir / a) if a in files else a for a in argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.mark.parametrize("command", ["barcode", "hn", "lift"])
@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(doc=json_docs | mutated_instances())
def test_instance_file(tmp_path_factory, command, doc):
    tmp_dir = tmp_path_factory.getbasetemp()
    assert _exit_code(tmp_dir, [command, "inst.json"], {"inst.json": doc}) in EXIT_CODES


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(weights=json_docs | st.lists(scalars, min_size=3, max_size=3))
def test_weights_file(tmp_path_factory, weights):
    tmp_dir = tmp_path_factory.getbasetemp()
    files = {"inst.json": VALID_INSTANCES[0], "w.json": weights}
    argv = ["hn", "inst.json", "--stability", "w.json", "--oracle"]
    assert _exit_code(tmp_dir, argv, files) in EXIT_CODES
