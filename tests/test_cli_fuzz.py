"""Fuzz of the CLI input boundary: arbitrary input never escapes ``main``.

Every instance or weights file, however malformed, and every ``gen``
argument list must end in one of the documented exit codes; an exception
leaving ``main`` fails the test.  Examples are derandomized so the suite
stays deterministic.
"""

import contextlib
import copy
import io
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hnzz.affine import CCW, CW, AffineQuiver, indec_N
from hnzz.cli import main
from hnzz.generators import equioriented_quiver
from hnzz.linalg import GF, QQ
from hnzz.serialize import instance_from_json, instance_to_json, load_json
from hnzz.zigzag import Interval, interval_module

EXIT_CODES = {0, 2, 3, 4, 5}

# the keys and words of the instance format, so that documents get past
# the first lookup often enough to reach the deeper checks
WORDS = ("field", "kind", "prime", "rational", "p", "quiver", "affine", "n",
         "orientation", "vertices", "edges", "src", "dst", "dims", "matrices",
         "edge", "rows")

# 5000 digits are past Python's 4300-digit limit for int <-> str, and
# Fraction() would take seconds to expand a large exponent; the huge int
# is built by a map because hypothesis cannot repr it as a constant
scalars = (st.none() | st.booleans() | st.integers(-20, 20) | st.floats()
           | st.text(max_size=6) | st.sampled_from(WORDS)
           | st.just(5000).map(lambda digits: 10**digits - 1)
           | st.sampled_from(["1e5", "1/" + "7" * 5000]))
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


def _dumps(doc) -> str:
    """JSON text of ``doc``, huge integer literals included."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return json.dumps(doc)
    finally:
        sys.set_int_max_str_digits(limit)


def _exit_code(tmp_dir, argv, files=None):
    files = files or {}
    for name, doc in files.items():
        (tmp_dir / name).write_text(_dumps(doc))
    argv = [str(tmp_dir / a) if a in files else a for a in argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse refuses the arguments
            return exc.code


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


def _gen_is_valid(kind, n, fld, summands) -> bool:
    """The documented domain of ``hnzz gen``."""
    if kind not in ("persistence", "affine") or not isinstance(n, int):
        return False
    if fld != "rational":
        p = int(fld)
        if p < 2 or p > 2**31 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
            return False
    return n >= (1 if kind == "persistence" else 2) and summands >= 0


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(
    kind=st.sampled_from(["persistence", "affine", "cycle"]),
    n=st.integers(-1, 6) | st.just("x"),
    fld=st.sampled_from(["rational", "2", "3", "5", "2147483647", "0", "1", "4", "-3",
                         "4294967311"]),
    summands=st.integers(-1, 4),
    seed=st.integers(-3, 3),
)
def test_gen_arguments(tmp_path_factory, kind, n, fld, summands, seed):
    tmp_dir = tmp_path_factory.getbasetemp()
    out = tmp_dir / "gen.json"
    out.unlink(missing_ok=True)
    argv = ["gen", "--kind", kind, "--n", str(n), "--field", fld,
            "--max-summands", str(summands), "--seed", str(seed), "--out", str(out)]
    if _gen_is_valid(kind, n, fld, summands):
        assert _exit_code(tmp_dir, argv) == 0
        instance_from_json(load_json(str(out)))
    else:
        assert _exit_code(tmp_dir, argv) == 2
        assert not out.exists()
