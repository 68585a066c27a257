"""Library inputs of the wrong type are refused with ValidationError.

Each public entry below once let such an input escape as a bare
TypeError, ValueError, KeyError or AttributeError, or took it without a
word: a fractional interval endpoint, a bool window, a wrapped-interval
class with endpoints that are no ints or no interval, a field of None,
which the instance writer wrote as the rationals, and a matrix width
that is no count (``Matrix(GF(2), [], -1)`` was a 0 x -1 matrix, and
``Matrix(GF(2), [[1]], True)`` a 1 x 1 one).  A lift window out of
range is refused too: a negative one once gave the empty unwinding, and
one past ``LIFT_MAX_WINDOW`` ran until killed.

A summand constructor refuses a length past ``LIFT_MAX_WINDOW`` before it
builds anything, as the lift window does: a wrapped interval or a Jordan
cell of length 10**30 once ran until killed.  It refuses more matrix
entries than ``SUMMAND_MAX_ENTRIES`` too, which a length under the window
cap could still ask for: a Jordan cell of size 25,000 on a 2-cycle would
have built two 25,000 x 25,000 matrices.  The barcode sweep refuses a vertex
whose d x d flag basis would hold more entries than that cap, before it
builds anything, for each command that sweeps.

Each input rule has one definition, next to the type it describes, and
the second table reaches each refusal that no other test reaches in
process, by its message.  ``tests/test_library_fuzz.py`` calls every
public entry with wrong arguments.
"""

import json
import random
import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest

from hnzz import campaign
from hnzz.affine import (
    AffineQuiver,
    NClass,
    affine_of_quiver,
    classify_lift,
    eta_from_lift,
    indec_N,
    indec_T,
    lift_truncated,
    p_value,
    recover_N_multiplicities,
    to_quiver,
    wrap_counts,
)
from hnzz.cli import main
from hnzz.errors import ShapeError, ValidationError
from hnzz.generators import equioriented_quiver, gen_affine, gen_persistence, random_orientation
from hnzz.hn import (
    HNReport,
    hn_bruteforce,
    hn_direct_sum_merge,
    hn_from_barcode,
    hn_r_filtration_eval,
    recover_barcode_via_truncations,
)
from hnzz.linalg import GF, QQ, Matrix, inverse, rank, subspace_contains
from hnzz.quiver import (
    Quiver,
    Representation,
    StabilityCondition,
    conjugate,
    direct_sum,
    euler_stability,
    sheaf_euler_characteristic,
    slope_of_dims,
    zero_representation,
)
from hnzz.serialize import (
    barcode_to_json,
    classes_to_json,
    hn_to_json,
    instance_to_json,
)
from hnzz.zigzag import Barcode, Interval, barcode, interval_module, is_path, path_steps


@contextmanager
def within_seconds(seconds: int):
    """TimeoutError if the body runs longer than ``seconds``."""
    def expired(signum, frame):
        raise TimeoutError(f"not refused within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


A2 = Quiver(2, ((0, 1),))
AQ = AffineQuiver(2, (0, 1))
V2 = interval_module(A2, Interval(0, 1), GF(2))
CELL = indec_T(AQ, 1, 1, GF(2))  # default window 6
V3 = interval_module(equioriented_quiver(3), Interval(0, 2), GF(2))
ONE = Matrix.identity(GF(2), 1)


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: GF(None), id="GF(None)"),
        pytest.param(lambda: GF("3"), id="GF('3')"),
        pytest.param(lambda: Matrix(GF(2), None), id="Matrix(data None)"),
        pytest.param(lambda: Matrix(GF(2), [1, 2]), id="Matrix(rows not lists)"),
        pytest.param(lambda: Matrix(None, [[1]]), id="Matrix(field None)"),
        pytest.param(lambda: Matrix(GF(2), [], -1), id="Matrix([], cols -1)"),
        pytest.param(lambda: Matrix(GF(2), [], "x"), id="Matrix([], cols 'x')"),
        pytest.param(lambda: Matrix(GF(2), [], 1.5), id="Matrix([], cols 1.5)"),
        pytest.param(lambda: Matrix(GF(2), [], True), id="Matrix([], cols True)"),
        pytest.param(lambda: Matrix(GF(2), [[1]], True), id="Matrix([[1]], cols True)"),
        pytest.param(lambda: Matrix(GF(2), [[1]], 1.0), id="Matrix([[1]], cols 1.0)"),
        pytest.param(lambda: Interval(None, 1), id="Interval(None, 1)"),
        pytest.param(lambda: Interval(0.5, 1), id="Interval(0.5, 1)"),
        pytest.param(lambda: Barcode("1"), id="Barcode('1')"),
        pytest.param(lambda: Barcode(None), id="Barcode(None)"),
        pytest.param(lambda: Barcode((("0", 1),)), id="Barcode(non-interval)"),
        pytest.param(lambda: Barcode(((Interval(0, 1), 1.0),)), id="Barcode(float multiplicity)"),
        pytest.param(lambda: Barcode.from_dict("1"), id="Barcode.from_dict('1')"),
        pytest.param(lambda: HNReport(A2, None), id="HNReport(q, None)"),
        pytest.param(lambda: HNReport(A2, ((1.5, (1, 0)),)), id="HNReport(slope 1.5)"),
        pytest.param(lambda: HNReport(A2, ((True, (1, 0)),)), id="HNReport(slope True)"),
        pytest.param(lambda: HNReport(A2, (("a", (1, 0)),)), id="HNReport(slope 'a')"),
        pytest.param(lambda: HNReport(A2, ((1, (1, -1)),)), id="HNReport(dims (1, -1))"),
        pytest.param(lambda: HNReport(A2, ((1, (1, 0.5)),)), id="HNReport(dims (1, 0.5))"),
        pytest.param(lambda: HNReport(None, ()), id="HNReport(quiver None)"),
        pytest.param(lambda: HNReport(A2, ((1, (1, 0)),), witness="x"),
                     id="HNReport(witness 'x')"),
        pytest.param(lambda: HNReport(A2, ((1, (1, 0)),), witness=((),)),
                     id="HNReport(witness one empty stage)"),
        pytest.param(lambda: HNReport.merged(None, []), id="HNReport.merged(quiver None)"),
        pytest.param(lambda: HNReport.merged(A2, [(1, (1, "a"))]),
                     id="HNReport.merged(dims (1, 'a'))"),
        pytest.param(lambda: hn_from_barcode(None, A2), id="hn_from_barcode(None, q)"),
        pytest.param(lambda: hn_from_barcode("x", A2), id="hn_from_barcode('x', q)"),
        pytest.param(lambda: hn_from_barcode(Barcode(()), None), id="hn_from_barcode(bar, None)"),
        pytest.param(lambda: recover_barcode_via_truncations(None),
                     id="recover_barcode_via_truncations(None)"),
        pytest.param(lambda: interval_module(A2, Interval(0, 1), None),
                     id="interval_module(field None)"),
        pytest.param(lambda: interval_module(A2, None, GF(2)),
                     id="interval_module(interval None)"),
        pytest.param(lambda: barcode(None), id="barcode(None)"),
        pytest.param(lambda: rank(None), id="rank(None)"),
        pytest.param(lambda: inverse(None), id="inverse(None)"),
        pytest.param(lambda: AffineQuiver(2, None), id="AffineQuiver(2, None)"),
        pytest.param(lambda: indec_T(AQ, 1, 2.5, QQ), id="indec_T(size 2.5)"),
        pytest.param(lambda: indec_T(AQ, 1, "2", QQ), id="indec_T(size '2')"),
        pytest.param(lambda: indec_T(AQ, 1, None, QQ), id="indec_T(size None)"),
        pytest.param(lambda: indec_N(AQ, 0, 2.5, QQ), id="indec_N(endpoint 2.5)"),
        pytest.param(lambda: indec_N(AQ, None, 1, QQ), id="indec_N(endpoint None)"),
        pytest.param(lambda: indec_N(AQ, False, 1, QQ), id="indec_N(endpoint False)"),
        pytest.param(lambda: hn_bruteforce(None, euler_stability(A2)),
                     id="hn_bruteforce(None, alpha)"),
        pytest.param(lambda: hn_bruteforce("x", euler_stability(A2)),
                     id="hn_bruteforce('x', alpha)"),
        pytest.param(lambda: hn_bruteforce(V2, None), id="hn_bruteforce(v, None)"),
        pytest.param(lambda: hn_bruteforce(V2, "ab"), id="hn_bruteforce(v, 'ab')"),
        pytest.param(lambda: classify_lift(CELL, "6"), id="classify_lift(window '6')"),
        pytest.param(lambda: classify_lift(CELL, 6.0), id="classify_lift(window 6.0)"),
        pytest.param(lambda: classify_lift(CELL, True), id="classify_lift(window True)"),
        pytest.param(lambda: lift_truncated(CELL, 6.0), id="lift_truncated(window 6.0)"),
        pytest.param(lambda: classify_lift(None), id="classify_lift(None)"),
        pytest.param(lambda: eta_from_lift(None), id="eta_from_lift(None)"),
        pytest.param(lambda: path_steps(None), id="path_steps(None)"),
        pytest.param(lambda: is_path(None), id="is_path(None)"),
        pytest.param(lambda: Matrix.identity(GF(2), 1) @ None, id="Matrix @ None"),
        pytest.param(lambda: direct_sum(None, None), id="direct_sum(None, None)"),
        pytest.param(lambda: euler_stability(None), id="euler_stability(None)"),
        pytest.param(lambda: lift_truncated(None, 6), id="lift_truncated(None, 6)"),
        pytest.param(lambda: affine_of_quiver(None), id="affine_of_quiver(None)"),
        pytest.param(lambda: to_quiver(None), id="to_quiver(None)"),
        pytest.param(lambda: p_value(None, 0, 1), id="p_value(None, 0, 1)"),
        pytest.param(lambda: wrap_counts(2, 0, None), id="wrap_counts(2, 0, None)"),
        pytest.param(lambda: campaign.fast_report(None, None), id="fast_report(None, None)"),
        pytest.param(lambda: instance_to_json(None), id="instance_to_json(None)"),
        pytest.param(lambda: indec_N(AQ, 0, 1, None), id="indec_N(field None)"),
        pytest.param(lambda: indec_T(AQ, 1, 1, None), id="indec_T(field None)"),
        pytest.param(lambda: NClass(None, 1), id="NClass(None, 1)"),
        pytest.param(lambda: NClass("a", 2.5), id="NClass('a', 2.5)"),
        pytest.param(lambda: NClass(-1, 2), id="NClass(-1, 2)"),
        pytest.param(lambda: NClass(2, 1), id="NClass(2, 1)"),
        pytest.param(lambda: zero_representation(None, GF(2)),
                     id="zero_representation(None, field)"),
        pytest.param(lambda: zero_representation(A2, None), id="zero_representation(q, None)"),
        pytest.param(lambda: conjugate(None, []), id="conjugate(None, [])"),
        pytest.param(lambda: slope_of_dims((1,), None), id="slope_of_dims(dims, None)"),
        pytest.param(lambda: sheaf_euler_characteristic(None),
                     id="sheaf_euler_characteristic(None)"),
        pytest.param(lambda: hn_r_filtration_eval(None, 0), id="hn_r_filtration_eval(None, 0)"),
        pytest.param(lambda: hn_direct_sum_merge(None, None),
                     id="hn_direct_sum_merge(None, None)"),
        pytest.param(lambda: recover_N_multiplicities(None, 0, 1),
                     id="recover_N_multiplicities(None, 0, 1)"),
        pytest.param(lambda: barcode_to_json(None), id="barcode_to_json(None)"),
        pytest.param(lambda: hn_to_json(None), id="hn_to_json(None)"),
        pytest.param(lambda: classes_to_json(None), id="classes_to_json(None)"),
        pytest.param(lambda: equioriented_quiver(None), id="equioriented_quiver(None)"),
        pytest.param(lambda: random_orientation(None, random.Random(0)),
                     id="random_orientation(None, rng)"),
        pytest.param(lambda: gen_persistence(None, GF(2), 1, random.Random(0)),
                     id="gen_persistence(None, ...)"),
        pytest.param(lambda: campaign.check_a(None), id="check_a(None)"),
        pytest.param(lambda: campaign.check_b(None), id="check_b(None)"),
        pytest.param(lambda: campaign.run("a", None, 0), id="campaign.run('a', None, 0)"),
        pytest.param(lambda: campaign.run("c", 1, 0), id="campaign.run('c', 1, 0)"),
        pytest.param(lambda: Matrix.zeros(None, 1, 1), id="Matrix.zeros(None, 1, 1)"),
        pytest.param(lambda: Matrix.identity(None, 1), id="Matrix.identity(None, 1)"),
        pytest.param(lambda: wrap_counts(3, 0, -5), id="wrap_counts(3, 0, -5)"),
        pytest.param(lambda: slope_of_dims((2, -1), StabilityCondition((1, 0))),
                     id="slope_of_dims((2, -1), alpha)"),
        pytest.param(lambda: slope_of_dims((1, 1, 1), StabilityCondition((1, 0))),
                     id="slope_of_dims(three dims, two weights)"),
        pytest.param(lambda: Matrix.identity(GF(2), -2), id="Matrix.identity(GF(2), -2)"),
        pytest.param(lambda: Matrix.zeros(GF(2), 1.5, 1), id="Matrix.zeros(GF(2), 1.5, 1)"),
        pytest.param(lambda: Representation(Quiver(1, ()), None, (2,), ()),
                     id="Representation(field None)"),
        pytest.param(lambda: Barcode.from_dict({Interval(0, 3): 1}).dims_vector(2),
                     id="Barcode.dims_vector(bar past the path)"),
        pytest.param(lambda: classes_to_json({1: 2}), id="classes_to_json({1: 2})"),
        pytest.param(lambda: classes_to_json({NClass(0, 1): -2}),
                     id="classes_to_json(multiplicity -2)"),
        pytest.param(lambda: random_orientation(3, None), id="random_orientation(3, None)"),
        pytest.param(lambda: gen_persistence(3, GF(2), 2, None), id="gen_persistence(rng None)"),
        pytest.param(lambda: gen_affine(3, GF(2), 2, None), id="gen_affine(rng None)"),
        pytest.param(lambda: campaign.run("a", -1, 0), id="campaign.run('a', -1, 0)"),
        pytest.param(lambda: conjugate(V3, [None] * 3), id="conjugate(v, [None] * 3)"),
        pytest.param(lambda: conjugate(V3, 5), id="conjugate(v, 5)"),
        pytest.param(lambda: Barcode.from_dict({1: 1, Interval(0, 0): 1}),
                     id="Barcode.from_dict(key 1)"),
        pytest.param(lambda: Barcode.from_dict({Interval(0, 0): None}),
                     id="Barcode.from_dict(multiplicity None)"),
        pytest.param(lambda: campaign.run([], 1, 0), id="campaign.run([], 1, 0)"),
    ],
)
def test_wrong_type_refused(build):
    with pytest.raises(ValidationError):
        build()


@pytest.mark.parametrize(
    "window, error",
    [(-1, ValidationError), (10**30, ShapeError)],
    ids=["lift_truncated(window -1)", "lift_truncated(window 10**30)"],
)
def test_lift_window_out_of_range_refused(window, error):
    with pytest.raises(error, match="window length"):
        lift_truncated(CELL, window)


@pytest.mark.parametrize(
    "build",
    [lambda: indec_N(AQ, 0, 10**30, GF(3)), lambda: indec_T(AQ, 1, 10**30, GF(3))],
    ids=["indec_N(length 10**30 + 1)", "indec_T(size 10**30)"],
)
def test_summand_length_past_the_window_cap_refused_at_once(build):
    with within_seconds(3), pytest.raises(ShapeError, match="LIFT_MAX_WINDOW"):
        build()


@pytest.mark.parametrize(
    "build",
    [lambda: indec_T(AQ, 1, 708, GF(3)), lambda: indec_N(AQ, 0, 1415, GF(3))],
    ids=["indec_T(size 708 on a 2-cycle)", "indec_N(length 1416 on a 2-cycle)"],
)
def test_summand_entries_past_the_cap_refused(build):
    # 2 * 708**2 = 1,002,528 entries, just past SUMMAND_MAX_ENTRIES: small
    # enough to build in well under a second where nothing refuses it
    with pytest.raises(ShapeError, match="SUMMAND_MAX_ENTRIES"):
        build()


def test_summand_entries_at_the_cap_built():
    assert indec_T(AQ, 1, 707, GF(3)).dims == (707, 707)  # 999,698 entries


# A matrix with no rows is spelled "rows": [], so a 200-byte file can declare
# a vertex of dimension 10**6.  These files once ran for 12 s each and then
# escaped as a MemoryError: the sweep built a 10**6 x 10**6 flag basis.
HUGE_VERTEX = {"field": {"kind": "prime", "p": 2}, "dims": [0, 10**6, 0]}
HUGE_PATH = {**HUGE_VERTEX,
             "quiver": {"vertices": 3, "edges": [{"src": 1, "dst": 0}, {"src": 1, "dst": 2}]},
             "matrices": [{"edge": e, "rows": []} for e in range(2)]}
HUGE_CYCLE = {**HUGE_VERTEX, "quiver": {"affine": {"n": 3, "orientation": [0, 1, 0]}},
              "matrices": [{"edge": e, "rows": []} for e in range(3)]}


@pytest.mark.parametrize(
    "command, doc",
    [
        (["barcode"], HUGE_PATH),
        (["hn"], HUGE_PATH),
        (["hn", "--oracle"], HUGE_PATH),
        (["lift"], HUGE_CYCLE),
        (["hn"], HUGE_CYCLE),
    ],
    ids=["barcode path", "hn path", "hn --oracle path", "lift cycle", "hn cycle"],
)
def test_huge_vertex_refused_before_the_sweep(tmp_path, capsys, command, doc):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    with within_seconds(3):
        assert main([command[0], str(path), *command[1:]]) == 4
    assert capsys.readouterr().err == (
        "unsupported shape: flag basis of 1000000000000 matrix entries exceeds "
        "SUMMAND_MAX_ENTRIES = 1000000\n"
    )


def test_vertex_at_the_cap_swept():
    # a 1,000 x 1,000 flag basis: 1,000,000 entries, at the cap
    v = Representation(Quiver(1, ()), GF(2), (1000,), ())
    assert barcode(v) == Barcode(((Interval(0, 0), 1000),))


@pytest.mark.parametrize(
    "build, error, message",
    [
        pytest.param(lambda: AffineQuiver(2, (0, 2)), ValidationError,
                     "orientation bits must be 0", id="AffineQuiver(bit 2)"),
        pytest.param(lambda: affine_of_quiver(Quiver(3, ((0, 1), (0, 2), (1, 2)))), ShapeError,
                     "edge 0 does not join x_2 and x_0",
                     id="affine_of_quiver(edge off the cycle)"),
        pytest.param(lambda: wrap_counts(0, 0, 0), ValidationError,
                     "cycle length 0 is not positive", id="wrap_counts(n 0)"),
        pytest.param(lambda: indec_T(AQ, 1, 0, GF(2)), ValidationError, "size must be at least 1",
                     id="indec_T(size 0)"),
        pytest.param(lambda: random_orientation(1, random.Random(0)), ValidationError,
                     "needs a cycle of at least two vertices", id="random_orientation(n 1)"),
        pytest.param(lambda: ONE @ Matrix.identity(GF(3), 1), ValidationError,
                     "matmul across different fields", id="matmul(fields)"),
        pytest.param(lambda: ONE @ Matrix.identity(GF(2), 2), ValidationError,
                     "matmul shape mismatch", id="matmul(shapes)"),
        pytest.param(lambda: inverse(Matrix.zeros(GF(2), 1, 2)), ValidationError,
                     "inverse of a non-square matrix", id="inverse(1x2)"),
        pytest.param(lambda: Quiver(1, ((0, 1),)), ValidationError,
                     r"edge \(0,1\) out of vertex range", id="Quiver(edge past the vertices)"),
        pytest.param(lambda: conjugate(V2, [ONE]), ValidationError,
                     "one basis matrix per vertex required", id="conjugate(one basis short)"),
        pytest.param(lambda: conjugate(V2, [ONE, Matrix.identity(GF(2), 2)]), ValidationError,
                     "basis at vertex 1 is not 1x1", id="conjugate(basis 2x2)"),
        pytest.param(lambda: path_steps(Quiver(2, ((0, 1), (1, 0)))), ShapeError,
                     "parallel edges between", id="path_steps(parallel edges)"),
        pytest.param(lambda: slope_of_dims((1, Fraction(1, 2)), StabilityCondition((1, 0))),
                     ValidationError, "is not an int", id="slope_of_dims(dims (1, 1/2))"),
        pytest.param(lambda: gen_persistence(3, GF(2), 2, random.Random(0), min_summands=5),
                     ValidationError, "min_summands 5 exceeds max_summands 2",
                     id="gen_persistence(min_summands past max)"),
        pytest.param(lambda: gen_affine(3, GF(2), 2, random.Random(0), max_len=-1),
                     ValidationError, "generator size -1 is negative",
                     id="gen_affine(max_len -1)"),
        pytest.param(lambda: gen_persistence(0, GF(2), 1, random.Random(0)), ValidationError,
                     "needs at least one vertex", id="gen_persistence(n 0)"),
        pytest.param(lambda: gen_persistence(3, GF(2), 2, random.Random(0),
                                             quiver=equioriented_quiver(5)),
                     ValidationError, "quiver has 5 vertices, not n = 3",
                     id="gen_persistence(n 3, 5-vertex path)"),
        pytest.param(lambda: gen_persistence(8, GF(2), 2, random.Random(0),
                                             quiver=equioriented_quiver(5)),
                     ValidationError, "quiver has 5 vertices, not n = 8",
                     id="gen_persistence(n 8, 5-vertex path)"),
        pytest.param(lambda: gen_persistence(2, GF(2), 0, random.Random(0), quiver=Quiver(2, ())),
                     ShapeError, "not a connected path",
                     id="gen_persistence(edgeless quiver)"),
        pytest.param(lambda: Barcode(()).dims_vector(-1), ValidationError,
                     "path length -1 is negative", id="Barcode.dims_vector(n -1)"),
        pytest.param(lambda: subspace_contains(Matrix.identity(GF(2), 2), Matrix.identity(GF(2), 3)),
                     ValidationError, "subspace and vectors differ in field or height",
                     id="subspace_contains(heights 2 and 3)"),
        pytest.param(lambda: HNReport(A2, ((1, (1, 0)),), witness=(5,)), ValidationError,
                     r"HN witness \(5,\) does not fit the steps", id="HNReport(witness (5,))"),
    ],
)
def test_refusal_reached(build, error, message):
    with pytest.raises(error, match=message):
        build()
