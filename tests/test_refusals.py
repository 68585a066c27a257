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
have built two 25,000 x 25,000 matrices.

Each input rule has one definition, next to the type it describes, and
the second table reaches each refusal that no other test reaches in
process, by its message.  ``tests/test_library_fuzz.py`` calls every
public entry with wrong arguments.
"""

import random
import signal
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
from hnzz.linalg import GF, QQ, Matrix, inverse, rank
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

A2 = Quiver(2, ((0, 1),))
AQ = AffineQuiver(2, (0, 1))
V2 = interval_module(A2, Interval(0, 1), GF(2))
CELL = indec_T(AQ, 1, 1, GF(2))  # default window 6
V3 = interval_module(equioriented_quiver(3), Interval(0, 2), GF(2))
ONE = Matrix.identity(GF(2), 1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: GF(None),
        lambda: GF("3"),
        lambda: Matrix(GF(2), None),
        lambda: Matrix(GF(2), [1, 2]),
        lambda: Matrix(None, [[1]]),
        lambda: Matrix(GF(2), [], -1),
        lambda: Matrix(GF(2), [], "x"),
        lambda: Matrix(GF(2), [], 1.5),
        lambda: Matrix(GF(2), [], True),
        lambda: Matrix(GF(2), [[1]], True),
        lambda: Matrix(GF(2), [[1]], 1.0),
        lambda: Interval(None, 1),
        lambda: Interval(0.5, 1),
        lambda: Barcode("1"),
        lambda: Barcode(None),
        lambda: Barcode((("0", 1),)),
        lambda: Barcode(((Interval(0, 1), 1.0),)),
        lambda: Barcode.from_dict("1"),
        lambda: HNReport(A2, None),
        lambda: HNReport(A2, ((1.5, (1, 0)),)),
        lambda: HNReport(A2, ((True, (1, 0)),)),
        lambda: HNReport(A2, (("a", (1, 0)),)),
        lambda: HNReport(A2, ((1, (1, -1)),)),
        lambda: HNReport(A2, ((1, (1, 0.5)),)),
        lambda: HNReport(None, ()),
        lambda: HNReport(A2, ((1, (1, 0)),), witness="x"),
        lambda: HNReport(A2, ((1, (1, 0)),), witness=((),)),
        lambda: HNReport.merged(None, []),
        lambda: HNReport.merged(A2, [(1, (1, "a"))]),
        lambda: hn_from_barcode(None, A2),
        lambda: hn_from_barcode("x", A2),
        lambda: hn_from_barcode(Barcode(()), None),
        lambda: recover_barcode_via_truncations(None),
        lambda: interval_module(A2, Interval(0, 1), None),
        lambda: interval_module(A2, None, GF(2)),
        lambda: barcode(None),
        lambda: rank(None),
        lambda: inverse(None),
        lambda: AffineQuiver(2, None),
        lambda: indec_T(AQ, 1, 2.5, QQ),
        lambda: indec_T(AQ, 1, "2", QQ),
        lambda: indec_T(AQ, 1, None, QQ),
        lambda: indec_N(AQ, 0, 2.5, QQ),
        lambda: indec_N(AQ, None, 1, QQ),
        lambda: indec_N(AQ, False, 1, QQ),
        lambda: hn_bruteforce(None, euler_stability(A2)),
        lambda: hn_bruteforce("x", euler_stability(A2)),
        lambda: hn_bruteforce(V2, None),
        lambda: hn_bruteforce(V2, "ab"),
        lambda: classify_lift(CELL, "6"),
        lambda: classify_lift(CELL, 6.0),
        lambda: classify_lift(CELL, True),
        lambda: lift_truncated(CELL, 6.0),
        lambda: classify_lift(None),
        lambda: eta_from_lift(None),
        lambda: path_steps(None),
        lambda: is_path(None),
        lambda: Matrix.identity(GF(2), 1) @ None,
        lambda: direct_sum(None, None),
        lambda: euler_stability(None),
        lambda: lift_truncated(None, 6),
        lambda: affine_of_quiver(None),
        lambda: to_quiver(None),
        lambda: p_value(None, 0, 1),
        lambda: wrap_counts(2, 0, None),
        lambda: campaign.fast_report(None, None),
        lambda: instance_to_json(None),
        lambda: indec_N(AQ, 0, 1, None),
        lambda: indec_T(AQ, 1, 1, None),
        lambda: NClass(None, 1),
        lambda: NClass("a", 2.5),
        lambda: NClass(-1, 2),
        lambda: NClass(2, 1),
        lambda: zero_representation(None, GF(2)),
        lambda: zero_representation(A2, None),
        lambda: conjugate(None, []),
        lambda: slope_of_dims((1,), None),
        lambda: sheaf_euler_characteristic(None),
        lambda: hn_r_filtration_eval(None, 0),
        lambda: hn_direct_sum_merge(None, None),
        lambda: recover_N_multiplicities(None, 0, 1),
        lambda: barcode_to_json(None),
        lambda: hn_to_json(None),
        lambda: classes_to_json(None),
        lambda: equioriented_quiver(None),
        lambda: random_orientation(None, random.Random(0)),
        lambda: gen_persistence(None, GF(2), 1, random.Random(0)),
        lambda: campaign.check_a(None),
        lambda: campaign.check_b(None),
        lambda: campaign.run("a", None, 0),
        lambda: campaign.run("c", 1, 0),
        lambda: Matrix.zeros(None, 1, 1),
        lambda: Matrix.identity(None, 1),
        lambda: wrap_counts(3, 0, -5),
        lambda: slope_of_dims((2, -1), StabilityCondition((1, 0))),
        lambda: slope_of_dims((1, 1, 1), StabilityCondition((1, 0))),
        lambda: Matrix.identity(GF(2), -2),
        lambda: Matrix.zeros(GF(2), 1.5, 1),
        lambda: Representation(Quiver(1, ()), None, (2,), ()),
        lambda: Barcode.from_dict({Interval(0, 3): 1}).dims_vector(2),
        lambda: classes_to_json({1: 2}),
        lambda: classes_to_json({NClass(0, 1): -2}),
        lambda: random_orientation(3, None),
        lambda: gen_persistence(3, GF(2), 2, None),
        lambda: gen_affine(3, GF(2), 2, None),
        lambda: campaign.run("a", -1, 0),
        lambda: conjugate(V3, [None] * 3),
        lambda: conjugate(V3, 5),
        lambda: Barcode.from_dict({1: 1, Interval(0, 0): 1}),
        lambda: Barcode.from_dict({Interval(0, 0): None}),
        lambda: campaign.run([], 1, 0),
    ],
    ids=[
        "GF(None)",
        "GF('3')",
        "Matrix(data None)",
        "Matrix(rows not lists)",
        "Matrix(field None)",
        "Matrix([], cols -1)",
        "Matrix([], cols 'x')",
        "Matrix([], cols 1.5)",
        "Matrix([], cols True)",
        "Matrix([[1]], cols True)",
        "Matrix([[1]], cols 1.0)",
        "Interval(None, 1)",
        "Interval(0.5, 1)",
        "Barcode('1')",
        "Barcode(None)",
        "Barcode(non-interval)",
        "Barcode(float multiplicity)",
        "Barcode.from_dict('1')",
        "HNReport(q, None)",
        "HNReport(slope 1.5)",
        "HNReport(slope True)",
        "HNReport(slope 'a')",
        "HNReport(dims (1, -1))",
        "HNReport(dims (1, 0.5))",
        "HNReport(quiver None)",
        "HNReport(witness 'x')",
        "HNReport(witness one empty stage)",
        "HNReport.merged(quiver None)",
        "HNReport.merged(dims (1, 'a'))",
        "hn_from_barcode(None, q)",
        "hn_from_barcode('x', q)",
        "hn_from_barcode(bar, None)",
        "recover_barcode_via_truncations(None)",
        "interval_module(field None)",
        "interval_module(interval None)",
        "barcode(None)",
        "rank(None)",
        "inverse(None)",
        "AffineQuiver(2, None)",
        "indec_T(size 2.5)",
        "indec_T(size '2')",
        "indec_T(size None)",
        "indec_N(endpoint 2.5)",
        "indec_N(endpoint None)",
        "indec_N(endpoint False)",
        "hn_bruteforce(None, alpha)",
        "hn_bruteforce('x', alpha)",
        "hn_bruteforce(v, None)",
        "hn_bruteforce(v, 'ab')",
        "classify_lift(window '6')",
        "classify_lift(window 6.0)",
        "classify_lift(window True)",
        "lift_truncated(window 6.0)",
        "classify_lift(None)",
        "eta_from_lift(None)",
        "path_steps(None)",
        "is_path(None)",
        "Matrix @ None",
        "direct_sum(None, None)",
        "euler_stability(None)",
        "lift_truncated(None, 6)",
        "affine_of_quiver(None)",
        "to_quiver(None)",
        "p_value(None, 0, 1)",
        "wrap_counts(2, 0, None)",
        "fast_report(None, None)",
        "instance_to_json(None)",
        "indec_N(field None)",
        "indec_T(field None)",
        "NClass(None, 1)",
        "NClass('a', 2.5)",
        "NClass(-1, 2)",
        "NClass(2, 1)",
        "zero_representation(None, field)",
        "zero_representation(q, None)",
        "conjugate(None, [])",
        "slope_of_dims(dims, None)",
        "sheaf_euler_characteristic(None)",
        "hn_r_filtration_eval(None, 0)",
        "hn_direct_sum_merge(None, None)",
        "recover_N_multiplicities(None, 0, 1)",
        "barcode_to_json(None)",
        "hn_to_json(None)",
        "classes_to_json(None)",
        "equioriented_quiver(None)",
        "random_orientation(None, rng)",
        "gen_persistence(None, ...)",
        "check_a(None)",
        "check_b(None)",
        "campaign.run('a', None, 0)",
        "campaign.run('c', 1, 0)",
        "Matrix.zeros(None, 1, 1)",
        "Matrix.identity(None, 1)",
        "wrap_counts(3, 0, -5)",
        "slope_of_dims((2, -1), alpha)",
        "slope_of_dims(three dims, two weights)",
        "Matrix.identity(GF(2), -2)",
        "Matrix.zeros(GF(2), 1.5, 1)",
        "Representation(field None)",
        "Barcode.dims_vector(bar past the path)",
        "classes_to_json({1: 2})",
        "classes_to_json(multiplicity -2)",
        "random_orientation(3, None)",
        "gen_persistence(rng None)",
        "gen_affine(rng None)",
        "campaign.run('a', -1, 0)",
        "conjugate(v, [None] * 3)",
        "conjugate(v, 5)",
        "Barcode.from_dict(key 1)",
        "Barcode.from_dict(multiplicity None)",
        "campaign.run([], 1, 0)",
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
    def expired(signum, frame):
        raise TimeoutError("the summand was not refused within 3 s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(3)
    try:
        with pytest.raises(ShapeError, match="LIFT_MAX_WINDOW"):
            build()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: AffineQuiver(2, (0, 2)), ValidationError, "orientation bits must be 0"),
        (lambda: affine_of_quiver(Quiver(3, ((0, 1), (0, 2), (1, 2)))), ShapeError,
         "edge 0 does not join x_2 and x_0"),
        (lambda: wrap_counts(0, 0, 0), ValidationError, "cycle length 0 is not positive"),
        (lambda: indec_T(AQ, 1, 0, GF(2)), ValidationError, "size must be at least 1"),
        (lambda: random_orientation(1, random.Random(0)), ValidationError,
         "needs a cycle of at least two vertices"),
        (lambda: ONE @ Matrix.identity(GF(3), 1), ValidationError,
         "matmul across different fields"),
        (lambda: ONE @ Matrix.identity(GF(2), 2), ValidationError, "matmul shape mismatch"),
        (lambda: inverse(Matrix.zeros(GF(2), 1, 2)), ValidationError,
         "inverse of a non-square matrix"),
        (lambda: Quiver(1, ((0, 1),)), ValidationError, r"edge \(0,1\) out of vertex range"),
        (lambda: conjugate(V2, [ONE]), ValidationError, "one basis matrix per vertex required"),
        (lambda: conjugate(V2, [ONE, Matrix.identity(GF(2), 2)]), ValidationError,
         "basis at vertex 1 is not 1x1"),
        (lambda: path_steps(Quiver(2, ((0, 1), (1, 0)))), ShapeError, "parallel edges between"),
        (lambda: slope_of_dims((1, Fraction(1, 2)), StabilityCondition((1, 0))), ValidationError,
         "is not an int"),
        (lambda: gen_persistence(3, GF(2), 2, random.Random(0), min_summands=5), ValidationError,
         "min_summands 5 exceeds max_summands 2"),
        (lambda: gen_affine(3, GF(2), 2, random.Random(0), max_len=-1), ValidationError,
         "generator size -1 is negative"),
        (lambda: gen_persistence(0, GF(2), 1, random.Random(0)), ValidationError,
         "needs at least one vertex"),
        (lambda: Barcode(()).dims_vector(-1), ValidationError, "path length -1 is negative"),
    ],
    ids=[
        "AffineQuiver(bit 2)",
        "affine_of_quiver(edge off the cycle)",
        "wrap_counts(n 0)",
        "indec_T(size 0)",
        "random_orientation(n 1)",
        "matmul(fields)",
        "matmul(shapes)",
        "inverse(1x2)",
        "Quiver(edge past the vertices)",
        "conjugate(one basis short)",
        "conjugate(basis 2x2)",
        "path_steps(parallel edges)",
        "slope_of_dims(dims (1, 1/2))",
        "gen_persistence(min_summands past max)",
        "gen_affine(max_len -1)",
        "gen_persistence(n 0)",
        "Barcode.dims_vector(n -1)",
    ],
)
def test_refusal_reached(build, error, message):
    with pytest.raises(error, match=message):
        build()
