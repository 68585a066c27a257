from fractions import Fraction

import pytest

from hnzz.errors import ShapeError, ValidationError
from hnzz.linalg import GF, QQ, Matrix
from hnzz.quiver import (
    Quiver,
    Representation,
    StabilityCondition,
    check_weights,
    conjugate,
    direct_sum,
    _topological_order,
    euler_stability,
    sheaf_euler_characteristic,
    slope_of_dims,
    zero_representation,
)
from hnzz.hn import hn_bruteforce
from hnzz.zigzag import Interval, barcode, interval_module

from conftest import conjugating_bases, make_rng, random_zigzag_rep

A2 = Quiver(2, ((0, 1),))
A3 = Quiver(3, ((0, 1), (1, 2)))
# the running affine example: 6-cycle with edges e_3 reversed
EX6 = Quiver(6, ((5, 0), (0, 1), (1, 2), (3, 2), (3, 4), (4, 5)))


class TestQuiverConstruction:
    def test_negative_vertex_count_refused(self):
        with pytest.raises(ValidationError, match="negative"):
            Quiver(-3, ())


def is_acyclic(q: Quiver) -> bool:
    return _topological_order(q) is not None


class TestAcyclicity:
    def test_path(self):
        assert is_acyclic(A3)

    def test_two_cycle(self):
        assert not is_acyclic(Quiver(2, ((0, 1), (1, 0))))

    def test_example_cycle_graph(self):
        assert is_acyclic(EX6)

    def test_self_loop(self):
        assert not is_acyclic(Quiver(1, ((0, 0),)))

    def test_order_follows_every_edge(self):
        # parallel edges and a vertex with two successors
        q = Quiver(4, ((2, 0), (2, 0), (0, 1), (3, 1), (2, 3)))
        order = _topological_order(q)
        assert sorted(order) == [0, 1, 2, 3]
        assert all(order.index(src) < order.index(dst) for src, dst in q.edges)
        # Euler weights, 1 - in-degree: in-degrees 2, 2, 0, 1
        assert euler_stability(q).weights == (-1, -1, 1, 0)


class TestValidate:
    """A Representation checks its own structure when it is built."""

    def test_interval_module_ok(self):
        v = interval_module(A2, Interval(0, 1), GF(2))
        assert Representation(v.quiver, v.field, v.dims, v.mats) == v

    def test_wrong_shape(self):
        with pytest.raises(ValidationError, match=r"^edge 0: matrix is 2x1, expected 1x1$"):
            Representation(A2, GF(2), (1, 1), (Matrix.zeros(GF(2), 2, 1),))

    def test_field_mismatch(self):
        with pytest.raises(ValidationError, match=r"^edge 0: matrix field .* != representation field"):
            Representation(A2, GF(3), (1, 1), (Matrix.identity(GF(2), 1),))

    def test_problems_joined(self):
        with pytest.raises(ValidationError) as info:
            Representation(A2, GF(3), (1, -1), (Matrix.identity(GF(2), 1),))
        problems = str(info.value).split("; ")
        assert problems[0] == "negative dimension" and len(problems) == 3

    def test_wrong_dims_length_stops_early(self):
        with pytest.raises(ValidationError, match=r"^dims has 3 entries for 2 vertices$"):
            Representation(A2, GF(2), (1, 1, -1), (Matrix.zeros(GF(2), 2, 2),))

    def test_wrong_matrix_count_stops_early(self):
        with pytest.raises(ValidationError, match=r"^negative dimension; 0 matrices for 1 edges$"):
            Representation(A2, GF(2), (1, -1), ())

    def test_bad_dims_refused_before_barcode(self):
        # used to give the bars [0,1] and [1,1] of no representation
        with pytest.raises(ValidationError, match=r"^edge 0: matrix is 1x1, expected 2x1$"):
            barcode(Representation(A2, GF(2), (1, 2), (Matrix(GF(2), [[1]]),)))

    def test_missing_matrices_refused_before_oracle(self):
        # used to give a two-step oracle report
        with pytest.raises(ValidationError, match=r"^0 matrices for 1 edges$"):
            hn_bruteforce(Representation(A2, GF(2), (1, 1), ()), euler_stability(A2))

    def test_non_int_entries_refused_not_truncated(self):
        # used to build the path 0 -> 1 with dims (1, 1)
        with pytest.raises(ValidationError, match=r"^edge endpoints: 0\.9 is not an int$"):
            Representation(Quiver(2, ((0.9, 1),)), GF(2), (1.9, True), (Matrix.identity(GF(2), 1),))
        with pytest.raises(ValidationError, match=r"^dims: 1\.9 is not an int$"):
            Representation(A2, GF(2), (1.9, 1), (Matrix.identity(GF(2), 1),))
        with pytest.raises(ValidationError, match=r"^dims: True is not an int$"):
            Representation(A2, GF(2), (1, True), (Matrix.identity(GF(2), 1),))

    @pytest.mark.parametrize("count, edges", [(True, ()), (2.0, ()), (2, ((0, True),)), (2, (("0", 1),))])
    def test_quiver_refuses_non_int(self, count, edges):
        with pytest.raises(ValidationError, match="is not an int$"):
            Quiver(count, edges)

    @pytest.mark.parametrize("edges", [((0, 1, 2),), ((0,),), 5])
    def test_quiver_refuses_non_pairs(self, edges):
        # used to escape as a bare ValueError or TypeError from unpacking
        with pytest.raises(ValidationError, match="is not a sequence of pairs$"):
            Quiver(2, edges)

    def test_non_sequence_dims_refused(self):
        # used to escape as a bare TypeError from tuple(5)
        with pytest.raises(ValidationError, match="^dims and matrices must be sequences$"):
            Representation(Quiver(1, ()), GF(2), 5, ())

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Representation(A2, GF(2), (1, 1), (5,)), r"^edge 0: 5 is not a Matrix$"),
            (lambda: Representation(5, GF(2), (), ()), r"^quiver: 5 is not a Quiver$"),
            (lambda: StabilityCondition(5), r"^weights: 5 is not a sequence$"),
            # a string and a dict used to give weights (1, 2) and (3, 4); a generator was used up
            (lambda: StabilityCondition("12"), r"^weights: '12' is not a sequence$"),
            (lambda: StabilityCondition({3: 1, 4: 2}), r"^weights: \{3: 1, 4: 2\} is not a sequence$"),
            (lambda: StabilityCondition(w for w in (1, 2)), r"^weights: <generator .* is not a sequence$"),
        ],
        ids=["matrix", "quiver", "weights", "weights-str", "weights-dict", "weights-generator"],
    )
    def test_wrong_types_refused(self, build, message):
        # used to escape as a bare AttributeError or TypeError
        with pytest.raises(ValidationError, match=message):
            build()


class TestDirectSum:
    def test_with_zero(self):
        v = interval_module(A3, Interval(0, 1), GF(5))
        z = zero_representation(A3, GF(5))
        s = direct_sum(v, z)
        assert s.dims == v.dims and s.mats == v.mats

    def test_block_zero_edge(self):
        a = interval_module(A2, Interval(0, 0), QQ)
        b = interval_module(A2, Interval(1, 1), QQ)
        s = direct_sum(a, b)
        assert s.dims == (1, 1)
        assert s.mats[0] == Matrix.zeros(QQ, 1, 1)

    def test_dims_add(self):
        a = Representation(A2, QQ, (1, 2), (Matrix.zeros(QQ, 2, 1),))
        b = Representation(A2, QQ, (2, 1), (Matrix.zeros(QQ, 1, 2),))
        assert direct_sum(a, b).dims == (3, 3)

    def test_mismatch(self):
        with pytest.raises(ValidationError):
            direct_sum(zero_representation(A2, QQ), zero_representation(A3, QQ))
        with pytest.raises(ValidationError):
            direct_sum(zero_representation(A2, QQ), zero_representation(A2, GF(2)))


class TestConjugate:
    def test_identity_bases(self):
        v = interval_module(A3, Interval(0, 2), GF(3))
        bases = [Matrix.identity(GF(3), d) for d in v.dims]
        assert conjugate(v, bases) == v

    def test_zero_rep(self):
        z = zero_representation(A2, QQ)
        assert conjugate(z, [Matrix.zeros(QQ, 0, 0)] * 2) == z

    def test_scaling_gf5(self):
        # 3 * 1 * inverse(2) = 3 * 3 = 9 = 4 mod 5
        v = interval_module(A2, Interval(0, 1), GF(5))
        out = conjugate(v, [Matrix(GF(5), [[2]]), Matrix(GF(5), [[3]])])
        assert out.mats[0] == Matrix(GF(5), [[4]])

    def test_not_invertible(self):
        v = interval_module(A2, Interval(0, 1), GF(5))
        with pytest.raises(ValidationError):
            conjugate(v, [Matrix.zeros(GF(5), 1, 1), Matrix.identity(GF(5), 1)])


class TestSlope:
    def test_euler_examples(self):
        eps = euler_stability(A3)
        assert slope_of_dims(interval_module(A3, Interval(0, 2), QQ).dims, eps) == Fraction(1, 3)
        assert slope_of_dims(interval_module(A3, Interval(1, 2), QQ).dims, eps) == 0

    def test_zero_weights(self):
        v = interval_module(A3, Interval(0, 1), GF(2))
        assert slope_of_dims(v.dims, StabilityCondition((0, 0, 0))) == 0

    def test_zero_rep_error(self):
        with pytest.raises(ValidationError):
            slope_of_dims(zero_representation(A3, QQ).dims, euler_stability(A3))

    def test_weight_count_mismatch(self):
        v = interval_module(A3, Interval(0, 1), QQ)
        for weights in ((1, 0), (1, 0, 0, 0)):
            with pytest.raises(ValidationError):
                check_weights(v.quiver, StabilityCondition(weights))

    def test_direct_sum_between(self):
        rng = make_rng(2)
        eps3 = euler_stability(A3)
        for _ in range(50):
            a = random_zigzag_rep(rng, max_n=3)
            b = random_zigzag_rep(rng, max_n=3)
            if a.quiver != b.quiver or a.field != b.field:
                continue
            if a.total_dim() == 0 or b.total_dim() == 0:
                continue
            alpha = StabilityCondition(
                tuple(Fraction(rng.randint(-3, 3)) for _ in range(a.quiver.vertex_count))
            )
            lo = min(slope_of_dims(a.dims, alpha), slope_of_dims(b.dims, alpha))
            hi = max(slope_of_dims(a.dims, alpha), slope_of_dims(b.dims, alpha))
            s = slope_of_dims(direct_sum(a, b).dims, alpha)
            assert lo <= s <= hi

    def test_conjugation_invariance(self):
        rng = make_rng(3)
        for _ in range(30):
            v = random_zigzag_rep(rng)
            if v.total_dim() == 0:
                continue
            alpha = StabilityCondition(
                tuple(Fraction(rng.randint(-2, 4)) for _ in range(v.quiver.vertex_count))
            )
            w = conjugate(v, conjugating_bases(v, rng))
            assert slope_of_dims(w.dims, alpha) == slope_of_dims(v.dims, alpha)


class TestStabilityCondition:
    def test_exact_weights_accepted(self):
        alpha = StabilityCondition((2, Fraction(1, 3), "-3/4", "0.25"))
        assert alpha.weights == (Fraction(2), Fraction(1, 3), Fraction(-3, 4), Fraction(1, 4))

    @pytest.mark.parametrize("bad", [0.1, 1.0, True, False, "abc", None, "1e5", "1E-2"])
    def test_inexact_weights_rejected(self, bad):
        # 0.1 used to be stored as 3602879701896397/36028797018963968, True as 1
        with pytest.raises(ValidationError):
            StabilityCondition((0, bad))


class TestEulerStability:
    def test_a3(self):
        assert euler_stability(A3).weights == (Fraction(1), Fraction(0), Fraction(0))

    def test_example_cycle(self):
        assert [int(w) for w in euler_stability(EX6).weights] == [0, 0, -1, 1, 0, 0]

    def test_source_only_vertex(self):
        q = Quiver(2, ((0, 1),))
        assert euler_stability(q).weights[0] == 1

    def test_cyclic_error(self):
        with pytest.raises(ShapeError):
            euler_stability(Quiver(2, ((0, 1), (1, 0))))

    def test_weight_sum(self):
        rng = make_rng(4)
        for _ in range(20):
            v = random_zigzag_rep(rng)
            q = v.quiver
            total = sum(euler_stability(q).weights)
            assert total == q.vertex_count - len(q.edges)
        # cycle graphs balance to zero
        assert sum(euler_stability(EX6).weights) == 0


class TestSheafEuler:
    def test_interval(self):
        assert sheaf_euler_characteristic(interval_module(A3, Interval(0, 2), QQ)) == 1

    def test_zero(self):
        assert sheaf_euler_characteristic(zero_representation(A3, QQ)) == 0

    def test_cyclic_quiver_accepted(self):
        # in-degrees (1, 1, 2): weights (0, 0, -1), unlike euler_stability
        q = Quiver(3, ((0, 1), (1, 2), (2, 0), (0, 2)))
        dims = (1, 2, 3)
        mats = tuple(Matrix.zeros(QQ, dims[dst], dims[src]) for src, dst in q.edges)
        assert sheaf_euler_characteristic(Representation(q, QQ, dims, mats)) == -3
        with pytest.raises(ShapeError):
            euler_stability(q)

    def test_additive(self):
        rng = make_rng(5)
        for _ in range(30):
            a = random_zigzag_rep(rng, max_n=3)
            b = random_zigzag_rep(rng, max_n=3)
            if a.quiver != b.quiver or a.field != b.field:
                continue
            assert sheaf_euler_characteristic(direct_sum(a, b)) == (
                sheaf_euler_characteristic(a) + sheaf_euler_characteristic(b)
            )

    def test_matches_slope_numerator(self):
        rng = make_rng(6)
        for _ in range(20):
            v = random_zigzag_rep(rng)
            if v.total_dim() == 0:
                continue
            eps = euler_stability(v.quiver)
            assert sheaf_euler_characteristic(v) == slope_of_dims(v.dims, eps) * v.total_dim()
