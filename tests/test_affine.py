import hashlib
import os
import subprocess
import sys
from fractions import Fraction
from itertools import groupby
from pathlib import Path

import pytest

import hnzz

from hnzz import linalg, zigzag
from hnzz.errors import ShapeError, ValidationError
from hnzz.linalg import GF, QQ, Matrix
from hnzz.quiver import (
    Quiver,
    Representation,
    conjugate,
    direct_sum,
    euler_stability,
    slope_of_dims,
    zero_representation,
)
from hnzz.zigzag import Interval, barcode
from hnzz.hn import ORACLE_MAX_TOTAL_DIM, HNReport, hn_bruteforce, is_semistable
from hnzz.affine import (
    CCW,
    CW,
    AffineQuiver,
    NClass,
    affine_of_quiver,
    classify_lift,
    default_window,
    eta_from_lift,
    euler_slope_N,
    indec_N,
    indec_T,
    lift_truncated,
    p_value,
    recover_N_multiplicities,
    to_quiver,
    wrap_counts,
)
from hnzz.generators import gen_affine, random_orientation

from conftest import conjugating_bases, make_rng, mixed_orientations

TESTS = Path(__file__).resolve().parent
# the running 6-cycle example: only e_3 is counterclockwise
EX = AffineQuiver(6, (CW, CW, CW, CCW, CW, CW))


class TestQuiverConstruction:
    def test_n2_both_into_x0(self):
        q = to_quiver(AffineQuiver(2, (CW, CCW)))
        assert q.edges == ((1, 0), (1, 0))

    def test_example_in_degrees(self):
        q = to_quiver(EX)
        # Euler weights, 1 - in-degree: in-degrees 1, 1, 2, 0, 1, 1
        assert euler_stability(q).weights == (0, 0, -1, 1, 0, 0)

    def test_all_cw_rejected(self):
        with pytest.raises(ShapeError):
            AffineQuiver(3, (CW, CW, CW))
        with pytest.raises(ShapeError):
            AffineQuiver(3, (CCW, CCW, CCW))

    @pytest.mark.parametrize("n, bits", [(3, (CW, CCW, 1.0)), (3, (CW, True, CCW)), (3.0, (CW, CCW, CCW))])
    def test_non_int_refused(self, n, bits):
        # orientation bits used to pass through int(), so 1.0 and True read as CCW
        with pytest.raises(ValidationError, match="is not an int$"):
            AffineQuiver(n, bits)

    def test_roundtrip(self):
        for n in (2, 3, 4):
            for bits in mixed_orientations(n):
                aq = AffineQuiver(n, bits)
                assert affine_of_quiver(to_quiver(aq)) == aq

    def test_window_validation(self):
        v = indec_N(AffineQuiver(3, (CW, CW, CCW)), 0, 2, GF(2))  # dim 1 at x_0
        assert default_window(v) == 9
        for window in (7, 10):
            with pytest.raises(ShapeError, match="multiple of n=3"):
                classify_lift(v, window)
        for window in (3, 6):
            with pytest.raises(ShapeError, match="below 9"):
                classify_lift(v, window)

    def test_no_vertices_refused(self):
        # the shape is checked before the dimension at x_0 is read
        v = Representation(Quiver(0, ()), GF(2), (), ())
        with pytest.raises(ShapeError, match="not an affine cycle quiver"):
            classify_lift(v)


class TestIndecN:
    def test_example_golden(self):
        v = indec_N(EX, 1, 9, GF(5))
        assert v.dims == (1, 2, 2, 2, 1, 1)
        assert v.mats[1] == Matrix(GF(5), [[0], [1]])
        assert v.mats[4] == Matrix(GF(5), [[1, 0]])
        for e in (0, 5):
            assert v.mats[e] == Matrix.identity(GF(5), 1)
        for e in (2, 3):
            assert v.mats[e] == Matrix.identity(GF(5), 2)

    def test_point(self):
        v = indec_N(EX, 2, 2, QQ)
        assert v.dims == (0, 0, 1, 0, 0, 0)

    def test_two_full_turns(self):
        v = indec_N(EX, 0, 11, GF(2))
        assert v.dims == (2, 2, 2, 2, 2, 2)

    def test_wrap_counts_match(self):
        for n in (2, 3, 5):
            for u in range(n):
                for length in range(3 * n):
                    base = (length + 1) // n
                    counts = wrap_counts(n, u, u + length)
                    assert sum(counts) == length + 1
                    assert all(c in (base, base + 1) for c in counts)

    def test_bad_endpoint(self):
        with pytest.raises(ValidationError):
            indec_N(EX, 6, 7, QQ)
        with pytest.raises(ValidationError):
            indec_N(EX, 2, 1, QQ)


class TestIndecT:
    def test_example_golden(self):
        v = indec_T(EX, 2, 3, GF(5))
        assert v.dims == (3,) * 6
        assert v.mats[0] == Matrix(GF(5), [[2, 1, 0], [0, 2, 1], [0, 0, 2]])
        for e in range(1, 6):
            assert v.mats[e] == Matrix.identity(GF(5), 3)

    def test_unit(self):
        v = indec_T(EX, 1, 1, QQ)
        assert v.dims == (1,) * 6
        assert all(m == Matrix.identity(QQ, 1) for m in v.mats)

    def test_zero_eigenvalue_rejected(self):
        with pytest.raises(ValidationError):
            indec_T(EX, 0, 2, GF(3))

    def test_slope_zero(self):
        q = to_quiver(EX)
        assert slope_of_dims(indec_T(EX, 2, 3, GF(5)).dims, euler_stability(q)) == 0
        assert euler_slope_N(EX, 1, 9) == 0

    def test_sheaf_euler_characteristic_vanishes(self):
        from hnzz.quiver import sheaf_euler_characteristic

        for w in (1, 2, 3):
            assert sheaf_euler_characteristic(indec_T(EX, 2, w, GF(5))) == 0


class TestPValue:
    def test_example(self):
        assert p_value(EX, 1, 9) == 1

    def test_point_class_outward_edges(self):
        # both boundary edges pointing away from the support counts zero
        aq = AffineQuiver(3, (CCW, CW, CW))
        # u = v = 0: e_0 must not target x_0 (ccw: src x_0) and e_1 must
        # not target x_0 (cw: targets x_1)
        assert p_value(aq, 0, 0) == 0
        assert euler_slope_N(aq, 0, 0) == 1

    def test_all_cases_reachable(self):
        values = set()
        for bits in mixed_orientations(4):
            aq = AffineQuiver(4, bits)
            for u in range(4):
                for v in range(u, u + 8):
                    values.add(p_value(aq, u, v))
        assert values == {0, 1, 2}

    def test_slope_sign_matches(self):
        for n in (2, 3, 4):
            for bits in mixed_orientations(n):
                aq = AffineQuiver(n, bits)
                for u in range(n):
                    for v in range(u, u + 3 * n - 1):
                        sl = euler_slope_N(aq, u, v)
                        p = p_value(aq, u, v)
                        assert sl == Fraction(1 - p, v - u + 1)
                        assert (sl > 0) == (p == 0)
                        assert (sl == 0) == (p == 1)

    def test_formula_matches_direct_slope(self):
        for n in (2, 3):
            for bits in mixed_orientations(n):
                aq = AffineQuiver(n, bits)
                q = to_quiver(aq)
                eps = euler_stability(q)
                for u in range(n):
                    for v in range(u, u + 2 * n):
                        direct = slope_of_dims(indec_N(aq, u, v, GF(2)).dims, eps)
                        assert euler_slope_N(aq, u, v) == direct


class TestWindow:
    def test_default_examples(self):
        v = indec_N(EX, 1, 9, GF(5))  # dim 1 at x_0
        assert default_window(v) == 18
        z = zero_representation(to_quiver(AffineQuiver(3, (CW, CW, CCW))), QQ)
        assert default_window(z) == 6
        aq2 = AffineQuiver(2, (CW, CCW))
        t = indec_T(aq2, 1, 2, GF(3))
        assert default_window(t) == 8


class TestLift:
    def test_unit_jordan_cell(self):
        v = indec_T(EX, 1, 1, GF(3))
        w = default_window(v)
        lifted = lift_truncated(v, w)
        assert lifted.dims == (1,) * (w + 1)
        assert all(m == Matrix.identity(GF(3), 1) for m in lifted.mats)
        assert dict(barcode(lifted)) == {Interval(0, w): 1}

    def test_dims_periodic(self):
        v = indec_N(EX, 1, 9, GF(2))
        w = default_window(v)
        lifted = lift_truncated(v, w)
        for i in range(w + 1):
            assert lifted.dims[i] == v.dims[i % 6]

    def test_translates_of_wrapped_interval(self):
        # the window barcode of a lifted wrapped interval is exactly the
        # set of integer translates clipped to the window, multiplicity 1
        rng = make_rng(31)
        from hnzz.generators import random_orientation

        for _ in range(15):
            n = rng.randint(2, 5)
            aq = AffineQuiver(n, random_orientation(n, rng))
            u = rng.randrange(n)
            v = u + rng.randint(0, 3 * n - 1)
            rep = indec_N(aq, u, v, GF(3))
            w = default_window(rep)
            expected = {}
            c = -(v // n) - 2
            while u + c * n <= w:
                lo, hi = u + c * n, v + c * n
                lo2, hi2 = max(lo, 0), min(hi, w)
                if lo2 <= hi2:
                    expected[Interval(lo2, hi2)] = expected.get(Interval(lo2, hi2), 0) + 1
                c += 1
            assert dict(barcode(lift_truncated(rep, w))) == expected

    def test_jordan_cell_full_bars(self):
        for w_size in (1, 2, 3):
            v = indec_T(EX, 2, w_size, GF(5))
            win = default_window(v)
            assert dict(barcode(lift_truncated(v, win))) == {Interval(0, win): w_size}

    def test_negative_window_refused(self):
        # D = -3 would build a quiver on -2 vertices
        with pytest.raises(ValidationError):
            lift_truncated(indec_N(EX, 1, 9, GF(5)), -3)

    def test_example_contains_interval(self):
        v = indec_N(EX, 1, 9, GF(5))
        bar = barcode(lift_truncated(v, default_window(v)))
        assert dict(bar).get(Interval(1, 9)) == 1


class TestLiftedMultiplicities:
    def test_jordan(self):
        d_inf, classes = classify_lift(indec_T(EX, 2, 3, GF(5)))[:2]
        assert d_inf == 3 and classes == {}

    def test_wrapped(self):
        d_inf, classes = classify_lift(indec_N(EX, 1, 9, GF(5)))[:2]
        assert d_inf == 0 and classes == {NClass(1, 9): 1}

    def test_mixtures_match_construction(self):
        rng = make_rng(32)
        for _ in range(20):
            n = rng.randint(2, 6)
            fld = GF(rng.choice((2, 3, 5)))
            aq, rep, truth_n, truth_t = gen_affine(
                n, fld, 3, rng, min_summands=1, max_len=3 * n - 1
            )
            d_inf, classes = classify_lift(rep)[:2]
            assert classes == truth_n
            assert d_inf == sum(c.w * m for c, m in truth_t.items())

    def test_window_robustness(self):
        rng = make_rng(33)
        aq, rep, _, _ = gen_affine(4, GF(3), 3, rng, min_summands=1)
        base = default_window(rep)
        assert classify_lift(rep, base + aq.n)[:2] == classify_lift(rep)[:2]

    @pytest.mark.parametrize("fld", [GF(2), GF(3), GF(5), QQ], ids=repr)
    def test_window_barcode_is_that_of_the_unwinding(self, fld):
        # classify_lift sweeps the window's crossings straight from the
        # cycle, with no window Representation; its barcode is that of the
        # unwinding lift_truncated builds, at the default window and one
        # turn past it
        rng = make_rng(36)
        for _ in range(8):
            n = rng.randint(2, 5)
            aq, rep, _, _ = gen_affine(n, fld, 3, rng, min_summands=1, max_len=3 * n - 1)
            base = default_window(rep)
            for window in (base, base + n):
                assert classify_lift(rep, window)[2] == barcode(lift_truncated(rep, window))

    def test_short_window_rejected(self):
        rep = indec_N(EX, 1, 9, GF(5))
        base = default_window(rep)
        with pytest.raises(ShapeError):
            classify_lift(rep, base - EX.n)


class TestBijectiveCrossings:
    """A lift window crosses each run of bijective edge matrices by one product, composed once."""

    def test_all_bijective_cycle_work(self, count_calls):
        # Jordan cells only, conjugated: every edge matrix of the cycle is
        # bijective, and lift_truncated repeats its n objects with period
        # n.  A bijection moves the zero member to 0 and the whole space to
        # the whole space, so the flag stays trivial, each position keeps
        # the one mark (0, dim, 0), no rank is taken, and the sweep stops
        # at position n, whose marks repeat those of position 0.  The n
        # crossings of one turn are one run of square crossings, decided
        # and composed once: one [B | X] solve per stretch of left-pointing
        # edges, and one rank of the product for the right-pointing ones,
        # of which an acyclic orientation has one at least.  The flag
        # needs no product, and no completion runs: the flag keeps all of
        # V_k.  One rank or [m | I] reduction per crossing ran n here, and
        # the elimination route n + (left-pointing edges), a kernel more
        # per such edge
        rng = make_rng(34)
        eliminations = count_calls(linalg, "_gauss_jordan")
        for n in (2, 7, 12):
            aq = AffineQuiver(n, random_orientation(n, rng))
            rep = direct_sum(indec_T(aq, 1, 2, GF(3)), indec_T(aq, 2, 1, GF(3)))
            rep = conjugate(rep, conjugating_bases(rep, rng))
            forward = [aq.orientation[i % n] == CW for i in range(1, n + 1)]
            stretches = sum(not fwd for fwd, _ in groupby(forward))
            eliminations.clear()
            d_inf, classes, _ = classify_lift(rep)
            assert (d_inf, classes) == (3, {})
            assert len(eliminations) == stretches + 1

    def test_wide_edge_pointing_right_is_not_ranked(self, count_calls):
        # dims (2, 1, 2): the turn from x_0 crosses e1 (1x2, pointing
        # right), e2 (1x2, pointing left) and e0 (2x2, pointing right).  A
        # matrix with fewer rows than columns is never injective, so e1
        # steps by an image with no rank; e2 steps by a preimage, and e0 is
        # a run of square crossings that _composed decides on its own
        aq = AffineQuiver(3, (CW, CW, CCW))
        fld = GF(3)
        wide = Matrix(fld, [[1, 0]])
        rep = Representation(to_quiver(aq), fld, (2, 1, 2),
                             (Matrix.identity(fld, 2), wide, wide))
        ranks = count_calls(zigzag, "rank")
        d_inf, classes, window = classify_lift(rep)
        assert (d_inf, classes) == (1, {NClass(2, 3): 1})
        assert window == barcode(lift_truncated(rep, default_window(rep)))
        assert len(ranks) == 0

    def test_rational_bijections_cross_with_no_fraction(self, count_calls):
        # over QQ the run of a cycle's bijections is composed on integer
        # rows, its left-pointing edges by the rows of one _scaled_solve,
        # so the window of a conjugated Jordan cell on a cycle with a
        # counterclockwise edge is swept with no Fraction
        rng = make_rng(37)
        rep = indec_T(EX, Fraction(-2, 3), 2, QQ)
        rep = conjugate(rep, conjugating_bases(rep, rng))
        solves = count_calls(linalg, "_scaled_solve")
        built = count_calls(Fraction, "__new__")
        d_inf, classes, _ = classify_lift(rep)
        assert (d_inf, classes) == (2, {})
        assert len(solves) == 1 and len(built) == 0

    @pytest.mark.parametrize("n", [50, 100])
    def test_rational_cycle_exact_with_small_entries(self, n, monkeypatch):
        # a wrapped interval winding three times plus a size-2 cell over QQ,
        # conjugated: the product route carries a partial flag across
        # hundreds of bijective edges, each product's columns divided by
        # their gcds, and composes each run of them into one map, each
        # product divided by the gcd of all its entries, so the entries of
        # bases and composed maps stay small and the summands exact
        rng = make_rng(35)
        aq = AffineQuiver(n, random_orientation(n, rng))
        rep = direct_sum(indec_N(aq, 1, 1 + 3 * n + 2, QQ), indec_T(aq, 1, 2, QQ))
        rep = conjugate(rep, conjugating_bases(rep, rng))
        bits, composed_bits = [], []

        def recording(m, basis, dims, moved=zigzag._flag_moved):
            out = moved(m, basis, dims)
            bits.extend(abs(x).bit_length() for row in out[0].ints for x in row)
            return out

        def composing(run, composed=zigzag._composed):
            out = composed(run)
            if out[0] is not None:
                composed_bits.extend(abs(x).bit_length() for row in out[0].ints for x in row)
            return out

        monkeypatch.setattr(zigzag, "_flag_moved", recording)
        monkeypatch.setattr(zigzag, "_composed", composing)
        d_inf, classes, _ = classify_lift(rep)
        assert (d_inf, classes) == (2, {NClass(1, 1 + 3 * n + 2): 1})
        assert bits and max(bits) <= 64
        assert composed_bits and max(composed_bits) <= 64


class TestEtaFromLift:
    def test_jordan_single_step(self):
        rep = eta_from_lift(indec_T(EX, 2, 3, GF(5)))
        assert rep.steps == ((Fraction(0), (3, 3, 3, 3, 3, 3)),)

    def test_example_mixture(self):
        v = direct_sum(indec_N(EX, 1, 9, GF(5)), indec_T(EX, 2, 1, GF(5)))
        rep = eta_from_lift(v)
        assert rep.steps == ((Fraction(0), (2, 3, 3, 3, 2, 2)),)

    def test_zero_rep(self):
        assert eta_from_lift(zero_representation(to_quiver(EX), GF(5))).steps == ()

    def test_matches_oracle(self):
        rng = make_rng(34)
        for _ in range(15):
            p = rng.choice((2, 3))
            cap = ORACLE_MAX_TOTAL_DIM[p]
            aq, rep, _, _ = gen_affine(
                rng.randint(2, 4), GF(p), 3, rng,
                min_summands=1, total_cap=cap, vertex_cap=6, max_len=2 * aq_len(rng),
            )
            fast = eta_from_lift(rep)
            oracle = hn_bruteforce(rep, euler_stability(rep.quiver))
            assert fast.steps == oracle.steps

    def test_conjugation_invariance(self):
        rng = make_rng(35)
        aq, rep, _, _ = gen_affine(5, GF(5), 3, rng, min_summands=1)
        again = conjugate(rep, conjugating_bases(rep, rng))
        assert eta_from_lift(again).steps == eta_from_lift(rep).steps


def aq_len(rng):
    return rng.randint(2, 4)


class TestSemistability:
    def test_indecomposables_semistable_sample(self):
        rng = make_rng(36)
        for _ in range(25):
            n = rng.randint(2, 4)
            bits = tuple(rng.choice((CW, CCW)) for _ in range(n))
            if len(set(bits)) < 2:
                continue
            aq = AffineQuiver(n, bits)
            q = to_quiver(aq)
            eps = euler_stability(q)
            p = rng.choice((2, 3))
            cap = ORACLE_MAX_TOTAL_DIM[p]
            fld = GF(p)
            if rng.random() < 0.5:
                u = rng.randrange(n)
                length = rng.randint(0, cap - 1)
                rep = indec_N(aq, u, u + length, fld)
            else:
                rep = indec_T(aq, rng.randint(1, p - 1), rng.randint(1, cap // n), fld)
            assert is_semistable(rep, eps)


class TestRecoverMultiplicities:
    def test_single_summand(self):
        aq = AffineQuiver(3, (CW, CW, CCW))
        found = False
        for u in range(3):
            for v in range(u, u + 5):
                if p_value(aq, u, v) == 1:
                    continue
                rep = eta_from_lift(indec_N(aq, u, v, GF(2)))
                assert recover_N_multiplicities(rep, u, v) == 1
                found = True
        assert found

    def test_absent_class(self):
        aq = AffineQuiver(3, (CW, CW, CCW))
        rep = eta_from_lift(indec_T(aq, 1, 1, GF(2)))
        for u in range(3):
            for v in range(u, u + 4):
                if p_value(aq, u, v) != 1:
                    assert recover_N_multiplicities(rep, u, v) == 0

    def test_p1_rejected(self):
        aq = AffineQuiver(3, (CW, CW, CCW))
        rep = eta_from_lift(indec_T(aq, 1, 1, GF(2)))
        bad = None
        for u in range(3):
            for v in range(u, u + 4):
                if p_value(aq, u, v) == 1:
                    bad = (u, v)
                    break
        assert bad is not None
        with pytest.raises(ValidationError):
            recover_N_multiplicities(rep, *bad)

    @pytest.mark.parametrize("u, v", [(-1, 0), (3, 4), (4, 6)])
    def test_out_of_range_u_refused(self, u, v):
        # a left endpoint outside [0, n-1] is refused, not moved by a multiple of n
        aq = AffineQuiver(3, (CW, CW, CCW))
        rep = eta_from_lift(indec_N(aq, 0, 1, GF(2)))
        with pytest.raises(ValidationError, match=r"^left endpoint"):
            recover_N_multiplicities(rep, u, v)

    def test_cycle_read_from_the_report(self):
        # the report's quiver is the one cycle the class is read against
        rep = eta_from_lift(indec_N(AffineQuiver(3, (CW, CW, CCW)), 0, 1, GF(2)))
        assert recover_N_multiplicities(rep, 0, 1) == 1
        assert recover_N_multiplicities(rep, 2, 3) == 0
        path = HNReport(Quiver(3, ((0, 1), (1, 2))), rep.steps)
        with pytest.raises(ShapeError):
            recover_N_multiplicities(path, 0, 1)

    def test_generator_property(self):
        rng = make_rng(37)
        for _ in range(10):
            n = rng.randint(2, 4)
            aq, rep, truth_n, _ = gen_affine(
                n, GF(3), 3, rng, min_summands=1, max_len=2 * n
            )
            report = eta_from_lift(rep)
            for cls, mult in truth_n.items():
                if p_value(aq, cls.u, cls.v) != 1:
                    assert recover_N_multiplicities(report, cls.u, cls.v) == mult
            # an absent class with p != 1
            for u in range(n):
                for v in range(u, u + 2 * n):
                    if p_value(aq, u, v) == 1 or NClass(u, v) in truth_n:
                        continue
                    assert recover_N_multiplicities(report, u, v) == 0


def test_example_script_writes_golden_files(tmp_path):
    # the example script runs classify_lift and eta_from_lift on the 6-cycle
    # example: its instances are the golden files, its reports are pinned
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(os.path.abspath(hnzz.__file__)))
    script = TESTS.parent / "scripts" / "make_example_instances.py"
    subprocess.run([sys.executable, str(script), "--dir", str(tmp_path)],
                   env=env, check=True, stdout=subprocess.PIPE, timeout=120)
    for name, golden in (("wrapped_interval_1_9", "affine6_wrapped_interval"),
                         ("jordan_cell_2_3", "affine6_jordan_cell")):
        assert (tmp_path / f"{name}.json").read_bytes() == (
            TESTS / "golden" / f"{golden}.json"
        ).read_bytes()
    digests = {
        name: hashlib.sha256((tmp_path / f"{name}.report.json").read_bytes()).hexdigest()
        for name in ("wrapped_interval_1_9", "jordan_cell_2_3")
    }
    assert digests == {
        "wrapped_interval_1_9": "7a8cdb275f76d9e3d8d4054d177f0df41ba65f554bed8bfc285bd1f0c51ef84c",
        "jordan_cell_2_3": "2a0a90a2ec1c7928a7c01d98c5cdc0c6ac4c0af367e3f74ec395ad6b33c8c6fc",
    }
