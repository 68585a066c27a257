import hashlib
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

import hnzz.hn as hn_module
from hnzz import campaign, zigzag
from hnzz.errors import GuardError, InternalCheckError, ShapeError, ValidationError
from hnzz.linalg import GF, QQ, Matrix, subspace_contains
from hnzz.quiver import (
    Quiver,
    Representation,
    StabilityCondition,
    conjugate,
    direct_sum,
    euler_stability,
    slope_of_dims,
    zero_representation,
)
from hnzz.zigzag import Barcode, Interval, barcode, interval_module
from hnzz.hn import (
    ENUM_MAX_DIM,
    ORACLE_MAX_TOTAL_DIM,
    HNReport,
    hn_bruteforce,
    hn_direct_sum_merge,
    hn_from_barcode,
    hn_r_filtration_eval,
    is_semistable,
    recover_barcode_via_truncations,
)
from hnzz.affine import AffineQuiver, to_quiver
from hnzz.campaign import fast_report
from hnzz.generators import equioriented_quiver, gen_affine, gen_persistence

from conftest import (
    conjugating_bases,
    dual,
    make_rng,
    mirrored,
    random_path_quiver,
    random_zigzag_rep,
    sparse_rep,
    subrepresentations,
    vectors_of,
    zero_map_path,
)

A2 = equioriented_quiver(2)
A3 = equioriented_quiver(3)
EPS2 = euler_stability(A2)
EPS3 = euler_stability(A3)


def three_step_module(fld=GF(2)):
    return direct_sum(
        direct_sum(
            interval_module(A3, Interval(0, 2), fld),
            interval_module(A3, Interval(0, 0), fld),
        ),
        interval_module(A3, Interval(1, 2), fld),
    )


def split_three_vertex_module(fld=GF(2)):
    """[0, 1] + [2, 2] on A3."""
    return direct_sum(
        interval_module(A3, Interval(0, 1), fld),
        interval_module(A3, Interval(2, 2), fld),
    )


def containing(bases, inner) -> bool:
    return all(subspace_contains(b, i) for b, i in zip(bases, inner))


def random_weights(q, rng):
    return StabilityCondition(
        tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(q.vertex_count))
    )


class TestReportInvariants:
    def test_strictly_decreasing_enforced(self):
        with pytest.raises(ValidationError):
            HNReport(A2, ((Fraction(0), (1, 0)), (Fraction(1), (0, 1))))

    def test_zero_quotient_rejected(self):
        with pytest.raises(ValidationError):
            HNReport(A2, ((Fraction(1), (0, 0)),))


class TestIsSemistable:
    def test_full_interval(self):
        assert is_semistable(interval_module(A2, Interval(0, 1), GF(2)), EPS2)

    def test_split_sum_not_semistable(self):
        v = direct_sum(
            interval_module(A2, Interval(0, 0), GF(2)),
            interval_module(A2, Interval(1, 1), GF(2)),
        )
        assert not is_semistable(v, EPS2)

    def test_zero_weights_always_semistable(self):
        v = three_step_module()
        assert is_semistable(v, StabilityCondition((0, 0, 0)))

    def test_guards(self):
        v = interval_module(A2, Interval(0, 1), QQ)
        with pytest.raises(GuardError):
            is_semistable(v, EPS2)
        big = interval_module(equioriented_quiver(9), Interval(0, 8), GF(2))
        with pytest.raises(GuardError):
            is_semistable(big, euler_stability(equioriented_quiver(9)))
        v5 = interval_module(A2, Interval(0, 1), GF(5))
        with pytest.raises(GuardError):
            is_semistable(v5, EPS2)

    def test_zero_rep(self):
        with pytest.raises(ValidationError):
            is_semistable(zero_representation(A2, GF(2)), EPS2)

    def test_weight_count_mismatch(self, monkeypatch):
        # checked on entry, before any subrepresentation is scanned
        monkeypatch.setattr(hn_module, "_destabilizer", None)
        with pytest.raises(ValidationError):
            is_semistable(split_three_vertex_module(), StabilityCondition((1, 0)))


class TestSubrepresentations:
    def test_counts_on_split_module(self):
        # K --0--> K: any pair of subspaces is a subrepresentation: 2*2
        v = Representation(A2, GF(2), (1, 1), (Matrix.zeros(GF(2), 1, 1),))
        assert sum(1 for _ in subrepresentations(v)) == 4

    def test_counts_on_identity_module(self):
        # K --id--> K: U_0 = K forces U_1 = K: 3 subrepresentations
        v = Representation(A2, GF(2), (1, 1), (Matrix.identity(GF(2), 1),))
        assert sum(1 for _ in subrepresentations(v)) == 3

    def test_cyclic_quiver_rejected(self):
        # the oracle's scan needs a topological order
        loop = Quiver(2, ((0, 1), (1, 0)))
        v = Representation(
            loop, GF(2), (1, 1),
            (Matrix.identity(GF(2), 1), Matrix.identity(GF(2), 1)),
        )
        with pytest.raises(ShapeError, match="acyclic"):
            hn_bruteforce(v, StabilityCondition((0, 0)))

    def test_above_is_the_containing_part_of_the_full_scan(self):
        rng = make_rng(28)
        stages_checked = 0
        for _ in range(12):
            v = campaign.draw_a(rng).rep
            full = list(subrepresentations(v))
            zeros = tuple(Matrix.zeros(v.field, d, 0) for d in v.dims)
            assert list(subrepresentations(v, above=zeros)) == full
            report = hn_bruteforce(v, random_weights(v.quiver, rng))
            for stage in report.witness:
                above = list(subrepresentations(v, above=stage))
                assert len(set(above)) == len(above)
                assert set(above) == {u for u in full if containing(u, stage)}
                stages_checked += 1
        assert stages_checked >= 10

    def test_long_path_of_zero_spaces(self):
        # the walk skips vertices of dimension 0, so its recursion depth is
        # bounded by the total dimension, not by the number of vertices
        v = zero_map_path((0,) * 1999 + (1,))
        assert sum(1 for _ in subrepresentations(v)) == 2

    def test_closed_under_maps(self):
        rng = make_rng(21)
        v, _ = gen_persistence(3, GF(2), 3, rng, min_summands=1, total_cap=6)
        for bases in subrepresentations(v):
            for (src, dst), m in zip(v.quiver.edges, v.mats):
                assert subspace_contains(bases[dst], m @ bases[src])


class TestBruteforce:
    def test_semistable_single_step(self):
        rep = hn_bruteforce(interval_module(A2, Interval(0, 1), GF(2)), EPS2)
        assert len(rep.steps) == 1
        assert rep.steps[0] == (Fraction(1, 2), (1, 1))

    def test_three_steps(self):
        rep = hn_bruteforce(three_step_module(), EPS3)
        assert rep.steps == (
            (Fraction(1), (1, 0, 0)),
            (Fraction(1, 3), (1, 1, 1)),
            (Fraction(0), (0, 1, 1)),
        )

    def test_zero_weights_single_step(self):
        rep = hn_bruteforce(three_step_module(), StabilityCondition((0, 0, 0)))
        assert len(rep.steps) == 1

    def test_zero_rep(self):
        report = hn_bruteforce(zero_representation(A2, GF(2)), EPS2)
        assert report.steps == () and report.witness == ()

    def test_witness_stages_are_subreps_with_semistable_quotients(self):
        rng = make_rng(22)
        for _ in range(8):
            v, _ = gen_persistence(
                3, GF(2), 3, rng, min_summands=1, total_cap=6, vertex_cap=4
            )
            rep = hn_bruteforce(v, EPS3)
            assert rep.witness is not None
            prev = tuple(Matrix.zeros(GF(2), d, 0) for d in v.dims)
            for (sl, qdims), stage in zip(rep.steps, rep.witness):
                for (src, dst), m in zip(v.quiver.edges, v.mats):
                    assert subspace_contains(stage[dst], m @ stage[src])
                assert containing(stage, prev)
                assert tuple(s.cols - p.cols for s, p in zip(stage, prev)) == qdims
                assert slope_of_dims(qdims, EPS3) == sl
                # the subrepresentations of stage / prev are those of v
                # between prev and stage: none may have a larger slope
                for u in subrepresentations(v, above=prev):
                    dims = [a.cols - b.cols for a, b in zip(u, prev)]
                    if sum(dims) and containing(stage, u):
                        assert slope_of_dims(dims, EPS3) <= sl
                prev = stage
            # final stage is everything (the zero stage for v = 0)
            assert prev == tuple(
                Matrix.identity(GF(2), d) for d in v.dims
            )

    def test_weight_count_mismatch(self, monkeypatch):
        # used to return a report as if the third weight were 0
        monkeypatch.setattr(hn_module, "_destabilizer", None)
        for weights in ((1, 0), (1, 0, 0, 0)):
            with pytest.raises(ValidationError):
                hn_bruteforce(split_three_vertex_module(), StabilityCondition(weights))

    def test_long_path_of_zero_spaces(self):
        # the scan skips vertices of dimension 0, so its recursion depth is
        # bounded by the total dimension, not by the number of vertices
        dims = (0,) * 1999 + (1,)
        v = zero_map_path(dims)
        report = hn_bruteforce(v, euler_stability(v.quiver))
        assert report.steps == ((Fraction(0), dims),)

    def test_order_independence(self, monkeypatch):
        v = conjugate(three_step_module(), conjugating_bases(three_step_module(), make_rng(23)))
        baseline = hn_bruteforce(v, EPS3)
        original = hn_module._superspaces

        def reversed_enum(field, floor, dim, k):
            return iter(list(original(field, floor, dim, k))[::-1])

        monkeypatch.setattr(hn_module, "_superspaces", reversed_enum)
        flipped = hn_bruteforce(v, EPS3)
        assert flipped.steps == baseline.steps
        assert flipped.witness == baseline.witness

    def test_duplicate_destabilizer_detected(self, monkeypatch):
        # a pass groups subrepresentations by quotient dimensions; the
        # counts of the best key must still add up.  The first enumeration
        # of the first pass is the first vertex's class of the best bound,
        # which here holds the destabilizer [0, 1]; it yields each
        # superspace twice, which doubles the destabilizer's count
        original = hn_module._superspaces
        calls = []

        def first_doubled(field, floor, dim, k):
            copies = 1 if calls else 2
            calls.append(floor)
            return (u for u in original(field, floor, dim, k) for _ in range(copies))

        monkeypatch.setattr(hn_module, "_superspaces", first_doubled)
        with pytest.raises(
            InternalCheckError, match=r"^maximal destabilizer is not unique \(2 candidates\)$"
        ):
            hn_bruteforce(split_three_vertex_module(), EPS3)


def small_zigzag(rng):
    """A random GF(2) or GF(3) zigzag within the oracle's total-dimension cap."""
    while True:
        v = random_zigzag_rep(rng, max_dim=2, fields=(2, 3))
        if 0 < v.total_dim() <= ORACLE_MAX_TOTAL_DIM[v.field.p]:
            return v


class TestDestabilizer:
    def test_agrees_with_the_plain_walk(self):
        # at every stage of every pass, walking subrepresentations(v,
        # above=stage): the pass's dims are among the dims of the walk's
        # best (slope, total) key, its basis-vector tuples read as Matrix
        # values are the walk's first bases with those dims, and its count
        # is the walk's total over the best key
        rng = make_rng(29)
        runs = []
        for draw in (campaign.draw_a, campaign.draw_b) * 25:
            v = draw(rng).rep
            if v.total_dim():
                runs += [(v, euler_stability(v.quiver)), (v, random_weights(v.quiver, rng))]
        for _ in range(100):
            v = small_zigzag(rng)
            zero = StabilityCondition((0,) * v.quiver.vertex_count)
            runs += [(v, random_weights(v.quiver, rng)), (v, zero)]
        stages_checked = 0
        for v, alpha in runs:
            report = hn_bruteforce(v, alpha)
            zeros = tuple(Matrix.zeros(v.field, d, 0) for d in v.dims)
            for stage in ((zeros,) + report.witness)[:-1]:
                counts: Counter = Counter()
                first = {}
                for bases in subrepresentations(v, above=stage):
                    dims = tuple(b.cols - a.cols for b, a in zip(bases, stage))
                    if any(dims):
                        counts[dims] += 1
                        first.setdefault(dims, bases)
                keys = {dims: (slope_of_dims(dims, alpha), sum(dims)) for dims in counts}
                best = max(keys.values())
                winners = {dims for dims, key in keys.items() if key == best}
                above = tuple(map(vectors_of, stage))
                dims, vectors, count = hn_module._destabilizer(v, above, alpha)
                assert dims in winners
                assert hn_module._stage(v, vectors) == first[dims]
                assert count == sum(counts[w] for w in winners)
                stages_checked += 1
        assert stages_checked >= 400


# (enumerations, superspaces, floor updates) of the oracle on zero-map
# GF(2) paths at the guard edge, one vertex at the enumerator limit
SCAN_WORK = {
    # the whole first vertex is the destabilizer, and every smaller class
    # of it is bounded below the threshold.  Without the bound the scans
    # took 2,836 and 2,834 superspaces and 2,826 and 2,830 floor updates
    (6, 2): (6, 8, 2),
    (6, 1, 1): (8, 8, 5),
    # a small vertex first: its best class sets the threshold only after
    # the big vertex's table is built whole, so these only halve, from
    # 5,656 and 5,657 superspaces without the bound
    (2, 6): (10, 2828, 2),
    (1, 6, 1): (13, 2831, 2828),
}


class TestScanWork:
    """A pass builds one suffix table per tuple of partial floors, walking
    its vertex's dimension classes (one enumeration each) down to the
    slope bound, with one floor update per superspace and out-edge; the
    counts pinned here do not vary between runs."""

    @pytest.mark.parametrize("dims", list(SCAN_WORK))
    def test_enumerations_per_guard_edge_scan(self, dims, monkeypatch, count_calls):
        original = hn_module._superspaces
        calls, yielded = [], []

        def counting(field, floor, dim, k):
            calls.append(k)
            for u in original(field, floor, dim, k):
                yielded.append(k)
                yield u

        monkeypatch.setattr(hn_module, "_superspaces", counting)
        floor_updates = count_calls(hn_module, "_span_with_image")
        v = zero_map_path(dims)
        report = hn_bruteforce(v, euler_stability(v.quiver))
        assert report.total_dims() == dims
        assert (len(calls), len(yielded), len(floor_updates)) == SCAN_WORK[dims]

    def test_peak_memory_of_single_vertex_scan(self):
        # the k-dimensional subspaces of GF(2)^6 share one key until the
        # scan reaches dimension k + 1; listing them all as tied
        # candidates peaked at about 1 MiB
        v = zero_map_path((0, 6))
        tracemalloc.start()
        try:
            hn_bruteforce(v, euler_stability(v.quiver))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.6 * 2**20


# draw, seed, sha256 of the steps and witness bases of the oracle runs
WITNESS_DIGESTS = {
    "draw_a": (
        campaign.draw_a, 31,
        "7f54b76aba89919fb05744530556ee3dd6b344bdba5ba338ca379e53c5765bab",
    ),
    "draw_b": (
        campaign.draw_b, 32,
        "d11abc2f57951b1ea87282e16d022cd4b9f01588d766eb8d1efdca36f54c7228",
    ),
}


@pytest.mark.parametrize("name", sorted(WITNESS_DIGESTS))
def test_oracle_witness_digest_pinned(name):
    """Steps and canonical witness bases of seeded oracle runs never move.

    Each nonzero campaign instance runs under its Euler weights and under
    random rational weights; any rewrite of the oracle must reproduce
    every stage basis, not only the dimension vectors.
    """
    draw, seed, expected = WITNESS_DIGESTS[name]
    rng = random.Random(seed)
    h = hashlib.sha256()
    runs = 0
    for _ in range(60):
        v = draw(rng).rep
        if v.total_dim() == 0:
            continue
        for alpha in (euler_stability(v.quiver), random_weights(v.quiver, rng)):
            report = hn_bruteforce(v, alpha)
            h.update(repr(report.steps).encode())
            for stage in report.witness:
                h.update(repr([(m.cols, [tuple(r) for r in m.data]) for m in stage]).encode())
            runs += 1
    assert runs > 100
    assert h.hexdigest() == expected


def test_oracle_obeys_duality_conjugation_and_direct_sums():
    # campaign draws under random weights, within the oracle's guards:
    # the dual under the negated weights reverses the steps and negates
    # their slopes; a conjugate keeps the steps, and each of its witness
    # stages spans the bases times the original stage; the sum of v and
    # its conjugate has the merged report of both
    rng = make_rng(44)
    stages = sums = 0
    for draw in (campaign.draw_a, campaign.draw_b) * 100:
        v = draw(rng).rep
        alpha = random_weights(v.quiver, rng)
        report = hn_bruteforce(v, alpha)
        negated = StabilityCondition(tuple(-w for w in alpha.weights))
        assert hn_bruteforce(dual(v), negated).steps == tuple(
            (-sl, dims) for sl, dims in reversed(report.steps)
        )
        bases = conjugating_bases(v, rng)
        w = conjugate(v, bases)
        moved = hn_bruteforce(w, alpha)
        assert moved.steps == report.steps
        for stage, image in zip(report.witness, moved.witness):
            for b, u, bu in zip(bases, stage, image):
                assert bu.cols == u.cols and subspace_contains(bu, b @ u)
            stages += 1
        total = direct_sum(v, w)
        if (total.total_dim() <= ORACLE_MAX_TOTAL_DIM[v.field.p]
                and max(total.dims) <= ENUM_MAX_DIM):
            assert hn_bruteforce(total, alpha) == HNReport.merged(
                v.quiver, report.steps + moved.steps
            )
            sums += 1
    # 398 witness stages and 95 sums within the caps at this seed
    assert stages >= 350 and sums >= 80


def rotated(aq: AffineQuiver, v: Representation, r: int) -> Representation:
    """The cycle v with vertex x relabelled (x - r) mod n, so edge e_j becomes e_{j-r}."""
    n = aq.n

    def turn(xs):
        return tuple(xs[(i + r) % n] for i in range(n))

    q = to_quiver(AffineQuiver(n, turn(aq.orientation)))
    return Representation(q, v.field, turn(v.dims), turn(v.mats))


def test_fast_routes_obey_direct_sums_conjugation_and_relabelling():
    # the relations of the oracle test above on the fast routes under the
    # Euler weights, which need no oracle and so reach past its guards: a
    # direct sum has the merged report of its summands, a conjugate the same
    # report, a path read backwards every step's dims reversed, and a cycle
    # rotated by r every step's dims rotated
    rng = make_rng(47)
    cases = past_guard = 0
    for fld in (GF(2), GF(3), GF(5), QQ):
        for shape in ("path",) * 20 + ("cycle",) * 18:
            if shape == "path":
                n = rng.randint(1, 9)
                q = random_path_quiver(n, rng)
                v, _ = gen_persistence(n, fld, 4, rng, quiver=q)
                w, _ = gen_persistence(n, fld, 4, rng, quiver=q)
            else:
                aq, v, _, _ = gen_affine(rng.randint(2, 6), fld, 3, rng, min_summands=1)
                n, q = aq.n, v.quiver
                w = sparse_rep(rng, fld, q, tuple(rng.randint(0, 2) for _ in range(n)))
            alpha = euler_stability(q)
            report = fast_report(v, alpha)
            total = direct_sum(v, w)
            assert fast_report(total, alpha) == HNReport.merged(
                q, report.steps + fast_report(w, alpha).steps)
            assert fast_report(conjugate(v, conjugating_bases(v, rng)), alpha) == report
            if shape == "path":
                moved = mirrored(v)
                expected = [(sl, dims[::-1]) for sl, dims in report.steps]
            else:
                r = rng.randrange(1, n)
                moved = rotated(aq, v, r)
                expected = [(sl, dims[r:] + dims[:r]) for sl, dims in report.steps]
            assert fast_report(moved, euler_stability(moved.quiver)).steps == tuple(expected)
            cases += 1
            cap = ORACLE_MAX_TOTAL_DIM.get(getattr(fld, "p", None), 0)
            past_guard += total.total_dim() > cap
    # 124 of the 152 sums lie past the oracle's total-dimension guard at this
    # seed, those over GF(5) and QQ, which it refuses, included
    assert cases == 152 and past_guard >= 100


class TestFromBarcode:
    def test_three_step_example(self):
        bar = Barcode.from_dict(
            {Interval(0, 0): 1, Interval(0, 2): 1, Interval(1, 2): 1}
        )
        rep = hn_from_barcode(bar, A3)
        assert rep.steps == (
            (Fraction(1), (1, 0, 0)),
            (Fraction(1, 3), (1, 1, 1)),
            (Fraction(0), (0, 1, 1)),
        )

    def test_single_family(self):
        A5 = equioriented_quiver(5)
        rep = hn_from_barcode(Barcode.from_dict({Interval(0, 4): 3}), A5)
        assert rep.steps == ((Fraction(1, 5), (3, 3, 3, 3, 3)),)

    def test_slope_zero_only(self):
        rep = hn_from_barcode(Barcode.from_dict({Interval(2, 3): 1}), equioriented_quiver(4))
        assert rep.steps == ((Fraction(0), (0, 0, 1, 1)),)

    def test_empty(self):
        assert hn_from_barcode(Barcode(()), A3).steps == ()

    def test_zigzag_slopes(self):
        # 0 -> 1 <- 2: [1,1] has both boundary edges pointing in, [0,0] and
        # [2,2] none, [0,1] and [1,2] one
        q = Quiver(3, ((0, 1), (2, 1)))
        bar = Barcode.from_dict({Interval(0, 0): 1, Interval(1, 1): 2, Interval(1, 2): 1})
        assert hn_from_barcode(bar, q).steps == (
            (Fraction(1), (1, 0, 0)),
            (Fraction(0), (0, 1, 1)),
            (Fraction(-1), (0, 2, 0)),
        )

    def test_every_bar_semistable_up_to_8_vertices(self):
        # Theorem A on every orientation, with no oracle: on each path of
        # at most 8 vertices each interval module has the closed-form slope
        # (1 - into)/|I| and no closed vertex subset, the subrepresentations
        # of a thin module, has a larger one
        bars = subsets = 0
        for n in range(1, 9):
            for word in product((True, False), repeat=n - 1):
                q = Quiver(n, tuple((k, k + 1) if right else (k + 1, k)
                                    for k, right in enumerate(word)))
                alpha = euler_stability(q)
                for lo, hi in ((lo, hi) for lo in range(n) for hi in range(lo, n)):
                    dims = tuple(int(lo <= x <= hi) for x in range(n))
                    bar = Barcode.from_dict({Interval(lo, hi): 1})
                    ((slope, got),) = hn_from_barcode(bar, q).steps
                    assert got == dims and slope == slope_of_dims(dims, alpha)
                    inner = [(s, t) for s, t in q.edges if lo <= min(s, t) and max(s, t) <= hi]
                    for mask in range(1, 2 ** (hi - lo + 1) - 1):
                        sub = {lo + i for i in range(hi - lo + 1) if mask >> i & 1}
                        if any(s in sub and t not in sub for s, t in inner):
                            continue
                        assert sum(alpha.weights[x] for x in sub) / len(sub) <= slope
                        subsets += 1
                    bars += 1
        assert (bars, subsets) == (7423, 33962)

    def test_non_path_refused(self):
        with pytest.raises(ShapeError):
            hn_from_barcode(Barcode(()), Quiver(3, ((0, 1), (1, 2), (2, 0))))

    def test_bar_past_last_vertex_refused(self):
        with pytest.raises(ValidationError):
            hn_from_barcode(Barcode.from_dict({Interval(1, 3): 1}), A3)

    def test_matches_oracle_small(self):
        rng = make_rng(24)
        for _ in range(25):
            p = rng.choice((2, 3))
            cap = ORACLE_MAX_TOTAL_DIM[p]
            n = rng.randint(1, 4)
            v, _ = gen_persistence(
                n, GF(p), 4, rng, quiver=random_path_quiver(n, rng), min_summands=1,
                total_cap=cap, vertex_cap=4,
            )
            fast = hn_from_barcode(barcode(v), v.quiver)
            oracle = hn_bruteforce(v, euler_stability(v.quiver))
            assert fast.steps == oracle.steps


class TestRFiltration:
    def setup_method(self):
        self.rep = hn_bruteforce(three_step_module(), EPS3)

    def test_above_max(self):
        assert hn_r_filtration_eval(self.rep, 2) == (0, 0, 0)

    def test_below_min(self):
        assert hn_r_filtration_eval(self.rep, -5) == (2, 2, 2)

    def test_half(self):
        assert hn_r_filtration_eval(self.rep, Fraction(1, 2)) == (1, 0, 0)

    @pytest.mark.parametrize("bad", [0.1, True, "abc"])
    def test_inexact_parameter_rejected(self, bad):
        with pytest.raises(ValidationError):
            hn_r_filtration_eval(self.rep, bad)

    def test_monotone_step_function(self):
        grid = sorted(
            {Fraction(n, 6) for n in range(-6, 13)} | {sl for sl, _ in self.rep.steps},
            reverse=True,
        )
        prev = None
        for t in grid:
            cur = hn_r_filtration_eval(self.rep, t)
            if prev is not None:
                assert all(a >= b for a, b in zip(cur, prev))
            # right-continuity: value at a slope equals value just below it... the
            # step function only jumps at slopes, and at a slope the step is included
            assert hn_r_filtration_eval(self.rep, t) == cur
            prev = cur
        for sl, _ in self.rep.steps:
            at = hn_r_filtration_eval(self.rep, sl)
            above = hn_r_filtration_eval(self.rep, sl + Fraction(1, 1000))
            assert all(a >= b for a, b in zip(at, above))


class TestMerge:
    def test_equal_slopes_double(self):
        a = HNReport(A2, ((Fraction(0), (1, 1)),))
        assert hn_direct_sum_merge(a, a).steps == ((Fraction(0), (2, 2)),)

    def test_disjoint_slopes(self):
        a = HNReport(A2, ((Fraction(1), (1, 0)),))
        b = HNReport(A2, ((Fraction(1, 2), (1, 1)),))
        assert hn_direct_sum_merge(a, b).steps == (
            (Fraction(1), (1, 0)),
            (Fraction(1, 2), (1, 1)),
        )

    def test_merged_sums_equal_slopes_in_decreasing_order(self):
        parts = [
            (Fraction(0), (0, 1)),
            (Fraction(1), (1, 0)),
            (Fraction(0), (1, 1)),
            (Fraction(-1, 2), (0, 2)),
        ]
        assert HNReport.merged(A2, parts).steps == (
            (Fraction(1), (1, 0)),
            (Fraction(0), (1, 2)),
            (Fraction(-1, 2), (0, 2)),
        )
        assert HNReport.merged(A2, []).steps == ()

    def test_merged_rejects_wrong_length(self):
        with pytest.raises(ValidationError):
            HNReport.merged(A2, [(Fraction(0), (1, 1, 1))])

    def test_quiver_mismatch(self):
        a = HNReport(A2, ((Fraction(0), (1, 1)),))
        b = HNReport(A3, ((Fraction(0), (1, 1, 1)),))
        with pytest.raises(ValidationError):
            hn_direct_sum_merge(a, b)

    def test_merge_matches_oracle(self):
        rng = make_rng(25)
        for _ in range(15):
            u, _ = gen_persistence(3, GF(2), 2, rng, min_summands=1, total_cap=4)
            w, _ = gen_persistence(3, GF(2), 2, rng, min_summands=1, total_cap=4)
            merged = hn_direct_sum_merge(
                hn_bruteforce(u, EPS3), hn_bruteforce(w, EPS3)
            )
            assert merged.steps == hn_bruteforce(direct_sum(u, w), EPS3).steps

    def test_merge_matches_r_filtration_sum(self):
        rng = make_rng(26)
        u, _ = gen_persistence(3, GF(3), 2, rng, min_summands=1, total_cap=5)
        w, _ = gen_persistence(3, GF(3), 2, rng, min_summands=1, total_cap=5)
        ru, rw = hn_bruteforce(u, EPS3), hn_bruteforce(w, EPS3)
        merged = hn_direct_sum_merge(ru, rw)
        for t in [Fraction(n, 4) for n in range(-4, 6)]:
            su = hn_r_filtration_eval(ru, t)
            sw = hn_r_filtration_eval(rw, t)
            assert hn_r_filtration_eval(merged, t) == tuple(
                a + b for a, b in zip(su, sw)
            )


def cut_reports(bars: Counter, steps, cuts) -> tuple[HNReport, ...]:
    """The Euler reports of ``bars``, (lo, hi) keys, clipped to each cut [lo, hi]
    of the path whose edge k points right iff ``steps[k]``."""
    reports = []
    for lo, hi in cuts:
        clipped = Counter()
        for (a, b), mult in bars.items():
            if max(a, lo) <= min(b, hi):
                clipped[Interval(max(a, lo) - lo, min(b, hi) - lo)] += mult
        q = Quiver(hi - lo + 1, tuple((k, k + 1) if fwd else (k + 1, k)
                                      for k, fwd in enumerate(steps[lo:hi])))
        reports.append(hn_from_barcode(Barcode.from_dict(dict(clipped)), q))
    return tuple(reports)


def test_truncation_reports_determine_the_barcode():
    # every orientation of a path of n <= 4 vertices and every multiset of at
    # most 3 bars: the Euler reports of the n right cuts [k, n-1] and the n
    # left cuts [0, k] tell the multisets apart on every orientation, and the
    # right cuts alone on only some of them
    separated = []
    for n in range(1, 5):
        bars = [(a, b) for a in range(n) for b in range(a, n)]
        multisets = [Counter(c) for size in range(4)
                     for c in combinations_with_replacement(bars, size)]
        right_only = 0
        for steps in product((True, False), repeat=n - 1):
            right = [cut_reports(m, steps, [(k, n - 1) for k in range(n)]) for m in multisets]
            left = [cut_reports(m, steps, [(0, k) for k in range(n)]) for m in multisets]
            assert len(set(zip(right, left))) == len(multisets)
            right_only += len(set(right)) == len(multisets)
        separated.append((right_only, 2 ** (n - 1)))
    assert separated == [(1, 1), (2, 2), (3, 4), (4, 8)]


class TestRecovery:
    def test_single_interval(self):
        rec = recover_barcode_via_truncations(interval_module(A3, Interval(1, 2), GF(2)))
        assert rec == Barcode.from_dict({Interval(1, 2): 1})

    def test_zero_module(self):
        assert recover_barcode_via_truncations(zero_representation(A3, GF(2))) == Barcode(())

    def test_requires_equioriented(self):
        from hnzz.errors import ShapeError
        from hnzz.quiver import Quiver, Representation
        from hnzz.linalg import Matrix

        zig = Quiver(2, ((1, 0),))
        v = Representation(zig, GF(2), (1, 1), (Matrix.identity(GF(2), 1),))
        with pytest.raises(ShapeError):
            recover_barcode_via_truncations(v)

    def test_matches_barcode(self, count_calls):
        # one sweep of v per recovery, whatever the number of cuts
        sweeps = count_calls(zigzag, "_bars")
        rng = make_rng(27)
        for _ in range(30):
            v, _ = gen_persistence(rng.randint(1, 5), GF(rng.choice((2, 3))), 4, rng)
            sweeps.clear()
            recovered = recover_barcode_via_truncations(v)
            assert len(sweeps) == 1
            assert recovered == barcode(v)
