import hashlib
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from hnzz import linalg, zigzag
from hnzz.errors import ShapeError, ValidationError
from hnzz.affine import (CCW, CW, AffineQuiver, classify_lift, default_window, lift_truncated,
                         to_quiver)
from hnzz.generators import gen_affine
from hnzz.linalg import (
    GF,
    QQ,
    Matrix,
    inverse,
    random_invertible_rng,
    rank,
    subspace_contains,
)
from hnzz.quiver import Quiver, Representation, conjugate, direct_sum, zero_representation
from hnzz.serialize import instance_from_json, instance_to_json
from hnzz.zigzag import (
    Barcode,
    Interval,
    barcode,
    interval_module,
    is_path,
    path_steps,
)

from conftest import (
    FRACTION_ARITHMETIC,
    conjugating_bases,
    dual,
    hstack,
    make_rng,
    mirrored,
    random_path_quiver,
    random_zigzag_rep,
    reference_column_echelon,
    reference_kernel,
    restricted,
    sparse_rep,
)

A2 = Quiver(2, ((0, 1),))
A3 = Quiver(3, ((0, 1), (1, 2)))
A4 = Quiver(4, ((0, 1), (1, 2), (2, 3)))


def interval_blocks(v: Representation, iv: Interval) -> tuple[Matrix, Matrix, dict[int, int]]:
    """The limit basis and the gluing matrix of v restricted to iv.

    Both live in the direct sum of the vertex spaces of iv, vertex x in
    the rows from ``offset[x]`` (the third value): the limit is the
    kernel of the compatibility matrix, and the colimit the cokernel of
    the gluing matrix.
    """
    steps = path_steps(v.quiver)
    n = v.quiver.vertex_count
    if not (0 <= iv.lo and iv.hi <= n - 1):
        raise ValidationError(f"interval [{iv.lo},{iv.hi}] out of range for {n} vertices")
    fld = v.field
    dims = v.dims
    span = list(range(iv.lo, iv.hi + 1))
    offset = {}
    total = 0
    for x in span:
        offset[x] = total
        total += dims[x]

    edges = []  # (matrix, src vertex, dst vertex) inside the interval
    for k in range(iv.lo + 1, iv.hi + 1):
        eidx, forward = steps[k - 1]
        m = v.mats[eidx]
        src, dst = (k - 1, k) if forward else (k, k - 1)
        edges.append((m, src, dst))

    zero = fld.zero
    # limit: kernel of the compatibility matrix (one row block per edge)
    comp_rows: list[list] = []
    for m, src, dst in edges:
        for i in range(dims[dst]):
            row = [zero] * total
            for j in range(dims[src]):
                row[offset[src] + j] = m.data[i][j]
            row[offset[dst] + i] = fld.coerce(-1)
            comp_rows.append(row)
    if comp_rows:
        limit = reference_kernel(Matrix(fld, comp_rows, total))
    else:
        limit = Matrix.identity(fld, total)

    # colimit: cokernel of the gluing matrix (one column block per edge)
    glue_cols: list[list] = []
    for m, src, dst in edges:
        for j in range(dims[src]):
            col = [zero] * total
            for i in range(dims[dst]):
                col[offset[dst] + i] = m.data[i][j]
            col[offset[src] + j] = fld.coerce(-1)
            glue_cols.append(col)
    if glue_cols:
        glue = Matrix(fld, list(zip(*glue_cols)), len(glue_cols))
    else:
        glue = Matrix(fld, [[] for _ in range(total)], 0)
    return limit, glue, offset


def generalized_rank(v: Representation, iv: Interval) -> int:
    """Rank of the canonical limit-to-colimit map of v restricted to iv.

    Built directly from block matrices (``interval_blocks``), and the rank
    of the induced map is read off in cokernel coordinates.  The
    reference for the sweep in ``barcode``: one r[x,y] at a time, no
    flags.
    """
    limit, glue, _ = interval_blocks(v, iv)
    fld, total = v.field, limit.rows
    zero = fld.zero
    # canonical map, evaluated through the leftmost vertex of the interval:
    # project the limit basis to that vertex (its block starts at offset 0)
    # and inject the result into cokernel coordinates.
    lo_dim = v.dims[iv.lo]
    canon_rows = [list(limit.data[i]) for i in range(lo_dim)]
    canon_rows += [[zero] * limit.cols for _ in range(total - lo_dim)]
    canon_m = Matrix(fld, canon_rows, limit.cols)
    if glue.cols == 0:
        return rank(canon_m)
    return rank(hstack([glue, canon_m])) - rank(glue)


def rank_members(v: Representation, a: int, k: int) -> tuple[Matrix, Matrix]:
    """A[a] and R[a] at k (``zigzag``'s docstring), from the blocks over [a, k].

    A[a] is the image at k of the limit: the span of the limit basis's
    rows of vertex k.  R[a] holds the x in V_k whose injection at k lies
    in the span of the gluing matrix: the x-parts of the kernel of
    [glue | inj_k].  Both come back as canonical bases.
    """
    limit, glue, offset = interval_blocks(v, Interval(a, k))
    fld, d, total = v.field, v.dims[k], limit.rows
    block = range(offset[k], offset[k] + d)
    image = reference_column_echelon(Matrix(fld, [limit.data[i] for i in block], limit.cols))
    inject = [[fld.one if i == offset[k] + j else fld.zero for j in range(d)]
              for i in range(total)]
    stacked = Matrix(fld, [[*g, *x] for g, x in zip(glue.data, inject)], glue.cols + d)
    kernel = reference_kernel(stacked)
    x_parts = Matrix(fld, kernel.data[glue.cols:], kernel.cols)
    return image, reference_column_echelon(x_parts)


def bars(v) -> dict:
    return {(iv.lo, iv.hi): m for iv, m in barcode(v)}


def random_interval_sum(q, fld, count, rng):
    """Direct sum of random interval modules with its exact multiset."""
    n = q.vertex_count
    rep = zero_representation(q, fld)
    truth: dict[tuple[int, int], int] = {}
    for _ in range(count):
        lo = rng.randrange(n)
        hi = rng.randint(lo, n - 1)
        rep = direct_sum(rep, interval_module(q, Interval(lo, hi), fld))
        truth[(lo, hi)] = truth.get((lo, hi), 0) + 1
    return rep, truth


class TestIntervalType:
    def test_empty_interval_unrepresentable(self):
        with pytest.raises(ValidationError):
            Interval(3, 2)

    def test_barcode_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            Barcode(((Interval(0, 1), 0),))

    def test_barcode_rejects_unsorted(self):
        with pytest.raises(ValidationError, match="^barcode entries must be strictly sorted$"):
            Barcode(((Interval(1, 2), 1), (Interval(0, 1), 1)))


class TestIntervalModule:
    def test_full(self):
        v = interval_module(A3, Interval(0, 2), GF(2))
        assert v.dims == (1, 1, 1)
        assert all(m == Matrix.identity(GF(2), 1) for m in v.mats)

    def test_point(self):
        v = interval_module(A4, Interval(2, 2), QQ)
        assert v.dims == (0, 0, 1, 0)

    def test_boundary_maps(self):
        v = interval_module(A3, Interval(0, 1), GF(3))
        assert v.dims == (1, 1, 0)
        assert v.mats[0] == Matrix.identity(GF(3), 1)
        assert v.mats[1] == Matrix.zeros(GF(3), 0, 1)

    def test_non_path_rejected(self):
        tri = Quiver(3, ((0, 1), (1, 2), (2, 0)))
        with pytest.raises(ShapeError):
            interval_module(tri, Interval(0, 1), QQ)

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            interval_module(A3, Interval(0, 3), QQ)

    def test_path_steps_mixed(self):
        q = Quiver(3, ((1, 0), (1, 2)))
        assert path_steps(q) == [(0, False), (1, True)]

    def test_is_path(self):
        assert is_path(A3) and is_path(Quiver(1, ())) and is_path(Quiver(0, ()))
        assert is_path(Quiver(3, ((1, 0), (1, 2))))  # a zigzag
        assert not is_path(Quiver(3, ((0, 1), (1, 2), (2, 0))))  # a cycle
        assert not is_path(Quiver(3, ((0, 2), (2, 1))))  # vertices out of order


class TestGeneralizedRank:
    def test_on_containing_interval(self):
        v = interval_module(A4, Interval(1, 3), GF(2))
        assert generalized_rank(v, Interval(1, 3)) == 1
        assert generalized_rank(v, Interval(2, 3)) == 1

    def test_outside(self):
        v = interval_module(A4, Interval(1, 2), GF(2))
        assert generalized_rank(v, Interval(0, 2)) == 0
        assert generalized_rank(v, Interval(3, 3)) == 0

    def test_additive(self):
        s = direct_sum(
            interval_module(A3, Interval(0, 2), GF(5)),
            interval_module(A3, Interval(1, 1), GF(5)),
        )
        assert generalized_rank(s, Interval(1, 1)) == 2

    def test_out_of_range(self):
        v = interval_module(A3, Interval(0, 2), QQ)
        with pytest.raises(ValidationError):
            generalized_rank(v, Interval(1, 3))


class TestBarcode:
    def test_two_points(self):
        v = Representation(A2, GF(2), (1, 1), (Matrix.zeros(GF(2), 1, 1),))
        assert bars(v) == {(0, 0): 1, (1, 1): 1}

    def test_one_bar(self):
        v = Representation(A2, GF(2), (1, 1), (Matrix.identity(GF(2), 1),))
        assert bars(v) == {(0, 1): 1}

    def test_conjugated_construction(self):
        rng = make_rng(11)
        v = direct_sum(
            direct_sum(
                interval_module(A3, Interval(0, 2), GF(5)),
                interval_module(A3, Interval(0, 0), GF(5)),
            ),
            interval_module(A3, Interval(1, 2), GF(5)),
        )
        w = conjugate(v, conjugating_bases(v, rng))
        assert bars(w) == {(0, 2): 1, (0, 0): 1, (1, 2): 1}

    def test_zero_rep(self):
        assert barcode(zero_representation(A3, QQ)) == Barcode(())

    def test_empty_path(self):
        assert barcode(zero_representation(Quiver(0, ()), QQ)) == Barcode(())

    @pytest.mark.parametrize("dim", [0, 3])
    def test_one_vertex(self, dim):
        v = Representation(Quiver(1, ()), GF(3), (dim,), ())
        assert bars(v) == ({(0, 0): dim} if dim else {})

    def test_non_path(self):
        tri = Quiver(3, ((0, 1), (1, 2), (2, 0)))
        with pytest.raises(ShapeError):
            barcode(zero_representation(tri, QQ))

    def test_dimension_conservation(self):
        rng = make_rng(12)
        for _ in range(60):
            v = random_zigzag_rep(rng)
            bar = barcode(v)
            assert bar.dims_vector(v.quiver.vertex_count) == v.dims

    def test_reconstruction_oracle(self):
        # the primary correctness oracle: an explicit interval sum, then a
        # random change of basis, must come back exactly
        rng = make_rng(13)
        for _ in range(80):
            n = rng.randint(1, 5)
            q = random_path_quiver(n, rng)
            fld = GF(rng.choice([2, 3, 5]))
            rep, truth = random_interval_sum(q, fld, rng.randint(0, 4), rng)
            rep = conjugate(rep, conjugating_bases(rep, rng))
            assert bars(rep) == truth

    def test_basis_change_invariance_200(self):
        rng = make_rng(14)
        for _ in range(200):
            v = random_zigzag_rep(rng, max_n=4, max_dim=2)
            w = conjugate(v, conjugating_bases(v, rng))
            assert barcode(w) == barcode(v)

    def test_agrees_with_generalized_rank_grid(self):
        # dual route: the sweep must reproduce the block-matrix ranks
        rng = make_rng(15)
        for _ in range(40):
            v = random_zigzag_rep(rng, max_n=4, max_dim=2)
            n = v.quiver.vertex_count
            r = {}
            for a in range(n):
                for b in range(a, n):
                    r[(a, b)] = generalized_rank(v, Interval(a, b))
            expect = {}
            for a in range(n):
                for b in range(a, n):
                    d = (
                        r[(a, b)]
                        - r.get((a - 1, b), 0)
                        - r.get((a, b + 1), 0)
                        + r.get((a - 1, b + 1), 0)
                    )
                    if d:
                        expect[(a, b)] = d
            assert bars(v) == expect

    def test_classical_persistence_formula(self):
        # equioriented case: composite-map ranks give the textbook formula
        rng = make_rng(16)
        q = A4
        for _ in range(40):
            fld = GF(rng.choice([2, 3]))
            dims = tuple(rng.randint(0, 3) for _ in range(4))
            mats = tuple(
                Matrix(
                    fld,
                    [[rng.randrange(fld.p) for _ in range(dims[k])] for _ in range(dims[k + 1])],
                    dims[k],
                )
                for k in range(3)
            )
            v = Representation(q, fld, dims, mats)

            def composite_rank(b, d):
                if b > d:
                    return 0
                m = Matrix.identity(fld, dims[b])
                for k in range(b, d):
                    m = mats[k] @ m
                return rank(m)

            expect = {}
            for a in range(4):
                for b in range(a, 4):
                    d = (
                        composite_rank(a, b)
                        - (composite_rank(a - 1, b) if a > 0 else 0)
                        - (composite_rank(a, b + 1) if b < 3 else 0)
                        + (composite_rank(a - 1, b + 1) if a > 0 and b < 3 else 0)
                    )
                    if d:
                        expect[(a, b)] = d
            assert bars(v) == expect


def sparse_zigzag_rep(rng, max_n=9, max_dim=4):
    """Random-orientation path with dims 0..max_dim and rank-deficient maps.

    About one edge in five carries the zero map; the other entries are zero
    half the time, so ranks drop below full and long bars cross many edges.
    """
    n = rng.randint(1, max_n)
    p = rng.choice((0, 2, 3, 5))
    fld = GF(p) if p else QQ
    q = random_path_quiver(n, rng)
    dims = tuple(rng.randint(0, max_dim) for _ in range(n))
    return sparse_rep(rng, fld, q, dims)


def inclusion_exclusion_bars(v) -> dict:
    """The barcode from one generalized rank per interval, no sweep."""
    n = v.quiver.vertex_count
    r = {(a, b): generalized_rank(v, Interval(a, b)) for a in range(n) for b in range(a, n)}
    out = {}
    for a, b in r:
        d = r[(a, b)] - r.get((a - 1, b), 0) - r.get((a, b + 1), 0) + r.get((a - 1, b + 1), 0)
        if d:
            out[(a, b)] = d
    return out


def test_agrees_with_generalized_rank_long_paths():
    # long chains: n up to 9, dims up to 4 (0 included), QQ and GF(2/3/5)
    rng = make_rng(17)
    seen = set()
    for _ in range(150):
        v = sparse_zigzag_rep(rng)
        seen.add((v.field, v.quiver.vertex_count >= 7, 0 in v.dims))
        assert bars(v) == inclusion_exclusion_bars(v)
    assert {(fld, True, True) for fld in (QQ, GF(2), GF(3), GF(5))} <= seen


def test_rank_is_a_difference_of_member_dims():
    # R[a] lies in A[a] at every position, so r[a,k] = dim A[a] - dim R[a]:
    # the identity the sweep reads its ranks by, checked on the members'
    # definitions and not on the sweep
    rng = make_rng(71)
    reps = [sparse_zigzag_rep(rng, max_n=8) for _ in range(40)]
    for fld in (GF(2), GF(3), QQ):
        _, v, _, _ = gen_affine(2, fld, 3, rng, min_summands=1, total_cap=4, vertex_cap=2)
        reps.append(lift_truncated(v, default_window(v)))
    seen = set()
    for v in reps:
        n = v.quiver.vertex_count
        for k in range(n):
            for a in range(k + 1):
                image, kernel = rank_members(v, a, k)
                assert subspace_contains(image, kernel)
                assert generalized_rank(v, Interval(a, k)) == image.cols - kernel.cols
                seen.add((v.field, 0 < kernel.cols < image.cols))
    assert {(fld, True) for fld in (QQ, GF(2), GF(3), GF(5))} <= seen


def test_sweep_digest():
    # the barcodes of 3,000 seeded sparse zigzags, dropped ranks and zero
    # vertices included, hashed: a change that moves any one bar moves it
    rng = make_rng(34)
    digest = hashlib.sha256()
    seen = set()
    for _ in range(3000):
        v = sparse_zigzag_rep(rng, max_n=12, max_dim=5)
        seen.add(v.field)
        digest.update(repr(sorted(bars(v).items())).encode() + b"\n")
    assert seen == {QQ, GF(2), GF(3), GF(5)}
    assert digest.hexdigest() == (
        "23919eb3c94753c14b2fe4a626f19c2c79a0e6532b1b4c0996cbf7ab106f39e9"
    )


def test_barcode_metamorphic_relations():
    # relations between the barcodes of different inputs, so no reference
    # is needed: the dual (every matrix transposed, every edge reversed)
    # crosses by _flag_preimage where v crossed by _flag_image, and keeps the
    # bars; relabelling position i as n - 1 - i mirrors each bar; a direct
    # sum adds the bars; the restriction to a right cut [k, n-1] or a left
    # cut [0, k] clips them (restriction is exact and additive on interval
    # modules).  Sparse paths over four fields and lift windows; on a cycle,
    # d_inf and the lift classes add under a direct sum, and the dual, on
    # the opposite orientation, keeps them
    rng = make_rng(22)
    pairs = []
    for _ in range(600):
        v = sparse_zigzag_rep(rng, max_n=10)
        dims = tuple(rng.randint(0, 4) for _ in v.dims)
        pairs.append((v, sparse_rep(rng, v.field, v.quiver, dims)))
    cycles = []
    for fld in (QQ, GF(2), GF(3), GF(5)):
        for _ in range(15):
            _, v, _, _ = gen_affine(rng.randint(2, 4), fld, 3, rng, min_summands=1,
                                    total_cap=5, vertex_cap=2)
            dims = tuple(rng.randint(0, 2) for _ in v.dims)
            w = sparse_rep(rng, fld, v.quiver, dims)
            cycles.append((v, w))
            D = default_window(direct_sum(v, w))
            pairs.append((lift_truncated(v, D), lift_truncated(w, D)))
    for v, w in pairs:
        n = v.quiver.vertex_count
        got = bars(v)
        assert bars(dual(v)) == got
        assert bars(mirrored(v)) == {(n - 1 - b, n - 1 - a): m for (a, b), m in got.items()}
        assert bars(direct_sum(v, w)) == dict(Counter(got) + Counter(bars(w)))
        for lo, hi in {*((k, n - 1) for k in range(n)), *((0, k) for k in range(n))}:
            clipped = Counter()
            for (a, b), m in got.items():
                if max(a, lo) <= min(b, hi):
                    clipped[(max(a, lo) - lo, min(b, hi) - lo)] += m
            assert bars(restricted(v, lo, hi)) == dict(clipped)
    seen = set()
    for v, w in cycles:
        (d_v, classes_v, _), (d_w, classes_w, _) = classify_lift(v), classify_lift(w)
        d_sum, classes_sum, _ = classify_lift(direct_sum(v, w))
        assert d_sum == d_v + d_w
        assert classes_sum == dict(Counter(classes_v) + Counter(classes_w))
        assert classify_lift(dual(v))[:2] == (d_v, classes_v)
        assert classify_lift(dual(w))[:2] == (d_w, classes_w)
        seen.add((v.field, "d_inf", d_sum > 0))
        seen.add((v.field, "classes on both", bool(classes_v and classes_w)))
    assert {(fld, kind, True) for fld in (QQ, GF(2), GF(3), GF(5))
            for kind in ("d_inf", "classes on both")} <= seen


def test_whole_space_flag_keeps_small_entries(monkeypatch):
    # random invertible QQ maps: every chain member is 0 or the whole space,
    # and the sweep must not carry the product of all maps as its basis
    rng = make_rng(18)
    n = 150
    q = random_path_quiver(n, rng)
    v = Representation(q, QQ, (3,) * n, tuple(random_invertible_rng(3, QQ, rng) for _ in q.edges))
    bits = []
    for name in ("_flag_image", "_flag_preimage"):
        op = getattr(zigzag, name)

        def recording(m, basis, dims, op=op):
            bits.extend(max(abs(x.numerator), x.denominator).bit_length()
                        for row in basis.data for x in row)
            return op(m, basis, dims)

        monkeypatch.setattr(zigzag, name, recording)
    assert bars(v) == {(0, n - 1): 3}
    # the trivial flag steps each crossing alone: one 3 x 3 basis recorded per crossing
    assert len(bits) == 9 * (n - 1)
    assert max(bits) <= 8


def shared_matrix_rep(rng, fld, dims):
    """Random-orientation path on ``dims`` whose edges share Matrix objects.

    Each shape gets a pool of two sparse random matrices, and every edge
    takes one of its shape's pool, so an object sits on several edges, in
    either direction when it is square.
    """
    q = random_path_quiver(len(dims), rng)
    pool: dict[tuple[int, int], list[Matrix]] = {}
    mats = []
    for src, dst in q.edges:
        shape = (dims[dst], dims[src])
        if shape not in pool:
            pool[shape] = [sparse_matrix(rng, fld, *shape) for _ in range(2)]
        mats.append(rng.choice(pool[shape]))
    return Representation(q, fld, tuple(dims), tuple(mats))


def unshared(v: Representation) -> Representation:
    """v with a Matrix object of its own on every edge."""
    mats = tuple(Matrix(m.field, m.data, m.cols) for m in v.mats)
    return Representation(v.quiver, v.field, v.dims, mats)


class TestSharedMatrices:
    """``barcode`` shares its work by place in the period of the crossings.

    Every path here reuses Matrix objects.  The path, its copy with
    unshared matrices and, for a lift window, the window read back from
    its instance JSON run the same eliminations and give the same bars,
    those of one generalized rank per interval, so a reused step that
    moved the wrong members shows.  Every row update of a sweep must be
    an elimination's: the ranks are read off the marks' dims and take none.
    """

    @pytest.fixture
    def check(self, count_calls, monkeypatch):
        calls = count_calls(linalg, "_gauss_jordan")
        inside = []  # one entry per elimination running
        gauss_jordan = linalg._gauss_jordan

        def eliminating(*args, **kwargs):
            inside.append(None)
            try:
                return gauss_jordan(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(linalg, "_gauss_jordan", eliminating)
        for field in (linalg.RationalField, linalg.PrimeField):
            def row_update(*args, update=field.row_update):
                assert inside, "a row update outside _gauss_jordan"
                return update(*args)

            monkeypatch.setattr(field, "row_update", row_update)

        def check(v, lift=False):
            """Check v against its copies; return whether it shares a Matrix object."""
            versions = [v, unshared(v)]
            if lift:
                versions.append(instance_from_json(instance_to_json(v)))
            got, work = [], []
            for w in versions:
                start = len(calls)
                got.append(bars(w))
                work.append(len(calls) - start)
            assert got == [inclusion_exclusion_bars(v)] * len(versions)
            assert work == [work[0]] * len(versions)
            assert calls
            return len({id(m) for m in v.mats}) < len(v.mats)

        return check

    @pytest.mark.parametrize("fld", [GF(2), GF(3), QQ], ids=repr)
    def test_lift_windows(self, fld, check):
        rng = make_rng(61)
        shared = 0
        for _ in range(8):
            _, v, _, _ = gen_affine(
                rng.randint(2, 3), fld, 3, rng, min_summands=1, total_cap=5, vertex_cap=2
            )
            window = default_window(v)
            for D in (window, window + v.quiver.vertex_count):
                shared += check(lift_truncated(v, D), lift=True)
        assert shared == 16

    @pytest.mark.parametrize("fld", [GF(2), GF(3), QQ], ids=repr)
    def test_square_matrix_both_directions(self, fld, check):
        rng = make_rng(62)
        shared = 0
        for _ in range(10):
            d = rng.randint(1, 3)
            m = Matrix(fld, [[rng.choice((0, 1, 2)) for _ in range(d)] for _ in range(d)], d)
            q = Quiver(1, ())
            while {fwd for _, fwd in path_steps(q)} != {True, False}:
                q = random_path_quiver(rng.randint(4, 8), rng)
            shared += check(Representation(q, fld, (d,) * q.vertex_count, (m,) * len(q.edges)))
        assert shared == 10

    @pytest.mark.parametrize("fld", [GF(2), GF(3), QQ], ids=repr)
    def test_dimension_zero_vertices(self, fld, check):
        rng = make_rng(63)
        shared = 0
        for _ in range(25):
            dims = [rng.choice((0, 0, 1, 2)) for _ in range(rng.randint(4, 9))]
            shared += check(shared_matrix_rep(rng, fld, dims))
        assert shared == 15


def test_distinct_matrices_run_every_step(count_calls):
    # the path has no period, so no flag step is shared and a place is
    # decided only when a non-trivial flag reaches a run of square crossings.
    # Of its three runs (3, 2 and 3 long) the trivial flag reaches one and
    # steps it one crossing at a time.  The two non-trivial flags compose
    # the others from the identity and find a singular map, each with one
    # elimination.  A failed run is then split by ranks: each of its three
    # crossings is ranked, the one with full rank moves the flag by one
    # product and the other two step.  Every other step runs its
    # elimination, and the rank rows are read off the marks' dims; the row
    # updates are those of the eliminations (QQ products make none)
    rng = make_rng(68)
    q = random_path_quiver(40, rng)
    dims = tuple(rng.randint(0, 4) for _ in range(40))
    mats = tuple(
        Matrix(QQ, [[rng.choice((0, 0, 1, -1, 2)) for _ in range(dims[src])]
                    for _ in range(dims[dst])], dims[src])
        for src, dst in q.edges
    )
    v = Representation(q, QQ, dims, mats)
    eliminations = count_calls(linalg, "_gauss_jordan")
    row_updates = count_calls(linalg.RationalField, "row_update")
    ranks = count_calls(zigzag, "rank")
    barcode(v)
    assert (len(eliminations), len(row_updates), len(ranks)) == (31, 63, 6)


def test_rational_sweep_makes_no_fraction_arithmetic(count_calls):
    # over QQ each edge matrix is cleared once and the flags carry integer
    # bases, so a sweep with proper fractions in its maps adds, multiplies
    # or builds no Fraction
    rng = make_rng(69)
    q = random_path_quiver(12, rng)
    dims = tuple(rng.randint(1, 3) for _ in range(12))
    entries = (0, 0, 1, -1, Fraction(1, 3), Fraction(-5, 2**40))
    mats = tuple(
        Matrix(QQ, [[rng.choice(entries) for _ in range(dims[src])]
                    for _ in range(dims[dst])], dims[src])
        for src, dst in q.edges
    )
    v = Representation(q, QQ, dims, mats)
    eliminations = count_calls(linalg, "_gauss_jordan")
    products = count_calls(linalg.RationalField, "product")
    arithmetic = [count_calls(Fraction, name) for name in FRACTION_ARITHMETIC]
    built = count_calls(Fraction, "__new__")
    barcode(v)
    assert eliminations and products
    assert sum(map(len, arithmetic)) == 0
    assert len(built) == 0


def sparse_matrix(rng, fld, rows: int, cols: int) -> Matrix:
    return Matrix(fld, [[rng.choice((0, 0, 1, 2)) for _ in range(cols)] for _ in range(rows)], cols)


def rep_of_steps(fld, steps) -> Representation:
    """The path whose k-th edge is the k-th (points right, matrix) step."""
    edges = [(k, k + 1) if forward else (k + 1, k) for k, (forward, _) in enumerate(steps)]
    forward, first = steps[0]
    dims = [first.cols if forward else first.rows]
    dims += [m.rows if forward else m.cols for forward, m in steps]
    return Representation(Quiver(len(dims), tuple(edges)), fld, tuple(dims), tuple(m for _, m in steps))


def periodic_pair(rng, fld) -> tuple[Representation, Representation]:
    """A random block of 1-4 steps repeated 2-5 times, and a copy with its last matrix fresh.

    The block's vertices take dims 0-3.  A repeat reuses the block's Matrix
    objects or copies them, so a period is found by value.  The copy's
    last matrix equals no other step's, so the copy has no period shorter
    than its length; where its shape admits no fresh value, its end vertex
    takes dim 4, which no other vertex has.
    """
    size = rng.randint(1, 4)
    dims = [rng.choice((0, 0, 1, 2, 3)) for _ in range(size)]
    block = []
    for i in range(size):
        left, right = dims[i], dims[(i + 1) % size]
        forward = rng.random() < 0.5
        block.append((forward, sparse_matrix(rng, fld, *((right, left) if forward else (left, right)))))
    steps = [
        (forward, m if rng.random() < 0.5 else Matrix(fld, m.data, m.cols))
        for _ in range(rng.randint(2, 5))
        for forward, m in block
    ]
    forward, last = steps[-1]
    taken = {m for fwd, m in steps if fwd == forward}
    for _ in range(20):
        fresh = sparse_matrix(rng, fld, last.rows, last.cols)
        if fresh not in taken:
            break
    else:
        fresh = sparse_matrix(rng, fld, *((4, last.cols) if forward else (last.rows, 4)))
    return rep_of_steps(fld, steps), rep_of_steps(fld, [*steps[:-1], (forward, fresh)])


def segment_ends(monkeypatch) -> list:
    """The position k of each ``_close_bars`` call of the sweeps that follow, in order.

    A sweep closes bars at each segment end it prices and once more at its
    first repeat, so after a repeat the last entry is the repeat's position.
    """
    ends = []
    close = zigzag._close_bars

    def recording(found, prev_g, g, k):
        ends.append(k)
        close(found, prev_g, g, k)

    monkeypatch.setattr(zigzag, "_close_bars", recording)
    return ends


@pytest.mark.parametrize("fld", [GF(2), GF(3), GF(5), QQ], ids=repr)
def test_periodic_paths_replay_their_repeats(fld, count_calls):
    # the sweep stops at a position whose marks repeat those one period
    # earlier and closes the later bars by translation (shifting rank rows,
    # which only a repeat does); a path with no shorter period than its
    # length sweeps, and prices, every position
    rng = make_rng(70)
    shifted = count_calls(zigzag, "_shifted_row")
    replays = {"periodic": 0, "broken": 0}
    zero_dims = 0
    for _ in range(30):
        for kind, v in zip(replays, periodic_pair(rng, fld)):
            shifted.clear()
            assert bars(v) == inclusion_exclusion_bars(v)
            replays[kind] += bool(shifted)
            zero_dims += 0 in v.dims
    print(f"  replays {replays}, {zero_dims} draws with a zero-dim vertex")
    assert replays["periodic"] >= 25
    assert replays["broken"] == 0
    assert zero_dims


def edge_kind(forward: bool, m: Matrix) -> str:
    """The kind of m: "bijective", "singular" (square), "injective" or "other".

    "injective" is a non-square m of full column rank on an edge pointing
    right, whose image step leaves a flag that only its own elimination
    completes.
    """
    full = rank(m) == m.cols
    if m.rows == m.cols:
        return "bijective" if full else "singular"
    return "injective" if forward and full else "other"


def rank_one_then_bijections(rng, fld) -> Representation:
    """A d x d rank-1 map and 2-3 invertible d x d maps, d in 2-3, pointing either way, repeated.

    The rank-1 map leaves the flag a member of dimension 1 or d - 1, so a
    flag that is not trivial crosses the run of bijections after it.
    """
    d = rng.randint(2, 3)
    block = [(rng.random() < 0.5, Matrix(fld, [[1] * d] + [[0] * d] * (d - 1), d))]
    block += [(rng.random() < 0.5, random_invertible_rng(d, fld, rng))
              for _ in range(rng.randint(2, 3))]
    return rep_of_steps(fld, block * rng.randint(2, 4))


@pytest.mark.parametrize("fld", [GF(2), GF(3), QQ], ids=repr)
def test_product_route_agrees_with_elimination(fld, count_calls):
    # on a periodic path a run of bijective edges moves both flags by one
    # product, with the same members as elimination would find: periodic
    # paths, paths whose period has a run of bijections after a rank-1 map,
    # and lift windows, priced against one generalized rank per interval
    rng = make_rng(73)
    moved = count_calls(zigzag, "_flag_moved")
    kinds = set()
    with_products = 0
    draws = [periodic_pair(rng, fld)[0] for _ in range(40)]
    for _ in range(4):
        _, v, _, _ = gen_affine(rng.randint(2, 3), fld, 3, rng, min_summands=1, total_cap=5,
                                vertex_cap=2)
        draws.append(lift_truncated(v, default_window(v)))
    draws += [rank_one_then_bijections(rng, fld) for _ in range(10)]
    for v in draws:
        start = len(moved)
        assert bars(v) == inclusion_exclusion_bars(v)
        steps = [(forward, v.mats[eidx]) for eidx, forward in path_steps(v.quiver)]
        kinds |= {(forward, edge_kind(forward, m)) for forward, m in steps}
        with_products += len(moved) > start
    print(f"  {sorted(kinds)}; {len(moved)} products in {with_products} of {len(draws)} sweeps")
    assert with_products >= 10
    assert {(True, "bijective"), (False, "bijective"), (True, "injective"),
            (True, "singular"), (False, "singular")} <= kinds


@pytest.mark.parametrize(
    "seq, period", [("", 0), ("a", 1), ("abab", 2), ("aaab", 4), ("aaaa", 1), ("abcab", 3)]
)
def test_least_period(seq, period):
    assert zigzag._least_period(seq) == period


def test_least_period_of_two_turns_divides_a_turn():
    # ``_bars`` reads a cycle's period off two turns: by Fine and Wilf it
    # divides the turn's length, so the turn repeats whole periods
    words = ["".join(w) for size in range(1, 7) for w in product("abc", repeat=size)]
    assert len(words) == 1092
    for w in words:
        assert len(w) % zigzag._least_period(w * 2) == 0, w


def test_translated_tail_matches_full_sweep(count_calls, monkeypatch):
    # past the sweep's first repeat the bars close by translation; on 400
    # lift windows of the default length plus 0-12 periods, the window
    # barcode of classify_lift must be that of barcode on the built window
    # with its period hidden (``len`` for ``_least_period``), which sweeps
    # and prices every position, and never repeats
    rng = make_rng(74)
    swept = count_calls(zigzag, "_rank_jumps")
    shifted = count_calls(zigzag, "_shifted_row")
    stopped = 0
    for i in range(400):
        fld = (GF(2), GF(3), GF(5), QQ)[i % 4]
        _, v, _, _ = gen_affine(rng.randint(2, 4), fld, 4, rng, min_summands=1, total_cap=6,
                                vertex_cap=3)
        window = default_window(v) + v.quiver.vertex_count * rng.randint(0, 12)
        shifted.clear()
        got = classify_lift(v, window)[2]
        stopped += bool(shifted)
        with monkeypatch.context() as full:
            full.setattr(zigzag, "_least_period", len)
            swept.clear()
            shifted.clear()
            assert barcode(lift_truncated(v, window)) == got
            assert len(swept) == window + 1 and not shifted
    assert stopped == 400


def test_lift_sweeps_least_period_within_a_turn(count_calls):
    # a 12-cycle of alternating orientation with one matrix on every edge:
    # its crossings repeat every 2 positions, within one turn, and
    # classify_lift sweeps no more of its window than barcode of the built
    # window does.  Both crossings of the period are bijections, one run,
    # so the trivial flag crosses it unchanged and the sweep builds one
    # rank row, at position 0, and repeats it at position 2
    fld = GF(3)
    m = Matrix(fld, [[1, 1], [0, 2]])
    v = Representation(to_quiver(AffineQuiver(12, (CW, CCW) * 6)), fld, (2,) * 12, (m,) * 12)
    window = lift_truncated(v, default_window(v))
    work = [count_calls(linalg, "_gauss_jordan"), count_calls(zigzag, "_rank_jumps")]
    got = classify_lift(v)[2]
    lifted = [len(calls) for calls in work]
    for calls in work:
        calls.clear()
    assert barcode(window) == got
    assert [len(calls) for calls in work] == lifted == [2, 1]


@pytest.mark.parametrize("fld", [GF(2), GF(3), GF(5), QQ], ids=repr)
def test_translated_tail_edge_cases(fld, count_calls, monkeypatch):
    # every prefix of random periodic paths against a full sweep: among
    # them repeats found at the last position,
    # paths of period 1, and last rows whose start-0 bars translate to
    # start 0 (a start-0 bar cannot end between the repeat and the last
    # position: r[0, e] falls with e and repeats with period there)
    rng = make_rng(75)
    shifted = count_calls(zigzag, "_shifted_row")
    ends = segment_ends(monkeypatch)
    seen = Counter()
    for _ in range(60):
        v, _ = periodic_pair(rng, fld)
        steps = [(forward, v.mats[e]) for e, forward in path_steps(v.quiver)]
        for cut in range(1, len(steps) + 1):
            w = rep_of_steps(fld, steps[:cut])
            n = w.quiver.vertex_count
            shifted.clear()
            ends.clear()
            got = bars(w)
            if not shifted:
                continue
            seen["stopped"] += 1
            seen["at the last position"] += ends[-1] == n - 1
            seen["period 1"] += zigzag._least_period(steps[:cut]) == 1
            seen["start 0 translated"] += any(a == 0 and b == n - 1 for a, b in got)
            with monkeypatch.context() as full:
                full.setattr(zigzag, "_least_period", len)
                assert bars(w) == got
    print(f"  {dict(seen)}")
    assert min(seen.values()) >= 3


def bijection_run_steps(rng, fld) -> list:
    """A block of 1-6 steps repeated 2-4 times, all but 0-2 of them invertible square maps.

    In the block's own coordinates each invertible map is a signed
    permutation, pointing either way at a dim of 2-3, and each other step a
    random 0/1 map with a zero row, so singular when square; between two other
    steps the vertices take a dim of 0-3, and the last one returns to the
    block's first dim.  Each vertex of the block then takes a random basis,
    the same in every repeat: flags meet later kernels in special position,
    and no member is a coordinate subspace.
    """
    size = rng.randint(1, 6)
    others = sorted(rng.sample(range(size), min(size, rng.randint(0, 2))))
    dims = [rng.randint(2, 3)]
    block = []
    for i in range(size):
        forward = rng.random() < 0.5
        dim = dims[-1]
        if i in others:
            after = dims[0] if i == others[-1] else rng.randint(0, 3)
            rows, cols = (after, dim) if forward else (dim, after)
            top = [[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows - 1)]
            block.append((forward, Matrix(fld, [*top, [0] * cols][:rows], cols)))
        else:
            after, order = dim, rng.sample(range(dim), dim)
            block.append((forward, Matrix(fld, [[rng.choice((1, -1)) if j == order[r] else 0
                                                 for j in range(dim)] for r in range(dim)], dim)))
        dims.append(after)
    bases = [random_invertible_rng(d, fld, rng) for d in dims[:-1]]
    bases.append(bases[0])
    steps = []
    for i, (forward, m) in enumerate(block):
        src, dst = (i, i + 1) if forward else (i + 1, i)
        steps.append((forward, bases[dst] @ m @ inverse(bases[src])))
    return steps * rng.randint(2, 4)


@pytest.mark.parametrize("fld", [GF(2), GF(3), GF(5), QQ], ids=repr)
def test_runs_of_bijections_cross_in_one_step(fld, count_calls, monkeypatch):
    # a run of square bijections within one period is one segment: every
    # prefix of paths made mostly of them must give the bars of a full sweep
    # (period hidden, so that a run is composed only when a non-trivial flag
    # reaches it, and a trivial flag steps it one crossing at a time), and
    # stop at the full sweep's first position whose marks repeat those one
    # period earlier.  A bijection keeps the marks, so a position inside a
    # run that the full sweep crossed whole has the marks of the run's
    # start.  A run of square crossings with a singular one is split, found
    # singular by the solve of a stretch of left-pointing edges or by the
    # final rank
    rng = make_rng(76)
    shifted = count_calls(zigzag, "_shifted_row")
    composed, splits = [], []
    compose = zigzag._composed

    def composing(run):
        out = compose(run)
        if out[0] is None:
            splits.append("the final rank" if out[1] == len(run) else "a singular left stretch")
        elif len(run) > 1:
            composed.append(run)
        return out

    monkeypatch.setattr(zigzag, "_composed", composing)
    products = [count_calls(field, "product") for field in (linalg.RationalField, linalg.PrimeField)]
    ends = segment_ends(monkeypatch)
    seen = Counter()
    crossed = zigzag._crossed

    def watching(segment, basis, dims):
        before = sum(map(len, products))
        out = crossed(segment, basis, dims)
        if segment[2] > 1 and set(dims) <= {0, basis.rows}:
            assert sum(map(len, products)) == before, "a trivial flag took a product"
            seen["trivial flag across a run"] += 1
        return out

    monkeypatch.setattr(zigzag, "_crossed", watching)
    for _ in range(30):
        steps = bijection_run_steps(rng, fld)
        for cut in range(1, len(steps) + 1):
            w = rep_of_steps(fld, steps[:cut])
            n = w.quiver.vertex_count
            shifted.clear()
            composed.clear()
            splits.clear()
            ends.clear()
            got = bars(w)
            stop = ends[-1] if shifted else None
            seen["run composed"] += bool(composed)
            for split in set(splits):
                seen[f"candidate split at {split}"] += 1
            seen["run cut at the end"] += not shifted and ends[-1] < n - 1
            period = zigzag._least_period(steps[:cut])
            seen["run ends at the period"] += (
                period < n - 1 and edge_kind(*steps[period - 1]) == "bijective"
                and edge_kind(*steps[0]) == "bijective")
            with monkeypatch.context() as full:
                full.setattr(zigzag, "_least_period", len)
                swept = []
                full.setattr(zigzag, "_rank_jumps",
                             lambda starts, pairs, jumps=zigzag._rank_jumps:
                             swept.append((starts, pairs)) or jumps(starts, pairs))
                ends.clear()
                assert bars(w) == got
            # the marks of each position: those of the last segment end at or before it
            marks = [swept[bisect_right(ends, k) - 1] for k in range(n)]
            repeats = [k for k in range(period, n) if period < n - 1
                       and marks[k] == (zigzag._shifted(marks[k - period][0], period),
                                        marks[k - period][1])]
            assert stop == (repeats[0] if repeats else None)
    print(f"  {dict(seen)}")
    assert min(seen.values()) >= 3 and len(seen) == 6


def test_split_run_work_is_bounded(count_calls, monkeypatch):
    # a GF(3) path of random invertible 5 x 5 maps pointing either way,
    # whose period of 20 crossings, repeated three times, has crossings 10
    # and 19 made singular.  The period's one run of square crossings
    # fails to compose and is split: each crossing that no solve of it
    # certified is ranked, and each stretch of bijections is composed
    # anew, with no rank, since a solve or a rank certified each of its
    # crossings.  The sweep takes 26 eliminations, 3 fewer than one rank or
    # [m | I] reduction per crossing takes, since each of the 3 image steps
    # completes its flag in its own elimination: a split costs at most 1.5
    # times that count of 29.  Its bars are those of a full sweep
    rng = make_rng(77)
    fld = GF(3)
    block = [(rng.random() < 0.5, random_invertible_rng(5, fld, rng)) for _ in range(20)]
    for i in (10, 19):
        forward, m = block[i]
        block[i] = (forward, Matrix(fld, [*m.ints[1:], [0] * 5], 5))
    v = rep_of_steps(fld, block * 3)
    eliminations = count_calls(linalg, "_gauss_jordan")
    got = bars(v)
    assert len(eliminations) == 26 <= 1.5 * 29
    with monkeypatch.context() as full:
        full.setattr(zigzag, "_least_period", len)
        assert bars(v) == got


def long_run_interval_sum(rng, fld, splits: int, n: int = 1500):
    """A random-orientation interval sum on n vertices, conjugated, with its exact multiset.

    Two intervals span the path, so that its ends do not repeat each
    other, and six more are drawn: the dims change only where one of them
    starts or ends, and most crossings lie in long runs of square
    bijections.  Each of ``splits`` intervals is then cut at a position s
    whose crossing has at least 9 square crossings of its run on either
    side, into [lo, s - 1] and [s, hi]: no dim moves, and the crossing
    into s becomes a singular square map.
    """
    q = random_path_quiver(n, rng)
    ivs = [(0, n - 1)] * 2
    for _ in range(6):
        lo = rng.randrange(n)
        ivs.append((lo, rng.randint(lo, n - 1)))
    dims = [sum(lo <= x <= hi for lo, hi in ivs) for x in range(n)]
    ends = [k for k in range(1, n) if dims[k - 1] != dims[k]]
    # the positions s whose crossing has 9 or more square crossings on either side
    inside = [s for a, b in zip([0, *ends], [*ends, n]) for s in range(a + 10, b - 9)]
    for _ in range(splits):
        s = rng.choice(inside)
        inside.remove(s)
        lo, hi = next(iv for iv in ivs if iv[0] < s <= iv[1])
        ivs.remove((lo, hi))
        ivs += [(lo, s - 1), (s, hi)]
    rep = zero_representation(q, fld)
    for lo, hi in ivs:
        rep = direct_sum(rep, interval_module(q, Interval(lo, hi), fld))
    rep = conjugate(rep, conjugating_bases(rep, rng))
    assert zigzag._least_period([(rep.mats[e], fwd) for e, fwd in path_steps(q)]) == n - 1
    return rep, dict(Counter(ivs))


@pytest.mark.parametrize("fld", [QQ, GF(3)], ids=repr)
def test_aperiodic_runs_cross_whole(fld, count_calls):
    # a path that does not repeat: a non-trivial flag that reaches a run of
    # square bijections composes its map with one solve per stretch of
    # left-pointing maps and one rank, and crosses it by one product, so its
    # marks and rank row are built once per run.  The trivial flag of the
    # first long run steps it one crossing at a time.  The sweep takes 598
    # eliminations for its 1,499 crossings, against 1,499 when each crossing
    # steps alone, one elimination each, and builds 272 rank rows, not 1,500
    rng = make_rng(78)
    v, truth = long_run_interval_sum(rng, fld, 0)
    eliminations = count_calls(linalg, "_gauss_jordan")
    swept = count_calls(zigzag, "_rank_jumps")
    assert bars(v) == truth
    assert (len(eliminations), len(swept)) == (598, 272)


@pytest.mark.parametrize("splits", [1, 5])
@pytest.mark.parametrize("fld", [QQ, GF(3)], ids=repr)
def test_singular_crossings_inside_runs(fld, splits, count_calls, monkeypatch):
    # the same kind of path with 1 or 5 singular square maps well inside
    # runs: a flag that composes such a run finds the singular map with a
    # failed solve or its final rank, and splits the run by ranks.  The bars
    # stay exact, and the sweep takes at most 1.5 eliminations per crossing.
    # Each stretch of bijections of a split run is composed into one map and
    # crossed by one product: 935 and 1,275 eliminations, where stepping the
    # rest of a failed run one crossing at a time took 1,036 and 1,289
    rng = make_rng(79)
    v, truth = long_run_interval_sum(rng, fld, splits)
    n = v.quiver.vertex_count
    failed = []
    compose = zigzag._composed

    def composing(run):
        out = compose(run)
        failed.append(out[0] is None)
        return out

    monkeypatch.setattr(zigzag, "_composed", composing)
    eliminations = count_calls(linalg, "_gauss_jordan")
    assert bars(v) == truth
    print(f"  {len(eliminations)} eliminations, {sum(failed)} of {len(failed)} runs failed")
    assert any(failed) and not all(failed)
    assert len(eliminations) <= 1.5 * (n - 1)
    assert len(eliminations) <= {1: 935, 5: 1275}[splits]


@pytest.mark.parametrize("fld", [QQ, GF(3)], ids=repr)
def test_rank_three_path_steps_once_per_crossing(fld, count_calls):
    # an equioriented path of 300 vertices whose distinct 4 x 4 maps have
    # rank 3, each with its last row the sum of the first two: the trivial
    # flag at vertex 0 reaches the one run of square crossings, so every
    # crossing is an image step, and each image step completes its flag to
    # all of K^4 in its own elimination, 299 in all (598 when a second
    # elimination completed it)
    rng = make_rng(80)
    steps = []
    while len(steps) < 299:
        top = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(3)]
        m = Matrix(fld, [*top, [a + b for a, b in zip(*top[:2])]], 4)
        if rank(m) == 3:
            steps.append((True, m))
    v = rep_of_steps(fld, steps)
    assert zigzag._least_period([(m, True) for _, m in steps]) == 299
    eliminations = count_calls(linalg, "_gauss_jordan")
    barcode(v)
    assert len(eliminations) == 299


# signs, small integers and proper fractions, one with a denominator past
# a machine word's half; zero most often, so ranks drop
RATIONAL_MIX = (0, 0, 0, 1, -1, 2, Fraction(1, 3), Fraction(-5, 7), Fraction(7, 2**30))


def mixed_rational_rep(rng) -> Representation:
    """A QQ path of a block of 1-3 steps repeated 1-3 times, on RATIONAL_MIX entries.

    Vertices take dims 0-3.  Each shape draws from a pool of two Matrix
    objects, so objects recur within the block, and a repeat reuses the
    block's objects or copies them, so a path is periodic by value.
    """
    size = rng.randint(1, 3)
    dims = [rng.choice((0, 1, 2, 2, 3)) for _ in range(size)]
    pool: dict[tuple[int, int], list[Matrix]] = {}

    def draw(rows, cols):
        if (rows, cols) not in pool:
            pool[rows, cols] = [
                Matrix(QQ, [[rng.choice(RATIONAL_MIX) for _ in range(cols)]
                            for _ in range(rows)], cols)
                for _ in range(2)
            ]
        return rng.choice(pool[rows, cols])

    block = []
    for i in range(size):
        left, right = dims[i], dims[(i + 1) % size]
        forward = rng.random() < 0.5
        block.append((forward, draw(*((right, left) if forward else (left, right)))))
    steps = [
        (forward, m if rng.random() < 0.5 else Matrix(QQ, m.data, m.cols))
        for _ in range(rng.randint(1, 3))
        for forward, m in block
    ]
    return rep_of_steps(QQ, steps)


def test_rational_paths_agree_with_inclusion_exclusion():
    # the integer sweep against one generalized rank per interval, on 240
    # QQ paths with fractional entries, recurring Matrix objects, periods
    # and zero-dim vertices
    rng = make_rng(71)
    seen = {"shared": 0, "periodic": 0, "zero-dim": 0, "fraction": 0}
    for _ in range(240):
        v = mixed_rational_rep(rng)
        assert bars(v) == inclusion_exclusion_bars(v)
        seen["shared"] += len({id(m) for m in v.mats}) < len(v.mats)
        period = zigzag._least_period([(fwd, v.mats[e]) for e, fwd in path_steps(v.quiver)])
        seen["periodic"] += period < len(v.mats)
        seen["zero-dim"] += 0 in v.dims
        seen["fraction"] += any(x.denominator > 1 for m in v.mats for row in m.data for x in row)
    print(f"  {seen}")
    assert min(seen.values()) >= 40


def test_rational_paths_agree_mod_a_large_prime():
    # the QQ and GF(p) row steps of the one kernel on the same integer rows:
    # each edge matrix, cleared of its denominators and reduced mod
    # 2**31 - 1, keeps its rank, and the path keeps its barcode
    fld = GF(2**31 - 1)
    rng = make_rng(72)
    for _ in range(200):
        v = mixed_rational_rep(rng)
        reduced = []
        for m in v.mats:
            cleared = m.ints
            reduced.append(Matrix(fld, cleared, m.cols))
            assert rank(Matrix(QQ, cleared, m.cols)) == rank(reduced[-1]) == rank(m)
        assert bars(Representation(v.quiver, fld, v.dims, tuple(reduced))) == bars(v)
