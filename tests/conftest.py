import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from hnzz import linalg
from hnzz.affine import CCW, CW
from hnzz.linalg import (
    GF,
    QQ,
    Matrix,
    random_invertible_rng,
)
from hnzz.quiver import Quiver, Representation, _topological_order
from hnzz.zigzag import path_steps


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(owner, name)`` counts the calls of ``owner.name`` for one test.

    It wraps the attribute through ``monkeypatch`` and returns a list
    that gains one entry per call; ``len`` reads the count and ``clear``
    restarts it.  A method counts through its class, with ``self`` among
    the arguments.
    """

    def count(owner, name: str) -> list:
        original = getattr(owner, name)
        calls = []

        def counting(*args, **kwargs):
            calls.append(None)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
        return calls

    return count


# The Fraction operators, for ``count_calls(Fraction, name)``.  They are
# wrapped whole: each binds ``Fraction._add`` and its kin when the class is
# built, so wrapping ``_sub`` or ``_mul`` would count nothing.
FRACTION_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                       "__truediv__", "__rtruediv__")


def make_rng(seed: int) -> random.Random:
    return random.Random(seed)


def vectors_of(m: Matrix) -> tuple[tuple[int, ...], ...]:
    """The columns of ``m.ints`` as tuples: the oracle's basis-vector tuple of span(m).

    Over GF(p) they are the columns of ``m``; over QQ those columns times
    ``m.den``, which span the same subspace.
    """
    return tuple(zip(*m.ints))


def from_vectors(field, vectors, dim: int) -> Matrix:
    """The dim x k Matrix whose columns are the k ``vectors``, built by the public constructor."""
    return Matrix(field, list(zip(*vectors)) if vectors else [()] * dim, len(vectors))


def dual(v: Representation) -> Representation:
    """v with every edge reversed and every map transposed."""
    q = Quiver(v.quiver.vertex_count, tuple((dst, src) for src, dst in v.quiver.edges))
    mats = tuple(from_vectors(v.field, m.data, m.cols) for m in v.mats)
    return Representation(q, v.field, v.dims, mats)


def mirrored(v: Representation) -> Representation:
    """The path v with position i relabelled n - 1 - i."""
    n = v.quiver.vertex_count
    q = Quiver(n, tuple((n - 1 - src, n - 1 - dst) for src, dst in v.quiver.edges))
    return Representation(q, v.field, v.dims[::-1], v.mats)


def restricted(v: Representation, lo: int, hi: int) -> Representation:
    """The path v restricted to positions lo..hi, renumbered from 0."""
    steps = path_steps(v.quiver)[lo:hi]
    edges = tuple((k, k + 1) if fwd else (k + 1, k) for k, (_, fwd) in enumerate(steps))
    mats = tuple(v.mats[eidx] for eidx, _ in steps)
    return Representation(Quiver(hi - lo + 1, edges), v.field, v.dims[lo:hi + 1], mats)


def mixed_orientations(n):
    """Every acyclic orientation of an n-cycle: the bit tuples with both CW and CCW."""
    for bits in product((CW, CCW), repeat=n):
        if len(set(bits)) > 1:
            yield bits


def _field_ops(fld):
    """Reduction and inverse of the field in plain Python arithmetic."""
    if fld == QQ:
        return (lambda x: x), (lambda x: 1 / Fraction(x))
    p = fld.p
    return (lambda x: x % p), (lambda x: pow(x, -1, p))


def reference_rref(m: Matrix) -> tuple[list[list], list[int]]:
    """Textbook Gauss-Jordan of ``m``: its reduced rows and pivot columns.

    Each pivot row is scaled to a leading 1, and its column is cleared
    from every other row, in ``Fraction`` arithmetic over QQ and residues
    over GF(p).  It shares no code with ``linalg``, so the tests can check
    the package's elimination, which runs on integer rows over QQ.
    """
    reduce, inv = _field_ops(m.field)
    rows = [list(row) for row in m.data]
    pivots = []
    for c in range(m.cols):
        r = len(pivots)
        found = [i for i in range(r, len(rows)) if rows[i][c] != 0]
        if not found:
            continue
        rows[r], rows[found[0]] = rows[found[0]], rows[r]
        f = inv(rows[r][c])
        rows[r] = [reduce(f * x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                g = rows[i][c]
                rows[i] = [reduce(x - g * y) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def reference_matmul(a: Matrix, b: Matrix) -> list[list]:
    """``a @ b`` entry by entry, as sums of products in the field."""
    reduce, _ = _field_ops(a.field)
    return [
        [reduce(sum((row[k] * b.data[k][j] for k in range(a.cols)), a.field.zero))
         for j in range(b.cols)]
        for row in a.data
    ]


def hstack(mats: list[Matrix]) -> Matrix:
    """The blocks ``mats``, all of one field and height, side by side."""
    fld, rows = mats[0].field, mats[0].rows
    assert all((m.field, m.rows) == (fld, rows) for m in mats)
    data = [[x for m in mats for x in m.data[i]] for i in range(rows)]
    return Matrix(fld, data, sum(m.cols for m in mats))


def package_rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """The package's reduced row-echelon form of ``m`` and its pivots, from ``linalg._echelon``.

    Its zero rows are added back below the pivot rows.
    """
    reduced, pivots = linalg._echelon(m.field, m.ints)
    reduced += [[0] * m.cols] * (m.rows - len(pivots))
    return Matrix(m.field, reduced, m.cols), tuple(pivots)


def reference_column_echelon(m: Matrix) -> Matrix:
    """Canonical basis of the column span: ``reference_rref`` of the columns as rows."""
    columns = [[row[j] for row in m.data] for j in range(m.cols)]
    reduced, pivots = reference_rref(Matrix(m.field, columns, m.rows))
    kept = reduced[: len(pivots)]
    return Matrix(m.field, list(zip(*kept)) if kept else [()] * m.rows, len(kept))


def reference_kernel(m: Matrix) -> Matrix:
    """Canonical basis of the right null space of ``m``, built directly.

    One vector per free column of ``reference_rref(m)``: 1 at the free
    column and minus that column's entries at the pivot columns.  The
    package takes a kernel as ``_flag_preimage`` of the zero subspace; this
    reference goes through neither the flag operations nor the package's
    elimination, so the tests can check both.
    """
    fld = m.field
    reduced, pivots = reference_rref(m)
    vectors = []
    for f in range(m.cols):
        if f in pivots:
            continue
        vec = [fld.zero] * m.cols
        vec[f] = fld.one
        for i, pc in enumerate(pivots):
            vec[pc] = fld.coerce(-reduced[i][f])
        vectors.append(vec)
    rows = list(zip(*vectors)) if vectors else [[] for _ in range(m.cols)]
    return reference_column_echelon(Matrix(fld, rows, len(vectors)))


def pivot_rows(space: Matrix) -> list[int]:
    """Leading-entry row of each column of a column-echelon basis."""
    out = []
    for j in range(space.cols):
        for i in range(space.rows):
            if space.data[i][j] != 0:
                out.append(i)
                break
    return out


def reference_superspaces(floor: Matrix, k: int) -> list[Matrix]:
    """The subspaces containing span(floor) with k more dimensions, in the scan's order.

    The order that ``linalg._superspaces`` documents, built on its own: for
    each k of the floor's free rows (those that lead no column) as pivots,
    in lexicographic order, each filling of the entries below each pivot at
    the other free rows, in ``product`` order; the floor's columns and
    those k are put in canonical form by ``reference_column_echelon``.
    """
    fld, d = floor.field, floor.rows
    taken = pivot_rows(floor)
    free = [r for r in range(d) if r not in taken]
    out = []
    for pivots in combinations(free, k):
        slots = [(r, j) for j in range(k) for r in free if r > pivots[j] and r not in pivots]
        for values in product(range(fld.p), repeat=len(slots)):
            cols = [[int(r == c) for r in range(d)] for c in pivots]
            for (r, j), x in zip(slots, values):
                cols[j][r] = x
            rows = [list(row) + [col[i] for col in cols] for i, row in enumerate(floor.data)]
            out.append(reference_column_echelon(Matrix(fld, rows, floor.cols + k)))
    return out


def every_superspace(floor: Matrix) -> list[Matrix]:
    """All subspaces containing span(floor), class by class from the smallest."""
    return [u for k in range(floor.rows - floor.cols + 1) for u in reference_superspaces(floor, k)]


def every_subspace(dim: int, p: int) -> list[Matrix]:
    """All subspaces of GF(p)^dim, class by class from the zero subspace."""
    return every_superspace(Matrix.zeros(GF(p), dim, 0))


def subrepresentations(v: Representation, above=None):
    """Subrepresentations of v containing ``above``, as canonical bases.

    The plain walk that the oracle's suffix DP (``hn._destabilizer``)
    is tested against; its subspaces, images and spans come from the
    reference code here, not from the package.  ``above`` is a
    subrepresentation in canonical bases, as yielded here; None is the
    zero one.  The walk takes the vertices in ``_topological_order`` (its
    own order, not the DP's); at each vertex it enumerates only the
    subspaces containing ``above`` and the images of the already-chosen
    subspaces along in-edges, so every yielded tuple is closed under the
    edge maps and appears exactly once.  A vertex of dimension 0 keeps its
    one subspace and is skipped, so the recursion is no deeper than the
    total dimension.
    """
    if above is None:
        above = [Matrix.zeros(v.field, d, 0) for d in v.dims]
    order = [x for x in _topological_order(v.quiver) if v.dims[x]]
    chosen = dict(enumerate(above))

    def walk(i):
        if i == len(order):
            yield tuple(chosen[x] for x in range(v.quiver.vertex_count))
            return
        x = order[i]
        spanning = [list(row) for row in above[x].data]
        for (src, dst), m in zip(v.quiver.edges, v.mats):
            if dst == x:
                for row, image in zip(spanning, reference_matmul(m, chosen[src])):
                    row += image
        floor = reference_column_echelon(Matrix(v.field, spanning, len(spanning[0])))
        for u in every_superspace(floor):
            chosen[x] = u
            yield from walk(i + 1)

    return walk(0)


def zero_map_path(dims, fld=GF(2)) -> Representation:
    """The equioriented path with vertex dimensions ``dims`` and zero maps."""
    q = Quiver(len(dims), tuple((k, k + 1) for k in range(len(dims) - 1)))
    mats = tuple(Matrix.zeros(fld, dims[dst], dims[src]) for src, dst in q.edges)
    return Representation(q, fld, tuple(dims), mats)


def random_path_quiver(n: int, rng: random.Random) -> Quiver:
    """Path on 0..n-1 with random edge orientations."""
    edges = []
    for k in range(n - 1):
        edges.append((k, k + 1) if rng.random() < 0.5 else (k + 1, k))
    return Quiver(n, tuple(edges))


def random_zigzag_rep(rng: random.Random, max_n=4, max_dim=3, fields=(2, 3, 5)) -> Representation:
    """Random representation of a random-orientation path quiver."""
    n = rng.randint(1, max_n)
    p = rng.choice(fields)
    fld = GF(p) if p else QQ
    q = random_path_quiver(n, rng)
    dims = tuple(rng.randint(0, max_dim) for _ in range(n))
    mats = []
    for src, dst in q.edges:
        mats.append(
            Matrix(
                fld,
                [[rng.randrange(p) for _ in range(dims[src])] for _ in range(dims[dst])],
                dims[src],
            )
        )
    return Representation(q, fld, dims, tuple(mats))


def sparse_rep(rng, fld, q: Quiver, dims) -> Representation:
    """A representation of q on ``dims`` with rank-deficient maps.

    About one edge in five carries the zero map; the other entries are
    zero half the time.
    """
    mats = []
    for src, dst in q.edges:
        zero_map = rng.random() < 0.2
        rows = [
            [0 if zero_map or rng.random() < 0.5 else rng.randint(1, 4) for _ in range(dims[src])]
            for _ in range(dims[dst])
        ]
        mats.append(Matrix(fld, rows, dims[src]))
    return Representation(q, fld, dims, tuple(mats))


def conjugating_bases(rep: Representation, rng: random.Random):
    return [random_invertible_rng(d, rep.field, rng) for d in rep.dims]
