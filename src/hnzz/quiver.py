"""Quivers, representations, stability conditions and slopes.

A quiver is a finite directed multigraph on the vertex set
``0 .. vertex_count-1``; edges are (src, dst) pairs and the position of
an edge in the edge list is its id.  A representation attaches one exact
matrix per edge, with shape ``dims[dst] x dims[src]``, so matrices act on
column vectors; it checks that structure when it is built.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .errors import ShapeError, ValidationError, check_counts, check_ints, check_type, shown
from .linalg import QQ, Field, Matrix, _block_diag, check_field, inverse

Edge = tuple[int, int]


@dataclass(frozen=True)
class Quiver:
    vertex_count: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        check_counts((self.vertex_count,), "vertex count")
        try:
            object.__setattr__(self, "edges", tuple((s, d) for s, d in self.edges))
        except (TypeError, ValueError):
            raise ValidationError(f"edges: {shown(self.edges)} is not a sequence of pairs") from None
        check_ints(chain.from_iterable(self.edges), "edge endpoints")
        for src, dst in self.edges:
            if not (0 <= src < self.vertex_count and 0 <= dst < self.vertex_count):
                raise ValidationError(f"edge ({src},{dst}) out of vertex range")


def _degrees(q: Quiver) -> tuple[list[int], list[list[int]]]:
    """In-degree and successor list of every vertex, in one pass over the edges."""
    indeg = [0] * q.vertex_count
    succ: list[list[int]] = [[] for _ in range(q.vertex_count)]
    for src, dst in q.edges:
        indeg[dst] += 1
        succ[src].append(dst)
    return indeg, succ


def _topological_order(q: Quiver) -> list[int] | None:
    """Kahn's algorithm: the vertices with every edge pointing forward, or None on a cycle."""
    indeg, succ = _degrees(q)
    ready = deque(x for x in range(q.vertex_count) if indeg[x] == 0)
    order = []
    while ready:
        x = ready.popleft()
        order.append(x)
        for dst in succ[x]:
            indeg[dst] -= 1
            if indeg[dst] == 0:
                ready.append(dst)
    return order if len(order) == q.vertex_count else None


@dataclass(frozen=True)
class Representation:
    """One matrix per edge; construction raises ValidationError on any mismatch."""

    quiver: Quiver
    field: Field
    dims: tuple[int, ...]
    mats: tuple[Matrix, ...]

    def __post_init__(self):
        q = self.quiver
        check_type(q, Quiver, "quiver:")
        check_field(self.field)
        try:
            dims, mats = tuple(self.dims), tuple(self.mats)
        except TypeError:
            raise ValidationError("dims and matrices must be sequences") from None
        check_ints(dims, "dims")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "mats", mats)
        if len(dims) != q.vertex_count:
            raise ValidationError(f"dims has {len(dims)} entries for {q.vertex_count} vertices")
        problems = ["negative dimension"] if any(d < 0 for d in dims) else []
        if len(mats) != len(q.edges):
            problems.append(f"{len(mats)} matrices for {len(q.edges)} edges")
            raise ValidationError("; ".join(problems))
        field = self.field
        for e, ((src, dst), m) in enumerate(zip(q.edges, mats)):
            # the exact type and the same field object pass with no call
            if type(m) is not Matrix:
                check_type(m, Matrix, f"edge {e}:")
            if m.field is not field and m.field != field:
                problems.append(
                    f"edge {e}: matrix field {m.field!r} != representation field {self.field!r}"
                )
            if m.rows != dims[dst] or m.cols != dims[src]:
                problems.append(
                    f"edge {e}: matrix is {m.rows}x{m.cols}, expected {dims[dst]}x{dims[src]}"
                )
        if problems:
            raise ValidationError("; ".join(problems))

    def total_dim(self) -> int:
        return sum(self.dims)


def zero_representation(q: Quiver, fld: Field) -> Representation:
    check_type(q, Quiver, "quiver")
    dims = (0,) * q.vertex_count
    mats = tuple(Matrix.zeros(fld, 0, 0) for _ in q.edges)
    return Representation(q, fld, dims, mats)


def direct_sum(a: Representation, b: Representation) -> Representation:
    check_type(a, Representation, "direct summand")
    check_type(b, Representation, "direct summand")
    if a.quiver != b.quiver:
        raise ValidationError("direct sum across different quivers")
    if a.field != b.field:
        raise ValidationError("direct sum across different fields")
    dims = tuple(x + y for x, y in zip(a.dims, b.dims))
    mats = tuple(_block_diag(ma, mb) for ma, mb in zip(a.mats, b.mats))
    return Representation(a.quiver, a.field, dims, mats)


def conjugate(v: Representation, basis: Sequence[Matrix]) -> Representation:
    """Isomorphic copy of v: edge e gets basis[dst] @ mat @ basis[src]^-1."""
    check_type(v, Representation, "conjugated representation")
    check_type(basis, Sequence, "conjugating bases")
    if len(basis) != v.quiver.vertex_count:
        raise ValidationError("one basis matrix per vertex required")
    inv = []
    for x, bm in enumerate(basis):
        check_type(bm, Matrix, f"basis at vertex {x}:")
        if bm.rows != bm.cols or bm.rows != v.dims[x]:
            raise ValidationError(f"basis at vertex {x} is not {v.dims[x]}x{v.dims[x]}")
        inv.append(inverse(bm))
    mats = tuple(
        basis[dst] @ m @ inv[src]
        for (src, dst), m in zip(v.quiver.edges, v.mats)
    )
    return Representation(v.quiver, v.field, v.dims, mats)


@dataclass(frozen=True)
class StabilityCondition:
    """One exact rational weight per vertex; induces the slope functional."""

    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if not isinstance(self.weights, (list, tuple)):
            raise ValidationError(f"weights: {shown(self.weights)} is not a sequence")
        object.__setattr__(self, "weights", tuple(QQ.coerce(w) for w in self.weights))


def check_weights(q: Quiver, alpha: StabilityCondition) -> None:
    """ValidationError unless alpha is a StabilityCondition with one weight per vertex of q."""
    check_type(q, Quiver, "weighted quiver")
    check_type(alpha, StabilityCondition, "stability condition")
    if len(alpha.weights) != q.vertex_count:
        raise ValidationError("stability condition does not match the quiver")


def slope_of_dims(dims: Sequence[int], alpha: StabilityCondition) -> Fraction:
    """Weighted dimension over total dimension, as an exact rational; one dimension per weight."""
    check_type(alpha, StabilityCondition, "stability condition")
    total = sum(checked_dims(dims, len(alpha.weights)))
    if total == 0:
        raise ValidationError("slope of the zero dimension vector is undefined")
    num = sum((w * d for w, d in zip(alpha.weights, dims)), Fraction(0))
    return num / total


def checked_dims(dims, n: int) -> tuple[int, ...]:
    """``dims`` as a tuple of n non-negative ints, one per vertex; ValidationError otherwise."""
    check_type(dims, Iterable, "dimension vector")
    dims = check_counts(dims, "quotient dimension")
    if len(dims) != n:
        raise ValidationError("quotient dimension vector has wrong length")
    return dims


def _euler_weights(q: Quiver) -> list[int]:
    """1 - in_degree(x) at each vertex x."""
    return [1 - d for d in _degrees(q)[0]]


def euler_stability(q: Quiver) -> StabilityCondition:
    """Weight 1 - in_degree(x) at each vertex; defined for acyclic quivers."""
    check_type(q, Quiver, "quiver")
    if _topological_order(q) is None:
        raise ShapeError("Euler stability requires an acyclic quiver")
    return StabilityCondition(tuple(Fraction(w) for w in _euler_weights(q)))


def sheaf_euler_characteristic(v: Representation) -> int:
    """Sum of (1 - in_degree(x)) * dim_x; the Euler-slope numerator."""
    check_type(v, Representation, "Euler characteristic of")
    weights = _euler_weights(v.quiver)
    return sum(weights[x] * v.dims[x] for x in range(v.quiver.vertex_count))
