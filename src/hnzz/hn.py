"""Harder-Narasimhan filtrations.

Two routes are implemented.  ``hn_bruteforce`` is the oracle: over GF(p)
it scans the subrepresentations of a small representation (subspace
tuples closed under the edge maps) that contain the current stage, which
are those of the quotient, takes the unique maximal destabilizer as the
next stage, and returns explicit filtration bases in the input
coordinates.  It works on any acyclic quiver but raises GuardError past
the fixed limits below: the characteristics and total dimensions of
``ORACLE_MAX_TOTAL_DIM``, and ``ENUM_MAX_DIM`` at any vertex.
Each pass of ``hn_bruteforce`` returns the one destabilizer of the
quotient (``_destabilizer``): its dims, its basis vectors and how many
subrepresentations share its (slope, total) key.  A suffix DP over the
topological order builds one table per tuple of partial floors; the
tables are freed when the pass ends, and none leaves it.  A slope bound
prices each dimension class of each vertex before any of its superspaces
is enumerated: the best key of any vector in that class, the other
vertices ranging freely.  A threshold T, the best key of a
subrepresentation priced so far (at first the whole quotient), only
rises, and a class whose bound is below T is never walked, so the
destabilizer and its count are those of the full scan.  The scan skips
the vertices of dimension 0.  Inside it a subspace, floors included, is
the tuple of its canonical basis vectors (the rows that
``linalg._echelon`` returns, as ``_superspaces`` yields them), and so is
the stage that one pass hands the next; a ``Matrix`` appears only in the
witness.
``hn_from_barcode`` is the fast route for a path of any orientation
under the Euler weights: every interval module is semistable there, of
slope (1 - e)/|I| with e the number of edges that point into I from
outside (Theorem A, proved for every orientation in the README), so the
report groups the bars by that slope.  ``campaign.fast_report`` decides
when it applies.

Reports carry (slope, quotient dimension vector) steps with strictly
decreasing exact rational slopes; only the oracle fills in witness bases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, combinations, product
from math import lcm
from operator import add, mul
from typing import Iterable, Iterator, Sequence

from .errors import GuardError, InternalCheckError, ShapeError, ValidationError, check_type, shown
from .linalg import Matrix, PrimeField, QQ, _echelon, _from_columns
from .quiver import (
    Quiver,
    Representation,
    StabilityCondition,
    _topological_order,
    check_weights,
    checked_dims,
    slope_of_dims,
)
from .zigzag import Barcode, Interval, barcode, path_steps


@dataclass(frozen=True)
class HNReport:
    """Slopes and quotient dimension vectors of an HN filtration.

    ``witness[j]`` (oracle only) holds one basis matrix per vertex whose
    columns span the j-th filtration stage inside the input coordinates;
    stages are cumulative and the last one is the full space, so at each
    vertex the j-th matrix has the total dimension as rows and the sum of
    the first j + 1 steps' dims as columns.
    """

    quiver: Quiver
    steps: tuple[tuple[Fraction, tuple[int, ...]], ...]
    witness: tuple[tuple[Matrix, ...], ...] | None = field(default=None, compare=False)

    def __post_init__(self):
        steps = _checked_steps(self.quiver, self.steps)
        object.__setattr__(self, "steps", steps)
        if not all(map(any, (dims for _, dims in steps))):
            raise ValidationError("zero quotient in HN report")
        if any(a <= b for (a, _), (b, _) in zip(steps, steps[1:])):
            raise ValidationError("HN slopes must strictly decrease")
        if self.witness is None:
            return
        sums = list(accumulate((dims for _, dims in steps), lambda a, b: tuple(map(add, a, b))))
        try:
            shapes = [[(m.rows, m.cols) if isinstance(m, Matrix) else None for m in stage]
                      for stage in self.witness]
        except TypeError:
            shapes = None
        if shapes != [list(zip(sums[-1], cols)) for cols in sums]:
            raise ValidationError(f"HN witness {shown(self.witness)} does not fit the steps")

    @classmethod
    def merged(
        cls, quiver: Quiver, parts: Iterable[tuple[Fraction, Sequence[int]]]
    ) -> "HNReport":
        """HN report of a direct sum, from its summands' (slope, dims) steps.

        Steps of equal slope are summed; slopes come out strictly decreasing.
        The parts are checked as the steps of a report are, before any sum.
        """
        groups: dict[Fraction, tuple[int, ...]] = {}
        for sl, dims in _checked_steps(quiver, parts):
            groups[sl] = tuple(map(add, groups[sl], dims)) if sl in groups else dims
        return cls(quiver, tuple((sl, groups[sl]) for sl in sorted(groups, reverse=True)))

    def total_dims(self) -> tuple[int, ...]:
        return tuple(map(sum, zip((0,) * self.quiver.vertex_count, *(d for _, d in self.steps))))


def _checked_steps(quiver: Quiver, steps) -> tuple[tuple[Fraction, tuple[int, ...]], ...]:
    """``steps`` as (exact slope, dims) pairs over ``quiver``; ValidationError
    unless each is a pair of a rational and n non-negative ints."""
    check_type(quiver, Quiver, "HN report quiver")
    try:
        steps = tuple((sl, dims) for sl, dims in steps)
    except (TypeError, ValueError):
        raise ValidationError(f"HN steps: {shown(steps)} are not (slope, dims) pairs") from None
    return tuple((QQ.coerce(sl), checked_dims(dims, quiver.vertex_count)) for sl, dims in steps)


# The oracle's cap on the total dimension of its input, per characteristic,
# and so the characteristics it runs over; the subrepresentation scan
# multiplies subspace counts across vertices.
ORACLE_MAX_TOTAL_DIM = {2: 8, 3: 6}
# Subspace enumeration over GF(p) grows like p^(dim^2/4); this cap on the
# dimension of the quotient at one vertex keeps the scan in the "finishes
# in seconds" regime.
ENUM_MAX_DIM = 6


def _check_oracle_guard(v: Representation) -> None:
    check_type(v, Representation, "oracle input")
    if not isinstance(v.field, PrimeField):
        raise GuardError("the brute-force oracle runs over prime fields only")
    p = v.field.p
    if p not in ORACLE_MAX_TOTAL_DIM:
        raise GuardError(f"oracle guard exceeded: p={p} > {max(ORACLE_MAX_TOTAL_DIM)}")
    cap = ORACLE_MAX_TOTAL_DIM[p]
    if v.total_dim() > cap:
        raise GuardError(
            f"oracle guard exceeded: total dimension {v.total_dim()} > {cap} over GF({p})"
        )


def _scan_order(v: Representation) -> list[int]:
    """Vertices of nonzero dimension in topological order: the other ones have one subspace."""
    order = _topological_order(v.quiver)
    if order is None:
        raise ShapeError("subrepresentation scan requires an acyclic quiver")
    return [x for x in order if v.dims[x]]


def _superspaces(field: PrimeField, floor: Sequence[tuple[int, ...]], dim: int, k: int
                 ) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The subspaces of GF(p)^dim containing span(floor) with k more dimensions.

    ``floor`` and each subspace yielded are canonical basis-vector tuples.
    The k-dimensional subspaces of the quotient are walked on the floor's
    free coordinates, those that lead no floor vector: for each k of them
    as pivots, in lexicographic order, every filling of the entries past
    each pivot at the other free coordinates, in ``product`` order.  The
    new vectors vanish at the floor's pivots and at each other's, so
    clearing the floor vectors at the new pivots and merging the two parts
    by pivot gives the reduced echelon basis with no elimination.  The
    caller, ``_destabilizer``, has held the quotient to ``ENUM_MAX_DIM``.
    """
    p = field.p
    taken = {vec.index(1) for vec in floor}
    free = [r for r in range(dim) if r not in taken]
    for pivots in combinations(free, k):
        slots = [(j, r) for j, c in enumerate(pivots) for r in free if r > c and r not in pivots]
        # each floor vector with its nonzero entries at the new pivots
        clear = [(vec, [(j, vec[c]) for j, c in enumerate(pivots) if vec[c]]) for vec in floor]
        for values in product(range(p), repeat=len(slots)):
            new = [[0] * dim for _ in pivots]
            for j, c in enumerate(pivots):
                new[j][c] = 1
            for (j, r), x in zip(slots, values):
                new[j][r] = x
            rows = [tuple(row) for row in new]
            for vec, hits in clear:
                for j, a in hits:
                    vec = [(x - a * y) % p for x, y in zip(vec, new[j])]
                rows.append(tuple(vec))
            # reduced echelon rows fall in lexicographic order as their pivots rise
            yield tuple(sorted(rows, reverse=True))


def _span_with_image(field: PrimeField, floor: tuple[tuple, ...], basis: Sequence[Sequence[int]],
                     transposed: Sequence[Sequence[int]]) -> tuple[tuple, ...]:
    """Basis vectors of span(floor) + m(span(basis)), from the rows of m transposed.

    The images are the nonzero rows of ``basis @ transposed``; with none,
    the floor is the answer, and otherwise one ``_echelon`` of them and the
    floor vectors gives the canonical basis.
    """
    images = [row for row in field.product(basis, transposed, len(transposed[0])) if any(row)]
    if not images:
        return floor
    return tuple(map(tuple, _echelon(field, [*floor, *images])[0]))


def is_semistable(v: Representation, alpha: StabilityCondition) -> bool:
    """True iff no nonzero subrepresentation has a strictly larger slope.

    v is semistable iff its HN filtration has one step, so this runs all of
    ``hn_bruteforce``, every one of its oracle passes.
    """
    steps = hn_bruteforce(v, alpha).steps
    if not steps:
        raise ValidationError("semistability of the zero representation is undefined")
    return len(steps) == 1


def _destabilizer(
    v: Representation, stage: Sequence[tuple], alpha: StabilityCondition
) -> tuple[tuple[int, ...], tuple[tuple, ...], int]:
    """(dims, vectors, count) of the maximal destabilizer above ``stage``.

    ``stage`` and ``vectors`` hold one tuple of canonical basis vectors
    per vertex (``_stage`` turns them into Matrix values).  The subreps
    containing the stage are ranked by their quotient dims beyond it, by
    (slope, total dimension), in integers; ``dims`` and ``vectors``, in
    vertex order, are the first subrep of the best key, and ``count`` is
    how many have that key, over all its dims.  "First" is the order that
    picks each vertex's subspace in turn along ``_scan_order`` (each from
    ``_superspaces``, one dimension class at a time).

    A suffix DP over the topological order: the subreps on ``order[i:]``
    depend on the choices before i only through the partial floors of
    those vertices (``stage`` plus the images of the chosen in-neighbours),
    so one table (suffix dims -> first bases, count) per tuple of partial
    floors is built once and shared.  Equal floors are equal keys; each
    image grows a floor by one ``_span_with_image``, against the edge
    matrix transposed once per pass.
    ``_scan_order`` skips the vertices of dimension 0, so the recursion
    is no deeper than the total dimension.

    The tables are pruned by a slope bound.  Fixing the quotient class d
    at one vertex and letting every other vertex range over its whole
    quotient dimension, the best key of that box comes from adding
    vertices in decreasing-weight order and keeping the best prefix (the
    box is a linear-fractional program).  The bound holds whatever is
    chosen at the other vertices, so the suffix tables stay shareable.
    A threshold T starts at the key of the whole quotient and rises with
    each top-level dims priced; T is always the key of a subrepresentation
    and so never exceeds the best key.  Each table walks its vertex's
    classes in decreasing-bound order and stops at the first bound below
    T, so every dims of the best key keeps its exact count and first
    bases; the other entries may be missing or short and are dropped.
    The enumeration guard, ``ENUM_MAX_DIM``, is checked here once, up
    front, for every vertex's whole quotient, so a refusal does not depend
    on what the bound skips, and ``_superspaces`` checks nothing.
    """
    order = _scan_order(v)
    n = len(order)
    field = v.field
    done = [len(u) for u in stage]
    free = [v.dims[x] - done[x] for x in order]
    if max(free) > ENUM_MAX_DIM:
        raise GuardError(
            f"subspace enumeration guard exceeded (dim={max(free)}, p={field.p}; "
            f"limits dim<={ENUM_MAX_DIM}, p<={max(ORACLE_MAX_TOTAL_DIM)})"
        )
    # integer weights and slopes: every total is at most sum(free), so
    # num / total over the lcm of 1..sum(free) is an integer
    scale = lcm(*(alpha.weights[x].denominator for x in order))
    weights = [alpha.weights[x].numerator * (scale // alpha.weights[x].denominator) for x in order]
    unit = lcm(*range(1, sum(free) + 1))

    def key(num: int, total: int) -> tuple[int, int]:
        return num * (unit // total), total

    def grow(acc: tuple[int, int], vertex: tuple[int, int]) -> tuple[int, int]:
        return acc[0] + vertex[0] * vertex[1], acc[1] + vertex[1]

    # per scan position: (bound, class) from the best bound down; the zero
    # vector has no slope and bounds nothing
    ranked = []
    for i in range(n):
        others = sorted(((weights[j], free[j]) for j in range(n) if j != i), reverse=True)
        classes = []
        for d in range(free[i] + 1):
            prefixes = accumulate(others, grow, initial=(weights[i] * d, d))
            priced = [key(num, total) for num, total in prefixes if total]
            if priced:
                classes.append((max(priced), d))
        ranked.append(sorted(classes, reverse=True))
    pos = {x: i for i, x in enumerate(order)}
    # each edge matrix transposed, so that images are products of basis rows
    out_edges: dict[int, list[tuple[tuple, int]]] = {x: [] for x in order}
    for m, (src, dst) in zip(v.mats, v.quiver.edges):
        if src in pos and dst in pos:
            out_edges[src].append((tuple(zip(*m.ints)), dst))
    # partial floors of order[i:] -> suffix dims (in that order) -> [bases, count]
    memo: dict[tuple, dict[tuple[int, ...], list]] = {(): {(): [(), 1]}}
    keys: dict[tuple[int, ...], tuple[int, int]] = {}
    threshold = key(sum(map(mul, weights, free)), sum(free))

    def table(floors: tuple) -> dict[tuple[int, ...], list]:
        nonlocal threshold
        got = memo.get(floors)
        if got is not None:
            return got
        i = n - len(floors)
        x = order[i]
        low = len(floors[0]) - done[x]
        out: dict[tuple[int, ...], list] = {}
        for bound, d in ranked[i]:
            if d < low:
                continue
            if bound < threshold:
                break
            for u in _superspaces(field, floors[0], v.dims[x], d - low):
                rest = list(floors[1:])
                for transposed, y in out_edges[x]:
                    j = pos[y] - i - 1
                    rest[j] = _span_with_image(field, rest[j], u, transposed)
                for dims, (bases, count) in table(tuple(rest)).items():
                    dims = (d,) + dims
                    entry = out.get(dims)
                    if entry is None:
                        out[dims] = [(u,) + bases, count]
                        if i == 0 and any(dims):
                            keys[dims] = key(sum(map(mul, weights, dims)), sum(dims))
                            threshold = max(threshold, keys[dims])
                    else:
                        entry[1] += count
        memo[floors] = out
        return out

    top = table(tuple(stage[x] for x in order))
    # T ends at the best key: every dims of that key was priced
    winners = [dims for dims, k in keys.items() if k == threshold]
    dims, vectors = [0] * len(v.dims), list(stage)
    for x, d, u in zip(order, winners[0], top[winners[0]][0]):
        dims[x], vectors[x] = d, u
    return tuple(dims), tuple(vectors), sum(top[w][1] for w in winners)


def _stage(v: Representation, vectors: Sequence[tuple]) -> tuple[Matrix, ...]:
    """The column-echelon Matrix bases of a stage's basis-vector tuples."""
    return tuple(_from_columns(v.field, u, d) for u, d in zip(vectors, v.dims))


def hn_bruteforce(v: Representation, alpha: StabilityCondition) -> HNReport:
    """HN filtration by exhaustive search, with explicit stage bases.

    Repeatedly extracts the subrepresentation of maximal slope and, among
    those, maximal total dimension.  The subrepresentations of v
    containing a stage are those of v / stage, so each pass asks
    ``_destabilizer`` for the one destabilizer beyond the stage, as
    basis-vector tuples, and for the count of its key; the slope bound
    lets the pass leave out vectors that cannot have the best key.  The
    count must be one: non-uniqueness cannot happen for a genuine
    stability condition and raises InternalCheckError.  Only the witness
    is built as Matrix bases.  Output is independent of enumeration
    order; the zero representation gets the empty report.
    """
    _check_oracle_guard(v)
    check_weights(v.quiver, alpha)
    stage = ((),) * len(v.dims)
    steps, witness = [], []
    while sum(map(len, stage)) < v.total_dim():
        dims, stage, count = _destabilizer(v, stage, alpha)
        if count != 1:
            raise InternalCheckError(
                f"maximal destabilizer is not unique ({count} candidates)"
            )
        steps.append((slope_of_dims(dims, alpha), dims))
        witness.append(_stage(v, stage))
    report = HNReport(v.quiver, tuple(steps), tuple(witness))
    if report.total_dims() != v.dims:
        raise InternalCheckError("HN quotient dimensions do not sum to the input")
    return report


def hn_from_barcode(bar: Barcode, q: Quiver) -> HNReport:
    """Euler HN report of a module on the path ``q``, any orientation, from its barcode.

    Each bar I is semistable of slope (1 - into)/|I|, where ``into``
    counts the left boundary edge if it points right and the right
    boundary edge if it points left; the bars are grouped by slope, in
    decreasing order.  On an equioriented path that is 1/(j+1) for [0, j]
    and 0 for every bar with nonzero left endpoint.  ``path_steps``
    refuses a quiver that is no path.
    """
    check_type(bar, Barcode, "HN input")
    steps = path_steps(q)
    n = q.vertex_count
    parts = []
    for iv, mult in bar:
        iv.check_on_path(n)
        into = (iv.lo > 0 and steps[iv.lo - 1][1]) + (iv.hi < n - 1 and not steps[iv.hi][1])
        parts.append((Fraction(1 - into, iv.hi - iv.lo + 1),
                      tuple(mult if iv.lo <= x <= iv.hi else 0 for x in range(n))))
    return HNReport.merged(q, parts)


def hn_r_filtration_eval(rep: HNReport, t) -> tuple[int, ...]:
    """Dimension vector of the real-indexed filtration at parameter t.

    The stage at t collects every quotient whose slope is >= t, so the
    result is a right-continuous step function of t, non-increasing in t.
    """
    check_type(rep, HNReport, "HN report")
    t = QQ.coerce(t)
    n = rep.quiver.vertex_count
    out = [0] * n
    for sl, dims in rep.steps:
        if sl >= t:
            for x in range(n):
                out[x] += dims[x]
    return tuple(out)


def hn_direct_sum_merge(a: HNReport, b: HNReport) -> HNReport:
    """HN report of a direct sum: merge steps, adding dims at equal slopes."""
    check_type(a, HNReport, "HN report")
    check_type(b, HNReport, "HN report")
    if a.quiver != b.quiver:
        raise ValidationError("HN merge across different quivers")
    return HNReport.merged(a.quiver, a.steps + b.steps)


def recover_barcode_via_truncations(v: Representation) -> Barcode:
    """Rebuild the full barcode from Euler HN data of right truncations.

    Clip, report, decode.  Restriction is exact and additive on interval
    modules, so the truncation to vertices k..n-1 has the barcode of v
    clipped: [a, b] with b >= k becomes [max(a, k) - k, b - k].  v is
    swept once; ``hn_from_barcode`` reports each clip on the equioriented
    path of n - k vertices, and ``_decoded`` reads the reports alone.
    """
    check_type(v, Representation, "truncation recovery input")
    if not all(fwd for _, fwd in path_steps(v.quiver)):
        raise ShapeError("truncation recovery requires an equioriented path")
    bar = barcode(v)
    n = v.quiver.vertex_count
    reports = []
    for k in range(n):
        clipped: dict[Interval, int] = {}
        for iv, mult in bar:
            if iv.hi >= k:
                key = Interval(max(iv.lo, k) - k, iv.hi - k)
                clipped[key] = clipped.get(key, 0) + mult
        path = Quiver(n - k, tuple((i - 1, i) for i in range(1, n - k)))
        reports.append(hn_from_barcode(Barcode.from_dict(clipped), path))
    return _decoded(reports)


def _decoded(reports: Sequence[HNReport]) -> Barcode:
    """The barcode of an equioriented path from the Euler HN reports of its
    right truncations, ``reports[k]`` that of vertices k..n-1.

    At cut k the step of slope 1/(j+1) holds at vertex 0 the bars [u, k + j]
    of v with u <= k; less those with u < k, found at earlier cuts, they are [k, k + j].
    """
    recovered: dict[tuple[int, int], int] = {}
    for k, report in enumerate(reports):
        for sl, dims in report.steps:
            if sl == 0:
                continue
            if sl.numerator != 1:
                raise InternalCheckError(f"unexpected Euler slope {sl}")
            right = k + sl.denominator - 1
            mult = dims[0] - sum(recovered.get((u, right), 0) for u in range(k))
            if mult < 0:
                raise InternalCheckError(f"negative recovered multiplicity for [{k},{right}]")
            if mult:
                recovered[(k, right)] = mult
    return Barcode.from_dict({Interval(u, w): m for (u, w), m in recovered.items()})
