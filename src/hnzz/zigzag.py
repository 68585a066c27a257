"""Interval modules and barcode decomposition on type-A (zigzag) quivers.

A type-A quiver here is a path whose vertices are numbered consecutively
``0 .. n-1``; each edge joins k-1 and k and may point either way.  The
multiplicity of the interval [a, b] in the barcode of a representation is
the inclusion-exclusion

    d[a,b] = r[a,b] - r[a-1,b] - r[a,b+1] + r[a-1,b+1]

of generalized ranks (out-of-range terms are zero), where r[x,y] is the
rank of the canonical map from the limit to the colimit of the
restriction to [x, y].

``barcode`` evaluates the whole grid in one left-to-right sweep over
the dims and the crossings, one (edge matrix, points right) per position
k > 0, given as the path's crossings or as one turn of a cycle (below).
With the right endpoint at position k, the subspaces

    A[a] = image at k of (limit over [a, k])          -- grows with a
    R[a] = kernel at k of (V_k -> colimit over [a, k]) -- shrinks with a

form nested chains.  The rank r[a,k] is dim(A[a] + R[a]) - dim R[a],
and R[a] lies in A[a], so r[a,k] = dim A[a] - dim R[a] and one sweep
prices every left endpoint at once from the dims alone.  The containment
holds summand by summand (Carlsson and de Silva, "Zigzag persistence",
2010): both subspaces split over the interval summands of the
restriction to [0, k], and a summand with k in it meets [a, k] in some
[s, k].  Its part at k lies in R[a] exactly when s > a and the edge
between s - 1 and s points out of the summand, and then it lies in A[a]
too, which takes it when s = a or that edge points out.

The argument holds for every start, a = 0 included, and R[0] in A[0]
joins the two chains into one:

    0 = R[k] <= R[k-1] <= ... <= R[0] <= A[0] <= ... <= A[k] = V_k

with at most dim V_k + 1 distinct members.  The sweep keeps it as one
flag: an adapted basis of V_k (a list of columns) whose first dim
columns span a member.  Its marks (a, dim A[a], dim R[a]) are held as
the list of starts a and the list of their pairs of dims.  Nested
members are equal exactly when their dimensions are, so a mark whose
pair of dims equals its predecessor's is dropped, and no member needs a
canonical basis of its own.  The flag crosses an edge by one flag
operation of ``linalg``, one elimination at most:

* an edge pointing right maps the basis; the pivot columns of
  ``m @ basis`` are the new basis, and a member keeps the pivots among
  its first dim columns;
* an edge pointing left needs, for every member, the x-part of the
  kernel of [m | member].  One RREF of [m | basis], x columns first,
  gives them all: the kernel vector of a free column is zero past that
  column, so each member's preimage is spanned by the x-parts of the
  free columns among its first ``m.cols + dim`` columns.

Then the start k joins as the mark (k, dim V_k, 0): A[k] is V_k (the
basis is extended by unit vectors, one elimination, unless it spans V_k
already) and R[k] is the zero space, spanned by no column.  So every
flag that crosses an edge has a zero member and a full one.

A flag whose members are all 0 or the whole space (a trivial flag) steps
to the same members whatever basis it carries: the zero member goes to
0 (image) or ker m (preimage), the full one to im m (image) or all of
V_k (preimage).  So a trivial flag drops its basis, which
``_rank_jumps`` never reads, and takes the one step of every flag from
the identity.  Over QQ that keeps the basis from carrying the product of
every map crossed, whose entries grow with the path.  The ranks take no
elimination and no row step, so the cost stays linear in the path
length for bounded vertex dimensions, which the long lift windows rely
on.

A lift window repeats its cycle's steps, and the sweep stops once it
repeats itself.  ``_bars`` alone finds the least period p of the
crossings, matrices compared by value.  ``barcode`` passes a path's
n - 1 crossings, and p is their least period; ``affine.classify_lift``
passes its cycle's one turn, and p is the least period of two turns, so
that it holds across the turn's end, and divides the turn's length by
Fine and Wilf.  On an aperiodic path p is the whole length and the
sweep runs to the end.  Shift a position's marks by p: a start
a > 0 becomes a + p, start 0 stays 0.  The sweep stops at the first
position k whose marks are the shifted marks of k - p, and this is
exact:

* A[0] at k is contained in A[p] at k, and R[p] at k in R[0] at k;
* A[p] and R[p] at k are the translates of A[0] and R[0] at k - p,
  since the edges of [p, k] are those of [0, k - p];
* so equal dims make the members of start 0 at k those of start 0 at
  k - p, translated, and the members of a start a > 0 are translates of
  those of a - p anyway.

The rest of the sweep depends only on these members and the later
edges, which repeat.  So from k on every rank row is the row p
positions earlier with its starts shifted, and no row of k or later is
built.  The bars close by translation instead, with no elimination, no
rank row and no difference of rows:

* the bars ending at k - 1 come from the last row swept and row k, which
  is row k - p shifted;
* for j - 1 >= k the bars d[., j-1] = g_{j-1} - g_j are those of
  d[., j-1-p] shifted, since both rows are shifts and the shift is one
  to one, so each bar ending at e >= k is a translate of one ending in
  [k - p, k - 1];
* the last row is a swept row shifted by a whole number of periods.

One loop steps the flag from segment end to segment end: a segment is
a maximal run of square bijections within one period, or any other
crossing, so every multiple of p is a segment end.  A square bijection
keeps each member's dimension, so the new mark (k, dim V_k, 0) equals
the last pair and is dropped, and the marks and rank row stay the same
through a run.  So no bar ends inside a run, a run cut short by the
path's end is not crossed, and the first repeat falls on a segment end:
one inside a run holds at the run's start.  The loop keeps the
position, marks and rank row of each segment end of the last period,
and a position has the row of the last segment end at or before it.

One function, ``_segments``, states how the sweep crosses each place of
the period.  A bijection between consecutive spaces maps each flag
member onto a member of the same dimension (Carlsson and de Silva,
"Zigzag persistence", 2010), and so does an injective edge pointing
right onto its image, so such an edge moves the flag by a product with
its matrix or its inverse, dims unchanged.  A run of square crossings
moves it by ``linalg._composed``: one product per matrix pointing
right, one solve of [B | X] per stretch of left-pointing matrices, B
their product and X what the run has made so far, and one rank at the
end, which certifies the matrices pointing right.

On a periodic path every crossing of the period recurs, so ``_segments``
decides each place once, and X starts as the identity: each maximal run
of square crossings is first composed whole into one map, which then
moves the flag by one product, ``_flag_moved``, in every period.  A
crossing of a run that fails, and a non-square one, is decided alone:
it moves the flag when a solve of its run certified it, or when it
points right or is square and has full column rank, which needs at least
as many rows as columns, so a wider matrix is not ranked.  Each maximal
stretch of moved square crossings, each of them certified already, is
composed again into one segment with no rank (``linalg._carried``), and
every other crossing is a segment of its own.

On an aperiodic path no crossing recurs, so nothing is decided ahead,
and no map is composed: it would never be read again, and over QQ it
grows with the run.  Each maximal run of two or more square crossings
is one segment, and the flag that reaches it moves its own basis across
it, X starting as that basis, each column divided by its gcd.  With a
basis of full rank, one final rank of full rank certifies the whole
run, and the marks, rank row and bars are taken once for it.  A run
with a singular matrix (a failed solve, or a final rank below d) is
stepped one crossing at a time, as is every other crossing, by
``_flag_image`` or ``_flag_preimage``.

A trivial flag keeps its dims across a bijection, which maps 0 to 0 and
the whole space to the whole space, and its basis, which is never read:
no product.  So on an aperiodic path it does not try a run whole, since
it would carry the run's map as its basis, but steps it one crossing at
a time, each from the identity.

The sweep runs on the integer rows that every ``Matrix`` holds: the
flag operations read an edge matrix's ``ints`` and skip its
denominator, and the flag carries an integer basis: an image basis is
pivot columns of an integer product, a preimage basis is integer kernel
vectors divided by their gcds, and a moved basis is an integer product
with each column divided by its gcd.  Scaling an edge matrix, or any
basis column, by a nonzero rational moves no member, pivot or rank, so
over QQ the bars are those of Fraction arithmetic, and no Fraction is
built after the parse.  Over GF(p) the integer rows are the residues.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import accumulate, cycle, groupby
from operator import itemgetter

from .errors import (InternalCheckError, ShapeError, ValidationError, check_counts, check_ints,
                     check_type, shown)
from .linalg import (
    Field,
    Matrix,
    _carried,
    _composed,
    _flag_completed,
    _flag_image,
    _flag_moved,
    _flag_preimage,
    rank,
)
from .quiver import Quiver, Representation

# The matrix entries one input may ask for: ``affine`` refuses a summand whose
# edge matrices, growing with its length squared, would hold more, and ``_bars``
# a vertex whose d x d flag basis would.  The bench's largest summand has
# 1,820; a 2-cycle Jordan cell of 1,002,528 built in 0.17 s.
SUMMAND_MAX_ENTRIES = 1_000_000


def _check_entry_cap(entries: int, what: str) -> None:
    """ShapeError past ``SUMMAND_MAX_ENTRIES``."""
    if entries > SUMMAND_MAX_ENTRIES:
        raise ShapeError(f"{what} of {entries} matrix entries exceeds "
                         f"SUMMAND_MAX_ENTRIES = {SUMMAND_MAX_ENTRIES}")


@dataclass(frozen=True, order=True)
class Interval:
    """Closed integer interval [lo, hi]; the empty interval is unrepresentable."""

    lo: int
    hi: int

    def __post_init__(self):
        check_ints((self.lo, self.hi), "interval endpoints")
        if self.lo > self.hi:
            raise ValidationError(f"interval [{self.lo},{self.hi}] is empty")

    def contains(self, x: int) -> bool:
        return self.lo <= x <= self.hi

    def check_on_path(self, n: int) -> None:
        """ValidationError unless [lo, hi] lies on a path of n vertices, 0 .. n-1."""
        check_ints((n,), "vertex count")
        if self.lo < 0 or self.hi > n - 1:
            raise ValidationError(f"interval [{self.lo},{self.hi}] out of range for {n} vertices")


def check_multiplicities(pairs: Iterable[tuple], kind: type, what: str) -> None:
    """ValidationError unless each (key, multiplicity) pair is a ``kind`` and a positive int."""
    for key, mult in pairs:
        check_type(key, kind, what)
        check_ints((mult,), "multiplicity")
        if mult < 1:
            raise ValidationError(f"multiplicity {mult} of {key} is not positive")


@dataclass(frozen=True)
class Barcode:
    """Multiset of intervals: sorted (interval, multiplicity) pairs."""

    entries: tuple[tuple[Interval, int], ...]

    def __post_init__(self):
        try:
            entries = tuple((iv, mult) for iv, mult in self.entries)
        except (TypeError, ValueError):
            raise ValidationError(
                f"barcode entries: {shown(self.entries)} are not pairs"
            ) from None
        object.__setattr__(self, "entries", entries)
        check_multiplicities(entries, Interval, "barcode entry")
        if not all(a < b for (a, _), (b, _) in zip(entries, entries[1:])):
            raise ValidationError("barcode entries must be strictly sorted")

    @staticmethod
    def from_dict(d: dict[Interval, int]) -> "Barcode":
        check_type(d, dict, "barcode mapping")
        check_multiplicities(d.items(), Interval, "barcode entry")
        return Barcode(tuple(sorted(d.items())))

    def dims_vector(self, n: int) -> tuple[int, ...]:
        """The dimension at each of n positions: one difference per bar end, then their sums."""
        check_counts((n,), "path length")
        steps = [0] * (n + 1)
        for iv, mult in self.entries:
            iv.check_on_path(n)
            steps[iv.lo] += mult
            steps[iv.hi + 1] -= mult
        return tuple(accumulate(steps[:n]))

    def __iter__(self):
        return iter(self.entries)


def path_steps(q: Quiver) -> list[tuple[int, bool]]:
    """Per position k=1..n-1, the (edge id, points-right) joining k-1 and k.

    Raises ShapeError unless the quiver is a path with consecutively
    numbered vertices (every edge joins some k-1 and k, each exactly once),
    and ValidationError unless q is a Quiver.
    """
    check_type(q, Quiver, "path")
    n = q.vertex_count
    if n == 0:
        return []
    slots: dict[int, tuple[int, bool]] = {}
    for idx, (src, dst) in enumerate(q.edges):
        if abs(src - dst) != 1:
            raise ShapeError(f"edge {idx} joins non-consecutive vertices {src},{dst}")
        lower = min(src, dst)
        if lower in slots:
            raise ShapeError(f"parallel edges between {lower} and {lower + 1}")
        slots[lower] = (idx, src == lower)
    if set(slots) != set(range(n - 1)):
        raise ShapeError("quiver is not a connected path on 0..n-1")
    return [slots[k] for k in range(n - 1)]


def is_path(q: Quiver) -> bool:
    """True iff ``path_steps`` takes q: a path on 0..n-1, edges pointing either way.

    A q that is not a Quiver raises ValidationError, as in ``path_steps``.
    """
    try:
        path_steps(q)
    except ShapeError:
        return False
    return True


def interval_module(q: Quiver, iv: Interval, fld: Field) -> Representation:
    """The indecomposable supported on [lo, hi] with identity internal maps."""
    check_type(iv, Interval, "interval:")
    path_steps(q)
    n = q.vertex_count
    iv.check_on_path(n)
    dims = tuple(1 if iv.contains(x) else 0 for x in range(n))
    mats = []
    for src, dst in q.edges:
        if dims[src] and dims[dst]:
            mats.append(Matrix.identity(fld, 1))
        else:
            mats.append(Matrix.zeros(fld, dims[dst], dims[src]))
    return Representation(q, fld, dims, tuple(mats))


def barcode(v: Representation) -> Barcode:
    """Interval multiplicities of a type-A representation.

    Implements the inclusion-exclusion over generalized ranks via the
    shared sweep described in the module docstring.  A negative
    multiplicity is mathematically impossible and raises
    InternalCheckError rather than being clamped.
    """
    check_type(v, Representation, "barcode input")
    return _bars(v.field, v.dims, [(v.mats[eidx], fwd) for eidx, fwd in path_steps(v.quiver)])


def _bars(fld: Field, dims: tuple[int, ...], crossings: list[tuple[Matrix, bool]]) -> Barcode:
    """The barcode of the path of vertex dims ``dims`` whose position k > 0
    is joined to k - 1 by an (edge matrix, points right): ``crossings``
    holds the path's n - 1 of them, or fewer, one turn of a cycle that
    the path repeats.

    One loop sweeps the flag from segment end to segment end, takes each
    rank row's bars and stops at the first repeat, and the rest close by
    translation (module docstring).
    """
    n = len(dims)
    if n == 0:
        return Barcode(())
    _check_entry_cap(max(dims) ** 2, "flag basis")
    # fewer crossings than edges are one turn of a cycle, and two turns carry
    # its period across the turn's end; matrices compare by value, as the
    # keys that ``Matrix.__eq__`` compares, less the one field
    keys = [(m.rows, m.cols, m.den, m.ints, forward) for m, forward in crossings]
    period = _least_period(keys * 2 if len(crossings) < n - 1 else keys)
    periodic = period < n - 1
    # the segments of the period, each [flag operation, matrix, length]; on a
    # path that does not repeat, a run of square crossings is tried whole
    segments = _segments(crossings[:period], periodic)
    # the position, marks and rank row of each segment end of the last period
    past: deque[tuple[int, list[int], list[tuple], dict[int, int]]] = deque(
        maxlen=len(segments) if periodic else 0)
    found: dict[tuple[int, int], int] = {}

    # one flag carries both chains, over one list of marks: the starts a,
    # and the pairs (dim A[a], dim R[a]) of their members
    basis = Matrix.identity(fld, dims[0])
    starts, pairs = [0], [(dims[0], 0)]
    g: dict[int, int] = {}  # the rank row of the last segment end swept
    # the remaining crossings of a run that the flag steps one at a time, the next one last
    k, ahead, pending = 0, cycle(segments), []
    while True:
        if (periodic and len(past) == len(segments) and pairs == past[0][2]
                and starts == _shifted(past[0][1], period)):
            # k repeats k - period, and so does every later position: the
            # row of a position i >= k is that of i - period, shifted
            _close_bars(found, g, _shifted_row(past[0][3], period), k)
            # no bar of start 0 ends here: r[0, e] never grows with e, and it
            # repeats with the period from k - period on, so it is constant
            tail = [(a, e, d) for (a, e), d in found.items() if e >= k - period]
            for a, e, d in tail:
                for t in range(period, n - 1 - e, period):
                    found[(a + t, e + t)] = d
            # position k - period + i has the row of the last segment end at or before it
            t, i = divmod(n - 1 - k, period)
            row = next(row for at, _, _, row in reversed(past) if at <= k - period + i)
            g = _shifted_row(row, period * (t + 1))
            break
        prev_g, g = g, _rank_jumps(starts, pairs)
        _close_bars(found, prev_g, g, k)
        past.append((k, starts, pairs, g))
        segment = pending.pop() if pending else next(ahead, None)
        if segment is None or k + segment[2] >= n:
            # the path ends here, or inside a run, which keeps the marks
            break
        a_dims, r_dims = zip(*pairs)
        crossed = _crossed(segment, basis, r_dims + a_dims)
        if crossed is None:
            # the flag does not cross the run whole: it steps one crossing at a time
            pending = _steps(reversed(segment[1]))
            segment = pending.pop()
            crossed = _crossed(segment, basis, r_dims + a_dims)
        k += segment[2]
        basis, new = crossed
        r_dims, a_dims = new[:len(r_dims)], new[len(r_dims):]
        # nested members of equal dimension are equal: keep the first start
        previous, starts, pairs = starts, [], []
        for a, pair in zip([*previous, k], [*zip(a_dims, r_dims), (dims[k], 0)]):
            if not pairs or pair != pairs[-1]:
                starts.append(a)
                pairs.append(pair)

    for a, d in g.items():
        found[(a, n - 1)] = d

    bar = Barcode.from_dict({Interval(a, b): d for (a, b), d in found.items()})
    mass = bar.dims_vector(n)
    if mass != dims:
        raise InternalCheckError(
            f"barcode does not conserve dimensions: {list(mass)} vs {list(dims)}"
        )
    return bar


def _segments(period: list[tuple[Matrix, bool]], periodic: bool) -> list[list]:
    """The segments of one ``period`` of crossings, each [flag operation, matrix, length].

    On a path that does not repeat, a maximal run of two or more square
    crossings is one segment whose operation is ``_composed`` and whose
    matrix is the run itself: the flag that reaches it decides whether it
    crosses whole (``_crossed``).  On a periodic path a maximal run of
    square crossings that ``_composed`` finds all bijections is one
    segment.  Any other crossing moves the flag when a solve of its run
    certified it, or when it points right or is square and has full column
    rank; a moved non-square crossing is a segment of its own, each maximal
    stretch of moved square ones is composed into one with no further rank,
    and every other crossing is an image or preimage step.
    """
    segments: list[list] = []
    for square, run in groupby(period, lambda c: c[0].rows == c[0].cols):
        run = list(run)
        if not periodic:
            segments += [[_composed, run, len(run)]] if square and len(run) > 1 else _steps(run)
            continue
        composed, solved = _composed(run) if square else (None, 0)
        if composed is not None:
            segments.append([_flag_moved, composed, len(run)])
            continue
        moved = [i < solved and not forward or (forward or square)
                 and m.rows >= m.cols and rank(m) == m.cols
                 for i, (m, forward) in enumerate(run)]
        for move, part in groupby(zip(moved, run), itemgetter(0)):
            part = [crossing for _, crossing in part]
            if not move:
                segments += _steps(part)
            elif square:
                segments.append([_flag_moved, _carried(part)[0], len(part)])
            else:
                segments += [[_flag_moved, m, 1] for m, _ in part]
    return segments


def _steps(run: Iterable[tuple[Matrix, bool]]) -> list[list]:
    """One image or preimage segment per crossing of ``run``."""
    return [[_flag_image if forward else _flag_preimage, m, 1] for m, forward in run]


def _least_period(seq) -> int:
    """Least p > 0 with seq[i] == seq[i + p] wherever both exist (0 if seq is empty).

    One prefix-function pass: the longest proper prefix of seq that is
    also a suffix has length len(seq) - p.
    """
    border = [0] * len(seq)
    for i in range(1, len(seq)):
        j = border[i - 1]
        while j and seq[i] != seq[j]:
            j = border[j - 1]
        border[i] = j + (seq[i] == seq[j])
    return len(seq) - border[-1] if seq else 0


def _shifted(starts: Iterable[int], period: int) -> list[int]:
    """Starts of a position moved ``period`` positions right: start 0 stays 0."""
    return [a + period if a else 0 for a in starts]


def _shifted_row(g: dict[int, int], period: int) -> dict[int, int]:
    """The rank row ``g`` (start -> jump) with its starts moved ``period`` positions right."""
    return dict(zip(_shifted(g, period), g.values()))


def _close_bars(found: dict[tuple[int, int], int], prev_g: dict[int, int], g: dict[int, int],
                k: int) -> None:
    """Record in ``found`` the bars ending at k - 1, from the rank rows ``prev_g`` and ``g``.

    They are the rows of k - 1 and k, and d[a, k-1] = g_{k-1}(a) - g_k(a)
    for a < k, where g_k(a) = r[a,k] - r[a-1,k].
    """
    for a in (prev_g.keys() | g.keys()) - {k}:
        d = prev_g.get(a, 0) - g.get(a, 0)
        if d < 0:
            raise InternalCheckError(f"negative multiplicity {d} for [{a},{k - 1}]")
        if d:
            found[(a, k - 1)] = d


def _crossed(segment: list, basis: Matrix, dims):
    """The flag (basis, dims) stepped and completed across a segment (module docstring).

    ``segment`` is [flag operation, matrix, length], one per segment of
    the period in ``_bars``; a run of bijections holds their product.  A
    trivial flag keeps its basis and dims across a bijection, and
    otherwise steps from the identity, which keeps QQ bases small.  A
    run of square crossings on a path that does not repeat moves a
    non-trivial flag's basis across it whole, when it is all bijections;
    otherwise, and for a trivial flag, this returns None, and the run's
    crossings are stepped one at a time.
    """
    op, m, _ = segment
    d = basis.rows
    trivial = set(dims) <= {0, d}
    if op is _composed:
        moved = None if trivial else _composed(m, basis)[0]
        return None if moved is None else (moved, dims)
    if trivial:
        if op is _flag_moved and m.rows == d:
            return basis, dims
        basis = Matrix.identity(m.field, d)
    basis, dims = op(m, basis, dims)
    return _flag_completed(basis), dims


def _rank_jumps(starts: list[int], pairs: list[tuple[int, int]]) -> dict[int, int]:
    """Sparse derivative a -> r[a,k] - r[a-1,k] of the current rank row.

    R[a] lies in A[a] (module docstring), so r[a,k] = dim A[a] - dim R[a]
    is read off each mark's pair of dims.  The row never decreases in a,
    since A[a] grows and R[a] shrinks; a decrease means the flag lost
    its nesting.
    """
    jumps: dict[int, int] = {}
    prev_val = 0
    for a, (adim, rdim) in zip(starts, pairs):
        val = adim - rdim
        if val < prev_val:
            raise InternalCheckError("rank row decreased in the left endpoint")
        if val > prev_val:
            jumps[a] = val - prev_val
        prev_val = val
    return jumps
