"""Acyclic affine (cycle-graph) quivers and their indecomposables.

Conventions, pinned once and validated globally by the exhaustive slope
and lift properties in the test suite:

* Vertices are x_0 .. x_{n-1}; edge e_j joins x_{(j-1) mod n} and x_j.
* Orientation bit CW (=0) means e_j has source x_{(j-1) mod n}; CCW (=1)
  means the source is x_j.  An orientation is valid iff both bits occur,
  otherwise the cycle is directed.
* Matrices act on column vectors (rows are indexed by the target).

The wrapped-interval indecomposable for [u, v] (u in [0, n-1], v >= u)
assigns to x_j one basis vector per integer i in [u, v] with i = j mod n;
edge maps send the vector for i-1 to the vector for i (or back, on CCW
edges), dropping anything that leaves [u, v].  This reproduces the
dimension counts (either floor((v-u)/n) or one more) and the 0/1 boundary
blocks, and makes the unwinding of the module literally a disjoint union
of diagonal tracks, one per integer translate of [u, v].

The Jordan-cell indecomposable T[lambda; w] has dimension w everywhere,
identity maps except on e_0, and the w x w upper Jordan block with
eigenvalue lambda on e_0.

A lift window is the plain length D of the truncated unwinding 0..D;
``classify_lift`` alone checks it (a multiple of n, at least
``default_window``, at most ``LIFT_MAX_WINDOW``) and keys each wrapped
interval it recovers by its ``NClass(u, v)``, the same key the
generators and serializers use.

Each request resolves its cycle once, with one ``affine_of_quiver``:
``classify_lift`` through ``default_window``, ``eta_from_lift`` itself,
and ``campaign.fast_report``, which hands the cycle it found to
``_eta``.  The private steps behind them (``_classified``, ``_eta``,
``_turn``) trust a v whose quiver was resolved so.
``campaign.check_b`` recovers many classes of one report through
``_recovery``, which takes the cycle resolved once and returns None for
a p = 1 class, and builds no class or slope per candidate.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import InternalCheckError, ShapeError, ValidationError, check_ints, check_type, shown
from .linalg import Field, Matrix, check_field
from .quiver import Quiver, Representation
from .zigzag import Barcode, _bars, _check_entry_cap
from .hn import HNReport

CW = 0
CCW = 1

# The unwinding holds one position per window step.  On a 2-core Xeon VM a
# 50,000-position window of a GF(3) 40-cycle of dimension 8 lifted and
# classified in 0.3 s: the barcode sweep stops at its first repeat.
LIFT_MAX_WINDOW = 50_000


@dataclass(frozen=True)
class AffineQuiver:
    """An acyclically oriented n-cycle, n > 1."""

    n: int
    orientation: tuple[int, ...]

    def __post_init__(self):
        check_ints((self.n,), "cycle length")
        if self.n < 2:
            raise ValidationError("affine quivers need at least two vertices")
        check_type(self.orientation, Iterable, "orientation")
        object.__setattr__(self, "orientation", tuple(self.orientation))
        check_ints(self.orientation, "orientation bits")
        if len(self.orientation) != self.n:
            raise ValidationError("orientation must have one bit per edge")
        if any(o not in (CW, CCW) for o in self.orientation):
            raise ValidationError("orientation bits must be 0 (cw) or 1 (ccw)")
        if len(set(self.orientation)) < 2:
            raise ShapeError("a consistent orientation gives a directed cycle")


@dataclass(frozen=True, order=True)
class NClass:
    """Wrapped-interval class: u normalised into [0, n-1], v >= u.

    The cycle length is not known here, so only u >= 0 is checked;
    ``on_cycle`` checks u against n.
    """

    u: int
    v: int

    def __post_init__(self):
        check_ints((self.u, self.v), "interval endpoints")
        if self.u < 0:
            raise ValidationError(f"left endpoint {self.u} is negative")
        if self.v < self.u:
            raise ValidationError(f"empty interval [{self.u},{self.v}]")

    def on_cycle(self, n: int) -> None:
        """ValidationError unless n is a positive int and u lies in [0, n-1]."""
        check_ints((n,), "cycle length")
        if n < 1:
            raise ValidationError(f"cycle length {n} is not positive")
        if self.u > n - 1:
            raise ValidationError(f"left endpoint {self.u} must lie in [0, {n - 1}]")


@dataclass(frozen=True)
class TClass:
    """Jordan-cell class: nonzero eigenvalue and block size w >= 1."""

    lam: object
    w: int


def to_quiver(aq: AffineQuiver) -> Quiver:
    check_type(aq, AffineQuiver, "cycle")
    edges = []
    for j in range(aq.n):
        a, b = (j - 1) % aq.n, j
        edges.append((a, b) if aq.orientation[j] == CW else (b, a))
    return Quiver(aq.n, tuple(edges))


def affine_of_quiver(q: Quiver) -> AffineQuiver:
    """Recover the affine structure from a quiver built by ``to_quiver``."""
    check_type(q, Quiver, "cycle quiver")
    n = q.vertex_count
    if n < 2 or len(q.edges) != n:
        raise ShapeError("not an affine cycle quiver")
    orientation = []
    for j, (src, dst) in enumerate(q.edges):
        a, b = (j - 1) % n, j
        if (src, dst) == (a, b):
            orientation.append(CW)
        elif (src, dst) == (b, a):
            orientation.append(CCW)
        else:
            raise ShapeError(f"edge {j} does not join x_{a} and x_{b}")
    return AffineQuiver(n, tuple(orientation))


def wrap_counts(n: int, u: int, v: int) -> tuple[int, ...]:
    """Dimension vector of the wrapped interval: hits of [u, v] per residue."""
    NClass(u, v).on_cycle(n)
    base, extra = divmod(v - u + 1, n)
    dims = [base] * n
    for i in range(u, u + extra):
        dims[i % n] += 1
    return tuple(dims)


def indec_N(aq: AffineQuiver, u: int, v: int, fld: Field) -> Representation:
    """The wrapped-interval indecomposable for [u, v]; ShapeError past a summand cap."""
    q = to_quiver(aq)
    check_field(fld)
    n = aq.n
    NClass(u, v).on_cycle(n)
    _check_window_cap(v - u + 1)
    support = [range(u + (j - u) % n, v + 1, n) for j in range(n)]
    dims = tuple(map(len, support))
    _check_entry_cap(sum(map(mul, dims, dims[-1:] + dims[:-1])), "summand")
    z, o = fld.zero, fld.one
    mats = []
    for j in range(n):
        prev = support[(j - 1) % n]
        here = support[j]
        if aq.orientation[j] == CW:
            # source indices i-1 map to target indices i
            data = [[o if t == s + 1 else z for s in prev] for t in here]
            mats.append(Matrix(fld, data, len(prev)))
        else:
            data = [[o if t == s - 1 else z for s in here] for t in prev]
            mats.append(Matrix(fld, data, len(here)))
    return Representation(q, fld, dims, tuple(mats))


def indec_T(aq: AffineQuiver, lam, w: int, fld: Field) -> Representation:
    """The Jordan-cell indecomposable of eigenvalue lam, size w; ShapeError past a summand cap."""
    q = to_quiver(aq)
    check_field(fld)
    lam = fld.coerce(lam)
    check_ints((w,), "Jordan-cell size")
    if lam == 0:
        raise ValidationError("Jordan-cell eigenvalue must be nonzero")
    if w < 1:
        raise ValidationError("Jordan-cell size must be at least 1")
    n = aq.n
    _check_window_cap(w * n)
    _check_entry_cap(n * w * w, "summand")
    z, o = fld.zero, fld.one
    jordan = [
        [lam if i == j else (o if j == i + 1 else z) for j in range(w)]
        for i in range(w)
    ]
    mats = [Matrix(fld, jordan, w)]
    mats += [Matrix.identity(fld, w) for _ in range(n - 1)]
    return Representation(q, fld, (w,) * n, tuple(mats))


def p_value(aq: AffineQuiver, u: int, v: int) -> int:
    """How many of the two boundary edges point into the wrapped interval.

    Counts whether e_{u'} targets x_{u'} and whether e_{v'+1} targets
    x_{v'} (indices mod n); the result 0/1/2 fixes the sign of the Euler
    slope of the wrapped-interval indecomposable.
    """
    check_type(aq, AffineQuiver, "cycle")
    NClass(u, v).on_cycle(aq.n)
    return _edges_into(aq, u, v)


def _edges_into(aq: AffineQuiver, u: int, v: int) -> int:
    """``p_value(aq, u, v)`` for an on-cycle (u, v), unchecked."""
    return (aq.orientation[u] == CW) + (aq.orientation[(v + 1) % aq.n] == CCW)


def euler_slope_N(aq: AffineQuiver, u: int, v: int) -> Fraction:
    """(1 - p) / (v - u + 1), the Euler slope of the wrapped interval."""
    return Fraction(1 - p_value(aq, u, v), v - u + 1)


def default_window(v: Representation) -> int:
    """Window length D at which every wrapped interval has an unclipped copy.

    D = (dim at x_0 + 2) * n: any wrapped interval crosses x_0 at most
    dim-at-x_0 times, so its length is under (dim + 1) * n and the
    translate starting in [1, n] fits strictly inside the window 0..D.
    The input is checked first: a quiver with no vertex has no x_0.
    This is where ``classify_lift`` resolves the cycle, once.
    """
    check_type(v, Representation, "lift input")
    return _least_window(v, affine_of_quiver(v.quiver))


def _least_window(v: Representation, aq: AffineQuiver) -> int:
    """``default_window(v)`` for v on the cycle ``aq``, resolved already."""
    return aq.n * (v.dims[0] + 2)


def _check_window_cap(D) -> None:
    """ValidationError unless D is an int proper, ShapeError past ``LIFT_MAX_WINDOW``."""
    check_ints((D,), "window length")
    if D > LIFT_MAX_WINDOW:
        raise ShapeError(f"window length {shown(D)} exceeds LIFT_MAX_WINDOW = {LIFT_MAX_WINDOW}")


def _turn(v: Representation) -> list[tuple[Matrix, bool]]:
    """One turn of the cycle v's unwinding, e_1 round to e_0, for a v whose
    quiver ``affine_of_quiver`` took: for i = 1..n, the (edge matrix, points
    right) joining positions i-1 and i, that of e_{i mod n}, which points
    right iff it is CW, so iff its target is x_{i mod n}."""
    edges, n = v.quiver.edges, v.quiver.vertex_count
    return [(v.mats[j], edges[j][1] == j) for j in (i % n for i in range(1, n + 1))]


def lift_truncated(v: Representation, D: int) -> Representation:
    """The unwinding of v restricted to positions 0..D.

    Position i carries the space at vertex i mod n, and the edge between
    i-1 and i is the crossing of ``_turn`` in that place.  D must be an
    int from 0 to ``LIFT_MAX_WINDOW``: a wrong type or a negative D raises
    ValidationError, a longer window ShapeError, before anything is built.
    """
    _check_window_cap(D)
    if D < 0:
        raise ValidationError(f"window length {D} is negative")
    check_type(v, Representation, "lift input")
    affine_of_quiver(v.quiver)  # a quiver that is no cycle raises ShapeError
    turn = _turn(v)
    n = len(turn)
    crossings = [turn[(i - 1) % n] for i in range(1, D + 1)]
    edges = tuple((i - 1, i) if fwd else (i, i - 1) for i, (_, fwd) in enumerate(crossings, 1))
    dims = tuple(v.dims[i % n] for i in range(D + 1))
    return Representation(Quiver(D + 1, edges), v.field, dims, tuple(m for m, _ in crossings))


def classify_lift(
    v: Representation, window: int | None = None
) -> tuple[int, dict[NClass, int], Barcode]:
    """Summand multiplicities of v and the window barcode they come from.

    Sweeps the window 0..D of the unwinding (D = ``default_window(v)`` if
    ``window`` is None) once, given one turn of the cycle's n crossings, and
    classifies the bars, those of ``barcode(lift_truncated(v, D))``; no
    window ``Representation`` is built.  d_inf counts full-window bars (Jordan
    cells unwind to copies of the two-sided infinite interval, one per
    Jordan-cell dimension) and classes maps the ``NClass`` of each
    wrapped interval to its multiplicity.  Each wrapped interval is
    counted once, by its unclipped translate starting in [1, n] and
    ending before D; a bar touching a window boundary is a clipped
    translate and a bar starting past n a repeated one, and both are
    dropped.  Any other bar of length (dim at x_0 + 1) * n or more is no
    translate at all and raises InternalCheckError.

    This is the one place a window length is checked: it must be a
    multiple of n and at least ``default_window(v)``, since a shorter
    window can clip every translate of a wrapped interval and silently
    report wrong classes, and at most ``LIFT_MAX_WINDOW``.  Each failure
    raises ShapeError before anything is lifted; a window that is not an
    int (a bool included), or a v that is not a Representation, raises
    ValidationError.
    """
    return _classified(v, default_window(v), window)


def _classified(v: Representation, bound: int,
                window: int | None) -> tuple[int, dict[NClass, int], Barcode]:
    """``classify_lift(v, window)`` for v on a resolved cycle whose
    ``default_window`` is ``bound``."""
    n = v.quiver.vertex_count
    D = bound if window is None else window
    _check_window_cap(D)
    if D % n != 0:
        raise ShapeError(f"window length {D} must be a multiple of n={n}")
    if D < bound:
        raise ShapeError(
            f"window length {D} is below {bound} = (dim at x_0 + 2) * n, "
            "the shortest window that certifies every summand"
        )
    bar = _bars(v.field, v.dims * (D // n) + v.dims[:1], _turn(v))
    clip_bound = (v.dims[0] + 1) * n
    d_inf = 0
    classes: dict[NClass, int] = {}
    for iv, mult in bar:
        lo, hi = iv.lo, iv.hi
        if lo == 0 and hi == D:
            d_inf += mult
        elif hi - lo >= clip_bound:
            raise InternalCheckError(
                f"bar [{lo},{hi}] is too long to be a wrapped-interval translate"
            )
        elif 1 <= lo <= n and hi < D:
            u = lo % n
            key = NClass(u, u + hi - lo)
            classes[key] = classes.get(key, 0) + mult
    return d_inf, classes, bar


def eta_from_lift(v: Representation) -> HNReport:
    """Euler HN data of an affine representation, via its unwinding.

    Groups the recovered wrapped-interval classes by Euler slope; the
    quotient at each nonzero slope is the sum of those classes'
    dimension vectors, and the slope-0 quotient additionally absorbs one
    unit everywhere per full-window bar (Jordan cells are slope 0 with
    constant dimension vector).  The zero representation has no classes
    and gets the empty report.
    """
    check_type(v, Representation, "lift input")
    return _eta(v, affine_of_quiver(v.quiver))


def _eta(v: Representation, aq: AffineQuiver) -> HNReport:
    """``eta_from_lift(v)`` for v on the cycle ``aq``, resolved already."""
    d_inf, classes, _ = _classified(v, _least_window(v, aq), None)
    n = aq.n
    parts = [
        (euler_slope_N(aq, c.u, c.v), tuple(mult * d for d in wrap_counts(n, c.u, c.v)))
        for c, mult in classes.items()
    ]
    if d_inf:
        parts.append((Fraction(0), (d_inf,) * n))
    report = HNReport.merged(v.quiver, parts)
    if report.total_dims() != v.dims:
        raise InternalCheckError("lift-derived HN data does not sum to the input dims")
    return report


def _recovery(rep: HNReport, aq: AffineQuiver) -> Callable[[int, int], int | None]:
    """``recover_N_multiplicities`` on ``aq``, the cycle of ``rep``, as a function of
    an on-cycle (u, v); it returns None for a p = 1 class.

    It builds no class and no slope: the steps are keyed by the numerator
    and denominator of their slopes, and the slope (1 - p) / (v - u + 1) of
    a p != 1 class has numerator 1 - p = +-1, so (1 - p, v - u + 1) is
    already in lowest terms.  p is ``p_value``'s count, unchecked.
    """
    steps = {(sl.numerator, sl.denominator): dims for sl, dims in rep.steps}

    def recovered(u: int, v: int) -> int | None:
        p = _edges_into(aq, u, v)
        if p == 1:
            return None
        dims = steps.get((1 - p, v - u + 1))
        return 0 if dims is None else dims[u] - dims[u - 1]

    return recovered


def recover_N_multiplicities(rep: HNReport, u: int, v: int) -> int:
    """Multiplicity of the wrapped interval [u, v] from HN data, p != 1 only.

    The cycle is read off the report's quiver, so it cannot disagree with
    the data.  At the step whose slope matches the class, consecutive
    residues of the quotient dimension vector differ exactly by the
    multiplicity; slope-0 classes (p = 1) are blended together and cannot
    be separated this way.  ``u`` must lie in [0, n-1], as ``p_value``
    checks.
    """
    check_type(rep, HNReport, "HN report")
    aq = affine_of_quiver(rep.quiver)
    NClass(u, v).on_cycle(aq.n)
    got = _recovery(rep, aq)(u, v)
    if got is None:
        raise ValidationError("p = 1 classes have slope 0 and are not recoverable")
    return got
