"""Deterministic random instance generation.

Instances are direct sums of indecomposables with a known summand
multiset, conjugated vertexwise by random invertible bases.  The summand
multiset is returned alongside, so every generated instance certifies its
own barcode / lift multiplicities.  All randomness flows through the
caller's ``random.Random``, making outputs reproducible per seed.
"""

from __future__ import annotations

import random
from typing import Hashable, Iterable

from .affine import AffineQuiver, CCW, CW, NClass, TClass, indec_N, indec_T, to_quiver
from .errors import GuardError, ValidationError, check_counts, check_ints, check_type, shown
from .linalg import Field, PrimeField, random_invertible_rng
from .quiver import Quiver, Representation, conjugate, direct_sum, zero_representation
from .zigzag import Interval, interval_module, path_steps

# Input caps.  On a 2-core Xeon VM, n = 1,000 with 16 summands built in
# 0.5-7 s and 64 summands at n = 60 in 6 s; work grows with both at once.
GEN_MAX_N = 1_000
GEN_MAX_SUMMANDS = 64


def _check_gen_size(n: int, min_summands: int, max_summands: int, caps: tuple) -> None:
    """GuardError for an ``n`` or ``max_summands`` past its cap; ValidationError for a
    negative or non-int size or cap (None is none), or ``min_summands`` > ``max_summands``."""
    caps = [c for c in caps if c is not None]
    check_counts((n, min_summands, max_summands, *caps), "generator size")
    if min_summands > max_summands:
        raise ValidationError(f"min_summands {min_summands} exceeds max_summands {max_summands}")
    if n > GEN_MAX_N or max_summands > GEN_MAX_SUMMANDS:
        raise GuardError(
            f"generator guard exceeded (n={shown(n)}, max_summands={shown(max_summands)}; "
            f"limits n<={GEN_MAX_N}, max_summands<={GEN_MAX_SUMMANDS})"
        )


def equioriented_quiver(n: int) -> Quiver:
    check_ints((n,), "path length")
    return Quiver(n, tuple((k, k + 1) for k in range(n - 1)))


def random_orientation(n: int, rng: random.Random) -> tuple[int, ...]:
    """A uniformly random acyclic orientation of the n-cycle."""
    check_ints((n,), "cycle length")
    check_type(rng, random.Random, "random source")
    if n < 2:
        raise ValidationError("an acyclic orientation needs a cycle of at least two vertices")
    while True:
        bits = tuple(rng.choice((CW, CCW)) for _ in range(n))
        if len(set(bits)) > 1:
            return bits


def _capped_sum(
    q: Quiver,
    fld: Field,
    summands: Iterable[tuple[Hashable, Representation]],
    rng: random.Random,
    total_cap: int | None,
    vertex_cap: int | None,
) -> tuple[Representation, dict]:
    """Conjugated direct sum of the (key, module) summands, with each kept key's count.

    A summand whose addition would push the total (or some vertex) past
    its cap is skipped, which keeps instances inside oracle guards.  The
    summands are drawn in turn, then the conjugating bases.
    """
    rep = zero_representation(q, fld)
    kept: dict = {}
    for key, summand in summands:
        cand = direct_sum(rep, summand)
        if total_cap is not None and cand.total_dim() > total_cap:
            continue
        if vertex_cap is not None and max(cand.dims) > vertex_cap:
            continue
        rep = cand
        kept[key] = kept.get(key, 0) + 1
    bases = [random_invertible_rng(d, fld, rng) for d in rep.dims]
    return conjugate(rep, bases), kept


def gen_persistence(
    n: int,
    fld: Field,
    max_summands: int,
    rng: random.Random,
    *,
    quiver: Quiver | None = None,
    min_summands: int = 0,
    total_cap: int | None = None,
    vertex_cap: int | None = None,
) -> tuple[Representation, dict[Interval, int]]:
    """Conjugated random interval sum on ``quiver``, a path on n vertices
    (by default the equioriented one), capped as ``_capped_sum`` says.
    ``n`` is refused below 1, and ``n`` and ``max_summands`` past
    ``GEN_MAX_N`` and ``GEN_MAX_SUMMANDS``; ``quiver`` is refused unless it
    is a path (``path_steps``) on n vertices, before anything is drawn."""
    _check_gen_size(n, min_summands, max_summands, (total_cap, vertex_cap))
    if n < 1:
        raise ValidationError("a persistence path needs at least one vertex")
    check_type(rng, random.Random, "random source")
    q = equioriented_quiver(n) if quiver is None else quiver
    path_steps(q)
    if q.vertex_count != n:
        raise ValidationError(f"quiver has {q.vertex_count} vertices, not n = {n}")

    def draw() -> tuple[Interval, Representation]:
        lo = rng.randrange(n)
        iv = Interval(lo, rng.randint(lo, n - 1))
        return iv, interval_module(q, iv, fld)

    count = rng.randint(min_summands, max_summands)
    return _capped_sum(q, fld, (draw() for _ in range(count)), rng, total_cap, vertex_cap)


def gen_affine(
    n: int,
    fld: Field,
    max_summands: int,
    rng: random.Random,
    *,
    min_summands: int = 0,
    total_cap: int | None = None,
    vertex_cap: int | None = None,
    max_len: int | None = None,
) -> tuple[AffineQuiver, Representation, dict[NClass, int], dict[TClass, int]]:
    """Conjugated random sum of wrapped-interval and Jordan-cell summands.

    The cycle's orientation is drawn first.  Jordan eigenvalues are
    uniform over the nonzero field elements (over the rationals, over the
    nonzero integers in [-9, 9]); Jordan block sizes are 1 or 2.  ``n``
    and ``max_summands`` are refused past ``GEN_MAX_N`` and
    ``GEN_MAX_SUMMANDS``.
    """
    _check_gen_size(n, min_summands, max_summands, (total_cap, vertex_cap, max_len))
    aq = AffineQuiver(n, random_orientation(n, rng))
    q = to_quiver(aq)
    if max_len is None:
        max_len = 3 * n - 1

    def draw() -> tuple[NClass | TClass, Representation]:
        if rng.random() < 0.6:
            u = rng.randrange(n)
            v = u + rng.randint(0, max_len)
            return NClass(u, v), indec_N(aq, u, v, fld)
        if isinstance(fld, PrimeField):
            lam = fld.coerce(rng.randint(1, fld.p - 1))
        else:
            lam = fld.coerce(rng.choice([x for x in range(-9, 10) if x]))
        w = rng.randint(1, 2)
        return TClass(lam, w), indec_T(aq, lam, w, fld)

    count = rng.randint(min_summands, max_summands)
    rep, kept = _capped_sum(q, fld, (draw() for _ in range(count)), rng, total_cap, vertex_cap)
    truth_n = {key: m for key, m in kept.items() if isinstance(key, NClass)}
    truth_t = {key: m for key, m in kept.items() if isinstance(key, TClass)}
    return aq, rep, truth_n, truth_t
