"""The fast HN route and the dual-path campaign that certifies it.

``fast_report`` is the one place that decides the fast route, from the
quiver and the weights' values: under the Euler weights, Theorem A reads
the HN filtration of a path of any orientation off its barcode
(``hn_from_barcode``) and Theorem B that of an affine cycle off the
barcode of its unwinding (``eta_from_lift``).  ``hnzz hn`` and both
checks call it.  Each theorem has one instance draw and one check,
shared by ``hnzz verify`` and the acceptance suite; a check returns None
or a one-line description of the first disagreement with
``hn_bruteforce``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .affine import (
    AffineQuiver,
    NClass,
    _eta,
    _recovery,
    affine_of_quiver,
)
from .errors import (GuardError, InternalCheckError, ShapeError, ValidationError, check_counts,
                     check_ints, check_type, shown)
from .generators import gen_affine, gen_persistence
from .hn import ENUM_MAX_DIM, ORACLE_MAX_TOTAL_DIM, HNReport, hn_bruteforce, hn_from_barcode
from .linalg import GF
from .quiver import Quiver, Representation, StabilityCondition, _euler_weights, euler_stability
from .serialize import instance_to_json
from .zigzag import Barcode, Interval, barcode, is_path


def _cycle(q: Quiver) -> AffineQuiver | None:
    """The affine cycle that ``q`` is, or None if it is none."""
    try:
        return affine_of_quiver(q)
    except ShapeError:
        return None


def fast_report(rep: Representation, alpha: StabilityCondition) -> HNReport | None:
    """HN report of ``rep`` under ``alpha`` by the fast route; None if none applies.

    The shape is resolved once, and the cycle it finds is handed to the
    lift route; the weights are compared with the integer Euler weights
    1 - in_degree, so no second ``StabilityCondition`` is built.  An input
    of the wrong type raises ValidationError.
    """
    check_type(rep, Representation, "HN input")
    check_type(alpha, StabilityCondition, "stability condition")
    q = rep.quiver
    cycle = _cycle(q)
    if (cycle is None and not is_path(q)) or alpha.weights != tuple(_euler_weights(q)):
        return None
    return _eta(rep, cycle) if cycle is not None else hn_from_barcode(barcode(rep), q)


@dataclass(frozen=True)
class Case:
    """One drawn instance and its summands: intervals (A) or wrapped intervals (B)."""

    rep: Representation
    summands: dict[Interval, int] | dict[NClass, int]


def _field_and_cap(rng: random.Random):
    """GF(2) or GF(3), with the oracle's total-dimension guard for it."""
    check_type(rng, random.Random, "random source")
    p = rng.choice(tuple(ORACLE_MAX_TOTAL_DIM))
    return GF(p), ORACLE_MAX_TOTAL_DIM[p]


def draw_a(rng: random.Random) -> Case:
    """An interval sum on a path of 1 to 5 vertices, each edge pointing either way."""
    fld, cap = _field_and_cap(rng)
    n = rng.randint(1, 5)
    q = Quiver(n, tuple((k, k + 1) if rng.random() < 0.5 else (k + 1, k) for k in range(n - 1)))
    rep, truth = gen_persistence(
        n, fld, 4, rng, quiver=q, min_summands=1, total_cap=cap, vertex_cap=ENUM_MAX_DIM
    )
    return Case(rep, truth)


def draw_b(rng: random.Random) -> Case:
    fld, cap = _field_and_cap(rng)
    n = rng.randint(2, 5)
    _, rep, truth_n, _ = gen_affine(
        n, fld, 3, rng, min_summands=1, total_cap=cap, vertex_cap=ENUM_MAX_DIM, max_len=2 * n
    )
    return Case(rep, truth_n)


def _euler_oracle(rep: Representation) -> HNReport | None:
    """The oracle's Euler report, or None when ``fast_report`` gives another."""
    alpha = euler_stability(rep.quiver)
    oracle = hn_bruteforce(rep, alpha)
    return oracle if fast_report(rep, alpha) == oracle else None


def check_a(case: Case) -> str | None:
    check_type(case, Case, "Theorem A case")
    oracle = _euler_oracle(case.rep)
    if oracle is None:
        return "hn_from_barcode differs from the oracle"
    if hn_from_barcode(Barcode.from_dict(case.summands), case.rep.quiver) != oracle:
        return "the closed form of the drawn summands differs from the oracle"
    return None


def check_b(case: Case) -> str | None:
    check_type(case, Case, "Theorem B case")
    aq = affine_of_quiver(case.rep.quiver)
    report = _euler_oracle(case.rep)
    if report is None:
        return "eta_from_lift differs from the oracle"
    # every summand class and every other class shorter than 2n, as (u, v)
    # pairs in order; slope-0 (p = 1) classes blend together and are not
    # recoverable
    truth = {(cls.u, cls.v): mult for cls, mult in case.summands.items()}
    recovered = _recovery(report, aq)
    for u, v in sorted(truth.keys() | {(u, u + k) for u in range(aq.n) for k in range(2 * aq.n)}):
        if u >= aq.n:
            NClass(u, v).on_cycle(aq.n)  # a summand class off the cycle: ValidationError
        got = recovered(u, v)
        if got is not None and got != truth.get((u, v), 0):
            return f"N({u},{v}) recovered {got} times, built {truth.get((u, v), 0)}"
    return None


THEOREMS = {"a": (draw_a, check_a), "b": (draw_b, check_b)}


@dataclass
class Tally:
    passed: int = 0
    failed: int = 0
    first_bad: dict | None = None  # instance JSON of the first failing case
    first_reason: str | None = None


def run(theorem: str, cases: int, seed: int) -> Tally:
    """Draw ``cases`` instances from one ``random.Random(seed)`` and check each."""
    check_type(theorem, str, "theorem")
    if theorem not in THEOREMS:
        raise ValidationError(f"theorem {shown(theorem)} is not one of {sorted(THEOREMS)}")
    check_counts((cases,), "campaign size")
    check_ints((seed,), "campaign seed")
    draw, check = THEOREMS[theorem]
    rng = random.Random(seed)
    tally = Tally()
    for _ in range(cases):
        case = draw(rng)
        try:
            reason = check(case)
        except (InternalCheckError, ValidationError, ShapeError, GuardError) as exc:
            # only this case fails, so the tally still counts and shows it
            reason = f"{type(exc).__name__}: {exc}"
        if reason is None:
            tally.passed += 1
            continue
        tally.failed += 1
        if tally.first_bad is None:
            tally.first_bad = instance_to_json(case.rep, _cycle(case.rep.quiver))
            tally.first_reason = reason
    return tally
