"""Acceptance suite: one test per criterion, each printing a pass line.

Everything is exact arithmetic, so every comparison below is equality;
the only tolerances are the wall-clock budgets, asserted as stated.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import functools
import os
import random
import time
import timeit

from hnzz.affine import (
    CCW,
    CW,
    AffineQuiver,
    classify_lift,
    default_window,
    eta_from_lift,
    euler_slope_N,
    indec_N,
    indec_T,
    p_value,
    to_quiver,
)
from hnzz import campaign, linalg
from hnzz.generators import gen_affine, gen_persistence, random_orientation
from hnzz.hn import (
    ENUM_MAX_DIM,
    ORACLE_MAX_TOTAL_DIM,
    _decoded,
    hn_bruteforce,
    is_semistable,
    recover_barcode_via_truncations,
)
from hnzz.linalg import GF, Matrix, random_invertible_rng
from hnzz.quiver import conjugate, direct_sum, euler_stability, slope_of_dims
from hnzz.serialize import instance_to_json, load_json
from hnzz.zigzag import barcode

from conftest import mixed_orientations, restricted

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
EX6 = AffineQuiver(6, (CW, CW, CW, CCW, CW, CW))


def report(num: int, label: str, start: float, budget: float) -> None:
    elapsed = time.perf_counter() - start
    print(f"criterion {num} PASS ({elapsed:.2f}s / budget {budget:.0f}s): {label}")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def test_criterion_1_running_example_golden():
    start = time.perf_counter()
    fld = GF(5)
    wrapped = indec_N(EX6, 1, 9, fld)
    jordan = indec_T(EX6, 2, 3, fld)

    assert wrapped.dims == (1, 2, 2, 2, 1, 1)
    assert jordan.dims == (3, 3, 3, 3, 3, 3)
    assert wrapped.mats[1] == Matrix(fld, [[0], [1]])
    assert wrapped.mats[4] == Matrix(fld, [[1, 0]])
    assert jordan.mats[0] == Matrix(fld, [[2, 1, 0], [0, 2, 1], [0, 0, 2]])

    # bit-exact against the stored golden files
    assert instance_to_json(wrapped, EX6) == load_json(
        os.path.join(GOLDEN_DIR, "affine6_wrapped_interval.json")
    )
    assert instance_to_json(jordan, EX6) == load_json(
        os.path.join(GOLDEN_DIR, "affine6_jordan_cell.json")
    )

    eps = euler_stability(to_quiver(EX6))
    assert euler_slope_N(EX6, 1, 9) == 0
    assert slope_of_dims(wrapped.dims, eps) == 0
    assert slope_of_dims(jordan.dims, eps) == 0
    report(1, "running-example constructions are bit-exact", start, 1.0)


def nonzero_cases(draw, seed, count):
    """The first ``count`` nonzero instances of a campaign draw from one seed."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        case = draw(rng)
        if case.rep.total_dim():
            out.append(case)
    return out


@functools.lru_cache(maxsize=1)
def theorem_a_cases():
    """200 seeded path modules within the oracle guard, conjugated; each
    edge points either way."""
    return nonzero_cases(campaign.draw_a, 20_240_001, 200)


def draw_equioriented(rng):
    """``campaign.draw_a`` on the equioriented path only: truncation
    recovery reads Theorem A's slopes 1/(j+1) off the left end."""
    p = rng.choice(tuple(ORACLE_MAX_TOTAL_DIM))
    rep, truth = gen_persistence(
        rng.randint(1, 5), GF(p), 4, rng, min_summands=1, total_cap=ORACLE_MAX_TOTAL_DIM[p],
        vertex_cap=ENUM_MAX_DIM,
    )
    return campaign.Case(rep, truth)


def test_criterion_2_theorem_a_suite():
    start = time.perf_counter()
    cases = theorem_a_cases()
    assert len(cases) == 200
    # most draws are zigzags: some edge points left
    assert sum(any(s > t for s, t in case.rep.quiver.edges) for case in cases) > 100
    for case in cases:
        assert campaign.check_a(case) is None
    report(2, "barcode fast path matches the oracle on 200 modules", start, 60.0)


def test_criterion_3_truncation_recovery():
    start = time.perf_counter()
    cases = nonzero_cases(draw_equioriented, 20_240_001, 200)
    for case in cases:
        assert recover_barcode_via_truncations(case.rep) == barcode(case.rep)
    report(3, "truncation recursion rebuilds 200 barcodes", start, 60.0)


def test_criterion_3_decoder_reads_oracle_reports():
    # the recovery's decoder reads only reports: handed the oracle's Euler
    # report of each right truncation, it rebuilds the barcode as well
    start = time.perf_counter()
    for case in nonzero_cases(draw_equioriented, 20_240_001, 200):
        v, n = case.rep, case.rep.quiver.vertex_count
        cuts = [restricted(v, k, n - 1) for k in range(n)]
        reports = [hn_bruteforce(cut, euler_stability(cut.quiver)) for cut in cuts]
        assert _decoded(reports) == barcode(v)
    report(3, "decoder rebuilds 200 barcodes from the oracle's reports", start, 60.0)


def test_criterion_4_slope_formula_exhaustive():
    start = time.perf_counter()
    fld = GF(2)
    cases = 0
    for n in (2, 3, 4, 5):
        for bits in mixed_orientations(n):
            aq = AffineQuiver(n, bits)
            eps = euler_stability(to_quiver(aq))
            for u in range(n):
                for length in range(3 * n):
                    v = u + length
                    direct = slope_of_dims(indec_N(aq, u, v, fld).dims, eps)
                    formula = euler_slope_N(aq, u, v)
                    assert formula == direct
                    p = p_value(aq, u, v)
                    assert (formula > 0) == (p == 0)
                    assert (formula == 0) == (p == 1)
                    assert (formula < 0) == (p == 2)
                    cases += 1
    report(4, f"slope formula and sign agree on {cases} exhaustive cases", start, 30.0)


def test_criterion_5_lift_multiplicity_suite():
    start = time.perf_counter()
    rng = random.Random(20_240_005)
    done = 0
    while done < 100:
        n = rng.randint(2, 6)
        fld = GF(rng.choice((2, 3, 5)))
        aq, rep, truth_n, truth_t = gen_affine(
            n, fld, 3, rng, min_summands=1, max_len=3 * n - 1
        )
        if rep.total_dim() == 0:
            continue
        d_inf, classes = classify_lift(rep)[:2]
        assert classes == truth_n
        assert d_inf == sum(c.w * m for c, m in truth_t.items())
        bumped = default_window(rep) + aq.n
        assert classify_lift(rep, bumped)[:2] == (d_inf, classes)
        done += 1
    report(5, "lift multiplicities match construction on 100 mixtures", start, 120.0)


def test_criterion_6_theorem_b_suite():
    start = time.perf_counter()
    cases = nonzero_cases(campaign.draw_b, 20_240_006, 100)
    assert len(cases) == 100
    for case in cases:
        assert campaign.check_b(case) is None
    report(6, "lift-derived HN equals the oracle on 100 mixtures", start, 600.0)


def test_criterion_7_semistability_of_indecomposables():
    start = time.perf_counter()
    checked = 0
    for n in (2, 3, 4):
        for bits in mixed_orientations(n):
            aq = AffineQuiver(n, bits)
            eps = euler_stability(to_quiver(aq))
            for p in (2, 3):
                fld = GF(p)
                cap = ORACLE_MAX_TOTAL_DIM[p]
                for u in range(n):
                    for length in range(cap):
                        if length + 1 > cap:
                            continue
                        assert is_semistable(indec_N(aq, u, u + length, fld), eps)
                        checked += 1
                for lam in range(1, p):
                    for w in range(1, cap // n + 1):
                        assert is_semistable(indec_T(aq, lam, w, fld), eps)
                        checked += 1
    report(7, f"all {checked} guarded indecomposables are semistable", start, 300.0)


def _scaling_instance(n: int, seed: int):
    """Fixed summand template scaled with n: max vertex dimension 6 over GF(3)."""
    rng = random.Random(seed)
    bits = list(random_orientation(n, rng))
    aq = AffineQuiver(n, tuple(bits))
    fld = GF(3)
    rep = direct_sum(
        indec_N(aq, 1, 1 + 3 * n + 2, fld),  # winds three times: dims 3..4
        indec_T(aq, 1, 2, fld),
    )
    bases = [random_invertible_rng(d, fld, rng) for d in rep.dims]
    return conjugate(rep, bases)


def _loops_lasting(timer: timeit.Timer, seconds: float) -> int:
    """The fewest loops, doubling from 1, that one ``timer`` sample needs to last ``seconds``."""
    loops = 1
    while timer.timeit(loops) < seconds:
        loops *= 2
    return loops


def test_criterion_8_scaling_smoke(count_calls):
    start = time.perf_counter()
    sizes = (50, 100)
    reps = {n: [_scaling_instance(n, seed) for seed in (1, 2)] for n in sizes}
    assert all(max(rep.dims) <= 6 for n in sizes for rep in reps[n])
    # one pass lifts both instances of a size in 0.02-0.06 s, too short to
    # time alone: a sample repeats the pass until it lasts 0.1 s and reads
    # the time per pass.  Each repeat times n=50 then n=100, so host speed
    # drift hits both alike, and the best of 7 keeps the ratio steady.
    # The timers read process CPU time, so another process on a shared
    # host cannot push the ratio over the bound
    timers = {
        n: timeit.Timer(lambda n=n: [eta_from_lift(rep) for rep in reps[n]], timer=time.process_time)
        for n in sizes
    }
    loops = {n: _loops_lasting(timers[n], 0.1) for n in sizes}
    timings = dict.fromkeys(sizes, float("inf"))
    for _ in range(7):
        for n in sizes:
            timings[n] = min(timings[n], timers[n].timeit(loops[n]) / loops[n])
    ratio = timings[100] / timings[50]
    # the same envelope on a count that does not drift: eliminations run
    calls = count_calls(linalg, "_gauss_jordan")
    eliminations = {}
    for n in sizes:
        calls.clear()
        for rep in reps[n]:
            eta_from_lift(rep)
        eliminations[n] = len(calls)
    count_ratio = eliminations[100] / eliminations[50]
    print(
        f"  scaling: t(50)={timings[50]:.3f}s t(100)={timings[100]:.3f}s ratio={ratio:.2f}; "
        f"eliminations {eliminations[50]} -> {eliminations[100]} ratio={count_ratio:.2f}"
    )
    assert ratio <= 2.5, f"doubling n scaled runtime by {ratio:.2f} (> 2.5)"
    assert eliminations[50] > 0
    assert count_ratio <= 2.5, f"doubling n scaled eliminations by {count_ratio:.2f} (> 2.5)"
    report(8, "doubling the cycle length stays within the 2.5x envelope", start, 300.0)


def test_lift_window_decides_each_crossing_once(count_calls):
    # the barcode sweep keeps both nested chains as one flag, and the window
    # repeats the cycle's 100 crossings.  Per place in the cycle, once: 98
    # of them are square bijections in two runs of square crossings, of 96
    # (5 x 5) and 2 (6 x 6) edges, and each run is decided and composed in
    # one pass: one [B | X] solve per stretch of left-pointing edges (27
    # and 1) and one rank of the product for the right-pointing ones, 30
    # eliminations, and 70 products.  The two 6 x 5 edges cost a rank
    # (pointing right, injective) and 4 preimages (pointing left), and 4
    # completions run.  The sweep stops once its marks repeat one cycle
    # later, so 39 eliminations run over 701 window positions (107 with
    # one rank or [m | I] reduction per square crossing).  Flags that are
    # not trivial cross the runs and the injective edge by 11 products, 81
    # in all (300 at one product per bijective crossing).  A change may
    # lower these pins, never raise them
    rep = _scaling_instance(100, 1)
    positions = default_window(rep) + 1
    calls = count_calls(linalg, "_gauss_jordan")
    products = count_calls(linalg.PrimeField, "product")
    eta_from_lift(rep)
    print(f"  {len(calls)} eliminations and {len(products)} products over {positions} window positions")
    assert (len(calls), positions) == (39, 701)
    assert len(products) == 81
