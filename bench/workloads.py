"""Seeded instance generation, request lists and output checks per workload.

A workload's ``setup(seed, dirpath)`` writes its instance files (plus
ground-truth sidecars) through ``hnzz gen``, ``hnzz.generators`` and the
public constructors, and returns one round of requests.  The program
under test only ever sees the JSON files named in each request's argv.
Every request carries a check that compares the output against the
generator's truth or against the oracle; a check returns None when the
output is right and a one-line description of the problem otherwise.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from hnzz import affine, cli, generators, hn, linalg, quiver, serialize, zigzag

Check = Callable[[int, str, object], "str | None"]


@dataclass
class Request:
    kind: str  # the subcommand: barcode, hn, lift or verify
    argv: list[str]
    out: str | None  # the --out file, read back for the check
    check: Check


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[int, Path], list[Request]]
    # seconds of --seconds per round: a run makes round(--seconds / round_s)
    # rounds.  lift-long's requests are the longest, so the host's drift
    # during one of them is the least corrected; it gets 6 rounds at the
    # default 25 s, the others 5.
    round_s: float = 5.0


class SetupError(RuntimeError):
    """Instance generation failed; the program cannot be benchmarked."""


# ---------------------------------------------------------------------------
# truth -> expected output
# ---------------------------------------------------------------------------


def _path_truth_hn(q, intervals: dict) -> list[dict]:
    bar = zigzag.Barcode.from_dict(dict(intervals))
    return serialize.hn_to_json(hn.hn_from_barcode(bar, q))


def _affine_truth_hn(aq, summands: list[dict]) -> list[dict]:
    """Euler HN steps of a sum of known summands (the eta_from_lift grouping)."""
    n = aq.n
    groups: dict[Fraction, list[int]] = {}
    for s in summands:
        if s["type"] == "N":
            sl = affine.euler_slope_N(aq, s["u"], s["v"])
            dims = affine.wrap_counts(n, s["u"], s["v"])
        else:
            sl, dims = Fraction(0), (s["w"],) * n
        acc = groups.setdefault(sl, [0] * n)
        for j, d in enumerate(dims):
            acc[j] += s["mult"] * d
    return [
        {"slope": str(sl), "quotient_dims": groups[sl]} for sl in sorted(groups, reverse=True)
    ]


def _truth_lift(summands: list[dict]) -> tuple[int, list[dict]]:
    d_inf = sum(s["w"] * s["mult"] for s in summands if s["type"] == "T")
    classes = sorted(
        (s["u"], s["v"] - s["u"], s["mult"]) for s in summands if s["type"] == "N"
    )
    return d_inf, [{"u": u, "len": ln, "mult": m} for u, ln, m in classes]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _expect_exit0(rc: int) -> str | None:
    return None if rc == 0 else f"exit code {rc}"


def check_barcode(intervals: dict) -> Check:
    want = [{"lo": iv.lo, "hi": iv.hi, "mult": m} for iv, m in sorted(intervals.items())]

    def check(rc, stdout, doc):
        if rc:
            return _expect_exit0(rc)
        return None if doc["barcode"] == want else "barcode differs from the truth intervals"

    return check


def check_hn(expected: Callable[[], list[dict]], oracle: bool = False) -> Check:
    """Compare the report with ``expected()`` (computed once, on first use)."""
    memo: list = []

    def check(rc, stdout, doc):
        if rc:
            return _expect_exit0(rc)
        if not memo:
            memo.append(expected())
        if oracle and doc.get("oracle_agrees") is not True:
            return "oracle_agrees is not true"
        return None if doc["hn"] == memo[0] else "hn report differs from the expected one"

    return check


def check_lift(summands: list[dict], window_mass: int) -> Check:
    d_inf, classes = _truth_lift(summands)

    def check(rc, stdout, doc):
        if rc:
            return _expect_exit0(rc)
        if doc["d_inf"] != d_inf:
            return f"d_inf {doc['d_inf']} != truth {d_inf}"
        if doc["classes"] != classes:
            return "lift classes differ from the truth summands"
        mass = sum(b["mult"] * (b["hi"] - b["lo"] + 1) for b in doc["barcode"])
        if mass != window_mass:
            return f"window barcode covers {mass} dimensions, the window has {window_mass}"
        return None

    return check


def check_verify(rc, stdout, doc):
    if rc:
        return _expect_exit0(rc)
    return None if ", 0 failed of " in stdout else "verify reported failed cases"


# ---------------------------------------------------------------------------
# shared instance writers
# ---------------------------------------------------------------------------


def _write_instance(path: Path, rep, aq=None, **truth) -> None:
    serialize.write_json(str(path), serialize.instance_to_json(rep, aq))
    serialize.write_json(str(path) + ".truth.json", serialize.truth_to_json(rep.field, **truth))


def _affine_requests(path: Path, aq, dims, summands) -> list[Request]:
    """A lift and an Euler hn request on one affine instance file."""
    out = str(path) + ".out"
    window_mass = sum(dims[i % aq.n] for i in range((dims[0] + 2) * aq.n + 1))
    return [
        Request("lift", ["lift", str(path), "--out", out], out, check_lift(summands, window_mass)),
        Request(
            "hn",
            ["hn", str(path), "--out", out],
            out,
            check_hn(lambda: _affine_truth_hn(aq, summands)),
        ),
    ]


# ---------------------------------------------------------------------------
# lift-long
# ---------------------------------------------------------------------------

PROBE_SIZES = (100, 200)
# scripts/scaling_probe.py's default seed: the ROADMAP baseline instances.
# The probe seed picks the cycle's orientation, and the cost of a lift
# follows it: with the benchmark seed as probe seed, the work per run
# swung by about 10% from seed to seed.
PROBE_SEED = 1
GEN_AFFINE_SEED = 3


def probe_instance(n: int, seed: int):
    """The scripts/scaling_probe.py template: same construction, same rng use.

    One wrapped interval winding three times plus a size-2 Jordan cell
    with eigenvalue 1, over GF(3), conjugated by random bases.  Returns
    the quiver, the representation and the truth summands.
    """
    rng = random.Random(seed)
    aq = affine.AffineQuiver(n, generators.random_orientation(n, rng))
    fld = linalg.GF(3)
    rep = quiver.direct_sum(affine.indec_N(aq, 1, 1 + 3 * n + 2, fld), affine.indec_T(aq, 1, 2, fld))
    bases = [linalg.random_invertible_rng(d, fld, rng) for d in rep.dims]
    truth_n = {affine.NClass(1, 1 + 3 * n + 2): 1}
    truth_t = {affine.TClass(1, 2): 1}
    return aq, quiver.conjugate(rep, bases), truth_n, truth_t


def _gen_affine_file(path: Path) -> tuple[dict, list[dict]]:
    """``hnzz gen --kind affine --n 40 --seed 3 --field 3 --max-summands 6``.

    The ROADMAP's baseline instance (dimension 8 or 9 at every vertex, a
    400-position window).  Its gen seed stays fixed: other gen seeds give
    anything from the zero module to dimension 12 per vertex, which would
    make the work per run depend on the benchmark seed.
    """
    argv = ["gen", "--kind", "affine", "--n", "40", "--seed", str(GEN_AFFINE_SEED),
            "--field", "3", "--max-summands", "6", "--out", str(path)]
    if cli.main(argv) != 0:
        raise SetupError("hnzz gen --kind affine failed")
    doc = serialize.load_json(str(path))
    return doc, serialize.load_json(str(path) + ".truth.json")["summands"]


def setup_lift_long(seed: int, d: Path) -> list[Request]:
    """The baseline probe instances, conjugated again by bases drawn from
    ``seed``, and the ROADMAP's gen instance."""
    rng = random.Random(seed)
    requests = []
    for n in PROBE_SIZES:
        aq, rep, truth_n, truth_t = probe_instance(n, PROBE_SEED)
        rep = _conjugated(rep, rng)
        path = d / f"probe{n}.json"
        _write_instance(path, rep, aq, n_classes=truth_n, t_classes=truth_t)
        summands = serialize.load_json(str(path) + ".truth.json")["summands"]
        requests += _affine_requests(path, aq, rep.dims, summands)
    path = d / "gen40.json"
    doc, summands = _gen_affine_file(path)
    aq = affine.AffineQuiver(40, tuple(doc["quiver"]["affine"]["orientation"]))
    requests += _affine_requests(path, aq, doc["dims"], summands)
    return requests


# ---------------------------------------------------------------------------
# shared: fixed structures, seeded bases
#
# The cost of a barcode sweep or of an oracle scan depends on the summand
# structure: the orientation, the interval layout and, for the oracle, the
# subrepresentation lattice, which is an isomorphism invariant.  Over a
# handful of instances that dependence swamps everything else, so the
# zigzag-rational and oracle-certify structures are drawn once from
# POOL_SEED and the benchmark seed draws the bases that conjugate them
# (plus the verify seeds).  Every seed then asks for about the same
# amount of work on different matrices.
# ---------------------------------------------------------------------------

POOL_SEED = 0


def _conjugated(rep, rng: random.Random):
    bases = [linalg.random_invertible_rng(d, rep.field, rng) for d in rep.dims]
    return quiver.conjugate(rep, bases)


def _unimodular(d: int, rng: random.Random):
    """Random integer matrix of determinant +-1 with small entries:
    permutation @ unit lower @ unit upper, off-diagonal entries in -2..2."""
    fld = linalg.QQ
    perm = list(range(d))
    rng.shuffle(perm)
    lower = [[1 if i == j else (rng.randint(-2, 2) if j < i else 0) for j in range(d)] for i in range(d)]
    upper = [[1 if i == j else (rng.randint(-2, 2) if j > i else 0) for j in range(d)] for i in range(d)]
    p = linalg.Matrix(fld, [[1 if perm[i] == j else 0 for j in range(d)] for i in range(d)], d)
    return p @ linalg.Matrix(fld, lower, d) @ linalg.Matrix(fld, upper, d)


def _interval_sum(q, truth: dict, fld):
    rep = quiver.zero_representation(q, fld)
    for iv, mult in sorted(truth.items()):
        for _ in range(mult):
            rep = quiver.direct_sum(rep, zigzag.interval_module(q, iv, fld))
    return rep


def _affine_summands(aq, truth_n: dict, truth_t: dict, fld) -> list:
    out = [(affine.indec_N(aq, c.u, c.v, fld), m) for c, m in truth_n.items()]
    out += [(affine.indec_T(aq, c.lam, c.w, fld), m) for c, m in truth_t.items()]
    return out


def _affine_sum(aq, truth_n: dict, truth_t: dict, fld):
    rep = quiver.zero_representation(affine.to_quiver(aq), fld)
    for summand, mult in _affine_summands(aq, truth_n, truth_t, fld):
        for _ in range(mult):
            rep = quiver.direct_sum(rep, summand)
    return rep


# ---------------------------------------------------------------------------
# zigzag-rational
# ---------------------------------------------------------------------------

ZZ_LENGTH, ZZ_SUMMANDS, ZZ_MAX_DIM, ZZ_TOTAL = 80, 14, 8, (385, 395)
ZZ_INSTANCES = 4
PERSISTENCE_INSTANCES, PERSISTENCE_TOTAL = 1, (200, 240)


def zigzag_structure(rng: random.Random):
    """A random-orientation path of 80 vertices and 14 intervals on it.

    Half the edges (40 of 79, shuffled) point right.  Intervals are drawn
    (length 8..48) until the dimension vector peaks at exactly 8 and sums
    to 385..395.  The seeded bases that conjugate these sums are
    unimodular: with ``random_invertible_rng`` bases (entries -9..9) the
    size of the rationals, and with it the sweep's cost, swings by about
    20% from seed to seed.
    """
    n = ZZ_LENGTH
    forward = [True] * (n // 2) + [False] * (n - 1 - n // 2)
    rng.shuffle(forward)
    edges = tuple((k, k + 1) if fwd else (k + 1, k) for k, fwd in enumerate(forward))
    while True:
        ivs = []
        for _ in range(ZZ_SUMMANDS):
            length = rng.randint(8, 48)
            lo = rng.randint(0, n - length)
            ivs.append(zigzag.Interval(lo, lo + length - 1))
        dims = [sum(1 for iv in ivs if iv.contains(x)) for x in range(n)]
        if max(dims) == ZZ_MAX_DIM and ZZ_TOTAL[0] <= sum(dims) <= ZZ_TOTAL[1]:
            break
    truth: dict = {}
    for iv in ivs:
        truth[iv] = truth.get(iv, 0) + 1
    return quiver.Quiver(n, edges), truth


def _gen_persistence_file(path: Path, rng: random.Random) -> dict:
    """``hnzz gen --kind persistence --field rational --n 60 --max-summands 16``,
    redrawn until the total dimension is 200..240: the cost of ``hn`` grows
    with it, from 0.03 s at 120 to 0.75 s at 300.  ``rng`` is the pool's,
    so every seed asks for the same draws and the same instance: with
    seeded draws, set-up time swung by a factor of 2 from seed to seed."""
    while True:
        argv = ["gen", "--kind", "persistence", "--n", "60", "--seed", str(rng.randrange(2**31)),
                "--field", "rational", "--max-summands", "16", "--out", str(path)]
        if cli.main(argv) != 0:
            raise SetupError("hnzz gen --kind persistence failed")
        total = sum(serialize.load_json(str(path))["dims"])
        if PERSISTENCE_TOTAL[0] <= total <= PERSISTENCE_TOTAL[1]:
            truth = serialize.load_json(str(path) + ".truth.json")["intervals"]
            return {zigzag.Interval(t["lo"], t["hi"]): t["mult"] for t in truth}


def setup_zigzag_rational(seed: int, d: Path) -> list[Request]:
    pool = random.Random(POOL_SEED)
    rng = random.Random(seed)
    requests = []
    for i in range(ZZ_INSTANCES):
        q, truth = zigzag_structure(pool)
        rep = _interval_sum(q, truth, linalg.QQ)
        rep = quiver.conjugate(rep, [_unimodular(d, rng) for d in rep.dims])
        path = d / f"zigzag{i}.json"
        _write_instance(path, rep, intervals=truth)
        out = str(path) + ".out"
        requests.append(Request("barcode", ["barcode", str(path), "--out", out], out, check_barcode(truth)))
    q = generators.equioriented_quiver(60)
    for i in range(PERSISTENCE_INSTANCES):
        path = d / f"persistence{i}.json"
        truth = _gen_persistence_file(path, pool)
        out = str(path) + ".out"
        requests.append(
            Request("hn", ["hn", str(path), "--out", out], out,
                    check_hn(lambda truth=truth: _path_truth_hn(q, truth)))
        )
    return requests


# ---------------------------------------------------------------------------
# oracle-certify
# ---------------------------------------------------------------------------

ORACLE_CAPS = {2: 8, 3: 6}  # the default oracle guard: total dimension per GF(p)
ORACLE_PATH_N, ORACLE_AFFINE_N = 4, 4
ORACLE_PER_KIND = 3
# vertex dimension 6 is left to the guard-edge instances: capping the
# others at 4 keeps them a cluster of similar 10-30 ms scans, and the
# median request of the workload falls inside that cluster
ORACLE_VERTEX_CAP = 4
GUARD_EDGE_DIMS = ((6, 2), (6, 2), (6, 1, 1))
VERIFY_CASES = 20


def _at_cap_path(p: int, rng: random.Random):
    """Interval structure on the equioriented 4-path, total dimension at the cap."""
    cap = ORACLE_CAPS[p]
    while True:
        rep, truth = generators.gen_persistence(
            ORACLE_PATH_N, linalg.GF(p), 6, rng, min_summands=2, total_cap=cap,
            vertex_cap=ORACLE_VERTEX_CAP,
        )
        if rep.total_dim() == cap:
            return rep.quiver, truth


def _at_cap_affine(p: int, rng: random.Random):
    """Summand structure on a 4-cycle, total dimension at the cap."""
    cap = ORACLE_CAPS[p]
    while True:
        aq, rep, truth_n, truth_t = generators.gen_affine(
            ORACLE_AFFINE_N, linalg.GF(p), 4, rng, min_summands=2, total_cap=cap,
            vertex_cap=ORACLE_VERTEX_CAP, max_len=2 * ORACLE_AFFINE_N,
        )
        if rep.total_dim() == cap:
            return aq, truth_n, truth_t


def _custom_weights(q, rng: random.Random):
    euler = quiver.euler_stability(q).weights
    while True:
        w = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(q.vertex_count))
        if w != euler:
            return quiver.StabilityCondition(w)


def _merged_oracle(summands, alpha) -> Callable[[], list[dict]]:
    """HN report of a direct sum: the merge of its summands' oracle reports."""

    def expected():
        report = None
        for summand, mult in summands:
            part = hn.hn_bruteforce(summand, alpha)
            for _ in range(mult):
                report = part if report is None else hn.hn_direct_sum_merge(report, part)
        return serialize.hn_to_json(report)

    return expected


def _write_weights(path: Path, alpha) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([str(w) for w in alpha.weights], fh)


def _oracle_request(path: Path, check: Check, weights: Path | None = None) -> Request:
    out = str(path) + ".out"
    argv = ["hn", str(path), "--oracle", "--out", out]
    if weights is not None:
        argv[2:2] = ["--stability", str(weights)]
    return Request("hn", argv, out, check)


def _path_oracle(d: Path, name: str, q, truth: dict, fld, rng, alpha=None) -> Request:
    path = d / f"{name}.json"
    _write_instance(path, _conjugated(_interval_sum(q, truth, fld), rng), intervals=truth)
    if alpha is None:
        return _oracle_request(path, check_hn(lambda: _path_truth_hn(q, truth), oracle=True))
    _write_weights(d / f"{name}.weights.json", alpha)
    summands = [(zigzag.interval_module(q, iv, fld), m) for iv, m in truth.items()]
    return _oracle_request(path, check_hn(_merged_oracle(summands, alpha)),
                           d / f"{name}.weights.json")


def _affine_oracle(d: Path, name: str, aq, truth_n, truth_t, fld, rng, alpha=None) -> Request:
    path = d / f"{name}.json"
    rep = _conjugated(_affine_sum(aq, truth_n, truth_t, fld), rng)
    _write_instance(path, rep, aq, n_classes=truth_n, t_classes=truth_t)
    if alpha is None:
        summands = serialize.load_json(str(path) + ".truth.json")["summands"]
        return _oracle_request(path, check_hn(lambda: _affine_truth_hn(aq, summands), oracle=True))
    _write_weights(d / f"{name}.weights.json", alpha)
    return _oracle_request(path, check_hn(_merged_oracle(_affine_summands(aq, truth_n, truth_t, fld), alpha)),
                           d / f"{name}.weights.json")


def setup_oracle_certify(seed: int, d: Path) -> list[Request]:
    pool = random.Random(POOL_SEED)
    rng = random.Random(seed)
    requests = []
    for p in ORACLE_CAPS:
        fld = linalg.GF(p)
        for i in range(ORACLE_PER_KIND):
            q, truth = _at_cap_path(p, pool)
            requests.append(_path_oracle(d, f"path_gf{p}_{i}", q, truth, fld, rng))
            aq, truth_n, truth_t = _at_cap_affine(p, pool)
            requests.append(_affine_oracle(d, f"affine_gf{p}_{i}", aq, truth_n, truth_t, fld, rng))

    # custom rational weights: the oracle is the only route; the expected
    # report merges the oracle reports of the unconjugated summands
    q, truth = _at_cap_path(3, pool)
    requests.append(_path_oracle(d, "weighted_path_gf3", q, truth, linalg.GF(3), rng,
                                 _custom_weights(q, pool)))
    aq, truth_n, truth_t = _at_cap_affine(2, pool)
    requests.append(_affine_oracle(d, "weighted_affine_gf2", aq, truth_n, truth_t, linalg.GF(2),
                                   rng, _custom_weights(affine.to_quiver(aq), pool)))

    # the heaviest scans the default guards admit: GF(2), total dimension
    # 8, one vertex of dimension 6, zero maps.  (6, 2) goes out twice, so
    # that over 5 rounds the tail (the 11th-slowest request) falls inside
    # its 10 samples rather than on the edge between two groups.
    for i, dims in enumerate(GUARD_EDGE_DIMS):
        q = generators.equioriented_quiver(len(dims))
        truth = {zigzag.Interval(x, x): dim for x, dim in enumerate(dims)}
        name = f"guard_edge{i}_" + "".join(map(str, dims))
        requests.append(_path_oracle(d, name, q, truth, linalg.GF(2), rng))

    for theorem in ("a", "b"):
        argv = ["verify", "--theorem", theorem, "--cases", str(VERIFY_CASES),
                "--seed", str(rng.randrange(2**31))]
        requests.append(Request("verify", argv, None, check_verify))
    return requests


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "lift-long",
            "lift and hn on GF(3) affine cycles with 400-1400 position windows: "
            "zigzag sweep and Matrix construction/elimination, no oracle",
            setup_lift_long,
            round_s=4.2,
        ),
        Workload(
            "zigzag-rational",
            "barcode on random-orientation QQ paths and hn on QQ persistence paths: "
            "the same sweep over Fraction arithmetic",
            setup_zigzag_rational,
        ),
        Workload(
            "oracle-certify",
            "hn --oracle and verify at the oracle guard limits: tiny-matrix "
            "subspace enumeration and per-call overhead",
            setup_oracle_certify,
        ),
    )
}
