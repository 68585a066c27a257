"""One seed-1 round of every benchmark workload, with the benchmark's own checks.

``bench/run.py`` times rounds of these requests and counts a run with any
failed check as incorrect.  Running one round here catches the same
failure at test time: an output the checks refuse, or a name or signature
of ``hnzz`` that the bench calls and a change broke.

It also pins the work of that round, in counts that do not vary between
runs: eliminations (``_gauss_jordan`` calls) and row updates (calls of
the fields' row step, ``RationalField.row_update`` and
``PrimeField.row_update``), counted over the requests and not the set-up.
The fields' products (``RationalField.product`` and
``PrimeField.product``) are pinned beside them.  A change that moves one
re-pins it here.

The oracle's walk is pinned beside them: ``hn._destabilizer`` passes,
enumerations (calls of ``hn._superspaces``) and the superspaces they
yield.  Making the walk's steps cheaper moves the work pins and leaves
these alone.

So are the positions of the round's barcode sweeps and the segment ends
whose rank row a sweep built (``zigzag._rank_jumps`` calls): a sweep
crosses each run of bijections in one step, and closes the positions
past its first repeat by translation.

So is the number of ``Fraction``s built over the round, most of them by
reading QQ instances before their entry strings were read into ints.
Each instance file of the round must also come back byte for byte
through ``instance_from_json`` and ``instance_to_json``.
"""

import importlib
import json
import sys
from fractions import Fraction
from pathlib import Path
from pkgutil import iter_modules

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

import hnzz  # noqa: E402
from hnzz import hn, linalg, zigzag  # noqa: E402
from hnzz.affine import AffineQuiver  # noqa: E402
from hnzz.linalg import PrimeField, RationalField  # noqa: E402
from hnzz.serialize import instance_from_json, instance_to_json, load_json  # noqa: E402

# (eliminations, row updates) of one seed-1 round's requests; products
# accumulate in ints and make no row updates
ROUND_WORK = {
    "lift-long": (246, 3610),
    "zigzag-rational": (297, 4877),
    "oracle-certify": (1338, 707),
}

# products over the same round: flag crossings, the products that compose
# each run of square crossings of a period (every run is composed, since
# composing it is what certifies it) or move a flag's basis across a run of
# a path that does not repeat, the oracle's span steps and Matrix products
ROUND_PRODUCTS = {
    "lift-long": 544,
    "zigzag-rational": 243,
    "oracle-certify": 1252,
}

# (passes, enumerations, superspaces) of the oracle over the same round
ORACLE_WALK = {
    "lift-long": (0, 0, 0),
    "zigzag-rational": (0, 0, 0),
    "oracle-certify": (89, 767, 1048),
}

# (positions, segment ends swept) of the barcode sweeps over the same round
ROUND_SWEEPS = {
    "lift-long": (5006, 88),
    "zigzag-rational": (380, 234),
    "oracle-certify": (461, 194),
}


# Fractions built over the same round: the QQ entries that ``data`` writes
# back, slopes and weights; QQ instance entries are read into ints, each hn
# request builds its Euler weights once (``fast_report`` compares ints), and
# ``check_b`` recovers its classes with no slope per candidate
ROUND_FRACTIONS = {
    "lift-long": 353,
    "zigzag-rational": 84,
    "oracle-certify": 1191,
}


def assert_round_trips(path: str) -> None:
    """The instance file at ``path`` comes back byte for byte from what is read."""
    text = Path(path).read_text(encoding="utf-8")
    doc = load_json(path)
    spelled = doc["quiver"].get("affine")
    affine = AffineQuiver(spelled["n"], tuple(spelled["orientation"])) if spelled else None
    assert json.dumps(instance_to_json(instance_from_json(doc), affine), indent=2) + "\n" == text


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_round_passes_its_checks(name, tmp_path, count_calls, monkeypatch):
    work = tmp_path / name
    work.mkdir()
    requests = WORKLOADS[name].setup(1, work)
    assert requests
    superspaces, enumerate_superspaces = [], hn._superspaces

    def counting(*args):
        for u in enumerate_superspaces(*args):
            superspaces.append(None)
            yield u

    monkeypatch.setattr(hn, "_superspaces", counting)
    positions, bars = [], zigzag._bars

    def sweeping(fld, dims, *rest):
        positions.append(len(dims))
        return bars(fld, dims, *rest)

    # every module of the package that binds the sweep by name, found by identity
    for info in iter_modules(hnzz.__path__):
        module = importlib.import_module(f"hnzz.{info.name}")
        if getattr(module, "_bars", None) is bars:
            monkeypatch.setattr(module, "_bars", sweeping)
    swept = count_calls(zigzag, "_rank_jumps")
    walk = [count_calls(hn, step) for step in ("_destabilizer", "_superspaces")]
    eliminations = count_calls(linalg, "_gauss_jordan")
    row_updates = [count_calls(field, "row_update") for field in (RationalField, PrimeField)]
    products = [count_calls(field, "product") for field in (RationalField, PrimeField)]
    fractions = count_calls(Fraction, "__new__")
    problems = [problem for _, problem, _ in map(harness.run_request, requests) if problem]
    assert problems == []
    work_done = (len(eliminations), sum(map(len, row_updates)))
    assert work_done == ROUND_WORK[name]
    assert sum(map(len, products)) == ROUND_PRODUCTS[name]
    assert (*map(len, walk), len(superspaces)) == ORACLE_WALK[name]
    assert (sum(positions), len(swept)) == ROUND_SWEEPS[name]
    assert len(fractions) == ROUND_FRACTIONS[name]
    instances = sorted({r.argv[1] for r in requests if r.kind != "verify"})
    assert instances
    for path in instances:
        assert_round_trips(path)
