"""The guard limits, pinned through public behaviour.

``hn_bruteforce`` scans every subrepresentation, so it refuses (GuardError,
exit code 5) beyond fixed limits: subspaces of GF(p)^dim are enumerated
for dim <= 6 and p <= 3 only, and the total dimension of the input is
capped at 8 over GF(2) and 6 over GF(3).  The size inputs of ``gen`` and
``lift`` are capped too; each cap is tested only by a refusal that
allocates nothing.
"""

import json

import pytest

from hnzz.affine import LIFT_MAX_WINDOW, AffineQuiver, classify_lift, indec_T
from hnzz.cli import main
from hnzz.errors import GuardError, ShapeError, ValidationError
from hnzz.generators import GEN_MAX_N, GEN_MAX_SUMMANDS, equioriented_quiver
from hnzz.hn import _superspaces, hn_bruteforce
from hnzz.linalg import GF, Matrix
from hnzz.quiver import Quiver, Representation, StabilityCondition, direct_sum, zero_representation
from hnzz.serialize import instance_to_json, write_json
from hnzz.zigzag import Interval, interval_module

from conftest import zero_map_path

ENUM_REFUSAL = "subspace enumeration guard exceeded (dim={dim}, p={p}; limits dim<=6, p<=3)"


def path_instance(tmp_path, p, bars):
    """Instance file of a sum of interval modules on the equioriented 2-path."""
    q = equioriented_quiver(2)
    fld = GF(p)
    rep = zero_representation(q, fld)
    for (lo, hi), mult in bars.items():
        for _ in range(mult):
            rep = direct_sum(rep, interval_module(q, Interval(lo, hi), fld))
    path = tmp_path / "inst.json"
    write_json(str(path), instance_to_json(rep))
    return rep.dims, str(path)


@pytest.mark.parametrize(
    "p,bars,dims",
    [
        (2, {(0, 1): 3, (0, 0): 1, (1, 1): 1}, (4, 4)),  # total 8, the GF(2) cap
        (2, {(0, 0): 6, (1, 1): 2}, (6, 2)),  # one vertex at the enumerator limit
        (3, {(0, 1): 2, (0, 0): 1, (1, 1): 1}, (3, 3)),  # total 6, the GF(3) cap
    ],
)
def test_oracle_runs_at_the_caps(tmp_path, capsys, p, bars, dims):
    got, inp = path_instance(tmp_path, p, bars)
    assert got == dims
    assert main(["hn", inp, "--oracle"]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["oracle_agrees"] is True
    assert err == ""


@pytest.mark.parametrize(
    "p,bars,message",
    [
        (2, {(0, 1): 4, (0, 0): 1}, "oracle guard exceeded: total dimension 9 > 8 over GF(2)"),
        (3, {(0, 1): 3, (0, 0): 1}, "oracle guard exceeded: total dimension 7 > 6 over GF(3)"),
        (5, {(0, 1): 1}, "oracle guard exceeded: p=5 > 3"),
        (5, {(1, 1): 1}, "oracle guard exceeded: p=5 > 3"),
        (2, {(0, 0): 7, (1, 1): 1}, ENUM_REFUSAL.format(dim=7, p=2)),
        # the big vertex second, with zero and with injective maps.  With
        # the injective map the slope bound skips the zero subspace of the
        # first vertex, so no table enumerates all of the second one; the
        # oracle refuses all the same
        (2, {(0, 0): 1, (1, 1): 7}, ENUM_REFUSAL.format(dim=7, p=2)),
        (2, {(0, 1): 1, (1, 1): 6}, ENUM_REFUSAL.format(dim=7, p=2)),
    ],
)
def test_oracle_refuses_past_the_caps(tmp_path, capsys, p, bars, message):
    _, inp = path_instance(tmp_path, p, bars)
    assert main(["hn", inp, "--oracle"]) == 5
    assert capsys.readouterr().err == f"guard exceeded: {message}\n"


def test_enumerator_limits():
    assert sum(1 for k in range(7) for _ in _superspaces(GF(2), (), 6, k)) == 2825
    # the enumerator checks nothing: the oracle refuses for it
    for dim, p, message in ((7, 2, ENUM_REFUSAL.format(dim=7, p=2)),
                            (2, 5, "oracle guard exceeded: p=5 > 3")):
        with pytest.raises(GuardError) as info:
            hn_bruteforce(zero_map_path((dim,), GF(p)), StabilityCondition((1,)))
        assert str(info.value) == message


def two_cycle(dims):
    """The directed 2-cycle 0 -> 1 -> 0 over GF(2) with zero maps."""
    mats = (Matrix.zeros(GF(2), dims[1], dims[0]), Matrix.zeros(GF(2), dims[0], dims[1]))
    return Representation(Quiver(2, ((0, 1), (1, 0))), GF(2), dims, mats)


@pytest.mark.parametrize(
    "rep,weights,error,message",
    [
        # the total cap before the weights
        (zero_map_path((7, 2)), (1,), GuardError,
         "oracle guard exceeded: total dimension 9 > 8 over GF(2)"),
        # the weights before the shape and the enumeration guard
        (zero_map_path((7, 1)), (1,), ValidationError,
         "stability condition does not match the quiver"),
        # the shape before the enumeration guard
        (two_cycle((7, 1)), (1, 0), ShapeError,
         "subrepresentation scan requires an acyclic quiver"),
        (zero_map_path((1, 7)), (1, 0), GuardError, ENUM_REFUSAL.format(dim=7, p=2)),
    ],
)
def test_oracle_refusal_order(rep, weights, error, message):
    with pytest.raises(error) as info:
        hn_bruteforce(rep, StabilityCondition(weights))
    assert type(info.value) is error and str(info.value) == message


def cycle_instance(tmp_path):
    """Instance file of a Jordan cell on a 3-cycle (default window 9)."""
    aq = AffineQuiver(3, (0, 0, 1))
    rep = indec_T(aq, 1, 1, GF(3))
    path = tmp_path / "cycle.json"
    write_json(str(path), instance_to_json(rep, aq))
    return rep, str(path)


def test_lift_window_cap(tmp_path, capsys):
    rep, inp = cycle_instance(tmp_path)
    # a multiple of n = 3 past the cap: refused before anything is lifted
    assert main(["lift", inp, "--window", "3000000000000"]) == 4
    assert capsys.readouterr().err == (
        "unsupported shape: window length 3000000000000 exceeds "
        f"LIFT_MAX_WINDOW = {LIFT_MAX_WINDOW}\n"
    )
    with pytest.raises(ShapeError, match="exceeds LIFT_MAX_WINDOW"):
        classify_lift(rep, 10**30)


@pytest.mark.parametrize(
    "args,n,summands",
    [
        (["--kind", "persistence", "--n", "1000000000"], 1000000000, 3),
        (["--kind", "affine", "--n", "1000000000"], 1000000000, 3),
        (["--kind", "persistence", "--n", "5", "--max-summands", "1000000000000"], 5, 10**12),
        (["--kind", "affine", "--n", "5", "--max-summands", "1000000000000"], 5, 10**12),
    ],
)
def test_gen_size_caps(tmp_path, capsys, args, n, summands):
    out = tmp_path / "inst.json"
    assert main(["gen", *args, "--out", str(out)]) == 5
    assert capsys.readouterr().err == (
        f"guard exceeded: generator guard exceeded (n={n}, max_summands={summands}; "
        f"limits n<={GEN_MAX_N}, max_summands<={GEN_MAX_SUMMANDS})\n"
    )
    assert not out.exists()
