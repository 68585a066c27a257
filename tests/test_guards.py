"""The oracle's guard limits, pinned through public behaviour.

``hn_bruteforce`` scans every subrepresentation, so it refuses (GuardError,
exit code 5) beyond fixed limits: subspaces of GF(p)^dim are enumerated
for dim <= 6 and p <= 3 only, and the total dimension of the input is
capped at 8 over GF(2) and 6 over GF(3).
"""

import json

import pytest

from hnzz.cli import main
from hnzz.errors import GuardError
from hnzz.generators import equioriented_quiver
from hnzz.linalg import GF, subspace_enumerator
from hnzz.quiver import direct_sum, zero_representation
from hnzz.serialize import instance_to_json, write_json
from hnzz.zigzag import Interval, interval_module

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
    ],
)
def test_oracle_refuses_past_the_caps(tmp_path, capsys, p, bars, message):
    _, inp = path_instance(tmp_path, p, bars)
    assert main(["hn", inp, "--oracle"]) == 5
    assert capsys.readouterr().err == f"guard exceeded: {message}\n"


def test_enumerator_limits():
    assert sum(1 for _ in subspace_enumerator(6, 2)) == 2825
    for dim, p in ((7, 2), (2, 5)):
        with pytest.raises(GuardError) as info:
            subspace_enumerator(dim, p)
        assert str(info.value) == ENUM_REFUSAL.format(dim=dim, p=p)
