"""Byte pins of CLI stdout on seeded generated instances.

Each case generates an instance with ``hnzz gen`` (the guard-edge cases
write a zero-map path instead, and the zigzag cases one fixed instance)
and runs one command on it; the sha256 of
everything the command prints must match the digest recorded here.  The
elimination kernel, the lift classification and the oracle may be
rewritten freely, but not one output byte may move.
"""

import hashlib
import json

import pytest

from hnzz.cli import main
from hnzz.serialize import instance_to_json

from conftest import zero_map_path

# id -> (gen arguments, command with {inst} for the instance path, digest)
CASES = {
    "barcode-persistence-gf2": (
        ["persistence", 6, 5, "2", 4],
        ["barcode", "{inst}"],
        "aebfe955f2ddbbb3b438215b72b1fcb5f389a7b59c6003b6912bc8b117a3a300",
    ),
    "barcode-persistence-gf3": (
        ["persistence", 7, 6, "3", 4],
        ["barcode", "{inst}"],
        "1c26b93b2c19c6fe0662461cc9b131527329112058f93a98414baf485298b2d3",
    ),
    "barcode-persistence-qq": (
        ["persistence", 6, 6, "rational", 4],
        ["barcode", "{inst}"],
        "a1a9275e16a4765fad598fb3393f7d01680f39bc3a8c0ce20ccf07ba452925f0",
    ),
    "barcode-persistence-qq-long": (
        ["persistence", 7, 7, "rational", 4],
        ["barcode", "{inst}"],
        "f1f60dbc6ac7fc8235bf48b2b0007fb8c17d2b4549f9c46538f8e89076428ffc",
    ),
    "hn-affine-gf3": (
        ["affine", 3, 5, "3", 3],
        ["hn", "{inst}"],
        "bf0912b8e229f46bc86d159635bfd5d08c988b2795e56e42220e4b328e164d89",
    ),
    "lift-affine-gf3": (
        ["affine", 3, 5, "3", 3],
        ["lift", "{inst}"],
        "a74e4216632b63aa447c2c161986e74651feee6ab202d2003b690ccb618075cd",
    ),
    "lift-affine-gf3-window27": (
        ["affine", 3, 5, "3", 3],
        ["lift", "{inst}", "--window", 27],
        "4abf92d5590262fcd023186c297caba5bf32d30d7ec04b8a655adc65fb32e2c1",
    ),
    "hn-affine-gf5": (
        ["affine", 4, 1, "5", 3],
        ["hn", "{inst}"],
        "dd8ea9f990d12b17f2c471b0d7469183e3702857c9fff58809ce617641a13387",
    ),
    "lift-affine-gf5": (
        ["affine", 4, 1, "5", 3],
        ["lift", "{inst}"],
        "06b981ef99bfd91d5567fa14dc2b77b32a333ade8a8c5807c0b2ddd83fbbb36f",
    ),
    "hn-affine-qq": (
        ["affine", 4, 4, "rational", 3],
        ["hn", "{inst}"],
        "a8d457db6bb53aef3562e6182b5fc1add77f6202bb6f11eeeb8459a1aad73139",
    ),
    "lift-affine-qq": (
        ["affine", 4, 4, "rational", 3],
        ["lift", "{inst}"],
        "df9a9ca70e10af164942a184b14ee75adae07c6860ef71220138a6cf86df9663",
    ),
    "hn-affine-gf2": (
        ["affine", 5, 2, "2", 3],
        ["hn", "{inst}"],
        "479dc969cbe425479c5c34a85ec27ee7f1879cf3495e9bd3dee8c8e387e6d77e",
    ),
    "lift-affine-gf2": (
        ["affine", 5, 2, "2", 3],
        ["lift", "{inst}"],
        "1488dbd3d4a81934a589c9b4eb643aaab2df9aeb7fc5b1eccc1a9013c27d3075",
    ),
    "hn-oracle-persistence-gf2": (
        ["persistence", 6, 5, "2", 4],
        ["hn", "{inst}", "--oracle"],
        "ef1bb09000093a81b0136a3aca50cd93b263800bbdded0b8f53c9b4cefde8734",
    ),
    "hn-oracle-persistence-gf3": (
        ["persistence", 3, 5, "3", 2],
        ["hn", "{inst}", "--oracle"],
        "3b8c17d265942354179c564f5cf94fc03468e739943713a8434ef69bdcd31bbc",
    ),
}


def _gen(tmp_path, capsys, kind, n, seed, field, summands) -> str:
    inst = str(tmp_path / "inst.json")
    gen = ["gen", "--kind", kind, "--n", n, "--seed", seed, "--field", field,
           "--max-summands", summands, "--out", inst]
    assert main([str(a) for a in gen]) == 0
    capsys.readouterr()
    return inst


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_bytes_pinned(case, tmp_path, capsys):
    gen_args, command, digest = CASES[case]
    inst = _gen(tmp_path, capsys, *gen_args)
    assert main([str(a).format(inst=inst) for a in command]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# id -> (gen arguments, weights file contents, digest of ``hn --stability
# W.json --oracle``); custom weights run through the oracle alone
STABILITY_CASES = {
    "hn-oracle-weights-persistence-gf2": (
        ["persistence", 6, 5, "2", 4],
        ["-1", "3/2", "1/3", "-2/5", "2", "1/2"],
        "9cd3a431f7ac8f2e00e87f52f931330c471ce62bee399360e885335e37770d5a",
    ),
}


@pytest.mark.parametrize("case", sorted(STABILITY_CASES))
def test_custom_weights_stdout_bytes_pinned(case, tmp_path, capsys):
    gen_args, weights, digest = STABILITY_CASES[case]
    inst = _gen(tmp_path, capsys, *gen_args)
    wfile = tmp_path / "weights.json"
    wfile.write_text(json.dumps(weights))
    assert main(["hn", inst, "--stability", str(wfile), "--oracle"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# id -> (vertex dimensions of a zero-map GF(2) path, digest of ``hn
# --oracle``); the heaviest scans the default oracle guard admits
GUARD_EDGE_CASES = {
    "hn-oracle-guard-edge-62": (
        (6, 2),
        "3bd1f408c0b5823c871e429967697a7d5227216373ef94827d1ee26f9c3f1963",
    ),
    "hn-oracle-guard-edge-611": (
        (6, 1, 1),
        "2f77c8c2c8754ce01a5b7cc69803afa9782bfd1c013103d0127f07fe44ba2681",
    ),
}


@pytest.mark.parametrize("case", sorted(GUARD_EDGE_CASES))
def test_guard_edge_stdout_bytes_pinned(case, tmp_path, capsys):
    dims, digest = GUARD_EDGE_CASES[case]
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(instance_to_json(zero_map_path(dims))))
    assert main(["hn", str(inst), "--oracle"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# A conjugated GF(2) sum of the bars [0,3], [2,2], [3,3] and [3,4] on the
# zigzag 0 <- 1 -> 2 <- 3 -> 4, written out so that no generator change
# moves it; its Euler slopes are 1, 1/2, 1/4 and -1
ZIGZAG_INSTANCE = {
    "field": {"kind": "prime", "p": 2},
    "quiver": {"vertices": 5, "edges": [{"src": 1, "dst": 0}, {"src": 1, "dst": 2},
                                        {"src": 3, "dst": 2}, {"src": 3, "dst": 4}]},
    "dims": [1, 1, 2, 3, 1],
    "matrices": [{"edge": 0, "rows": [[1]]}, {"edge": 1, "rows": [[0], [1]]},
                 {"edge": 2, "rows": [[0, 0, 0], [1, 0, 0]]}, {"edge": 3, "rows": [[1, 0, 1]]}],
}

# id -> (hn options, digest of ``hn`` on the zigzag instance)
ZIGZAG_CASES = {
    "hn-zigzag-gf2": (
        [],
        "6ee2810eeafc4ba95250dac6d061fda7eda699a2159095cdd1ef3afb3cf3a6fe",
    ),
    "hn-oracle-zigzag-gf2": (
        ["--oracle"],
        "e15fbd938cc625e331fc971890021361204dffedb55edcea29293c37c4ec7897",
    ),
}


@pytest.mark.parametrize("case", sorted(ZIGZAG_CASES))
def test_zigzag_stdout_bytes_pinned(case, tmp_path, capsys):
    options, digest = ZIGZAG_CASES[case]
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(ZIGZAG_INSTANCE))
    assert main(["hn", str(inst), *options]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# id -> (verify arguments, digest)
VERIFY_CASES = {
    "verify-theorem-a": (
        ["--theorem", "a", "--cases", 30, "--seed", 5],
        "04807a10d139a8e17970dc026099339b304d22e1cb4a3fbd891da52f584ec14d",
    ),
    "verify-theorem-b": (
        ["--theorem", "b", "--cases", 20, "--seed", 6],
        "64e51530b28a06452db5cb7d6be537f4db81c8dbe87a5c55f2421c076258dc83",
    ),
}


@pytest.mark.parametrize("case", sorted(VERIFY_CASES))
def test_verify_stdout_bytes_pinned(case, capsys):
    args, digest = VERIFY_CASES[case]
    assert main(["verify", *[str(a) for a in args]]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
