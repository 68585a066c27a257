import json
from fractions import Fraction
from math import lcm

import pytest

from hnzz.errors import ParseError, ShapeError, ValidationError
from hnzz.affine import AffineQuiver, CCW, CW, NClass, affine_of_quiver, eta_from_lift, indec_N
from hnzz.generators import gen_affine, gen_persistence
from hnzz.hn import hn_bruteforce
from hnzz.linalg import GF, QQ, Matrix
from hnzz.quiver import direct_sum, euler_stability
from hnzz import serialize
from hnzz.serialize import (
    _field_from_json,
    _field_to_json,
    barcode_to_json,
    classes_to_json,
    hn_to_json,
    instance_from_json,
    instance_to_json,
    load_json,
    weights_from_json,
    write_json,
)
from hnzz.zigzag import Barcode, Interval

from conftest import make_rng


class TestFieldCodec:
    def test_roundtrip(self):
        for fld in (QQ, GF(2), GF(97)):
            assert _field_from_json(_field_to_json(fld)) == fld

    def test_bad_kind(self):
        with pytest.raises(ParseError):
            _field_from_json({"kind": "real"})

    def test_nonprime(self):
        with pytest.raises(ParseError):
            _field_from_json({"kind": "prime", "p": 6})


class TestInstanceRoundTrip:
    def test_persistence_rational(self):
        rng = make_rng(41)
        rep, _ = gen_persistence(4, QQ, 3, rng, min_summands=1)
        back = instance_from_json(instance_to_json(rep))
        assert back == rep
        with pytest.raises(ShapeError):
            affine_of_quiver(back.quiver)

    def test_affine_prime(self):
        rng = make_rng(42)
        aq, rep, _, _ = gen_affine(5, GF(3), 3, rng, min_summands=1)
        back = instance_from_json(instance_to_json(rep, aq))
        assert back == rep and affine_of_quiver(back.quiver) == aq

    def test_byte_stable(self):
        rng = make_rng(43)
        aq, rep, _, _ = gen_affine(4, GF(5), 2, rng, min_summands=1)
        doc = instance_to_json(rep, aq)
        assert json.dumps(doc) == json.dumps(instance_to_json(rep, aq))

    def test_mismatched_cycle_refused(self):
        # spelled as another cycle, this sum would read back as a module
        # whose unwinding shows one full-window bar, not these two classes
        aq = AffineQuiver(4, (CW, CW, CCW, CCW))
        rep = direct_sum(indec_N(aq, 0, 2, GF(3)), indec_N(aq, 3, 3, GF(3)))
        assert eta_from_lift(rep).steps == (
            (Fraction(1), (0, 0, 0, 1)),
            (Fraction(-1, 3), (1, 1, 1, 0)),
        )
        with pytest.raises(ValidationError, match="not the representation's quiver"):
            instance_to_json(rep, AffineQuiver(4, (CW, CW, CCW, CW)))
        assert instance_from_json(instance_to_json(rep, aq)) == rep

    def test_shape_violation_detected(self):
        rep = indec_N(AffineQuiver(3, (CW, CW, CCW)), 0, 2, GF(2))
        doc = instance_to_json(rep)
        doc["dims"][0] += 1
        with pytest.raises(ValidationError):
            instance_from_json(doc)

    def test_missing_matrix(self):
        rep = indec_N(AffineQuiver(3, (CW, CW, CCW)), 0, 2, GF(2))
        doc = instance_to_json(rep)
        doc["matrices"].pop()
        with pytest.raises(ParseError):
            instance_from_json(doc)

    def test_rational_entries_are_strings(self):
        rng = make_rng(44)
        rep, _ = gen_persistence(3, QQ, 2, rng, min_summands=1)
        doc = instance_to_json(rep)
        for mobj in doc["matrices"]:
            for row in mobj["rows"]:
                assert all(isinstance(x, str) for x in row)


def coerced_then_cleared(fld, rows):
    """The matrix read as the reader once read it: ``fld.coerce`` on each
    entry in row order, then the entries over their least common
    denominator; or the message of the first entry refused."""
    try:
        entries = [[Fraction(fld.coerce(x)) for x in row] for row in rows]
    except ValidationError as exc:
        return str(exc)
    den = lcm(*(x.denominator for row in entries for x in row))
    return tuple(tuple(int(x * den) for x in row) for row in entries), den


def read_by_reader(fld, rows):
    """The ``(ints, den)`` of ``rows`` read as an instance's one matrix, or the
    ParseError message without its "matrix 0: " prefix."""
    doc = {
        "field": _field_to_json(fld),
        "quiver": {"vertices": 2, "edges": [{"src": 0, "dst": 1}]},
        "dims": [len(rows[0]), len(rows)],
        "matrices": [{"edge": 0, "rows": rows}],
    }
    try:
        m = instance_from_json(doc).mats[0]
    except ParseError as exc:
        assert str(exc).startswith("matrix 0: ")
        return str(exc).removeprefix("matrix 0: ")
    return m.ints, m.den


def read_by_matrix(fld, rows):
    try:
        m = Matrix(fld, rows)
    except ValidationError as exc:
        return str(exc)
    return m.ints, m.den


# entries each route must read as ``coerce`` does, or refuse with its words
QQ_ENTRIES = [
    "0", "-0", "007", "-12", "+5", " 5 ", "5\n", "\u0663", "\u00b2", "1_000", "-", "--3", "",
    "1/0", "2/4", "-3/6", "10/5", "1/-2", "0/5", "-0/7", "3/", "/3", "1/2/3", "-.5", "0.5",
    "1e3", "9" * 3999, "9" * 4301, "2/" + "3" * 4301, "-" + "9" * 4300,
    True, False, None, 1.5, [1], {}, 7, -7, 10**50,
]
GF_ENTRIES = [0, 1, 2, -1, -7, 3, 5, 10**4999, True, False, 1.5, "1", None, [1], Fraction(1, 2)]


class TestReaderAgainstCoerce:
    """The reader and ``Matrix`` read a matrix as coercing each entry did."""

    @staticmethod
    def matrices(entry, plain):
        # the entry alone, first and last among plain ones, and beside a
        # refused entry on either side
        refused = "1/0"
        return [
            [[entry]],
            [[entry, plain[0]], [plain[1], plain[2]]],
            [[plain[0], plain[1]], [plain[2], entry]],
            [[refused, entry]],
            [[entry, refused]],
        ]

    @pytest.mark.parametrize("entry", QQ_ENTRIES, ids=range(len(QQ_ENTRIES)))
    def test_rational(self, entry):
        for rows in self.matrices(entry, ["1", "2/4", "-3"]):
            want = coerced_then_cleared(QQ, rows)
            assert read_by_reader(QQ, rows) == want
            assert read_by_matrix(QQ, rows) == want

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("entry", GF_ENTRIES, ids=range(len(GF_ENTRIES)))
    def test_prime(self, p, entry):
        for rows in self.matrices(entry, [0, 1, p - 1]):
            want = coerced_then_cleared(GF(p), rows)
            assert read_by_reader(GF(p), rows) == want
            assert read_by_matrix(GF(p), rows) == want

    def test_rows_of_plain_entries(self):
        rows = [["1/2", "-2/3", "0"], ["4", "6/8", "-9/3"]]
        assert read_by_reader(QQ, rows) == (((6, -8, 0), (48, 9, -36)), 12)
        assert read_by_reader(QQ, [["-3", "10/5"], ["0", "7"]]) == (((-3, 2), (0, 7)), 1)
        assert read_by_reader(GF(3), [[0, 2], [1, 1]]) == (((0, 2), (1, 1)), 1)


def read_outcome(doc):
    """What ``instance_from_json`` makes of ``doc``: the matrices, or the error's type and text."""
    try:
        return [(m.rows, m.cols, m.ints, m.den) for m in instance_from_json(doc).mats]
    except (ParseError, ValidationError) as exc:
        return type(exc).__name__, str(exc)


# changes to one matrix object of a GF(p) document: the one-pass read takes
# none of them, and the read matrix by matrix accepts or refuses each
MATRIX_CHANGES = [
    lambda m, p: m["rows"][0].__setitem__(0, p),  # reduced by coerce
    lambda m, p: m["rows"][0].__setitem__(0, -1),
    lambda m, p: m["rows"][0].__setitem__(0, True),
    lambda m, p: m["rows"][0].__setitem__(0, "1"),
    lambda m, p: m["rows"][0].__setitem__(0, 1.0),
    lambda m, p: m["rows"].append(m["rows"][0] + [0]),  # ragged
    lambda m, p: m["rows"].__setitem__(0, tuple(m["rows"][0])),
    lambda m, p: m["rows"].__setitem__(0, 5),
    lambda m, p: m.__setitem__("rows", tuple(m["rows"])),
    lambda m, p: m.__setitem__("edge", 99),
    lambda m, p: m.__setitem__("edge", 0),  # a duplicate unless it is edge 0
    lambda m, p: m.__setitem__("edge", True),
    lambda m, p: m.pop("rows"),
    lambda m, p: m.clear(),
]


class TestOnePassReader:
    """A GF(p) document read in one pass reads as it did matrix by matrix."""

    def test_same_outcome_as_read_matrix_by_matrix(self, monkeypatch):
        rng = make_rng(52)
        seen, cases = set(), 0
        for _ in range(60):
            p = rng.choice((2, 3, 5, 257))
            aq, rep, _, _ = gen_affine(rng.randint(2, 4), GF(p), 3, rng, min_summands=1)
            clean = instance_to_json(rep, aq)
            docs = [clean]
            for _ in range(8):
                doc = json.loads(json.dumps(clean))
                rng.shuffle(doc["matrices"])
                for _ in range(rng.randint(0, 2)):
                    mobj = rng.choice(doc["matrices"])
                    rows = mobj.get("rows")
                    if type(rows) is list and rows and type(rows[0]) is list and rows[0]:
                        rng.choice(MATRIX_CHANGES)(mobj, p)
                if rng.random() < 0.1:
                    doc["matrices"].pop()
                if rng.random() < 0.1:  # one edge twice, every edge there
                    doc["matrices"].append(json.loads(json.dumps(rng.choice(doc["matrices"]))))
                docs.append(doc)
            for doc in docs:
                got = read_outcome(doc)
                with monkeypatch.context() as slow:
                    slow.setattr(serialize, "_residue_matrices", lambda *args: None)
                    assert read_outcome(doc) == got
                seen.add(got[0] if isinstance(got, tuple) else "read")
                seen.add("duplicate" if "duplicate matrix" in got[-1] else "")
                cases += 1
        assert cases == 540
        assert seen == {"read", "ParseError", "ValidationError", "duplicate", ""}

    def test_residues_build_no_public_matrix(self, count_calls):
        aq = AffineQuiver(3, (CW, CW, CCW))
        rep = indec_N(aq, 0, 5, GF(3))
        doc = instance_to_json(rep, aq)
        built = count_calls(Matrix, "__init__")
        mats = instance_from_json(doc).mats
        assert len(built) == 0
        assert mats == rep.mats
        doc["matrices"][2]["rows"][0][0] += 3  # a residue only after coerce
        assert instance_from_json(doc).mats == mats
        assert len(built) == 3


class TestReportCodecs:
    def test_barcode_roundtrip_and_order(self):
        bar = Barcode.from_dict({Interval(1, 2): 2, Interval(0, 0): 1, Interval(0, 3): 1})
        doc = barcode_to_json(bar)
        assert [(b["lo"], b["hi"]) for b in doc] == [(0, 0), (0, 3), (1, 2)]
        assert Barcode.from_dict({Interval(b["lo"], b["hi"]): b["mult"] for b in doc}) == bar

    def test_hn_roundtrip(self):
        rng = make_rng(45)
        rep, _ = gen_persistence(3, GF(2), 3, rng, min_summands=1, total_cap=6)
        report = hn_bruteforce(rep, euler_stability(rep.quiver))
        doc = hn_to_json(report)
        assert all(isinstance(s["slope"], str) for s in doc)
        back = tuple((Fraction(s["slope"]), tuple(s["quotient_dims"])) for s in doc)
        assert back == report.steps

    def test_classes_sorted(self):
        doc = classes_to_json({NClass(2, 3): 1, NClass(0, 5): 2, NClass(0, 1): 3})
        assert [(c["u"], c["len"]) for c in doc] == [(0, 1), (0, 5), (2, 1)]

    def test_weights(self):
        alpha = weights_from_json(["1", "-1/2", "0", "0.75"])
        assert [str(w) for w in alpha.weights] == ["1", "-1/2", "0", "3/4"]


class TestFiles:
    def test_write_newline_terminated(self, tmp_path):
        path = tmp_path / "doc.json"
        write_json(str(path), {"a": 1})
        raw = path.read_bytes()
        assert raw.endswith(b"\n")
        assert load_json(str(path)) == {"a": 1}

    def test_malformed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ParseError):
            load_json(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_json(str(tmp_path / "absent.json"))
