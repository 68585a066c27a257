"""JSON wire formats for instances, reports, and ground-truth sidecars.

Rational entries travel as strings ("a/b" or "a") to avoid float loss;
prime-field entries are plain ints with the modulus stated once in the
field descriptor.  Each entry is taken as its field's ``coerce`` takes
it, and an entry the field refuses is malformed input (``ParseError``);
the weights are read by ``StabilityCondition``.  A GF(p) document whose
matrices are all there, one per edge, of rows of residues, is read in
one pass (``_residue_matrices``): the field checks every entry of the
document at once and builds each matrix as the public ``Matrix`` would.
Any other document is read matrix by matrix in document order with the
public ``Matrix`` (``_read_matrices``), so the first malformed matrix
raises, with the words it always had.  Over QQ the reader reads each
distinct entry string once per document (``_RationalReader``): "a" and
"a/b" in ASCII digits straight into ints, any other through
``QQ.coerce``; ``Matrix`` then clears each matrix into integer rows over
one denominator in one call of the field.  The writer reads the entries
back through ``data``.  The reader
returns the ``Representation`` alone, which checks its matrix shapes
itself; an ``affine`` quiver is checked by ``AffineQuiver`` and read as
``to_quiver`` builds it, and the writer refuses an ``affine`` spelling
that is not the representation's quiver (``ValidationError``).  All
writers emit canonically ordered, newline terminated documents so
repeated runs are byte-identical.
"""

from __future__ import annotations

import json

from .affine import AffineQuiver, NClass, TClass, to_quiver
from .errors import ParseError, ValidationError, check_type, is_int, shown
from .hn import HNReport
from .linalg import (Field, GF, Matrix, PrimeField, QQ, RationalField, _read_entry,
                     check_field)
from .quiver import Quiver, Representation, StabilityCondition
from .zigzag import Barcode, Interval, check_multiplicities


def _need(obj, key, kind, where):
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError(f"{where}: missing key {key!r}")
    value = obj[key]
    ok = is_int(value) if kind is int else isinstance(value, kind)
    if not ok:
        raise ParseError(f"{where}: key {key!r} has the wrong type")
    return value


def _field_to_json(fld: Field) -> dict:
    if isinstance(fld, PrimeField):
        return {"kind": "prime", "p": fld.p}
    return {"kind": "rational"}


def _field_from_json(obj) -> Field:
    kind = _need(obj, "kind", str, "field")
    if kind == "rational":
        return QQ
    if kind == "prime":
        p = _need(obj, "p", int, "field")
        try:
            return GF(p)
        except ValidationError as exc:
            raise ParseError(str(exc)) from exc
    raise ParseError(f"field: unknown kind {shown(kind)}")


def _entry_to_json(fld: Field, value):
    if isinstance(fld, PrimeField):
        return value
    return str(value)


class _RationalReader(dict):
    """One document's QQ entries read exact, each distinct string once.

    A lookup that misses reads the entry with ``linalg._read_entry``: ints
    for "a" and "a/b" strings in ASCII digits, and ``QQ.coerce`` for the
    rest.  Only strings are kept: ``True == 1`` and they hash alike, so a
    JSON ``true`` keyed with the rest would borrow the value of ``1``.  A
    refused string is not kept, and raises again wherever it occurs.
    """

    def __missing__(self, value):
        got = _read_entry(value)
        if type(value) is str:
            self[value] = got
        return got

    def rows(self, rows: list) -> list:
        """``rows`` with each entry read; as they are if one cannot be a key."""
        read = self.__getitem__
        try:
            return [list(map(read, row)) for row in rows]
        except TypeError:  # an unhashable entry, which Matrix refuses in its place
            return rows


def instance_to_json(rep: Representation, affine: AffineQuiver | None = None) -> dict:
    check_type(rep, Representation, "instance")
    if affine is not None:
        if to_quiver(affine) != rep.quiver:
            raise ValidationError("the affine quiver is not the representation's quiver")
        quiver_doc = {"affine": {"n": affine.n, "orientation": list(affine.orientation)}}
    else:
        quiver_doc = {
            "vertices": rep.quiver.vertex_count,
            "edges": [{"src": s, "dst": d} for s, d in rep.quiver.edges],
        }
    return {
        "field": _field_to_json(rep.field),
        "quiver": quiver_doc,
        "dims": list(rep.dims),
        "matrices": [
            {
                "edge": i,
                "rows": [[_entry_to_json(rep.field, x) for x in row] for row in m.data],
            }
            for i, m in enumerate(rep.mats)
        ],
    }


def instance_from_json(doc) -> Representation:
    if not isinstance(doc, dict):
        raise ParseError("instance: top level must be an object")
    fld = _field_from_json(_need(doc, "field", dict, "instance"))
    qobj = _need(doc, "quiver", dict, "instance")
    if "affine" in qobj:
        aobj = _need(qobj, "affine", dict, "quiver")
        n = _need(aobj, "n", int, "quiver.affine")
        orientation = _need(aobj, "orientation", list, "quiver.affine")
        if not all(is_int(o) and o in (0, 1) for o in orientation):
            raise ParseError("quiver.affine: orientation must be a 0/1 array")
        quiver = to_quiver(AffineQuiver(n, tuple(orientation)))
    else:
        vertices = _need(qobj, "vertices", int, "quiver")
        edges = []
        for i, eobj in enumerate(_need(qobj, "edges", list, "quiver")):
            edges.append(
                (_need(eobj, "src", int, f"edge {i}"), _need(eobj, "dst", int, f"edge {i}"))
            )
        quiver = Quiver(vertices, tuple(edges))
    dims = _need(doc, "dims", list, "instance")
    if not all(is_int(d) and d >= 0 for d in dims):
        raise ParseError("dims must be non-negative ints")
    if len(dims) != quiver.vertex_count:
        raise ValidationError(
            f"dims has {len(dims)} entries for {quiver.vertex_count} vertices"
        )
    mat_docs = _need(doc, "matrices", list, "instance")
    # QQ entry strings repeat across a document: each is read once
    reader = _RationalReader() if isinstance(fld, RationalField) else None
    mats = _residue_matrices(fld, quiver.edges, dims, mat_docs) if reader is None else None
    if mats is None:
        mats = _read_matrices(fld, quiver.edges, dims, mat_docs, reader)
    return Representation(quiver, fld, tuple(dims), mats)


def _residue_matrices(fld: PrimeField, edges, dims: list, mat_docs: list) -> list | None:
    """The matrices of a GF(p) document read in one pass, or None if it needs ``_read_matrices``.

    A document with one ``{"edge": e, "rows": rows}`` per edge hands the
    rows of all its matrices to the field's ``_read_blocks``, each with the
    dimension of its edge's source as its width, and that checks their
    shapes and entries together and builds each matrix.  Any other
    document, and one with a matrix of another width or an entry that
    ``coerce`` would reduce or refuse, gives None, and ``_read_matrices``
    reads it matrix by matrix in document order, so what is accepted or
    refused, and in which order, stays as it was.
    """
    slots: dict[int, list] = {}
    for mobj in mat_docs:
        if type(mobj) is not dict:
            return None
        e, rows = mobj.get("edge"), mobj.get("rows")
        if type(e) is not int or not 0 <= e < len(edges) or e in slots or type(rows) is not list:
            return None
        slots[e] = rows
    if len(slots) != len(edges):
        return None
    return fld._read_blocks([(slots[e], dims[src]) for e, (src, _) in enumerate(edges)])


def _read_matrices(fld: Field, edges, dims: list, mat_docs: list,
                   reader: _RationalReader | None) -> tuple:
    """The matrices of a document, each read by the public ``Matrix`` in document order.

    The first matrix that is malformed raises: ``ParseError`` for a bad
    key, edge or entry, ``ValidationError`` for ragged rows.  Over QQ
    ``reader`` reads the entry strings first.
    """
    slots: dict[int, Matrix] = {}
    for mobj in mat_docs:
        e = _need(mobj, "edge", int, "matrix")
        if e < 0 or e >= len(edges):
            raise ParseError(f"matrix for unknown edge {e}")
        if e in slots:
            raise ParseError(f"duplicate matrix for edge {e}")
        rows = _need(mobj, "rows", list, f"matrix {e}")
        if not all(isinstance(row, list) for row in rows):
            raise ParseError(f"matrix {e}: rows must be arrays")
        width = len(rows[0]) if rows else dims[edges[e][0]]
        if any(len(row) != width for row in rows):
            raise ValidationError("ragged rows in matrix data")
        try:
            if reader is not None:
                rows = reader.rows(rows)
            slots[e] = Matrix(fld, rows, width)
        except ValidationError as exc:
            raise ParseError(f"matrix {e}: {exc}") from exc
    if len(slots) != len(edges):
        missing = sorted(set(range(len(edges))) - set(slots))
        raise ParseError(f"missing matrices for edges {missing}")
    return tuple(slots[e] for e in range(len(edges)))


def barcode_to_json(bar: Barcode) -> list[dict]:
    check_type(bar, Barcode, "barcode")
    return [{"lo": iv.lo, "hi": iv.hi, "mult": m} for iv, m in bar.entries]


def hn_to_json(report: HNReport) -> list[dict]:
    check_type(report, HNReport, "HN report")
    return [
        {"slope": str(sl), "quotient_dims": list(dims)} for sl, dims in report.steps
    ]


def classes_to_json(classes: dict[NClass, int]) -> list[dict]:
    check_type(classes, dict, "class multiplicities")
    check_multiplicities(classes.items(), NClass, "wrapped-interval class")
    return [{"u": c.u, "len": c.v - c.u, "mult": classes[c]} for c in sorted(classes)]


def weights_from_json(items) -> StabilityCondition:
    if not isinstance(items, list):
        raise ParseError("weights file must hold a JSON array")
    try:
        return StabilityCondition(items)
    except ValidationError as exc:
        raise ParseError(f"weights: {exc}") from exc


def truth_to_json(
    fld: Field,
    intervals: dict[Interval, int] | None = None,
    n_classes: dict[NClass, int] | None = None,
    t_classes: dict[TClass, int] | None = None,
) -> dict:
    check_field(fld)
    for classes, kind in ((n_classes or {}, NClass), (t_classes or {}, TClass)):
        check_type(classes, dict, "summand multiplicities")
        check_multiplicities(classes.items(), kind, "summand class")
    doc: dict = {}
    if intervals is not None:
        doc["intervals"] = barcode_to_json(Barcode.from_dict(intervals))
    if n_classes is not None or t_classes is not None:
        summands = []
        for cls in sorted(n_classes or {}):
            summands.append({"type": "N", "u": cls.u, "v": cls.v, "mult": n_classes[cls]})
        for cls in sorted(t_classes or {}, key=lambda c: (str(c.lam), c.w)):
            summands.append(
                {
                    "type": "T",
                    "lam": _entry_to_json(fld, cls.lam),
                    "w": cls.w,
                    "mult": t_classes[cls],
                }
            )
        doc["summands"] = summands
    return doc


def write_json(path: str, doc) -> None:
    check_type(path, str, "path")
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc


def load_json(path: str):
    check_type(path, str, "path")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad JSON, bad UTF-8 and integer literals past
        # Python's digit limit; RecursionError covers very deep nesting
        raise ParseError(f"{path}: {exc}") from exc
