"""Exact dense linear algebra over the rationals and prime fields GF(p).

Scalars are ``fractions.Fraction`` values over the rationals and canonical
residues (plain ints in ``[0, p)``) over GF(p).  Matrices are immutable,
dense, row-major, and carry their field descriptor so that mixed-field
arithmetic is a detectable error rather than silent nonsense.

A Matrix holds its entries as integer rows over one denominator:
``ints`` is a tuple of tuple rows of Python ints and ``den`` a positive
int, and the entries are ``ints / den``.  Over GF(p) ``ints`` holds the
residues and ``den`` is 1; over QQ ``den`` is the least positive int
that clears every entry, so each matrix has exactly one (ints, den)
pair.  The entries themselves, Fractions over QQ, are built only when
``data`` is read.

Outside input enters through the public ``Matrix(field, data, cols)``,
which checks the shape and hands the rows to the field's ``read_rows``.
That takes each entry as the field's ``coerce`` would, refusing floats,
and clears the rows into their one (ints, den) pair.  Rows of ints (in
[0, p) over GF(p)), and over QQ rows of ints and Fractions, are checked
and cleared with no Python call per entry; any other rows go through
``coerce`` entry by entry.  A GF(p) instance file enters through
``PrimeField._read_blocks`` instead, when every entry of it is a
residue: the same C-level checks, run once over all of its matrices,
and then each is built by ``Matrix._canonical``; any other file goes
through ``Matrix``.  Results computed here skip that pass: the private
``Matrix._canonical`` takes integer rows over a den as they are, and a
den past 1, which only QQ results have, goes to ``RationalField.lowest``,
which divides rows and den by their gcd.

A public name refuses a wrong argument; a private one trusts its
callers here, which pass what checked constructors built: the sweep's
flag steps (``_flag_image``, ``_flag_preimage``, ``_flag_moved``,
``_flag_completed``, ``_scaled_solve``, ``_composed``, ``_carried``;
"flags" below), ``_echelon`` and ``_from_columns`` for the oracle's subspace
scan in ``hn`` ("subspace arithmetic" below), ``_block_diag`` for
``quiver.direct_sum``, and ``_read_entry`` and ``PrimeField._read_blocks``
for ``serialize``'s reader.  ``_read_entry`` reads each distinct QQ entry
string of a document once, "a" and "a/b" straight into ints, and
``read_rows`` takes the ``_Ratio`` pairs it returns as they are.

Everything here is pure and deterministic: echelon forms are the unique
reduced ones, so equality of spans reduces to equality of basis matrices.

Elimination and products run on the integer rows for every field,
through one kernel.  The field supplies the rest: its row update
(fraction-free with a gcd over QQ, in residues over GF(p)), its product,
both on rows packed into one int, a byte per column, over a small GF(p)
(the packed rows of M4RI: Albrecht, Bard and Hart, ACM TOMS 2010), the
reduction of an integer row to canonical entries, the scalars that turn
an eliminated [m | rhs] into a solution, the lowest terms of integer rows
over a den (QQ only), the gcd division of a basis's columns or of a
map's entries (QQ only), and the write-back of a row divided by its
pivot.  A packed row step returns ``bytes``, which index and slice as
residues do, so the rows an elimination leaves may be ``bytes``; each
caller reads them or writes them back, and none leaves this module.  No
rank, pivot or span moves when a matrix is scaled by a nonzero scalar,
so the flag operations read ``ints`` alone and return bases with
``den`` 1, and the barcode sweep builds no ``Fraction``.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import chain, groupby
from math import gcd, lcm
from operator import attrgetter, itemgetter, mul
from typing import NamedTuple

from .errors import ValidationError, check_counts, check_ints, check_type, shown


def _is_prime(n: int) -> bool:
    """Whether n is prime, by Miller-Rabin to the bases 2, 3, 5 and 7.

    Those bases decide every n below 3,215,031,751 (Jaeschke, Math. Comp.
    1993), which covers the moduli up to 2**31 that ``PrimeField`` takes.
    """
    if n < 2:
        return False
    for a in (2, 3, 5, 7):
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class RationalField:
    """The field of arbitrary-precision rationals."""

    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, value) -> Fraction:
        """``value`` as a Fraction: ints, rationals, and strings "a/b" or decimals.

        Floats and booleans are refused, and so are strings and Decimals
        with an exponent: ``Fraction("1e10000000")`` takes seconds to build.
        A Fraction is canonical and immutable already, so it is kept as it is.
        """
        if type(value) is Fraction:
            return value
        if isinstance(value, (bool, float)):
            raise ValidationError(f"QQ entry must be exact, not {type(value).__name__}")
        if isinstance(value, (str, Decimal)) and "e" in str(value).lower():
            raise ValidationError(f"QQ entry {shown(value)} has an exponent; write a/b or a decimal")
        try:
            return Fraction(value)
        except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ValidationError(f"QQ entry {shown(value)} is not a rational") from exc

    def read_rows(self, rows: Sequence[Sequence]) -> tuple[tuple, int]:
        """The integer rows and least den whose quotient is what ``coerce`` makes of ``rows``.

        Rows of ints are integer rows over 1 as they are, and rows of ints,
        Fractions and ``_read_entry``'s ``_Ratio`` pairs are cleared over
        the lcm of their denominators with no call per entry.  Any other
        rows go through ``coerce`` entry by entry, in row order, so the
        first entry it refuses raises.
        """
        kinds = set(map(type, chain.from_iterable(rows)))
        if kinds <= {int}:
            return tuple(map(tuple, rows)), 1
        if not kinds <= _EXACT_KINDS:
            coerce = self.coerce
            rows = [list(map(coerce, row)) for row in rows]
        den = lcm(*map(_denominator, chain.from_iterable(rows)))
        if den == 1:
            return tuple(tuple(map(_numerator, row)) for row in rows), 1
        return tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in rows), den

    def lowest(self, rows: Sequence[Sequence[int]], den: int) -> tuple[Sequence, int]:
        """Integer rows over ``den`` and ``den``, both divided by the gcd of all of them."""
        g = gcd(den, *chain.from_iterable(rows))
        if g > 1:
            return [[x // g for x in row] for row in rows], den // g
        return rows, den

    def row_update(self, row: Sequence[int], a: int, b: int, prow: Sequence[int]) -> list[int]:
        """``a * row - b * prow`` divided by the gcd of its entries: the fraction-free step."""
        new = [a * x - b * y for x, y in zip(row, prow)]
        g = gcd(*new)
        if g > 1:
            new = [x // g for x in new]
        return new

    def reduce(self, row: list[int]) -> list[int]:
        """An integer row in canonical entries: over QQ, the row as it is."""
        return row

    def product(self, left: Sequence[Sequence[int]], right: Sequence[Sequence[int]],
                cols: int) -> list[list[int]]:
        """The integer rows of ``left @ right``, one sum of products per entry."""
        right_cols = list(zip(*right)) if right else [()] * cols
        return [[sum(map(mul, lrow, col)) for col in right_cols] for lrow in left]

    def inverse_scales(self, pivots: Sequence[int]) -> tuple[list[int], int]:
        """Per pivot, the lcm L of ``pivots`` over it, and L: ``_scaled_solve``'s scalars."""
        den = lcm(*pivots)
        return [den // x for x in pivots], den

    def primitive_columns(self, rows: Sequence[Sequence[int]]) -> Sequence[Sequence[int]]:
        """``rows`` with each column divided by the gcd of its entries: a smaller basis."""
        # a zero column, which a singular map can leave, is kept as it is
        scales = [gcd(*col) or 1 for col in zip(*rows)]
        if any(g > 1 for g in scales):
            rows = [[x // g for x, g in zip(row, scales)] for row in rows]
        return rows

    def primitive(self, rows: Sequence[Sequence[int]]) -> Sequence[Sequence[int]]:
        """``rows`` divided by the gcd of all their entries: a smaller map, up to a scalar."""
        g = gcd(*chain.from_iterable(rows))
        return [[x // g for x in row] for row in rows] if g > 1 else rows

    def write_back(self, row: Sequence[int], d: int) -> list[Fraction]:
        """``row / d`` in canonical entries, one Fraction per nonzero entry."""
        zero = self.zero
        return [Fraction(x, d) if x else zero for x in row]

    def __repr__(self) -> str:
        return "QQ"


@dataclass(frozen=True)
class PrimeField:
    """GF(p) for a prime p <= 2**31; elements are residues in [0, p)."""

    p: int

    def __post_init__(self) -> None:
        check_ints((self.p,), "modulus")
        # bound first: the primality test is exact only below it
        if self.p > 2**31:
            raise ValidationError(f"modulus {shown(self.p)} exceeds 2**31")
        if not _is_prime(self.p):
            raise ValidationError(f"modulus {self.p} is not prime")
        # x % p for each byte x: 0 .. p-1 repeated, cut to 256 bytes
        residues = bytes(range(min(self.p, 256))) * (256 // self.p + 1)
        object.__setattr__(self, "_residues", residues[:256])
        # whether a packed row step fits in bytes (``row_update``)
        object.__setattr__(self, "_packs_rows", 2 * (self.p - 1) ** 2 < 256)

    zero = 0
    one = 1

    def coerce(self, value) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValidationError(f"GF({self.p}) entry must be an int, not {type(value).__name__}")
        return value % self.p

    def read_rows(self, rows: Sequence[Sequence]) -> tuple[tuple, int]:
        """The residue rows ``coerce`` makes of ``rows``, over 1.

        Rows of ints in [0, p) are taken as they are, from checks that run
        in C.  Any other rows go through ``coerce`` entry by entry, in row
        order, so the first entry it refuses raises.
        """
        if self._all_residues(rows):
            return tuple(map(tuple, rows)), 1
        coerce = self.coerce
        return tuple(tuple(map(coerce, row)) for row in rows), 1

    def _all_residues(self, rows: Sequence[Sequence]) -> bool:
        """Whether every entry of ``rows`` is an int in [0, p), from checks that run in C.

        No list of the entries is built: after the type check, ``bytes``
        packs them one byte each, and deleting the bytes below p (the first
        p bytes of the residue table, all 256 of them past p = 256) must
        leave nothing.  An entry outside [0, 256) stops the packing, and
        then only for p > 256 can every entry still be a residue.
        """
        entries = chain.from_iterable
        if not set(map(type, entries(rows))) <= {int}:
            return False
        try:
            return not bytes(entries(rows)).translate(None, self._residues[:self.p])
        except ValueError:
            return self.p > 256 and min(entries(rows)) >= 0 and max(entries(rows)) < self.p

    def _read_blocks(self, blocks: Sequence[tuple[list, int]]) -> list["Matrix"] | None:
        """The Matrices of many (rows, cols) ``blocks`` of residues, for ``serialize``'s reader.

        Every row of every block must be a list of cols ints in [0, p):
        one pass checks the rows and entries of all the blocks together,
        and ``Matrix._canonical`` builds each block, as ``Matrix`` would
        have built it.  Any other blocks give None, and the reader builds
        them one by one with ``Matrix``, which reduces or refuses what
        this does not take.
        """
        every_row = list(chain.from_iterable(rows for rows, _ in blocks))
        if not (set(map(type, every_row)) <= {list}
                and all(set(map(len, rows)) <= {cols} for rows, cols in blocks)
                and self._all_residues(every_row)):
            return None
        return [Matrix._canonical(self, rows, cols) for rows, cols in blocks]

    def row_update(self, row: Sequence[int], a: int, b: int, prow: Sequence[int]) -> Sequence[int]:
        """``a * row - b * prow`` in residues, for nonzero ``a``, ``b`` and rows in residues.

        While 2 * (p - 1)**2 < 256, so for p up to 11, each row is packed
        into one int, a byte per column, as ``product`` packs its right
        factor: the step is ``a * row + (p - b) * prow`` on the two ints, no
        byte of which carries, unpacked by ``to_bytes`` and reduced through
        the byte table.  The rows are read as they are, tuples of residues or
        the ``bytes`` this step returns; past the bound the step is one
        reduced entry per column.
        """
        p = self.p
        if self._packs_rows:
            packed = a * int.from_bytes(row, "little") + (p - b) * int.from_bytes(prow, "little")
            return packed.to_bytes(len(row), "little").translate(self._residues)
        return [(a * x - b * y) % p for x, y in zip(row, prow)]

    def reduce(self, row: list[int]) -> list[int]:
        """An integer row in residues."""
        p = self.p
        return [x % p for x in row]

    def product(self, left: Sequence[Sequence[int]], right: Sequence[Sequence[int]],
                cols: int) -> list[Sequence[int]]:
        """The rows of ``left @ right`` in residues, for factors in residues.

        Each row of ``right`` is packed into one int, a byte per column, so
        an output row is one sum of int products, unpacked by ``to_bytes``
        and reduced through a byte table (as in M4RI).  Exact only while
        (p - 1)**2 * len(right) < 256, so that no byte carries, and only for
        canonical residues in both factors; past that bound each entry is
        one reduced sum of products.
        """
        p = self.p
        if (p - 1) ** 2 * len(right) < 256:
            packed = [int.from_bytes(row, "little") for row in right]
            table = self._residues
            return [sum(map(mul, lrow, packed)).to_bytes(cols, "little").translate(table)
                    for lrow in left]
        right_cols = list(zip(*right)) if right else [()] * cols
        return [[sum(map(mul, lrow, col)) % p for col in right_cols] for lrow in left]

    def inverse_scales(self, pivots: Sequence[int]) -> tuple[list[int], int]:
        """Per pivot, its inverse mod p, and 1: ``_scaled_solve`` returns the solution itself."""
        p = self.p
        return [pow(x, -1, p) for x in pivots], 1

    def primitive_columns(self, rows: Sequence[Sequence[int]]) -> Sequence[Sequence[int]]:
        """``rows`` as they are: residues stay below p."""
        return rows

    primitive = primitive_columns

    def write_back(self, row: Sequence[int], d: int) -> Sequence[int]:
        """``row / d`` in residues, for ``row`` in residues: as a tuple when d is 1."""
        if d == 1:
            return tuple(row)
        p = self.p
        f = pow(d, -1, p)
        return [x * f % p for x in row]

    def __repr__(self) -> str:
        return f"GF({self.p})"


QQ = RationalField()

Field = RationalField | PrimeField

_numerator = attrgetter("numerator")
_denominator = attrgetter("denominator")


class _Ratio(NamedTuple):
    """The QQ entry a/b of an "a/b" string, with b > 1 and a, b coprime."""

    numerator: int
    denominator: int


# the QQ entries that RationalField.read_rows clears as they are
_EXACT_KINDS = frozenset({int, Fraction, _Ratio})


def _read_entry(value):
    """``value`` as an exact QQ entry, for ``serialize``'s reader.

    A string "a" or "a/b", in ASCII digits with at most a leading minus
    on a, is read into ints: an int, or a ``_Ratio`` when b does not
    divide a.  Any other value, and such a string whose digits run past
    Python's limit or whose b is 0, goes through ``QQ.coerce``, so it is
    accepted or refused as it is there, with the same message.  An int is
    returned as it is.
    """
    kind = type(value)
    if kind is str:
        a, slash, b = value.partition("/")
        digits = a[1:] if a[:1] == "-" else a
        if (digits.isdigit() and digits.isascii()
                and (not slash or b.isdigit() and b.isascii())):
            try:
                num, den = int(a), int(b) if slash else 1
            except ValueError:  # past the digit limit
                return QQ.coerce(value)
            if den:
                g = gcd(num, den)
                return num // g if den == g else _Ratio(num // g, den // g)
    elif kind is int:
        return value
    return QQ.coerce(value)


def GF(p: int) -> PrimeField:
    return PrimeField(p)


def check_field(fld) -> None:
    """ValidationError unless ``fld`` is QQ or a GF(p)."""
    if not isinstance(fld, Field):
        raise ValidationError(f"field: {shown(fld)} is not QQ or a GF(p)")


def _store(m: "Matrix", field: Field, cols: int, ints: tuple, den: int) -> "Matrix":
    """Set the five slots of ``m`` through their own setters, bypassing its immutability guard."""
    set_field, set_rows, set_cols, set_ints, set_den = _SLOT_SETTERS
    set_field(m, field)
    set_rows(m, len(ints))
    set_cols(m, cols)
    set_ints(m, ints)
    set_den(m, den)
    return m


class Matrix:
    """Immutable dense matrix: the integer rows ``ints`` over the denominator ``den``.

    The public constructor checks the field and that the rows are lists
    or tuples of one length; the field's ``read_rows`` then takes every
    entry as its ``coerce`` would (``ValidationError`` for the first it
    refuses, in row order) and clears the rows, so a Matrix is always in
    canonical form: ``den`` is 1 over GF(p), and over QQ the gcd of
    ``den`` and all of ``ints`` is 1.
    ``Matrix._canonical`` trusts integer rows over a den and puts them in
    that form, a den past 1 (QQ only) with ``RationalField.lowest``; it is
    only for results computed in this module and for the residue rows that
    ``PrimeField._read_blocks`` checked.  ``data`` builds the entries.
    """

    __slots__ = ("field", "rows", "cols", "ints", "den")

    def __init__(self, field: Field, data: Sequence[Sequence], cols: int | None = None):
        check_field(field)
        rowlike = (list, tuple)
        if not isinstance(data, rowlike) or data and not isinstance(data[0], rowlike):
            raise ValidationError("matrix data must be a list of rows")
        if cols is not None:
            check_counts((cols,), "matrix size")
        if data:
            width = len(data[0])
            if cols is not None and cols != width:
                raise ValidationError("explicit cols disagrees with row length")
            cols = width
        elif cols is None:
            cols = 0
        for i, row in enumerate(data):
            if not isinstance(row, rowlike) or len(row) != cols:
                # the entries of the rows above are read first, so one
                # the field refuses there raises before the shape does
                field.read_rows(data[:i])
                raise ValidationError("ragged rows in matrix data")
        _store(self, field, cols, *field.read_rows(data))

    @classmethod
    def _canonical(cls, field: Field, rows: Sequence[Sequence[int]], cols: int,
                   den: int = 1) -> "Matrix":
        """The Matrix of integer rows over ``den``, put in lowest terms by ``field.lowest``.

        Only a QQ result has a den past 1: over GF(p) every computed den is 1.
        """
        if den > 1:
            rows, den = field.lowest(rows, den)
        return _store(object.__new__(cls), field, cols, tuple(map(tuple, rows)), den)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    def __delattr__(self, name):
        raise AttributeError("Matrix is immutable")

    @property
    def data(self) -> tuple[tuple, ...]:
        """The entries as a tuple of row tuples: Fractions over QQ, residues over GF(p)."""
        write_back, den = self.field.write_back, self.den
        return tuple(tuple(write_back(row, den)) for row in self.ints)

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Matrix":
        check_field(field)
        check_counts((rows, cols), "matrix size")
        return Matrix._canonical(field, [(0,) * cols] * rows, cols)

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        check_field(field)
        check_counts((n,), "matrix size")
        return Matrix._canonical(field, _unit_rows(n), n)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.den == other.den
            and self.ints == other.ints
        )

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.den, self.ints))

    def __repr__(self) -> str:
        return f"Matrix({self.field!r}, {self.rows}x{self.cols}, {list(map(list, self.data))})"

    def __matmul__(self, other: "Matrix") -> "Matrix":
        check_type(other, Matrix, "matmul factor")
        if self.field != other.field:
            raise ValidationError("matmul across different fields")
        if self.cols != other.rows:
            raise ValidationError(
                f"matmul shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        field, cols = self.field, other.cols
        return Matrix._canonical(field, field.product(self.ints, other.ints, cols), cols,
                                 self.den * other.den)


# the setters of Matrix's slots, in ``__slots__`` order: faster than object.__setattr__
_SLOT_SETTERS = tuple(Matrix.__dict__[name].__set__ for name in Matrix.__slots__)


def _unit_rows(n: int) -> list[tuple[int, ...]]:
    """The integer rows of the n x n identity."""
    return [(0,) * i + (1,) + (0,) * (n - i - 1) for i in range(n)]


def _block_diag(a: Matrix, b: Matrix) -> Matrix:
    # both blocks over the lcm of their denominators
    den = lcm(a.den, b.den)
    sa, sb = den // a.den, den // b.den
    rows = [[x * sa for x in row] + [0] * b.cols for row in a.ints]
    rows += [[0] * a.cols + [x * sb for x in row] for row in b.ints]
    return Matrix._canonical(a.field, rows, a.cols + b.cols, den)


def _gauss_jordan(field: Field, work: list[Sequence[int]], reduced: bool = True) -> list[int]:
    """Reduce the integer rows ``work`` in place to row-echelon form.

    Returns the pivot columns; row i holds the pivot of column
    ``pivots[i]`` and every row past the last pivot is zero.  This is the
    one elimination loop of the package: ``rank``, ``subspace_contains``,
    ``_echelon`` (and so the oracle's floor step in ``hn``),
    ``_flag_image``, ``_flag_preimage``, ``_flag_completed`` and
    ``_scaled_solve`` (``inverse``'s and ``_composed``'s too) run through it
    (a kernel is the ``_flag_preimage`` of the zero subspace), and no other
    code takes a row step.  With ``reduced=False`` only the rows below each
    pivot are cleared: the pivots are the same, at about half the row
    operations, which is all a rank needs.  The rows are then unspecified,
    and its callers (``rank``, ``subspace_contains``, ``_flag_image``,
    ``_flag_completed``) read only the pivots.

    The rows are integer rows of ``field`` (a Matrix's ``ints``), and
    only the list is changed: a row is swapped or replaced, never written
    to.  A row update is ``field.row_update(row, a, b, prow)``,
    ``a*row - b*prow`` with ``a`` the pivot and ``b`` the row's entry under
    it: over QQ divided by the gcd of its entries, which keeps the rows
    small as Bareiss's (1968) exact division would, and over GF(p) in
    residues.  Pivot rows are not scaled, so each row is a nonzero
    multiple of the row that textbook elimination holds at the same step,
    the pivots and row updates are the same, and a full reduction leaves
    pivot row i as its pivot times the reduced row.  ``_flag_preimage``
    and ``_scaled_solve`` read those rows as they are; ``_echelon``
    writes them back.  Over GF(p) for p up to 11 an updated row comes
    back as the ``bytes`` of the field's packed step, which the next
    update takes as it is, so a row that any update replaced is ``bytes``.
    """
    update = field.row_update
    nr = len(work)
    nc = len(work[0]) if work else 0
    pivots = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        pr = None
        for i in range(r, nr):
            if work[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        prow = work[r]
        pv = prow[c]
        for i in range(0 if reduced else r + 1, nr):
            if i != r and work[i][c] != 0:
                work[i] = update(work[i], pv, work[i][c], prow)
        pivots.append(c)
        r += 1
    return pivots


def _echelon(field: Field, rows: Iterable[Sequence[int]]) -> tuple[list[Sequence], list[int]]:
    """The nonzero reduced row-echelon rows of the integer ``rows``, and the pivots.

    Each pivot row that ``_gauss_jordan`` leaves is written back divided by
    its pivot, in canonical entries, so no ``bytes`` row is handed out.
    """
    work = list(rows)
    pivots = _gauss_jordan(field, work)
    write_back = field.write_back
    return [write_back(work[i], work[i][c]) for i, c in enumerate(pivots)], pivots


def rank(m: Matrix) -> int:
    """Rank as the pivot count of the echelon form; 0 for empty matrices."""
    check_type(m, Matrix, "rank input")
    return len(_gauss_jordan(m.field, list(m.ints), reduced=False))


def inverse(m: Matrix) -> Matrix:
    """The inverse of ``m``: its ``_scaled_solve`` against I, times m.den over the scalar."""
    check_type(m, Matrix, "inverse input")
    if m.rows != m.cols:
        raise ValidationError("inverse of a non-square matrix")
    solved = _scaled_solve(m, _unit_rows(m.rows))
    if solved is None:
        raise ValidationError("matrix is not invertible")
    inv, scale = solved
    # m is ints / m.den, so its inverse is m.den times inv / scale
    rows = inv if m.den == 1 else [[x * m.den for x in row] for row in inv]
    return Matrix._canonical(m.field, rows, m.rows, scale)


def random_invertible_rng(dim: int, field: Field, rng: random.Random) -> Matrix:
    """The first invertible dim x dim draw: residues over GF(p), ints in [-9, 9] over QQ."""
    check_counts((dim,), "matrix size")
    check_type(rng, random.Random, "random source")
    while True:
        if isinstance(field, PrimeField):
            data = [[rng.randrange(field.p) for _ in range(dim)] for _ in range(dim)]
        else:
            data = [[rng.randint(-9, 9) for _ in range(dim)] for _ in range(dim)]
        cand = Matrix(field, data, dim)
        if rank(cand) == dim:
            return cand


# ---------------------------------------------------------------------------
# subspace arithmetic
#
# A subspace of K^d is represented by its canonical reduced column-echelon
# basis (a d x k Matrix), so subspace equality is matrix equality.  The
# oracle's scan in ``hn`` holds one as the tuple of its basis vectors, the
# rows that ``_echelon`` returns, and ``_from_columns`` builds its Matrix.
# ---------------------------------------------------------------------------


def subspace_contains(space: Matrix, vectors: Matrix) -> bool:
    """True iff every column of ``vectors`` lies in the span of the columns of ``space``.

    Scaling a block moves no rank, so the integer rows of both are ranked
    side by side, as they are: the vectors add no pivot to those of
    ``space`` exactly when they lie in its span.
    """
    check_type(space, Matrix, "subspace")
    check_type(vectors, Matrix, "vectors")
    if (space.field, space.rows) != (vectors.field, vectors.rows):
        raise ValidationError("subspace and vectors differ in field or height")
    if vectors.cols == 0:
        return True
    work = [a + b for a, b in zip(space.ints, vectors.ints)]
    return len(_gauss_jordan(space.field, work, reduced=False)) == rank(space)


def _from_columns(field: PrimeField, vectors: Sequence[Sequence[int]], dim: int) -> Matrix:
    """The dim x k Matrix over GF(p) whose columns are the k residue ``vectors``."""
    return Matrix._canonical(field, list(zip(*vectors)) if vectors else [()] * dim, len(vectors))


# ---------------------------------------------------------------------------
# flags
#
# A flag is a chain of nested subspaces of K^d held in one adapted basis:
# a d x k matrix of full column rank whose first ``dims[i]`` columns span
# member i.  Nested members are equal exactly when their dimensions are,
# so no member needs a canonical basis of its own, and each operation
# below moves the whole chain with at most one elimination.  An injective
# map moves it with none: the images of the columns stay independent, so
# ``_flag_moved`` is one product with the dims unchanged, and the preimage
# flag through an invertible map is the flag moved by its inverse.  A run
# of square maps moves it by ``_composed``: from the identity it builds
# the run's map, for a flag to cross by one product in every period of a
# periodic path, and from a flag's basis it moves that basis across the
# run with one solve per stretch of maps pointing left and one rank, and
# builds no map.  A member is the span of its columns, so a flag basis
# stands for its members up to column scaling, and a map up to a nonzero
# scalar: the operations read the ``ints`` of their Matrix arguments
# alone and return bases with ``den`` 1.
# ---------------------------------------------------------------------------


def _flag_image(m: Matrix, basis: Matrix, dims: Sequence[int]) -> tuple[Matrix, list[int]]:
    """The flag of images m(member i), with one elimination of ``m @ basis``.

    A column of ``m @ basis`` outside the span of the columns before it is
    a pivot column of its echelon form, so the pivot columns are an adapted
    basis of the image flag, and member i keeps the pivots among its first
    ``dims[i]`` columns.
    """
    if basis.cols == 0 or m.rows == 0:
        return Matrix._canonical(m.field, ((),) * m.rows, 0), [0] * len(dims)
    moved = m.field.product(m.ints, basis.ints, basis.cols)
    pivots = _gauss_jordan(m.field, list(moved), reduced=False)
    kept = [[row[j] for j in pivots] for row in moved]
    return Matrix._canonical(m.field, kept, len(pivots)), [bisect_left(pivots, d) for d in dims]


def _flag_preimage(m: Matrix, basis: Matrix, dims: Sequence[int]) -> tuple[Matrix, list[int]]:
    """The flag of preimages {x : m @ x in member i}, with one RREF of [m | basis].

    m(x) lies in member i exactly when (x; y) is in the kernel of
    [m | first dims[i] columns of basis] for some y.  With the x columns
    first, the kernel vector of each free column is zero past that column,
    so the kernel of that truncation is spanned by the vectors of the free
    columns among its first ``m.cols + dims[i]``.  Their x-parts are an
    adapted basis of the preimage flag: projecting to x is injective on
    the kernel, because ``basis`` has full column rank.

    The reduced rows hold each pivot unscaled, so each kernel vector is
    built on ints: times the lcm of the pivots, reduced, then made small
    by the field's ``primitive_columns``.
    """
    field = m.field
    if m.cols == 0 or m.rows == 0:
        return Matrix.identity(field, m.cols), [m.cols] * len(dims)
    work = [row + brow for row, brow in zip(m.ints, basis.ints)]
    pivots = _gauss_jordan(field, work)
    taken = set(pivots)
    free = [c for c in range(m.cols + basis.cols) if c not in taken]
    leading = [(work[i], pc) for i, pc in enumerate(pivots) if pc < m.cols]
    den = lcm(*[row[pc] for row, pc in leading])
    head = [(row, pc, den // row[pc]) for row, pc in leading]
    reduce = field.reduce
    columns = []
    for f in free:
        vec = [0] * m.cols
        if f < m.cols:
            vec[f] = den
        for row, pc, scale in head:
            vec[pc] = -row[f] * scale
        columns.append(reduce(vec))
    rows = field.primitive_columns(list(zip(*columns))) if columns else ((),) * m.cols
    new_dims = [bisect_left(free, m.cols + d) for d in dims]
    return Matrix._canonical(field, rows, len(columns)), new_dims


def _flag_moved(m: Matrix, basis: Matrix, dims: Sequence[int]) -> tuple[Matrix, list[int]]:
    """The flag of images m(member i) for an injective m, with one product and no elimination.

    An injective m keeps the columns of ``m @ basis`` independent, so they
    are an adapted basis of the image flag with the same dims.  The
    preimage flag through an invertible edge matrix is this flag moved by
    its inverse, as ``_composed`` builds it.  Over QQ the field's
    ``primitive_columns`` divides each column by its gcd, as for
    ``_flag_preimage``'s kernel vectors, so a basis carried across many
    products keeps small entries.
    """
    field = m.field
    moved = field.primitive_columns(field.product(m.ints, basis.ints, basis.cols))
    return Matrix._canonical(field, moved, basis.cols), list(dims)


def _scaled_solve(m: Matrix, rhs: Sequence[Sequence[int]]) -> tuple[list, int] | None:
    """The rows of s * m.ints⁻¹ @ rhs for a nonzero scalar s, and s; None if m is singular.

    One elimination of [m.ints | rhs], m square: its pivots all fall in
    m's columns exactly when m is invertible, and full reduction then
    leaves row i as its pivot times the reduced row, whose right half is
    row i of the solution.  The field's ``inverse_scales`` gives each
    row's multiplier and s: over QQ the lcm L of the pivots over the
    pivot, and L, which keeps the rows integer; over GF(p) the pivot's
    inverse, and 1.
    """
    n = m.rows
    work = [row + tuple(xrow) for row, xrow in zip(m.ints, rhs)]
    pivots = _gauss_jordan(m.field, work)
    if len(pivots) < n or pivots and pivots[-1] >= n:
        return None
    scales, s = m.field.inverse_scales([work[i][i] for i in range(n)])
    reduce = m.field.reduce
    return [reduce([x * f for x in row[n:]]) for f, row in zip(scales, work)], s


def _composed(run: Sequence[tuple[Matrix, bool]],
              basis: Matrix | None = None) -> tuple[Matrix | None, int]:
    """The map of a run of d x d crossings up to a nonzero scalar, or None if one is singular.

    ``run`` holds (matrix, points right) pairs, crossed in order, and
    ``_carried`` moves the identity across it; one rank of the result then
    certifies the maps pointing right, if any.  Given a flag ``basis`` of
    full column rank, the same steps move it instead, and the result is
    the basis of the flag across the run, dims unchanged, or None.  Also
    returns the length of the prefix whose left-pointing crossings a
    solve certified.
    """
    moved, solved = _carried(run, basis)
    if moved is not None and any(forward for _, forward in run) and rank(moved) < moved.cols:
        return None, solved
    return moved, solved


def _carried(run: Sequence[tuple[Matrix, bool]],
             basis: Matrix | None = None) -> tuple[Matrix | None, int]:
    """``_composed`` with no rank: ``basis`` (the identity if None) moved across ``run``.

    X starts as ``basis``: f pointing right makes it f @ X, and a stretch
    of b1, b2, ... pointing left makes it B⁻¹ @ X for B = b1 @ b2 @ ...,
    one ``_scaled_solve`` of [B | X] that fails exactly when B is
    singular, and then X is None.  A map, unlike a basis, is scaled as a
    whole: from the identity each result goes through the field's
    ``primitive``, and a basis through its ``primitive_columns``, as in
    ``_flag_moved``.  Also returns the length of the prefix whose
    left-pointing crossings a solve certified.  A run of crossings known
    to be bijections needs no rank, and ``_segments`` composes such
    stretches here.
    """
    field, d = run[0][0].field, run[0][0].cols
    product, primitive = field.product, field.primitive
    scaled = primitive if basis is None else field.primitive_columns
    x, cols = (None, d) if basis is None else (basis.ints, basis.cols)
    solved = 0
    for forward, stretch in groupby(run, itemgetter(1)):
        mats = [m for m, _ in stretch]
        if forward:
            for f in mats:
                x = f.ints if x is None else scaled(product(f.ints, x, cols))
        else:
            b = mats[0]
            for m in mats[1:]:
                b = Matrix._canonical(field, primitive(product(b.ints, m.ints, d)), d)
            out = _scaled_solve(b, _unit_rows(d) if x is None else x)
            if out is None:
                return None, solved
            x = scaled(out[0])
        solved += len(mats)
    return Matrix._canonical(field, x, cols), solved


def _flag_completed(basis: Matrix) -> Matrix:
    """``basis`` followed by the unit vectors that extend it to all of K^d.

    The unit vectors are those of the rows that are not pivots of the
    echelon form of ``basis`` transposed, found with one elimination.
    """
    d = basis.rows
    if basis.cols == d:
        return basis
    if basis.cols == 0:
        return Matrix.identity(basis.field, d)
    taken = set(_gauss_jordan(basis.field, list(zip(*basis.ints)), reduced=False))
    extra = [r for r in range(d) if r not in taken]
    block = zip(*[(0,) * e + (1,) + (0,) * (d - e - 1) for e in extra])  # unit columns
    rows = [row + ext for row, ext in zip(basis.ints, block)]
    return Matrix._canonical(basis.field, rows, d)
