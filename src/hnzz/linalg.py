"""Exact dense linear algebra over the rationals and prime fields GF(p).

Scalars are ``fractions.Fraction`` values over the rationals and canonical
residues (plain ints in ``[0, p)``) over GF(p).  Matrices are immutable,
dense, row-major, and carry their field descriptor so that mixed-field
arithmetic is a detectable error rather than silent nonsense.

Outside input, instance files included, enters through the public
``Matrix(field, data, cols)``, which checks the shape and coerces every
entry, refusing floats; only results computed here skip that pass, via
the private ``Matrix._canonical``.

Everything here is pure and deterministic: echelon forms are the unique
reduced ones, so equality of spans reduces to equality of basis matrices.

Elimination and products run on integer rows for every field, through
one kernel.  ``_cleared`` turns a matrix into integer rows: over QQ it
multiplies them by the lcm of all the denominators, and GF(p) residues
are integer rows already.  The field supplies the rest: its row update
(fraction-free with a gcd over QQ, in residues over GF(p)), its product
(packed rows over a small GF(p), as in M4RI: Albrecht, Bard and Hart,
ACM TOMS 2010), the reduction of an integer row to canonical entries,
the gcd division of a basis's columns (QQ only), and the write-back of a
row divided by its pivot.  The flag operations take and return an
``IntMatrix``, integer rows that stand for a matrix up to nonzero
scalars, so the barcode sweep clears each edge matrix once and then
builds no ``Fraction``.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

from .errors import GuardError, ValidationError, check_counts, check_ints, check_type, shown


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
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

    def primitive_columns(self, rows: Sequence[Sequence[int]]) -> Sequence[Sequence[int]]:
        """``rows`` with each column divided by the gcd of its entries: a smaller basis."""
        scales = [gcd(*col) for col in zip(*rows)]
        if any(g > 1 for g in scales):
            rows = [[x // g for x, g in zip(row, scales)] for row in rows]
        return rows

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
        # bound first: trial division of a huge modulus would not finish
        if self.p > 2**31:
            raise ValidationError(f"modulus {shown(self.p)} exceeds 2**31")
        if not _is_prime(self.p):
            raise ValidationError(f"modulus {self.p} is not prime")
        object.__setattr__(self, "_residues", bytes(x % self.p for x in range(256)))

    zero = 0
    one = 1

    def coerce(self, value) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValidationError(f"GF({self.p}) entry must be an int, not {type(value).__name__}")
        return value % self.p

    def row_update(self, row: Sequence[int], a: int, b: int, prow: Sequence[int]) -> list[int]:
        """``a * row - b * prow`` in residues."""
        p = self.p
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
            packed = [int.from_bytes(bytes(row), "little") for row in right]
            table = self._residues
            return [sum(map(mul, lrow, packed)).to_bytes(cols, "little").translate(table)
                    for lrow in left]
        right_cols = list(zip(*right)) if right else [()] * cols
        return [[sum(map(mul, lrow, col)) % p for col in right_cols] for lrow in left]

    def primitive_columns(self, rows: Sequence[Sequence[int]]) -> Sequence[Sequence[int]]:
        """``rows`` as they are: residues stay below p."""
        return rows

    def write_back(self, row: Sequence[int], d: int) -> Sequence[int]:
        """``row / d`` in residues, for ``row`` in residues: as it is when d is 1."""
        if d == 1:
            return row
        p = self.p
        f = pow(d, -1, p)
        return [x * f % p for x in row]

    def __repr__(self) -> str:
        return f"GF({self.p})"


QQ = RationalField()

Field = RationalField | PrimeField


def GF(p: int) -> PrimeField:
    return PrimeField(p)


def check_field(fld) -> None:
    """ValidationError unless ``fld`` is QQ or a GF(p)."""
    if not isinstance(fld, Field):
        raise ValidationError(f"field: {shown(fld)} is not QQ or a GF(p)")


def _store(m: "Matrix", field: Field, cols: int, data: tuple) -> "Matrix":
    """Set the four slots of ``m``, bypassing its immutability guard."""
    object.__setattr__(m, "field", field)
    object.__setattr__(m, "rows", len(data))
    object.__setattr__(m, "cols", cols)
    object.__setattr__(m, "data", data)
    return m


class Matrix:
    """Immutable dense matrix; ``data`` is a tuple of row tuples.

    The public constructor checks the field, that the rows are lists or
    tuples of one length, and coerces every entry into the field
    (``ValidationError`` for each refusal), so a Matrix is always in
    canonical form: reduced fractions / residues in [0, p).
    ``Matrix._canonical`` trusts rows that are canonical already; it is
    only for results computed in this module.
    """

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, data: Sequence[Sequence], cols: int | None = None):
        check_field(field)
        rowlike = (list, tuple)
        if not isinstance(data, rowlike) or data and not isinstance(data[0], rowlike):
            raise ValidationError("matrix data must be a list of rows")
        if data:
            width = len(data[0])
            if cols is not None and cols != width:
                raise ValidationError("explicit cols disagrees with row length")
            cols = width
        elif cols is None:
            cols = 0
        coerce = field.coerce
        packed = []
        for row in data:
            if not isinstance(row, rowlike) or len(row) != cols:
                raise ValidationError("ragged rows in matrix data")
            packed.append(tuple(map(coerce, row)))
        _store(self, field, cols, tuple(packed))

    @classmethod
    def _canonical(cls, field: Field, rows: Iterable[Sequence], cols: int) -> "Matrix":
        """A Matrix of rows already in canonical form: no coercion, no checks."""
        return _store(object.__new__(cls), field, cols, tuple(map(tuple, rows)))

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    def __delattr__(self, name):
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Matrix":
        check_field(field)
        check_counts((rows, cols), "matrix size")
        return Matrix._canonical(field, [(field.zero,) * cols] * rows, cols)

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        check_field(field)
        check_counts((n,), "matrix size")
        z, o = field.zero, field.one
        rows = [[o if i == j else z for j in range(n)] for i in range(n)]
        return Matrix._canonical(field, rows, n)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.data))

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
        field = self.field
        left, lden = _cleared(field, self.data)
        right, rden = _cleared(field, other.data)
        write_back, den = field.write_back, lden * rden
        out = [write_back(row, den) for row in field.product(left, right, other.cols)]
        return Matrix._canonical(field, out, other.cols)


class IntMatrix(NamedTuple):
    """A matrix on rows of Python ints, which the flag operations move as they are.

    Over GF(p) the rows are the residues of a Matrix.  Over QQ they stand
    for a rational matrix up to nonzero scalars: ``IntMatrix.of`` clears a
    Matrix of its denominators by multiplying it by their lcm, and a flag
    basis may carry each column scaled by its own nonzero rational.  No
    such scaling moves a flag member, a pivot set or a rank, and those are
    all that the flag operations read.
    """

    field: Field
    rows: int
    cols: int
    data: tuple[tuple[int, ...], ...]

    @staticmethod
    def of(m: Matrix) -> IntMatrix:
        """``m`` on int rows: over QQ, times the lcm of all its denominators."""
        check_type(m, Matrix, "int rows of")
        rows, _ = _cleared(m.field, m.data)
        return IntMatrix(m.field, m.rows, m.cols, tuple(map(tuple, rows)))

    @staticmethod
    def identity(field: Field, n: int) -> IntMatrix:
        return IntMatrix(field, n, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @staticmethod
    def zero_space(field: Field, dim: int) -> IntMatrix:
        return IntMatrix(field, dim, 0, ((),) * dim)


def hstack(mats: Iterable[Matrix]) -> Matrix:
    check_type(mats, Iterable, "hstack blocks")
    mats = list(mats)
    if not mats:
        raise ValidationError("hstack of nothing")
    for m in mats:
        check_type(m, Matrix, "hstack block")
        if (m.field, m.rows) != (mats[0].field, mats[0].rows):
            raise ValidationError("hstack shape/field mismatch")
    field, rows = mats[0].field, mats[0].rows
    cols = sum(m.cols for m in mats)
    data = [sum((m.data[i] for m in mats), ()) for i in range(rows)]
    return Matrix._canonical(field, data, cols)


def block_diag(a: Matrix, b: Matrix) -> Matrix:
    check_type(a, Matrix, "block")
    check_type(b, Matrix, "block")
    if a.field != b.field:
        raise ValidationError("block_diag across different fields")
    field = a.field
    z = field.zero
    data = [list(row) + [z] * b.cols for row in a.data]
    data += [[z] * a.cols + list(row) for row in b.data]
    return Matrix._canonical(field, data, a.cols + b.cols)


def _cleared(field: Field, rows: Iterable[Sequence]) -> tuple[list[Sequence[int]], int]:
    """``rows`` as integer rows in a fresh list, and the scalar they were multiplied by.

    Over QQ that scalar is the lcm of all the denominators, so the rows
    stand for the matrix up to one nonzero scalar.  GF(p) residues are
    integer rows already: they come back as they are, times 1.
    """
    if isinstance(field, PrimeField):
        return list(rows), 1
    rows = list(rows)
    den = lcm(*[x.denominator for row in rows for x in row])
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


def _gauss_jordan(field: Field, work: list[Sequence[int]], reduced: bool = True) -> list[int]:
    """Reduce the integer rows ``work`` in place to row-echelon form.

    Returns the pivot columns; row i holds the pivot of column
    ``pivots[i]`` and every row past the last pivot is zero.  This is the
    one elimination loop of the package: ``rref``, ``rank``,
    ``span_with_image``, ``flag_image``, ``flag_preimage``,
    ``flag_completed`` and ``scaled_inverse`` run through it (a kernel is
    the ``flag_preimage`` of the zero subspace), and no other code takes
    a row step.  With ``reduced=False`` only the rows below each pivot
    are cleared: the pivots are the same, at about half the row
    operations, which is all ``rank`` needs.  The rows are then
    unspecified, and its callers (``rank``, ``flag_image``,
    ``flag_completed``) read only the pivots.

    The rows are canonical integer rows of ``field`` (``_cleared``), and
    only the list is changed: a row is swapped or replaced, never written
    to.  A row update is ``field.row_update(row, a, b, prow)``,
    ``a*row - b*prow`` with ``a`` the pivot and ``b`` the row's entry under
    it: over QQ divided by the gcd of its entries, which keeps the rows
    small as Bareiss's (1968) exact division would, and over GF(p) in
    residues.  Pivot rows are not scaled, so each row is a nonzero
    multiple of the row that textbook elimination holds at the same step,
    the pivots and row updates are the same, and a full reduction leaves
    pivot row i as its pivot times the reduced row.  ``flag_preimage``
    reads those rows as they are; ``_echelon`` writes them back.
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


def _echelon(field: Field, rows: Iterable[Sequence]) -> tuple[list[Sequence], list[int]]:
    """The nonzero reduced row-echelon rows of ``rows`` in canonical entries, and the pivots.

    Each pivot row that ``_gauss_jordan`` leaves is written back divided by
    its pivot.
    """
    work, _ = _cleared(field, rows)
    pivots = _gauss_jordan(field, work)
    write_back = field.write_back
    return [write_back(work[i], work[i][c]) for i, c in enumerate(pivots)], pivots


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row-echelon form and its pivot columns."""
    check_type(m, Matrix, "rref input")
    reduced, pivots = _echelon(m.field, m.data)
    reduced += [(m.field.zero,) * m.cols] * (m.rows - len(pivots))
    return Matrix._canonical(m.field, reduced, m.cols), tuple(pivots)


def rank(m: Matrix) -> int:
    """Rank as the pivot count of the echelon form; 0 for empty matrices."""
    check_type(m, Matrix, "rank input")
    return len(_gauss_jordan(m.field, _cleared(m.field, m.data)[0], reduced=False))


def inverse(m: Matrix) -> Matrix:
    check_type(m, Matrix, "inverse input")
    if m.rows != m.cols:
        raise ValidationError("inverse of a non-square matrix")
    n = m.rows
    reduced, pivots = rref(hstack([m, Matrix.identity(m.field, n)]))
    if len(pivots) != n or any(c >= n for c in pivots):
        raise ValidationError("matrix is not invertible")
    data = [row[n:] for row in reduced.data]
    return Matrix._canonical(m.field, data, n)


def random_matrix(field: Field, rows: int, cols: int, rng: random.Random) -> Matrix:
    if isinstance(field, PrimeField):
        data = [[rng.randrange(field.p) for _ in range(cols)] for _ in range(rows)]
    else:
        data = [[Fraction(rng.randint(-9, 9)) for _ in range(cols)] for _ in range(rows)]
    return Matrix(field, data, cols)


def random_invertible_rng(dim: int, field: Field, rng: random.Random) -> Matrix:
    while True:
        cand = random_matrix(field, dim, dim, rng)
        if rank(cand) == dim:
            return cand


# ---------------------------------------------------------------------------
# subspace arithmetic
#
# A subspace of K^d is represented by its canonical reduced column-echelon
# basis (a d x k Matrix), so subspace equality is matrix equality.  The
# oracle's scan holds one as the tuple of its basis vectors, the rows that
# ``_echelon`` returns, and converts only at its boundary (``columns``,
# ``from_columns``).
# ---------------------------------------------------------------------------


def subspace_contains(space: Matrix, vectors: Matrix) -> bool:
    """True iff every column of ``vectors`` lies in span(space)."""
    if vectors.cols == 0:
        return True
    return rank(hstack([space, vectors])) == space.cols


# Subspace enumeration over GF(p) grows like p^(dim^2/4); these limits keep
# the oracle's scans in the "finishes in seconds" regime.
ENUM_MAX_DIM = 6
ENUM_MAX_P = 3


def check_enum_guard(dim: int, field: PrimeField) -> None:
    """Refuse unless GF(p)^dim is small enough to walk."""
    check_ints((dim,), "enumeration dimension")
    check_type(field, PrimeField, "enumeration field")
    if dim < 0:
        raise ValidationError("negative dimension")
    if dim > ENUM_MAX_DIM or field.p > ENUM_MAX_P:
        raise GuardError(
            f"subspace enumeration guard exceeded (dim={dim}, p={field.p}; "
            f"limits dim<={ENUM_MAX_DIM}, p<={ENUM_MAX_P})"
        )


def columns(m: Matrix) -> tuple[tuple, ...]:
    """The columns of ``m`` as tuples: the basis vectors of a column-echelon basis."""
    return tuple(zip(*m.data))


def from_columns(field: Field, vectors: Sequence[Sequence], dim: int) -> Matrix:
    """The dim x k Matrix whose columns are the k canonical ``vectors``."""
    return Matrix._canonical(field, zip(*vectors) if vectors else [()] * dim, len(vectors))


def span_with_image(field: Field, floor: tuple[tuple, ...], basis: Sequence[Sequence[int]],
                    transposed: Sequence[Sequence[int]]) -> tuple[tuple, ...]:
    """Basis vectors of span(floor) + m(span(basis)), from the rows of m transposed.

    The images are the nonzero rows of ``basis @ transposed``; with none,
    the floor is the answer, and otherwise one ``_echelon`` of them and the
    floor vectors gives the canonical basis.
    """
    images = [row for row in field.product(basis, transposed, len(transposed[0])) if any(row)]
    if not images:
        return floor
    return tuple(map(tuple, _echelon(field, [*floor, *images])[0]))


def superspaces(field: Field, floor: Sequence[tuple[int, ...]], dim: int, k: int
                ) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The subspaces of GF(p)^dim containing span(floor) with k more dimensions.

    ``floor`` and each subspace yielded are canonical basis-vector tuples.
    The k-dimensional subspaces of the quotient are walked on the floor's
    free coordinates, those that lead no floor vector: for each k of them
    as pivots, in lexicographic order, every filling of the entries past
    each pivot at the other free coordinates, in ``product`` order.  The
    new vectors vanish at the floor's pivots and at each other's, so
    clearing the floor vectors at the new pivots and merging the two parts
    by pivot gives the reduced echelon basis with no elimination.  The
    refusals, the quotient's guard among them, come before any yield.
    """
    check_type(field, PrimeField, "superspace enumeration field")
    check_counts((dim, k), "superspace dimension")
    try:
        taken = {vec.index(1) for vec in floor}
    except (AttributeError, TypeError, ValueError):
        raise ValidationError(f"superspace floor {shown(floor)} is not a basis-vector tuple") from None
    free = [r for r in range(dim) if r not in taken]
    check_enum_guard(len(free), field)
    p = field.p

    def generate() -> Iterator[tuple[tuple[int, ...], ...]]:
        for pivots in combinations(free, k):
            slots = [(j, r) for j, c in enumerate(pivots) for r in free if r > c and r not in pivots]
            # each floor vector with its nonzero entries at the new pivots
            clear = [(vec, [(j, vec[c]) for j, c in enumerate(pivots) if vec[c]]) for vec in floor]
            for values in product(range(p), repeat=len(slots)):
                new = [[0] * dim for _ in pivots]
                for j, c in enumerate(pivots):
                    new[j][c] = 1
                for (j, r), x in zip(slots, values):
                    new[j][r] = x
                rows = [tuple(row) for row in new]
                for vec, hits in clear:
                    for j, a in hits:
                        vec = [(x - a * y) % p for x, y in zip(vec, new[j])]
                    rows.append(tuple(vec))
                # reduced echelon rows fall in lexicographic order as their pivots rise
                yield tuple(sorted(rows, reverse=True))

    return generate()


# ---------------------------------------------------------------------------
# flags
#
# A flag is a chain of nested subspaces of K^d held in one adapted basis:
# a d x k matrix of full column rank whose first ``dims[i]`` columns span
# member i.  Nested members are equal exactly when their dimensions are,
# so no member needs a canonical basis of its own, and each operation
# below moves the whole chain with at most one elimination.  An injective
# map moves it with none: the images of the columns stay independent, so
# ``flag_moved`` is one product with the dims unchanged, and the preimage
# flag through an invertible map is the flag moved by its inverse
# (``scaled_inverse``, once per map).  A member is the span of its columns,
# so each column may be scaled freely, and a map by a nonzero scalar: the
# operations take and return IntMatrix bases and edge matrices.
# ---------------------------------------------------------------------------


def flag_image(m: IntMatrix, basis: IntMatrix, dims: Sequence[int]
               ) -> tuple[IntMatrix, list[int]]:
    """The flag of images m(member i), with one elimination of ``m @ basis``.

    A column of ``m @ basis`` outside the span of the columns before it is
    a pivot column of its echelon form, so the pivot columns are an adapted
    basis of the image flag, and member i keeps the pivots among its first
    ``dims[i]`` columns.
    """
    if basis.cols == 0 or m.rows == 0:
        return IntMatrix.zero_space(m.field, m.rows), [0] * len(dims)
    moved = m.field.product(m.data, basis.data, basis.cols)
    pivots = _gauss_jordan(m.field, list(moved), reduced=False)
    kept = tuple(tuple(row[j] for j in pivots) for row in moved)
    return IntMatrix(m.field, m.rows, len(pivots), kept), [bisect_left(pivots, d) for d in dims]


def flag_preimage(m: IntMatrix, basis: IntMatrix, dims: Sequence[int]
                  ) -> tuple[IntMatrix, list[int]]:
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
        return IntMatrix.identity(field, m.cols), [m.cols] * len(dims)
    work = [row + brow for row, brow in zip(m.data, basis.data)]
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
    data = tuple(map(tuple, rows))
    new_dims = [bisect_left(free, m.cols + d) for d in dims]
    return IntMatrix(field, m.cols, len(columns), data), new_dims


def flag_moved(m: IntMatrix, basis: IntMatrix, dims: Sequence[int]
               ) -> tuple[IntMatrix, list[int]]:
    """The flag of images m(member i) for an injective m, with one product and no elimination.

    An injective m keeps the columns of ``m @ basis`` independent, so they
    are an adapted basis of the image flag with the same dims.  The
    preimage flag through an invertible edge matrix is this flag moved by
    ``scaled_inverse`` of it.  Over QQ the field's ``primitive_columns``
    divides each column by its gcd, as for ``flag_preimage``'s kernel
    vectors, so a basis carried across many products keeps small entries.
    """
    field = m.field
    moved = field.primitive_columns(field.product(m.data, basis.data, basis.cols))
    return IntMatrix(field, m.rows, basis.cols, tuple(map(tuple, moved))), list(dims)


def scaled_inverse(m: IntMatrix) -> IntMatrix | None:
    """m's inverse times one nonzero scalar, from one RREF of [m | I]; None unless m is invertible.

    Full reduction leaves row i as its pivot times the reduced row, so the
    right half of row i, times the lcm of the pivots over that pivot, is
    row i of the inverse times that lcm, as ``flag_preimage`` builds its
    kernel vectors.  A non-square m is refused with no elimination.
    """
    n = m.rows
    if m.cols != n:
        return None
    work = [row + tuple(int(i == j) for j in range(n)) for i, row in enumerate(m.data)]
    pivots = _gauss_jordan(m.field, work)
    if pivots and pivots[-1] >= n:
        return None
    den = lcm(*[work[i][i] for i in range(n)])
    reduce = m.field.reduce
    scaled = [reduce([x * (den // row[i]) for x in row[n:]]) for i, row in enumerate(work)]
    return IntMatrix(m.field, n, n, tuple(map(tuple, scaled)))


def flag_completed(basis: IntMatrix) -> IntMatrix:
    """``basis`` followed by the unit vectors that extend it to all of K^d.

    The unit vectors are those of the rows that are not pivots of the
    echelon form of ``basis`` transposed, found with one elimination.
    """
    d = basis.rows
    if basis.cols == d:
        return basis
    if basis.cols == 0:
        return IntMatrix.identity(basis.field, d)
    taken = set(_gauss_jordan(basis.field, list(zip(*basis.data)), reduced=False))
    extra = [r for r in range(d) if r not in taken]
    rows = tuple(row + tuple(int(r == e) for e in extra) for r, row in enumerate(basis.data))
    return IntMatrix(basis.field, d, d, rows)
