import random
import time
from decimal import Decimal
from fractions import Fraction
from math import gcd, isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hnzz
from hnzz import linalg
from hnzz.errors import GuardError, ValidationError
from hnzz.hn import _span_with_image, _superspaces, hn_bruteforce
from hnzz.linalg import (
    GF,
    QQ,
    Matrix,
    PrimeField,
    RationalField,
    _block_diag,
    _flag_completed,
    _flag_image,
    _flag_preimage,
    inverse,
    random_invertible_rng,
    rank,
    subspace_contains,
)
from hnzz.quiver import Quiver, Representation, StabilityCondition

from conftest import (
    FRACTION_ARITHMETIC,
    every_subspace,
    every_superspace,
    from_vectors,
    hstack,
    package_rref,
    pivot_rows,
    reference_column_echelon,
    reference_kernel,
    reference_matmul,
    reference_rref,
    reference_superspaces,
    vectors_of,
    zero_map_path,
)

FIELDS = [QQ, GF(2), GF(3), GF(5)]


def gaussian_binomial(n: int, k: int, p: int) -> int:
    # independent closed form: prod (p^(n-i) - 1) / (p^(i+1) - 1)
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def subspace_total(n: int, p: int) -> int:
    return sum(gaussian_binomial(n, k, p) for k in range(n + 1))


def column_echelon(m: Matrix) -> Matrix:
    """The package's canonical basis of the column span: ``_echelon`` of the columns.

    Zero columns are dropped, so two matrices span the same subspace iff
    the results are equal.
    """
    return from_vectors(m.field, linalg._echelon(m.field, vectors_of(m))[0], m.rows)


def package_superspaces(floor: Matrix, k: int) -> list[Matrix]:
    """``hn._superspaces`` of span(floor), each read back as a basis Matrix."""
    return [from_vectors(floor.field, u, floor.rows)
            for u in _superspaces(floor.field, vectors_of(floor), floor.rows, k)]


def package_subspaces(dim: int, p: int) -> list[Matrix]:
    """Every subspace of GF(p)^dim from ``hn._superspaces``, class by class."""
    return [u for k in range(dim + 1) for u in package_superspaces(Matrix.zeros(GF(p), dim, 0), k)]


def kernel(m: Matrix) -> Matrix:
    """The package's kernel, the preimage of the zero subspace, in canonical form."""
    return column_echelon(_flag_preimage(m, Matrix.zeros(m.field, m.rows, 0), ())[0])


@st.composite
def matrix_of(draw, fld, rows, cols):
    if fld is QQ:
        entry = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    else:
        entry = st.integers(0, fld.p - 1)
    data = draw(
        st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)
    )
    return Matrix(fld, data, cols)


@st.composite
def matrices(draw, max_dim=4):
    fld = draw(st.sampled_from(FIELDS))
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    return draw(matrix_of(fld, rows, cols))


class TestConstructor:
    @pytest.mark.parametrize(
        "fld,entry",
        [
            (GF(3), Fraction(1, 2)),  # int() would truncate it to 0
            (GF(3), 0.5),  # int() would truncate it to 0
            (GF(3), "7"),  # int() would parse it as 7 = 1
            (QQ, 0.1),  # Fraction() would keep the binary float 3602879701896397/2**55
            (GF(3), True),
            (QQ, True),
            (QQ, "abc"),
            (QQ, "1/0"),
            (QQ, None),
            (QQ, "1e5"),  # Fraction() takes seconds on "1e10000000"
            (QQ, "2.5E-3"),
            (QQ, "7" * 5000),  # past Python's digit limit for int()
            (QQ, Decimal("1e200000")),  # Fraction() would expand a 664,386-bit numerator
            (QQ, Decimal("1E+5")),
            (QQ, Decimal("Infinity")),
            (QQ, Decimal("NaN")),
        ],
    )
    def test_foreign_entry_rejected(self, fld, entry):
        with pytest.raises(ValidationError):
            Matrix(fld, [[entry]])

    @pytest.mark.parametrize("entry", ["1/" + "7" * 5000, "9" * 3000 + "e5", Decimal("1e200000")])
    def test_error_message_is_short(self, entry):
        with pytest.raises(ValidationError) as info:
            QQ.coerce(entry)
        assert len(str(info.value)) < 200

    def test_public_path_coerces(self):
        assert Matrix(GF(3), [[-1, 7]]).data == ((2, 1),)
        m = Matrix(QQ, [[1, "2/4", "0.5", " -3 ", Decimal("0.5")]])
        assert m.data == ((Fraction(1), Fraction(1, 2), Fraction(1, 2), Fraction(-3), Fraction(1, 2)),)
        assert all(type(x) is Fraction for x in m.data[0])

    def test_public_path_checks_shape(self):
        with pytest.raises(ValidationError):
            Matrix(QQ, [[1, 2], [3]])
        with pytest.raises(ValidationError):
            Matrix(QQ, [[1, 2]], cols=3)

    @pytest.mark.parametrize(
        "fld,data,err",
        [
            (QQ, [[True], [1, 2]], "QQ entry must be exact, not bool"),
            (QQ, [["1/2"], ["1/0", 2]], "ragged rows in matrix data"),
            (QQ, [["1/2"], [1], "1"], "ragged rows in matrix data"),
            (GF(2), [[0], [1.5], [1, 2]], "GF(2) entry must be an int, not float"),
            (GF(2), [[-1], [7, 2]], "ragged rows in matrix data"),
        ],
    )
    def test_entries_above_a_ragged_row_refuse_first(self, fld, data, err):
        # entries are read row by row, so a refused entry in the rows above
        # the first ragged row is the error, and one in that row is not
        with pytest.raises(ValidationError) as info:
            Matrix(fld, data)
        assert str(info.value) == err

    @pytest.mark.parametrize("attr", ["field", "rows", "cols", "ints", "den", "data", "other"])
    def test_attributes_are_read_only(self, attr):
        # one matrix from each constructor: the public one and the trusted one
        for m in (Matrix(QQ, [[1, "2/3"]]), Matrix.identity(GF(2), 2)):
            before = (m.field, m.rows, m.cols, m.ints, m.den, m.data)
            with pytest.raises(AttributeError):
                setattr(m, attr, None)
            with pytest.raises(AttributeError):
                delattr(m, attr)
            assert (m.field, m.rows, m.cols, m.ints, m.den, m.data) == before

    def test_rows_are_cleared_over_one_denominator(self):
        m = Matrix(QQ, [["1/2", "-2/3"], [4, 0]])
        assert (m.ints, m.den) == (((3, -4), (24, 0)), 6)
        assert m.data == ((Fraction(1, 2), Fraction(-2, 3)), (Fraction(4), Fraction(0)))
        assert (Matrix(GF(5), [[7, -1]]).ints, Matrix(GF(5), [[7, -1]]).den) == (((2, 4),), 1)

    def test_equality_and_hash_follow_the_entries(self):
        # the denominator is compared, and equal entries give one (ints, den) pair
        assert Matrix(QQ, [[1]]) != Matrix(QQ, [["1/2"]])
        assert Matrix(QQ, [[2]]) != Matrix(QQ, [["1/2"]])
        half, also_half = Matrix(QQ, [["2/4"]]), Matrix(QQ, [[Fraction(1, 2)]])
        assert half == also_half and hash(half) == hash(also_half)
        assert Matrix(QQ, [[6, 4]]) @ Matrix(QQ, [["1/4"], [0]]) == Matrix(QQ, [["3/2"]])


def assert_canonical(m: Matrix) -> None:
    """Integer rows over the one denominator of m's entries, and entries of m's field."""
    prime = isinstance(m.field, PrimeField)
    assert type(m.den) is int and m.den >= 1
    assert gcd(m.den, *[x for row in m.ints for x in row]) == 1
    assert m.den == 1 or not prime
    assert type(m.ints) is tuple and len(m.ints) == m.rows
    for row in m.ints:
        assert type(row) is tuple and len(row) == m.cols
        for x in row:
            assert type(x) is int
            if prime:
                assert 0 <= x < m.field.p
    kind = int if prime else Fraction
    assert all(type(x) is kind for row in m.data for x in row)
    # coercing again changes nothing
    assert m == Matrix(m.field, m.data, m.cols)


def assert_int_rows(m: Matrix) -> None:
    """A basis as the flag operations hand it on: a canonical Matrix of integer rows."""
    assert type(m) is Matrix and m.den == 1
    assert_canonical(m)


def trial_division(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


class TestPrimeModulus:
    def test_is_prime_agrees_with_trial_division(self):
        assert [n for n in range(200_000) if linalg._is_prime(n) != trial_division(n)] == []

    @pytest.mark.parametrize("n, prime", [
        (2047, False), (1_373_653, False), (25_326_001, False),  # strong pseudoprimes to base 2
        (2_147_483_629, True), (2_147_483_647, True),
    ])
    def test_is_prime_on_pseudoprimes_and_large_primes(self, n, prime):
        assert linalg._is_prime(n) is prime
        if n < 30_000_000:
            assert trial_division(n) is prime

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 251, 257, 65_537, 2**31 - 1])
    def test_residue_table(self, p):
        # the byte table that the packed row steps reduce through
        assert GF(p)._residues == bytes(x % p for x in range(256))


class TestTrustedConstructor:
    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_results_are_canonical(self, data):
        fld = data.draw(st.sampled_from(FIELDS))
        r, c, k = data.draw(st.tuples(*[st.integers(0, 4)] * 3))
        m = data.draw(matrix_of(fld, r, c))
        same_shape = data.draw(matrix_of(fld, r, c))
        right = data.draw(matrix_of(fld, c, k))
        target = data.draw(matrix_of(fld, r, k))
        space = column_echelon(target)
        flag = column_echelon(right)
        seed = data.draw(st.integers(0, 1000))
        for result in (
            _flag_preimage(m, Matrix.zeros(fld, r, 0), ())[0],
            _flag_image(m, flag, [0, flag.cols])[0],
            _flag_preimage(m, space, [0, space.cols])[0],
            _flag_completed(space),
        ):
            assert_int_rows(result)
        out = [
            package_rref(m)[0],
            column_echelon(m),
            inverse(random_invertible_rng(c, fld, random.Random(seed))),
            m @ right,
            hstack([m, same_shape]),
            _block_diag(m, right),
            Matrix.zeros(fld, r, c),
            Matrix.identity(fld, c),
            Matrix.zeros(fld, r, 0),
        ]
        if fld in (GF(2), GF(3)):  # the enumerator stops at p = 3
            floor = column_echelon(data.draw(matrix_of(fld, 2, 1)))
            out += package_subspaces(2, fld.p)
            out += [u for k in range(3) for u in package_superspaces(floor, k)]
        for result in out:
            assert_canonical(result)


class TestRank:
    def test_identity_gf5(self):
        assert rank(Matrix.identity(GF(5), 2)) == 2

    def test_zero(self):
        assert rank(Matrix.zeros(QQ, 3, 4)) == 0

    def test_rank_one_rational(self):
        # hand row reduction: second row is twice the first
        assert rank(Matrix(QQ, [[1, 2], [2, 4]])) == 1

    def test_empty(self):
        assert rank(Matrix(QQ, [], cols=3)) == 0
        assert rank(Matrix(QQ, [[], [], []], cols=0)) == 0

    @given(matrices())
    @settings(max_examples=150, deadline=None)
    def test_rank_nullity(self, m):
        assert rank(m) + kernel(m).cols == m.cols

    @given(matrices())
    @settings(max_examples=100, deadline=None)
    def test_kernel_exact(self, m):
        k = kernel(m)
        assert m @ k == Matrix.zeros(m.field, m.rows, k.cols)

    @given(matrices(), st.fractions(min_value=-5, max_value=5, max_denominator=7))
    @settings(max_examples=60, deadline=None)
    def test_row_scaling_invariance_rational(self, m, c):
        if m.field is not QQ or m.rows == 0 or c == 0:
            return
        scaled = [list(r) for r in m.data]
        scaled[0] = [c * x for x in scaled[0]]
        assert rank(Matrix(QQ, scaled, m.cols)) == rank(m)


def test_canonical_constructor_private_to_linalg():
    # Matrix._canonical skips the coercion of entries; every matrix built
    # from outside input must go through the public constructor
    src = Path(hnzz.__file__).parent
    callers = sorted(p.name for p in src.glob("*.py") if "._canonical(" in p.read_text())
    assert callers == ["linalg.py"]


class TestKernel:
    def test_identity_trivial_kernel(self):
        assert kernel(Matrix.identity(GF(3), 4)).cols == 0

    def test_zero_full_kernel(self):
        k = kernel(Matrix.zeros(GF(2), 2, 3))
        assert k == Matrix.identity(GF(2), 3)

    def test_gf2_nullity(self):
        k = kernel(Matrix(GF(2), [[1, 1, 0]]))
        assert k.cols == 2

    def test_canonical(self):
        m = Matrix(QQ, [[1, 2, 3], [2, 4, 6]])
        assert kernel(m) == column_echelon(kernel(m))


class TestRandomInvertible:
    def test_dim0(self):
        m = random_invertible_rng(0, QQ, random.Random(1))
        assert m.rows == m.cols == 0

    def test_dim1_gf2(self):
        assert random_invertible_rng(1, GF(2), random.Random(99)) == Matrix(GF(2), [[1]])

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_dim3_gf5(self, seed):
        assert rank(random_invertible_rng(3, GF(5), random.Random(seed))) == 3

    def test_deterministic(self):
        first, again = (random_invertible_rng(4, GF(3), random.Random(7)) for _ in range(2))
        assert first == again


class TestSubspaceEnumerator:
    @pytest.mark.parametrize(
        "dim,p",
        [(0, 2), (1, 2), (2, 2), (3, 2), (4, 2), (0, 3), (1, 3), (2, 3), (3, 3)],
    )
    def test_count_matches_gaussian_binomial(self, dim, p):
        got = package_subspaces(dim, p)
        assert len(got) == subspace_total(dim, p)
        # pairwise distinct canonical forms
        assert len({(b.cols, b.data) for b in got}) == len(got)
        # each is its own canonical echelon form
        for b in got:
            assert reference_column_echelon(b) == b
        # 0-dimensional and full subspaces included
        assert any(b.cols == 0 for b in got)
        assert any(b.cols == dim for b in got)
        # class k holds exactly the k-dimensional ones
        for k in range(dim + 1):
            cls = list(_superspaces(GF(p), (), dim, k))
            assert len(cls) == gaussian_binomial(dim, k, p)
            assert all(len(u) == k for u in cls)

    def test_small_cases(self):
        assert len(package_subspaces(1, 2)) == 2
        assert len(package_subspaces(2, 2)) == 5
        assert len(package_subspaces(3, 2)) == 16

    # the enumerator trusts its caller: the oracle refuses the quotients it
    # may not walk before it enumerates any
    def test_guard_dim(self):
        with pytest.raises(GuardError) as info:
            hn_bruteforce(zero_map_path((7,)), StabilityCondition((1,)))
        assert str(info.value) == (
            "subspace enumeration guard exceeded (dim=7, p=2; limits dim<=6, p<=3)"
        )

    def test_guard_p(self):
        with pytest.raises(GuardError) as info:
            hn_bruteforce(zero_map_path((2,), GF(5)), StabilityCondition((1,)))
        assert str(info.value) == "oracle guard exceeded: p=5 > 3"

    def test_nonprime_rejected(self):
        # the enumerator trusts its field: the oracle, its one caller,
        # refuses QQ first, and GF refuses a modulus that is not prime
        with pytest.raises(GuardError, match="prime fields only"):
            hn_bruteforce(Representation(Quiver(1, ()), QQ, (2,), ()), StabilityCondition((1,)))
        with pytest.raises(ValidationError):
            _superspaces(GF(4), (), 2, 0)

    def test_huge_modulus_rejected_at_once(self):
        start = time.perf_counter()
        with pytest.raises(ValidationError):
            _superspaces(GF(2305843009213693951), (), 1, 0)
        assert time.perf_counter() - start < 1.0


def reference_image(m: Matrix, space: Matrix) -> Matrix:
    """Canonical basis of m(span(space)), member by member."""
    return column_echelon(m @ space)


def reference_preimage(m: Matrix, space: Matrix) -> Matrix:
    """Canonical basis of {x : m @ x in span(space)}: the x-part of ker [m | space]."""
    ker = reference_kernel(hstack([m, space]))
    return column_echelon(Matrix(m.field, ker.data[: m.cols], ker.cols))


def columns(m: Matrix, k: int) -> Matrix:
    """The first k columns of m."""
    return Matrix(m.field, [row[:k] for row in m.data], k)


def random_flag(fld, d: int, rnd: random.Random, members: int):
    """A full-rank d x k basis (k <= d) and ``members`` nested dims in [0, k].

    The dims come in no particular order and may repeat, as chains do; one
    member spans the whole basis.
    """
    k = rnd.randint(0, d)
    basis = columns(random_invertible_rng(d, fld, rnd), k)
    dims = [rnd.randint(0, k) for _ in range(members - 1)]
    dims.insert(rnd.randint(0, members - 1), k)
    return basis, dims


def random_map(fld, rows: int, cols: int, rnd: random.Random) -> Matrix:
    """A random rows x cols matrix, often rank-deficient."""
    def entry():
        return 0 if rnd.random() < 0.5 else rnd.randint(1, 4)
    return Matrix(fld, [[entry() for _ in range(cols)] for _ in range(rows)], cols)


def up_to_scalar(m: Matrix) -> tuple:
    """The entries of m over its first nonzero one: equal for matrices equal up to a scalar."""
    flat = [x for row in m.data for x in row]
    lead = next((x for x in flat if x), 1)
    if m.field == QQ:
        return tuple(x / lead for x in flat)
    return tuple(x * pow(lead, -1, m.field.p) % m.field.p for x in flat)


class TestFlags:
    @pytest.mark.parametrize("op, reference", [(_flag_image, reference_image),
                                               (_flag_preimage, reference_preimage)],
                             ids=["image", "preimage"])
    def test_member_by_member(self, op, reference):
        # every member of a 3-6 member flag moves like the canonical subspace op
        rnd = random.Random(21)
        for _ in range(300):
            fld = rnd.choice(FIELDS)
            src, dst = rnd.randint(0, 4), rnd.randint(0, 4)
            m = random_map(fld, dst, src, rnd)
            basis, dims = random_flag(fld, dst if op is _flag_preimage else src, rnd,
                                      rnd.randint(3, 6))
            moved, new_dims = op(m, basis, dims)
            assert rank(moved) == moved.cols  # still an adapted basis
            assert max(new_dims) == moved.cols
            for d, nd in zip(dims, new_dims):
                member = column_echelon(columns(basis, d))
                assert column_echelon(columns(moved, nd)) == reference(m, member)

    def test_preimage_of_a_chain_through_a_kernel(self):
        # m kills e0; members 0 < <e0'> < <e0', e1'> < K^2 of the target
        fld = QQ
        m = Matrix(fld, [[0, 1, 0], [0, 0, 1]])
        basis = Matrix(fld, [[1, 1], [0, 1]])
        pre, dims = _flag_preimage(m, basis, [0, 1, 2, 1])
        assert dims == [1, 2, 3, 2]
        assert pre.cols == 3 and rank(pre) == 3
        assert column_echelon(columns(pre, 1)) == Matrix(fld, [[1], [0], [0]])

    @pytest.mark.parametrize("fld", FIELDS, ids=repr)
    def test_scaled_solve(self, fld):
        # one elimination of [m | rhs]: s times m.ints⁻¹ @ rhs, so inverse(m)
        # @ rhs up to a scalar, None for a singular m, and 0 x 0 solved
        rnd = random.Random(23)
        assert linalg._scaled_solve(Matrix.zeros(fld, 0, 0), []) == ([], 1)
        singular = 0
        for _ in range(60):
            d, k = rnd.randint(1, 5), rnd.randint(0, 4)
            m = random_invertible_rng(d, fld, rnd)
            rhs = random_map(fld, d, k, rnd)
            rows, s = linalg._scaled_solve(m, rhs.ints)
            solved = Matrix(fld, rows, k)
            scaled_rhs = Matrix(fld, [[x * s for x in row] for row in rhs.ints], k)
            assert Matrix(fld, m.ints) @ solved == scaled_rhs
            assert up_to_scalar(solved) == up_to_scalar(inverse(m) @ rhs)
            flat = random_map(fld, d, d, rnd)
            if rank(flat) < d:
                singular += 1
                assert linalg._scaled_solve(flat, rhs.ints) is None
        assert singular >= 20

    @pytest.mark.parametrize("fld", FIELDS, ids=repr)
    def test_composed(self, fld):
        # a run of square crossings maps by the product of its matrices
        # pointing right and the inverses of those pointing left, in
        # crossing order, up to a scalar.  With one crossing made singular
        # there is no map, and the solves certified the prefix before that
        # crossing's stretch of left-pointing edges, or the whole run when
        # it points right and only the final rank finds it
        rnd = random.Random(24)
        for _ in range(80):
            d = rnd.randint(1, 4)
            run = [(random_invertible_rng(d, fld, rnd), rnd.random() < 0.5)
                   for _ in range(rnd.randint(1, 7))]
            want = Matrix.identity(fld, d)
            for m, forward in run:
                want = (m if forward else inverse(m)) @ want
            composed, solved = linalg._composed(run)
            assert solved == len(run) and up_to_scalar(composed) == up_to_scalar(want)
            i = rnd.randrange(len(run))
            m, forward = run[i]
            run[i] = (Matrix(fld, [*m.ints[1:], [0] * d], d), forward)
            start = i
            while start and not forward and not run[start - 1][1]:
                start -= 1
            assert linalg._composed(run) == (None, len(run) if forward else start)

    @pytest.mark.parametrize("fld", FIELDS, ids=repr)
    def test_composed_moves_a_basis(self, fld):
        # from a flag basis, a run of bijections moves every member as the
        # run's map does, with the dims unchanged and each column divided by
        # its gcd.  A map pointing right that kills the first column moved
        # so far leaves a zero column, and the final rank finds it singular
        rnd = random.Random(25)
        for _ in range(80):
            d = rnd.randint(1, 4)
            run = [(random_invertible_rng(d, fld, rnd), rnd.random() < 0.5)
                   for _ in range(rnd.randint(1, 7))]
            basis, dims = random_flag(fld, d, rnd, rnd.randint(2, 4))
            want = basis
            for m, forward in run:
                want = (m if forward else inverse(m)) @ want
            moved, solved = linalg._composed(run, basis)
            assert solved == len(run) and moved.cols == basis.cols and moved.den == 1
            for k in dims:
                assert column_echelon(columns(moved, k)) == column_echelon(columns(want, k))
            if fld == QQ:
                assert all(gcd(*col) == 1 for col in zip(*moved.ints))
            if basis.cols == 0:
                continue
            i = rnd.randrange(len(run))
            w = [row[0] for row in (linalg._composed(run[:i], basis)[0] if i else basis).data]
            j = next(j for j, x in enumerate(w) if x)
            inv = 1 / w[j] if fld == QQ else pow(w[j], -1, fld.p)
            kill = Matrix(fld, [[(r == c) - (w[r] * inv if c == j else 0) for c in range(d)]
                                for r in range(d)], d)
            run[i] = (run[i][0] @ kill if run[i][1] else kill, True)
            assert linalg._composed(run, basis) == (None, len(run))

    def test_completed(self):
        rnd = random.Random(22)
        for _ in range(200):
            fld = rnd.choice(FIELDS)
            d = rnd.randint(0, 5)
            basis, _ = random_flag(fld, d, rnd, 1)
            full = _flag_completed(basis)
            assert full.cols == d and rank(full) == d
            assert columns(full, basis.cols) == basis


# Over QQ the package eliminates and multiplies on integer rows; these
# entries stress what that changes: signs, zero rows and denominators far
# past a machine word, on QQ and on a freshly built RationalField.
RATIONAL_ENTRY = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-3, 3)),
    st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(1, 2**70)),
)


@st.composite
def rational_matrix(draw, rows, cols, fld):
    row = st.one_of(
        st.just([Fraction(0)] * cols),
        st.lists(RATIONAL_ENTRY, min_size=cols, max_size=cols),
    )
    return Matrix(fld, draw(st.lists(row, min_size=rows, max_size=rows)), cols)


def independent_columns(m: Matrix) -> Matrix:
    """The columns of m at the pivots of its textbook RREF: a full-rank basis."""
    _, pivots = reference_rref(m)
    return Matrix(m.field, [[row[j] for j in pivots] for row in m.data], len(pivots))


def check_rational_ops(m: Matrix, right: Matrix, square: Matrix, source: Matrix,
                       target: Matrix, dims: list[int]) -> None:
    """Every QQ operation on m equals the textbook Fraction reference."""
    fld = m.field
    reduced, pivots = package_rref(m)
    want_rows, want_pivots = reference_rref(m)
    assert pivots == tuple(want_pivots) and reduced == Matrix(fld, want_rows, m.cols)
    assert rank(m) == len(want_pivots)
    assert column_echelon(m) == reference_column_echelon(m)
    assert m @ right == Matrix(fld, reference_matmul(m, right), right.cols)
    n = square.rows
    # blocks over different denominators, entry by entry
    diag = _block_diag(m, square)
    want = [[*row, *[0] * n] for row in m.data] + [[*[0] * m.cols, *row] for row in square.data]
    assert diag == Matrix(fld, want, m.cols + n)
    augmented, aug_pivots = reference_rref(hstack([square, Matrix.identity(fld, n)]))
    if aug_pivots[:n] == list(range(n)):
        assert inverse(square) == Matrix(fld, [row[n:] for row in augmented], n)
    else:
        with pytest.raises(ValidationError):
            inverse(square)
    for op, basis in ((_flag_image, source), (_flag_preimage, target)):
        moved, new_dims = op(m, basis, dims)
        assert len(reference_rref(moved)[1]) == moved.cols  # an adapted basis
        for d, nd in zip(dims, new_dims):
            member = columns(basis, d)
            if op is _flag_image:
                want = Matrix(fld, reference_matmul(m, member), d)
            else:
                ker = reference_kernel(hstack([m, member]))
                want = Matrix(fld, ker.data[: m.cols], ker.cols)
            assert reference_column_echelon(columns(moved, nd)) == reference_column_echelon(want)
    for result in (reduced, column_echelon(m), m @ right, diag):
        assert_canonical(result)


class TestRationalKernel:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_textbook_fractions(self, data):
        fld = data.draw(st.sampled_from([QQ, RationalField()]))
        r, c, k, n = data.draw(st.tuples(*[st.integers(0, 5)] * 4))
        m = data.draw(rational_matrix(r, c, fld))
        right = data.draw(rational_matrix(c, k, QQ))
        square = data.draw(rational_matrix(n, n, fld))
        source = independent_columns(data.draw(rational_matrix(c, k, fld)))
        target = independent_columns(data.draw(rational_matrix(r, k, fld)))
        top = min(source.cols, target.cols)
        dims = data.draw(st.lists(st.integers(0, top), min_size=1, max_size=4))
        check_rational_ops(m, right, square, source, target, dims)

    @pytest.mark.parametrize("r, c", [(0, 0), (0, 3), (3, 0), (3, 3)])
    def test_empty_and_zero(self, r, c):
        fld = RationalField()
        zero = Matrix.zeros(fld, r, c)
        check_rational_ops(zero, Matrix.zeros(QQ, c, 2), Matrix.zeros(fld, r, r),
                           Matrix.identity(fld, c), Matrix.identity(fld, r), [0, min(r, c)])

    def test_fresh_field_skips_fraction_arithmetic(self, count_calls):
        # a RationalField built apart from QQ takes the integer rows too
        fld = RationalField()
        m = Matrix(fld, [[Fraction(1, 3), Fraction(-2, 2**70)], [5, Fraction(7, 9)]])
        calls = [count_calls(Fraction, name) for name in FRACTION_ARITHMETIC]
        package_rref(m), rank(m), inverse(m), m @ m
        assert sum(map(len, calls)) == 0

    def test_inverse_builds_no_fraction(self, count_calls):
        # the inverse is _scaled_solve's integer rows against I over the lcm
        # of the pivots, put in lowest terms on ints: no entry is written back
        mats = [Matrix(QQ, [[Fraction(1, 3), Fraction(-2, 2**70)], [5, Fraction(7, 9)]]),
                random_invertible_rng(5, QQ, random.Random(3))]
        built = count_calls(Fraction, "__new__")
        inverses = [inverse(m) for m in mats]
        assert len(built) == 0
        for m, inv in zip(mats, inverses):
            assert inv.den > 1 and m @ inv == Matrix.identity(QQ, m.rows)


def plain_product(fld, left, right, cols) -> list[list[int]]:
    """``left @ right`` on int rows, entry by entry, reduced mod p over GF(p)."""
    reduce = (lambda x: x) if fld == QQ else (lambda x: x % fld.p)
    return [[reduce(sum(lrow[k] * right[k][j] for k in range(len(right)))) for j in range(cols)]
            for lrow in left]


def int_rows(fld, rng: random.Random, rows: int, cols: int) -> list:
    """Random int rows: residues over GF(p), signed ints of up to 80 bits over QQ."""
    if fld == QQ:
        draw = lambda: rng.choice((0, 1, -1, rng.randint(-99, 99), rng.getrandbits(80) - 2**79))
    else:
        draw = lambda: rng.randrange(fld.p)
    return [[draw() for _ in range(cols)] for _ in range(rows)]


class TestFieldProduct:
    """``field.product`` against a plain product; GF(p) packs small residues into ints."""

    @pytest.mark.parametrize("fld", [GF(2), GF(3), GF(5), GF(7), GF(13), GF(2**31 - 1), QQ],
                             ids=repr)
    def test_matches_plain_product(self, fld):
        rng = random.Random(41)
        shapes = [(0, 0, 0), (0, 3, 2), (2, 0, 3), (3, 2, 0), (1, 1, 1)]
        shapes += [tuple(rng.randint(0, 9) for _ in range(3)) for _ in range(60)]
        for rows, inner, cols in shapes:
            left, right = int_rows(fld, rng, rows, inner), int_rows(fld, rng, inner, cols)
            got = fld.product(left, right, cols)
            assert list(map(list, got)) == plain_product(fld, left, right, cols)

    @pytest.mark.parametrize("p, height", [(3, 63), (3, 64), (2, 255), (2, 256)])
    def test_both_sides_of_the_packing_bound(self, p, height):
        # (p - 1)**2 * height < 256 packs a byte per entry; the first row of
        # left and the first column of right hold p - 1, so the first slot
        # of the packed sum reaches (p - 1)**2 * height, which would carry
        # into the next slot past the bound
        fld, rng = GF(p), random.Random(height)
        for cols in (1, 5, 40):
            left = [[p - 1] * height, *int_rows(fld, rng, 3, height)]
            right = [[p - 1, *row] for row in int_rows(fld, rng, height, cols - 1)]
            got = fld.product(left, right, cols)
            assert list(map(list, got)) == plain_product(fld, left, right, cols)
            assert got[0][0] == (p - 1) ** 2 * height % p


class TestPrimeRowStep:
    """``PrimeField.row_update`` against the entrywise step; p up to 11 packs a byte per column."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 2**31 - 1])
    def test_matches_entrywise_step(self, p):
        fld, rng = GF(p), random.Random(p)
        # the packed step while no byte of 2 * (p - 1)**2 carries
        assert fld._packs_rows == (p <= 11)
        for width in range(25):
            for _ in range(8):
                row, prow = (tuple(rng.randrange(p) for _ in range(width)) for _ in range(2))
                a, b, c, e = (rng.randrange(1, p) for _ in range(4))
                # the extreme residues too, where a packed byte is fullest
                if rng.random() < 0.25:
                    row, prow, a, b = (p - 1,) * width, (1,) * width, p - 1, 1
                want = [(a * x - b * y) % p for x, y in zip(row, prow)]
                got = fld.row_update(row, a, b, prow)
                assert list(got) == want
                assert isinstance(got, bytes) == (p <= 11)
                # the step's own output read back as either row
                other = fld.row_update(prow, c, e, row)
                again = fld.row_update(got, c, e, other)
                assert list(again) == [(c * x - e * y) % p for x, y in zip(want, other)]

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_elimination_matches_textbook(self, p):
        # the unscaled pivot rows of _gauss_jordan are the textbook reduced
        # rows times their pivots, with the same pivots, on either side of
        # the packing bound
        fld, rng = GF(p), random.Random(100 + p)
        for _ in range(60):
            rows, cols = rng.randint(0, 9), rng.randint(0, 18)
            m = Matrix(fld, [[rng.choice((0, 0, rng.randrange(p))) for _ in range(cols)]
                             for _ in range(rows)], cols)
            work = list(m.ints)
            pivots = linalg._gauss_jordan(fld, work)
            reduced, want = reference_rref(m)
            assert pivots == want
            for i, c in enumerate(pivots):
                assert list(work[i]) == [work[i][c] * x % p for x in reduced[i]]
            assert not any(map(any, work[len(pivots):]))

    @pytest.mark.parametrize("p", [2, 3, 7, 13])
    def test_inverse_is_one_pass(self, p):
        # _scaled_solve against I returns the inverse itself over GF(p),
        # with scale 1, so inverse makes no second pass over its rows
        rng = random.Random(p)
        for dim in range(1, 7):
            m = random_invertible_rng(dim, GF(p), rng)
            rows, scale = linalg._scaled_solve(m, Matrix.identity(GF(p), dim).ints)
            solved = Matrix(GF(p), rows, dim)
            assert scale == 1
            assert solved == inverse(m)
            assert m @ solved == Matrix.identity(GF(p), dim)


class TestSubspaceOps:
    def test_image_is_span(self):
        # a one-member flag, canonicalised, is the canonical image
        m = Matrix(GF(3), [[1, 2], [0, 1]])
        s = Matrix(GF(3), [[1], [1]])
        img, (dim,) = _flag_image(m, s, [1])
        assert dim == 1 and column_echelon(img) == reference_image(m, s)
        assert subspace_contains(img, m @ s)

    def test_preimage(self):
        rnd = random.Random(5)
        for _ in range(40):
            p = rnd.choice([2, 3])
            fld = GF(p)
            rows, cols = rnd.randint(0, 3), rnd.randint(0, 3)
            m = Matrix(fld, [[rnd.randrange(p) for _ in range(cols)] for _ in range(rows)], cols)
            spaces = every_subspace(rows, p)
            s = rnd.choice(spaces)
            pre, (dim,) = _flag_preimage(m, s, [s.cols])
            assert dim == pre.cols and column_echelon(pre) == reference_preimage(m, s)
            assert subspace_contains(s, m @ pre)
            # maximality: every vector outside pre maps outside s
            for extra in every_subspace(cols, p):
                if subspace_contains(pre, extra):
                    continue
                grown = column_echelon(hstack([pre, extra]))
                assert not subspace_contains(s, m @ grown)

    def test_intersection_and_sum(self):
        fld = GF(2)
        a = Matrix(fld, [[1, 0], [0, 1], [0, 0]])
        b = Matrix(fld, [[0, 0], [1, 0], [0, 1]])
        common = Matrix(fld, [[0], [1], [0]])
        assert subspace_contains(a, common) and subspace_contains(b, common)
        total = rank(hstack([a, b]))
        assert total == 3 and column_echelon(hstack([a, b])).cols == 3
        # dim(a + b) = dim a + dim b - dim(a ∩ b), so the intersection is a line
        assert a.cols + b.cols - total == 1

    @pytest.mark.parametrize("space,vectors,contained", [
        (Matrix(QQ, [[1, 1]]), Matrix(QQ, [[1]]), True),
        (Matrix(GF(2), [[1, 1], [0, 0]]), Matrix(GF(2), [[1], [0]]), True),
        (Matrix(GF(2), [[1, 1], [0, 0]]), Matrix(GF(2), [[0], [1]]), False),
    ])
    def test_contains_with_dependent_columns(self, space, vectors, contained):
        # the columns of space need not be independent: their span is compared
        assert subspace_contains(space, vectors) == contained

    def test_superspaces(self):
        floor = Matrix(GF(2), [[1], [0], [0]])
        sup = [u for k in range(3) for u in package_superspaces(floor, k)]
        assert len(sup) == subspace_total(2, 2)
        for k in range(3):
            assert all(u.cols == 1 + k for u in package_superspaces(floor, k))
        assert all(subspace_contains(u, floor) for u in sup)
        assert len({(u.cols, u.data) for u in sup}) == len(sup)

    @pytest.mark.parametrize("dim,p", [(d, 2) for d in range(5)] + [(d, 3) for d in range(4)])
    def test_superspaces_of_zero_floor(self, dim, p):
        # the zero floor yields the subspaces in the reference's order
        for k in range(dim + 1):
            got = package_superspaces(Matrix.zeros(GF(p), dim, 0), k)
            assert got == reference_superspaces(Matrix.zeros(GF(p), dim, 0), k)

    @pytest.mark.parametrize("dim,p", [(3, 2), (4, 2), (3, 3)])
    def test_superspaces_of_every_floor(self, dim, p):
        # lifted onto the free coordinates and merged with the cleared
        # floor, each superspace is the reference's, in the reference's order
        for floor in every_subspace(dim, p):
            for k in range(dim - floor.cols + 1):
                assert package_superspaces(floor, k) == reference_superspaces(floor, k)

    def test_span_with_image(self):
        fld = GF(3)
        m = Matrix(fld, [[1, 2], [0, 0], [2, 1]])
        floor = Matrix(fld, [[0], [1], [0]])
        for basis in every_subspace(2, 3):
            got = _span_with_image(fld, vectors_of(floor), vectors_of(basis), vectors_of(m))
            want = reference_column_echelon(hstack([floor, m @ basis]))
            assert from_vectors(fld, got, 3) == want

    def test_inverse_roundtrip(self):
        m = random_invertible_rng(3, GF(7), random.Random(11))
        assert m @ inverse(m) == Matrix.identity(GF(7), 3)
        with pytest.raises(ValidationError):
            inverse(Matrix.zeros(QQ, 2, 2))

    def test_pivot_rows(self):
        u = Matrix(GF(2), [[1, 0], [0, 0], [0, 1]])
        assert pivot_rows(u) == [0, 2]
        assert pivot_rows(Matrix.zeros(GF(2), 4, 0)) == []
