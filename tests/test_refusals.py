"""Library inputs of the wrong type are refused with ValidationError.

Each public constructor below once let such an input escape as a bare
TypeError, ValueError or AttributeError, or, for a fractional interval
endpoint, took it without a word.
"""

import pytest

from hnzz.affine import AffineQuiver, indec_N, indec_T
from hnzz.errors import ValidationError
from hnzz.hn import HNReport, hn_bruteforce
from hnzz.linalg import GF, QQ, Matrix, superspaces
from hnzz.quiver import Quiver, euler_stability
from hnzz.zigzag import Barcode, Interval, interval_module

A2 = Quiver(2, ((0, 1),))
AQ = AffineQuiver(2, (0, 1))
V2 = interval_module(A2, Interval(0, 1), GF(2))


@pytest.mark.parametrize(
    "build",
    [
        lambda: GF(None),
        lambda: GF("3"),
        lambda: Matrix(GF(2), None),
        lambda: Matrix(GF(2), [1, 2]),
        lambda: Matrix(None, [[1]]),
        lambda: Interval(None, 1),
        lambda: Interval(0.5, 1),
        lambda: Barcode("1"),
        lambda: Barcode(None),
        lambda: Barcode((("0", 1),)),
        lambda: Barcode(((Interval(0, 1), 1.0),)),
        lambda: Barcode.from_dict("1"),
        lambda: HNReport(A2, None),
        lambda: interval_module(A2, Interval(0, 1), None),
        lambda: AffineQuiver(2, None),
        lambda: indec_T(AQ, 1, 2.5, QQ),
        lambda: indec_T(AQ, 1, "2", QQ),
        lambda: indec_T(AQ, 1, None, QQ),
        lambda: indec_N(AQ, 0, 2.5, QQ),
        lambda: indec_N(AQ, None, 1, QQ),
        lambda: indec_N(AQ, False, 1, QQ),
        lambda: hn_bruteforce(None, euler_stability(A2)),
        lambda: hn_bruteforce("x", euler_stability(A2)),
        lambda: hn_bruteforce(V2, None),
        lambda: hn_bruteforce(V2, "ab"),
        lambda: superspaces(GF(2), (), 2, -1),
    ],
    ids=[
        "GF(None)",
        "GF('3')",
        "Matrix(data None)",
        "Matrix(rows not lists)",
        "Matrix(field None)",
        "Interval(None, 1)",
        "Interval(0.5, 1)",
        "Barcode('1')",
        "Barcode(None)",
        "Barcode(non-interval)",
        "Barcode(float multiplicity)",
        "Barcode.from_dict('1')",
        "HNReport(q, None)",
        "interval_module(field None)",
        "AffineQuiver(2, None)",
        "indec_T(size 2.5)",
        "indec_T(size '2')",
        "indec_T(size None)",
        "indec_N(endpoint 2.5)",
        "indec_N(endpoint None)",
        "indec_N(endpoint False)",
        "hn_bruteforce(None, alpha)",
        "hn_bruteforce('x', alpha)",
        "hn_bruteforce(v, None)",
        "hn_bruteforce(v, 'ab')",
        "superspaces(k -1)",
    ],
)
def test_wrong_type_refused(build):
    with pytest.raises(ValidationError):
        build()
