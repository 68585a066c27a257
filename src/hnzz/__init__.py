"""Exact barcodes and Harder-Narasimhan filtrations for quiver representations.

Subpackage map:

* ``linalg``     -- exact scalars and dense matrices over QQ and GF(p)
* ``quiver``     -- quivers, representations, stability conditions, slopes
* ``zigzag``     -- interval modules and barcode decomposition on paths
* ``hn``         -- HN filtrations: barcode fast path and brute-force oracle
* ``affine``     -- cycle quivers: wrapped intervals, Jordan cells, unwinding
* ``campaign``   -- the fast route and the dual-path campaign behind ``hnzz verify``
* ``serialize``  -- JSON wire formats for instances, reports and truth sidecars
* ``generators`` -- seeded random instances with their known summands
* ``errors``     -- the exception classes behind the CLI's exit codes
* ``cli``        -- the ``hnzz`` command
"""

from .linalg import GF, QQ, Matrix
from .quiver import Quiver, Representation, StabilityCondition
from .zigzag import Barcode, Interval
from .hn import HNReport
from .affine import AffineQuiver

__all__ = [
    "GF",
    "QQ",
    "Matrix",
    "Quiver",
    "Representation",
    "StabilityCondition",
    "Barcode",
    "Interval",
    "HNReport",
    "AffineQuiver",
]

__version__ = "0.1.0"
