#!/usr/bin/env python3
"""Write the running 6-cycle example instances and their reports.

Produces the wrapped-interval module for [1, 9] and the size-3 Jordan
cell with eigenvalue 2 on the mixed-orientation 6-cycle (only e_3
counterclockwise), then runs the lift and HN pipelines on both and saves
every artifact as JSON under the chosen directory.
"""

import argparse
import os

from hnzz.affine import (
    AffineQuiver,
    CCW,
    CW,
    classify_lift,
    eta_from_lift,
    indec_N,
    indec_T,
)
from hnzz.linalg import GF
from hnzz.serialize import (
    barcode_to_json,
    classes_to_json,
    hn_to_json,
    instance_to_json,
    write_json,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dir", default="example_out")
    args = parser.parse_args()
    os.makedirs(args.dir, exist_ok=True)

    aq = AffineQuiver(6, (CW, CW, CW, CCW, CW, CW))
    fld = GF(5)
    for name, rep in [
        ("wrapped_interval_1_9", indec_N(aq, 1, 9, fld)),
        ("jordan_cell_2_3", indec_T(aq, 2, 3, fld)),
    ]:
        write_json(os.path.join(args.dir, f"{name}.json"), instance_to_json(rep, aq))
        d_inf, classes, bar = classify_lift(rep)
        report = {
            "d_inf": d_inf,
            "classes": classes_to_json(classes),
            "barcode": barcode_to_json(bar),
            "hn": hn_to_json(eta_from_lift(rep)),
        }
        write_json(os.path.join(args.dir, f"{name}.report.json"), report)
        print(f"{name}: dims={list(rep.dims)} d_inf={d_inf} classes={classes_to_json(classes)}")


if __name__ == "__main__":
    main()
