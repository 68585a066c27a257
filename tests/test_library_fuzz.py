"""Fuzz of the library boundary: a wrong argument is refused, never escapes.

Each public entry below is called once with valid arguments, then with
each argument in turn, keyword arguments included, replaced by ``None``,
``0``, ``-1``, ``1.5``, ``True`` and ``"x"``.  Only hnzz's five exception
classes may come out.  The entries are every public function and class
of the library modules (``errors``, which holds the rules themselves, is
not one), minus ``SKIPPED``; a new public name that is in neither table
fails the test.

The calls run in a child process with its address space capped and an
alarm set, so a huge allocation (a ``MemoryError``) or a hang fails this
test instead of the whole run.  Run this file as a script to see the
escapes it finds: it lists them and exits 1 if there is any.
"""

import importlib
import inspect
import json
import os
import random
import resource
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = ("linalg", "quiver", "zigzag", "hn", "affine", "campaign", "serialize", "generators")
BAD = (None, 0, -1, 1.5, True, "x")
ADDRESS_SPACE = 1 << 30  # bytes the child may map
ALARM_S = 5  # the child's wall-clock limit; its calls take well under a second

# public names left out, with the reason
SKIPPED = {
    # plain records that check nothing and compute nothing
    "affine.TClass", "campaign.Case", "campaign.Tally",
    # a rule that takes the type to test from its caller, as errors.check_type does
    "zigzag.check_multiplicities",
}


def table() -> dict:
    """Public name -> (callable, valid positional arguments[, valid keyword arguments])."""
    from hnzz import affine, campaign, generators, hn, linalg, quiver, serialize, zigzag

    gf2 = linalg.GF(2)
    a2 = quiver.Quiver(2, ((0, 1),))
    aq = affine.AffineQuiver(2, (0, 1))
    one = linalg.Matrix.identity(gf2, 1)
    iv = zigzag.Interval(0, 1)
    v2 = zigzag.interval_module(a2, iv, gf2)
    cell = affine.indec_T(aq, 1, 1, gf2)
    alpha = quiver.euler_stability(a2)
    bar = zigzag.barcode(v2)
    report = hn.hn_from_barcode(bar, a2)
    cycle_report = affine.eta_from_lift(cell)
    truth = (gf2, {iv: 1}, {affine.NClass(0, 1): 1}, {affine.TClass(1, 1): 1})
    case_a = campaign.draw_a(random.Random(0))
    case_b = campaign.draw_b(random.Random(0))
    rng = random.Random(0)
    return {
        "linalg.RationalField": (linalg.RationalField, ()),
        "linalg.PrimeField": (linalg.PrimeField, (2,)),
        "linalg.GF": (linalg.GF, (2,)),
        "linalg.check_field": (linalg.check_field, (gf2,)),
        "linalg.Matrix": (linalg.Matrix, (gf2, [[1]], 1)),
        "linalg.Matrix (no rows)": (linalg.Matrix, (gf2, [], 1)),
        "linalg.Matrix.zeros": (linalg.Matrix.zeros, (gf2, 1, 2)),
        "linalg.Matrix.identity": (linalg.Matrix.identity, (gf2, 2)),
        "linalg.Matrix.__matmul__": (one.__matmul__, (one,)),
        "linalg.rank": (linalg.rank, (one,)),
        "linalg.inverse": (linalg.inverse, (one,)),
        "linalg.random_invertible_rng": (linalg.random_invertible_rng, (2, gf2, rng)),
        "linalg.subspace_contains": (linalg.subspace_contains, (one, one)),
        "quiver.Quiver": (quiver.Quiver, (2, ((0, 1),))),
        "quiver.Representation": (quiver.Representation, (a2, gf2, (1, 1), (one,))),
        "quiver.zero_representation": (quiver.zero_representation, (a2, gf2)),
        "quiver.direct_sum": (quiver.direct_sum, (v2, v2)),
        "quiver.conjugate": (quiver.conjugate, (v2, [one, one])),
        "quiver.StabilityCondition": (quiver.StabilityCondition, ((1, 0),)),
        "quiver.check_weights": (quiver.check_weights, (a2, alpha)),
        "quiver.slope_of_dims": (quiver.slope_of_dims, ((1, 1), alpha)),
        "quiver.checked_dims": (quiver.checked_dims, ((1, 1), 2)),
        "quiver.euler_stability": (quiver.euler_stability, (a2,)),
        "quiver.sheaf_euler_characteristic": (quiver.sheaf_euler_characteristic, (v2,)),
        "zigzag.Interval": (zigzag.Interval, (0, 1)),
        "zigzag.Interval.check_on_path": (iv.check_on_path, (2,)),
        "zigzag.Barcode": (zigzag.Barcode, (((iv, 1),),)),
        "zigzag.Barcode.from_dict": (zigzag.Barcode.from_dict, ({iv: 1},)),
        "zigzag.Barcode.dims_vector": (bar.dims_vector, (2,)),
        "zigzag.path_steps": (zigzag.path_steps, (a2,)),
        "zigzag.is_path": (zigzag.is_path, (a2,)),
        "zigzag.interval_module": (zigzag.interval_module, (a2, iv, gf2)),
        "zigzag.barcode": (zigzag.barcode, (v2,)),
        "hn.HNReport": (hn.HNReport, (a2, report.steps, None)),
        "hn.HNReport.merged": (hn.HNReport.merged, (a2, report.steps)),
        "hn.is_semistable": (hn.is_semistable, (v2, alpha)),
        "hn.hn_bruteforce": (hn.hn_bruteforce, (v2, alpha)),
        "hn.hn_from_barcode": (hn.hn_from_barcode, (bar, a2)),
        "hn.hn_r_filtration_eval": (hn.hn_r_filtration_eval, (report, 0)),
        "hn.hn_direct_sum_merge": (hn.hn_direct_sum_merge, (report, report)),
        "hn.recover_barcode_via_truncations": (hn.recover_barcode_via_truncations, (v2,)),
        "affine.AffineQuiver": (affine.AffineQuiver, (2, (0, 1))),
        "affine.NClass": (affine.NClass, (0, 1)),
        "affine.NClass.on_cycle": (affine.NClass(0, 1).on_cycle, (2,)),
        "affine.to_quiver": (affine.to_quiver, (aq,)),
        "affine.affine_of_quiver": (affine.affine_of_quiver, (affine.to_quiver(aq),)),
        "affine.wrap_counts": (affine.wrap_counts, (2, 0, 1)),
        "affine.indec_N": (affine.indec_N, (aq, 0, 1, gf2)),
        "affine.indec_T": (affine.indec_T, (aq, 1, 1, gf2)),
        "affine.p_value": (affine.p_value, (aq, 0, 1)),
        "affine.euler_slope_N": (affine.euler_slope_N, (aq, 0, 1)),
        "affine.default_window": (affine.default_window, (cell,)),
        "affine.lift_truncated": (affine.lift_truncated, (cell, 6)),
        "affine.classify_lift": (affine.classify_lift, (cell, 6)),
        "affine.eta_from_lift": (affine.eta_from_lift, (cell,)),
        "affine.recover_N_multiplicities": (affine.recover_N_multiplicities, (cycle_report, 0, 0)),
        "campaign.fast_report": (campaign.fast_report, (v2, alpha)),
        "campaign.draw_a": (campaign.draw_a, (rng,)),
        "campaign.draw_b": (campaign.draw_b, (rng,)),
        "campaign.check_a": (campaign.check_a, (case_a,)),
        "campaign.check_b": (campaign.check_b, (case_b,)),
        "campaign.run": (campaign.run, ("a", 1, 0)),
        "serialize.instance_to_json": (serialize.instance_to_json, (cell, aq)),
        "serialize.instance_from_json": (serialize.instance_from_json,
                                         (serialize.instance_to_json(v2),)),
        "serialize.barcode_to_json": (serialize.barcode_to_json, (bar,)),
        "serialize.hn_to_json": (serialize.hn_to_json, (report,)),
        "serialize.classes_to_json": (serialize.classes_to_json, ({affine.NClass(0, 1): 1},)),
        "serialize.weights_from_json": (serialize.weights_from_json, ([1, 0],)),
        "serialize.truth_to_json": (serialize.truth_to_json, truth),
        "serialize.write_json": (serialize.write_json, ("out.json", [])),
        "serialize.load_json": (serialize.load_json, ("out.json",)),
        "generators.equioriented_quiver": (generators.equioriented_quiver, (2,)),
        "generators.random_orientation": (generators.random_orientation, (2, rng)),
        "generators.gen_persistence": (generators.gen_persistence, (2, gf2, 2, rng),
                                       {"quiver": a2, "min_summands": 1, "total_cap": 4,
                                        "vertex_cap": 2}),
        "generators.gen_affine": (generators.gen_affine, (2, gf2, 2, rng),
                                  {"min_summands": 1, "total_cap": 4, "vertex_cap": 2,
                                   "max_len": 3}),
    }


def public_names() -> set[str]:
    """``module.name`` of each public function and class defined in the library modules."""
    names = set()
    for short in MODULES:
        mod = importlib.import_module(f"hnzz.{short}")
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
                    and obj.__module__ == mod.__name__):
                names.add(f"{short}.{name}")
    return names


def escapes() -> list[str]:
    """One line per call that let anything but an hnzz exception out."""
    from hnzz.errors import GuardError, InternalCheckError, ParseError, ShapeError, ValidationError

    refusals = (ParseError, ValidationError, ShapeError, GuardError, InternalCheckError)
    entries = table()
    found = []
    public = public_names()
    uncovered = public - SKIPPED - {name.rsplit(".", 1)[0] for name in entries} - set(entries)
    found += [f"{name}: public, but neither fuzzed nor skipped" for name in sorted(uncovered)]
    found += [f"{name}: skipped, but not public" for name in sorted(SKIPPED - public)]
    for name, (call, args, *keywords) in entries.items():
        kwargs = keywords[0] if keywords else {}
        try:
            call(*args, **kwargs)
        except Exception as exc:  # the table itself is wrong
            found.append(f"{name}{args!r} (valid): {type(exc).__name__}: {exc}")
            continue
        changed = [(i, bad, args[:i] + (bad,) + args[i + 1:], kwargs)
                   for i in range(len(args)) for bad in BAD]
        changed += [(key, bad, args, {**kwargs, key: bad}) for key in kwargs for bad in BAD]
        for where, bad, bad_args, bad_kwargs in changed:
            try:
                call(*bad_args, **bad_kwargs)
            except refusals:
                pass
            except Exception as exc:
                found.append(f"{name} argument {where!r} = {bad!r}: {type(exc).__name__}: {exc}")
    return found


def test_no_wrong_argument_escapes():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, __file__], capture_output=True, text=True,
                           env=dict(os.environ, PYTHONPATH=path), timeout=6 * ALARM_S)
    assert child.returncode == 0, f"exit {child.returncode}\n{child.stdout}\n{child.stderr[-2000:]}"
    assert json.loads(child.stdout) == []


if __name__ == "__main__":
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
    signal.alarm(ALARM_S)
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)  # the calls of write_json and load_json leave their files here
        found = escapes()
    print(json.dumps(found, indent=1))
    sys.exit(1 if found else 0)
