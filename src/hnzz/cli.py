"""Command-line interface: barcode, hn, lift, gen, verify.

The quiver alone decides an instance's shape: an affine cycle written as
``vertices``/``edges`` in ``to_quiver`` order is the same instance as its
``affine`` spelling.  ``lift`` leaves the shape check to ``classify_lift``.
``hn`` reads the weights (the word ``euler`` or a weights file) and asks
``campaign.fast_report`` for the fast route, which goes by their values:
a file holding the Euler weights gets the same report as the default.

Exit codes are stable: 0 success, 1 check failure, internal error or
closed stdout, 2 malformed input, 3 invariant violation, 4 unsupported
quiver shape or window, 5 enumeration guard exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys

from . import campaign
from .affine import classify_lift
from .errors import (
    GuardError,
    InternalCheckError,
    ParseError,
    ShapeError,
    ValidationError,
    shown,
)
from .generators import gen_affine, gen_persistence
from .hn import hn_bruteforce
from .linalg import GF, QQ
from .quiver import check_weights, euler_stability
from .serialize import (
    barcode_to_json,
    classes_to_json,
    hn_to_json,
    instance_from_json,
    instance_to_json,
    load_json,
    truth_to_json,
    weights_from_json,
    write_json,
)
from .zigzag import barcode


def _emit(doc: dict, out: str | None) -> None:
    if out:
        write_json(out, doc)
    else:
        print(json.dumps(doc, indent=2))


def _cmd_barcode(args) -> int:
    bar = barcode(instance_from_json(load_json(args.input)))
    _emit({"barcode": barcode_to_json(bar)}, args.out)
    return 0


def _cmd_hn(args) -> int:
    rep = instance_from_json(load_json(args.input))
    if args.stability == "euler":
        alpha = euler_stability(rep.quiver)
    else:
        alpha = weights_from_json(load_json(args.stability))
        check_weights(rep.quiver, alpha)
    fast = campaign.fast_report(rep, alpha)
    if fast is None and not args.oracle:
        raise ShapeError(
            "the fast route needs the Euler weights on a path or an affine cycle; "
            "pass --oracle for any other input"
        )
    oracle = hn_bruteforce(rep, alpha) if args.oracle else None
    doc: dict = {"hn": hn_to_json(fast if fast is not None else oracle)}
    if fast is not None and oracle is not None:
        doc["oracle_agrees"] = fast.steps == oracle.steps
    _emit(doc, args.out)
    return 0


def _cmd_lift(args) -> int:
    d_inf, classes, bar = classify_lift(instance_from_json(load_json(args.input)), args.window)
    _emit({"d_inf": d_inf, "classes": classes_to_json(classes), "barcode": barcode_to_json(bar)},
          args.out)
    return 0


def _parse_field(raw: str):
    if raw == "rational":
        return QQ
    try:
        return GF(int(raw))
    except ValueError as exc:
        raise ParseError(f"bad field {shown(raw)}: use 'rational' or a prime") from exc


def _cmd_gen(args) -> int:
    least = 1 if args.kind == "persistence" else 2
    if args.n < least:
        raise ParseError(f"--kind {args.kind} needs --n of at least {least}")
    if args.max_summands < 0:
        raise ParseError("--max-summands must not be negative")
    fld = _parse_field(args.field)
    rng = random.Random(args.seed)
    if args.kind == "persistence":
        rep, truth = gen_persistence(args.n, fld, args.max_summands, rng)
        inst_doc = instance_to_json(rep)
        truth_doc = truth_to_json(fld, intervals=truth)
    else:
        aq, rep, truth_n, truth_t = gen_affine(args.n, fld, args.max_summands, rng)
        inst_doc = instance_to_json(rep, aq)
        truth_doc = truth_to_json(fld, n_classes=truth_n, t_classes=truth_t)
    write_json(args.out, inst_doc)
    write_json(args.out + ".truth.json", truth_doc)
    return 0


def _cmd_verify(args) -> int:
    if args.cases < 0:
        raise ParseError("--cases must not be negative")
    tally = campaign.run(args.theorem, args.cases, args.seed)
    print(f"theorem {args.theorem}: {tally.passed} passed, {tally.failed} failed of {args.cases}")
    if tally.first_bad is not None:
        print(f"first disagreement: {tally.first_reason}", file=sys.stderr)
        print("first counterexample instance:")
        print(json.dumps(tally.first_bad, indent=2))
    return 0 if tally.failed == 0 else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``main`` only reads it."""
    parser = argparse.ArgumentParser(
        prog="hnzz",
        description="Barcodes and Harder-Narasimhan filtrations for type-A and affine quivers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("barcode", help="interval multiplicities of a path instance")
    p.add_argument("input")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_barcode)

    p = sub.add_parser("hn", help="Harder-Narasimhan report of an instance")
    p.add_argument("input")
    p.add_argument(
        "--stability",
        default="euler",
        help="'euler' (default) or a path to a JSON array of rational weights",
    )
    p.add_argument(
        "--oracle",
        action="store_true",
        help="also run the brute-force oracle, or alone when no fast route applies",
    )
    p.add_argument("--out")
    p.set_defaults(func=_cmd_hn)

    p = sub.add_parser("lift", help="unwinding multiplicities of an affine instance")
    p.add_argument("input")
    p.add_argument("--window", type=int, help="window length (multiple of n)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("gen", help="generate a random self-certifying instance")
    p.add_argument("--kind", choices=("persistence", "affine"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--field", default="rational", help="'rational' or a prime")
    p.add_argument("--max-summands", type=int, default=3)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="dual-path checks on generated instances")
    # the live mapping: argparse tests membership when it parses, so a
    # theorem added after the parser was built is still a choice
    p.add_argument("--theorem", choices=campaign.THEOREMS, required=True)
    p.add_argument("--cases", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    return parser


# Built on import: argparse's help strings look up translation files, a few
# ms of file probing, which the first call of main would otherwise pay alone.
_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early; send what is still buffered to
        # devnull, so the interpreter's final flush does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except ShapeError as exc:
        print(f"unsupported shape: {exc}", file=sys.stderr)
        return 4
    except GuardError as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return 5
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
