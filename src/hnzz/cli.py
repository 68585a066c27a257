"""Command-line interface: barcode, hn, lift, gen, verify.

Exit codes are stable: 0 success, 1 check failure or internal error,
2 malformed input, 3 invariant violation, 4 unsupported quiver shape or
window, 5 enumeration guard exceeded.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .affine import LiftWindow, classify_lift, eta_from_lift
from .errors import (
    GuardError,
    InternalCheckError,
    ParseError,
    ShapeError,
    ValidationError,
)
from .generators import gen_affine, gen_persistence
from .hn import hn_bruteforce, hn_from_barcode
from .linalg import GF, QQ
from .quiver import euler_stability
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
from .zigzag import barcode, path_steps


def _emit(doc: dict, out: str | None) -> None:
    if out:
        write_json(out, doc)
    else:
        print(json.dumps(doc, indent=2))


def _cmd_barcode(args) -> int:
    inst = instance_from_json(load_json(args.input))
    bar = barcode(inst.rep)
    _emit({"barcode": barcode_to_json(bar)}, args.out)
    return 0


def _cmd_hn(args) -> int:
    inst = instance_from_json(load_json(args.input))
    rep = inst.rep
    custom = args.stability != "euler"
    if custom:
        alpha = weights_from_json(load_json(args.stability))
        if len(alpha.weights) != rep.quiver.vertex_count:
            raise ValidationError("weights file does not match the vertex count")
    else:
        alpha = euler_stability(rep.quiver)

    fast = None
    if custom:
        if not args.oracle:
            raise ShapeError(
                "the barcode-driven fast path supports the Euler weights only; "
                "pass --oracle for custom weights"
            )
    elif inst.affine is not None:
        fast = eta_from_lift(rep)
    else:
        steps = path_steps(rep.quiver)
        if not all(fwd for _, fwd in steps):
            raise ShapeError(
                "fast path requires an equioriented path or an affine cycle"
            )
        fast = hn_from_barcode(barcode(rep), rep.quiver)

    doc: dict = {}
    if args.oracle:
        oracle = hn_bruteforce(rep, alpha)
        report = fast if fast is not None else oracle
        doc["hn"] = hn_to_json(report)
        if fast is not None:
            doc["oracle_agrees"] = fast.steps == oracle.steps
    else:
        assert fast is not None
        doc["hn"] = hn_to_json(fast)
    _emit(doc, args.out)
    return 0


def _cmd_lift(args) -> int:
    inst = instance_from_json(load_json(args.input))
    if inst.affine is None:
        raise ShapeError("lift requires an affine instance")
    window = LiftWindow(inst.affine.n, args.window) if args.window is not None else None
    d_inf, classes, bar = classify_lift(inst.rep, window)
    doc = {
        "d_inf": d_inf,
        "classes": classes_to_json(classes),
        "barcode": barcode_to_json(bar),
    }
    _emit(doc, args.out)
    return 0


def _parse_field(raw: str):
    if raw in ("rational", "q", "QQ"):
        return QQ
    try:
        return GF(int(raw))
    except ValueError as exc:
        raise ParseError(f"bad field {raw!r}: use 'rational' or a prime") from exc


def _cmd_gen(args) -> int:
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


def _theorem_a_case(rng: random.Random) -> tuple[bool, dict]:
    p = rng.choice((2, 3))
    fld = GF(p)
    cap = 8 if p == 2 else 6
    n = rng.randint(1, 5)
    rep, truth = gen_persistence(
        n, fld, 4, rng, min_summands=1, total_cap=cap, vertex_cap=6
    )
    doc = instance_to_json(rep)
    if rep.is_zero():
        return True, doc
    bar = barcode(rep)
    fast = hn_from_barcode(bar, rep.quiver)
    oracle = hn_bruteforce(rep, euler_stability(rep.quiver))
    if fast.steps != oracle.steps:
        return False, doc
    j_count = sum(1 for iv, _ in bar if iv.lo == 0)
    has_rest = any(iv.lo != 0 for iv, _ in bar)
    expected_len = j_count + (1 if has_rest else 0)
    return len(oracle.steps) == expected_len, doc


def _theorem_b_case(rng: random.Random) -> tuple[bool, dict]:
    p = rng.choice((2, 3))
    fld = GF(p)
    cap = 8 if p == 2 else 6
    n = rng.randint(2, 5)
    aq, rep, _, _ = gen_affine(
        n, fld, 3, rng, min_summands=1, total_cap=cap, vertex_cap=6, max_len=2 * n
    )
    doc = instance_to_json(rep, aq)
    if rep.is_zero():
        return True, doc
    fast = eta_from_lift(rep)
    oracle = hn_bruteforce(rep, euler_stability(rep.quiver))
    return fast.steps == oracle.steps, doc


def _cmd_verify(args) -> int:
    rng = random.Random(args.seed)
    case = _theorem_a_case if args.theorem == "a" else _theorem_b_case
    passed = failed = 0
    first_bad = None
    for _ in range(args.cases):
        ok, doc = case(rng)
        if ok:
            passed += 1
        else:
            failed += 1
            if first_bad is None:
                first_bad = doc
    print(f"theorem {args.theorem}: {passed} passed, {failed} failed of {args.cases}")
    if first_bad is not None:
        print("first counterexample instance:")
        print(json.dumps(first_bad, indent=2))
    return 0 if failed == 0 else 1


def _parser() -> argparse.ArgumentParser:
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
    p.add_argument("--oracle", action="store_true", help="also run the brute-force oracle")
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
    p.add_argument("--theorem", choices=("a", "b"), required=True)
    p.add_argument("--cases", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
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
