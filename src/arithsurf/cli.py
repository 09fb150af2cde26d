"""Command line front end.

Exit codes: 0 pass, 1 law falsified or a pairing oracle that disagrees with
its closed form, 2 usage / parse error, 3 unsupported input (factorization
or window out of scope), 4 inconclusive (timeout, root finding or an
evaluation below resolution).  Output is deterministic for a
fixed input and config (and, for selftest, a fixed --seed).
"""

import argparse
import json
import sys

from mpmath import mp

from .centext import nu_arch_closed, nu_arch_oracle
from .config import default_config
from .errors import (
    ArithsurfError,
    EvaluationAtZero,
    FactorizationTimeout,
    NonIrreducibleBase,
    ParseError,
    RootFindingDivergence,
    UnsupportedFactorization,
    UnsupportedOrder,
    WindowTooSmall,
    ZeroPolynomial,
)
from .laurent import parse_laurent
from .laws import verify_horizontal_law, verify_point_law, verify_vertical_law
from .roots import archimedean_places
from .selftest import run_all
from .surface import (
    HORIZONTAL,
    VERTICAL,
    horizontal_order,
    parse_curve,
    parse_function,
    parse_point,
)
from .symbols import (
    archimedean_symbol,
    branch_decomposition,
    curve_point_symbol,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3
EXIT_INCONCLUSIVE = 4

USAGE_ERRORS = (ParseError, ZeroPolynomial, NonIrreducibleBase)
UNSUPPORTED = (UnsupportedOrder, UnsupportedFactorization)
INCONCLUSIVE = (
    FactorizationTimeout,
    RootFindingDivergence,
    EvaluationAtZero,
)


def _emit(doc, args):
    if args.format == "json":
        print(json.dumps(doc, sort_keys=True, default=str))
    else:
        _emit_text(doc)


def _emit_text(doc, indent=""):
    for key, val in doc.items():
        if isinstance(val, list):
            print(f"{indent}{key}:")
            for item in val:
                if isinstance(item, dict):
                    cells = "  ".join(f"{k}={v}" for k, v in item.items() if v is not None)
                    print(f"{indent}  {cells}")
                else:
                    print(f"{indent}  {item}")
        elif isinstance(val, dict):
            print(f"{indent}{key}:")
            _emit_text(val, indent + "  ")
        else:
            print(f"{indent}{key}: {val}")


def cmd_symbol(args):
    cfg = default_config()
    f = parse_function(args.f)
    g = parse_function(args.g)
    curve = parse_curve(args.curve)

    if args.embedding is not None:
        if curve.kind != HORIZONTAL:
            print("error: --embedding needs a horizontal curve", file=sys.stderr)
            return EXIT_USAGE
        places = archimedean_places(curve.h, prec=cfg.prec_bits)
        if not 0 <= args.embedding < len(places):
            print(
                f"error: --embedding out of range (curve has {len(places)} places)",
                file=sys.stderr,
            )
            return EXIT_USAGE
        place = places[args.embedding]
        with mp.workprec(cfg.prec_bits):
            val = archimedean_symbol(curve.h, place.theta, f, g, prec=cfg.prec_bits)
            doc = {
                "curve": curve.label(),
                "embedding": args.embedding,
                "place": "real" if place.is_real else "pair",
                "theta": mp.nstr(place.theta, 20),
                "weight": place.weight,
                "value": mp.nstr(val, 30),
                "prec_bits": cfg.prec_bits,
            }
        _emit(doc, args)
        return EXIT_PASS

    if args.point is None:
        print("error: need --point or --embedding", file=sys.stderr)
        return EXIT_USAGE
    point = parse_point(args.point)
    value = curve_point_symbol(curve, point, f, g)
    doc = {
        "curve": curve.label(),
        "point": point.label(),
        "f": str(f),
        "g": str(g),
        "value": value,
    }
    if curve.kind == HORIZONTAL and point.residue is not None:
        doc["nu1"] = {"f": horizontal_order(f, curve), "g": horizontal_order(g, curve)}
        try:
            branches = branch_decomposition(curve, point, f, g)
        except ArithsurfError as exc:
            # the value was found without branch data, which it needs only
            # where nu1(f) or nu1(g) is nonzero
            doc["branches_refused"] = f"{type(exc).__name__}: {exc}"
        else:
            doc["branches"] = [
                {
                    "e": b.e,
                    "f": b.f,
                    "weight": str(b.weight),
                    "nu2_f": str(b.nu2_f),
                    "nu2_g": str(b.nu2_g),
                }
                for b in branches
            ]
    _emit(doc, args)
    return EXIT_PASS


def _verdict_exit(report):
    if report.verdict == "pass":
        return EXIT_PASS
    if report.verdict == "inconclusive":
        return EXIT_INCONCLUSIVE
    return EXIT_FAIL


def cmd_verify(args):
    cfg = default_config()
    f = parse_function(args.f)
    g = parse_function(args.g)
    if args.law == "point":
        report = verify_point_law(parse_point(args.point), f, g, config=cfg)
    elif args.law == "vertical":
        report = verify_vertical_law(args.prime, f, g, config=cfg)
    else:
        curve = parse_curve(args.curve)
        if curve.kind == VERTICAL:
            print("error: horizontal verification needs H:<poly> or INF",
                  file=sys.stderr)
            return EXIT_USAGE
        report = verify_horizontal_law(curve, f, g, config=cfg)
    _emit(report.to_dict(), args)
    return _verdict_exit(report)


def cmd_pairing(args):
    cfg = default_config()
    f = parse_laurent(args.f)
    g = parse_laurent(args.g)
    with mp.workprec(cfg.prec_bits):
        oracle = nu_arch_oracle(f, g, window=args.window, prec=cfg.prec_bits)
        closed = nu_arch_closed(f, g, prec=cfg.prec_bits)
        doc = {
            "f": str(f),
            "g": str(g),
            "oracle": mp.nstr(oracle, 30),
            "closed": mp.nstr(closed, 30),
            "diff": mp.nstr(abs(oracle - closed), 10),
            "prec_bits": cfg.prec_bits,
        }
        agree = abs(oracle - closed) <= cfg.tolerance
    _emit(doc, args)
    return EXIT_PASS if agree else EXIT_FAIL


def cmd_selftest(args):
    cfg = default_config()
    results = run_all(args.cases, args.seed, config=cfg)
    doc = {
        "seed": args.seed,
        "cases": args.cases,
        "prec_bits": cfg.prec_bits,
        "suites": [
            {
                "name": r.name,
                "passed": r.passed,
                "failed": r.failed,
                "inconclusive": r.inconclusive,
                "total": r.total,
                "failures": r.failures,
            }
            for r in results
        ],
    }
    if args.format == "json":
        print(json.dumps(doc, sort_keys=True, default=str))
    else:
        for r in results:
            print(r.summary_line())
    return EXIT_PASS if all(r.ok for r in results) else EXIT_FAIL


def build_parser():
    parser = argparse.ArgumentParser(
        prog="arithsurf",
        description="Reciprocity symbols and laws on the projective line over Z",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output rendering (json is a single sorted document)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sym = sub.add_parser("symbol", help="one (curve, point) or archimedean symbol")
    p_sym.add_argument("--curve", required=True, help="V:<p> | H:<intpoly> | INF")
    p_sym.add_argument("--point", help="<p>:<monic poly mod p> | <p>:inf")
    p_sym.add_argument("--embedding", type=int,
                       help="index of an archimedean place of the curve")
    p_sym.add_argument("--f", required=True)
    p_sym.add_argument("--g", required=True)
    p_sym.set_defaults(func=cmd_symbol)

    p_ver = sub.add_parser("verify", help="verify one reciprocity law instance")
    ver_sub = p_ver.add_subparsers(dest="law", required=True)
    v_point = ver_sub.add_parser("point", help="sum over curves through a point")
    v_point.add_argument("--point", required=True)
    v_point.add_argument("--f", required=True)
    v_point.add_argument("--g", required=True)
    v_point.set_defaults(func=cmd_verify, law="point")
    v_vert = ver_sub.add_parser("vertical", help="weighted sum over a fiber")
    v_vert.add_argument("--prime", type=int, required=True)
    v_vert.add_argument("--f", required=True)
    v_vert.add_argument("--g", required=True)
    v_vert.set_defaults(func=cmd_verify, law="vertical")
    v_hor = ver_sub.add_parser(
        "horizontal", help="finite places + archimedean places along a curve"
    )
    v_hor.add_argument("--curve", required=True)
    v_hor.add_argument("--f", required=True)
    v_hor.add_argument("--g", required=True)
    v_hor.set_defaults(func=cmd_verify, law="horizontal")

    p_pair = sub.add_parser(
        "pairing", help="window-lattice commutator oracle vs closed formula"
    )
    p_pair.add_argument("--f", required=True, help="Laurent polynomial")
    p_pair.add_argument("--g", required=True, help="Laurent polynomial")
    p_pair.add_argument("--window", type=int, help="half-width of the window")
    p_pair.set_defaults(func=cmd_pairing)

    p_self = sub.add_parser("selftest", help="run the seeded property suites")
    p_self.add_argument("--seed", type=int, default=42)
    p_self.add_argument("--cases", type=int, default=100)
    p_self.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except WindowTooSmall as exc:
        hint = (f" (try --window {max(-exc.minimal_window[0], exc.minimal_window[1])})"
                if exc.minimal_window else "")
        print(f"WindowTooSmall: {exc}{hint}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except UNSUPPORTED as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except INCONCLUSIVE as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except USAGE_ERRORS as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
