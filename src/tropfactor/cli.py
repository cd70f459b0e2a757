"""Command-line interface: JSON in, JSON/CSV/SVG out.

Exit codes separate the outcomes a script needs to branch on: 0 for
success, 1 for a mathematical negative (the input was understood and the
answer is no; a witness is serialized to the output channel), 2 for
malformed input or unsupported requests (message on stderr), and 3 for
an internal fault: a computed answer failed its exact certificate and
was withheld (message on stderr).
"""

import argparse
import csv
import io
import sys
from fractions import Fraction
from typing import Tuple

from . import formats, svg
from .coxeter import (
    UnsupportedType,
    build_root_system,
    coxeter_fan,
    phi_expand,
    phi_permutahedron,
    phi_weight_cone_basis,
    phi_weights,
)
from .division import NegativeWeight, NotContained, divide
from .exact import CertificateError, QuadExt, TropfactorError
from .formats import SchemaError
from .minkowski import (
    NotASummand,
    NotRefined,
    TooLarge,
    expand_in_basis,
    factor,
    weight_cone_basis,
)
from .polyhedra import DegeneratePolytope
from .permutahedra import (
    NotInCone,
    TooSmall,
    deformation_cone_violations,
    polymatroid_from_weights,
    weight_matrix,
)
from .selftest import run_selftest
from .svg import UnsupportedDimension

_INPUT_ERRORS = (SchemaError, UnsupportedType, UnsupportedDimension,
                 DegeneratePolytope, TooLarge, TooSmall, ValueError)


def _log(args, message: str):
    if getattr(args, "verbose", False):
        print(message, file=sys.stderr)


def _jsonable(x):
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (int, Fraction, QuadExt)):
        return formats.encode_scalar(x)
    return str(x)


def _error_payload(e: TropfactorError) -> dict:
    out = {"error": type(e).__name__, "message": str(e)}
    if isinstance(e, NotContained):
        out["witness"] = {"point": formats.encode_vector(e.witness)}
    elif isinstance(e, NegativeWeight):
        out["witness"] = {"dual_edge": _jsonable(e.dual_edge),
                          "w_f": formats.encode_scalar(e.w_f),
                          "w_g_extended": formats.encode_scalar(e.w_up),
                          "deficit": formats.encode_scalar(e.deficit)}
    elif isinstance(e, NotASummand):
        out["witness"] = _jsonable(e.witness)
    elif isinstance(e, NotRefined):
        out["witness"] = {k: formats.encode_vector(e.witness[k])
                          for k in ("point", "direction")}
    elif isinstance(e, NotInCone):
        out["witness"] = {"partition": e.partition.label(),
                          "value": formats.encode_scalar(e.value)}
    return out


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (exit code, output text)


def _cmd_divide(args) -> Tuple[int, str]:
    f = formats.polynomial_from_json(formats.load_json(args.f))
    g = formats.polynomial_from_json(formats.load_json(args.g))
    _log(args, f"dividing {len(f.terms)}-term f by {len(g.terms)}-term g")
    h = divide(f, g)
    return 0, formats.dump_json(formats.polynomial_to_json(h))


def _cmd_factor(args) -> Tuple[int, str]:
    P = formats.polytope_from_json(formats.load_json(args.p))
    Q = formats.polytope_from_json(formats.load_json(args.q))
    R = factor(P, Q)
    return 0, formats.dump_json(formats.polytope_to_json(R))


def _fan_from_file(path: str):
    obj = formats.load_json(path)
    kind = formats.detect_kind(obj)
    if kind == "polytope":
        return formats.polytope_from_json(obj).normal_fan()
    if kind == "fan":
        fan, _ = formats.weighted_fan_from_json(obj)
        return fan
    raise SchemaError("expected a polytope or a fan, got a polynomial")


def _cmd_basis(args) -> Tuple[int, str]:
    fan = _fan_from_file(args.input)
    _log(args, f"fan with {len(fan.chambers)} chambers, "
               f"{len(fan.walls)} walls")
    basis = weight_cone_basis(fan)
    payload = {"dim": fan.n, "r": basis.r,
               "matrix": [[formats.encode_scalar(x) for x in row]
                          for row in basis.matrix()],
               "polytopes": [formats.polytope_to_json(B)
                             for B in basis.polytopes]}
    return 0, formats.dump_json(payload)


def _cmd_expand(args) -> Tuple[int, str]:
    Q = formats.polytope_from_json(formats.load_json(args.polytope))
    fan = _fan_from_file(args.base)
    basis = weight_cone_basis(fan)
    y = expand_in_basis(Q, basis)
    payload = {"r": basis.r,
               "coefficients": [formats.encode_scalar(c) for c in y]}
    return 0, formats.dump_json(payload)


def _parse_y(text: str) -> dict:
    obj = formats.loads(text)
    if not isinstance(obj, dict):
        raise SchemaError("--y must be a JSON object of subset weights")
    y = {}
    for key, raw in obj.items():
        s = key
        sgn = 1
        if s.startswith("-"):
            sgn, s = -1, s[1:]
        if not s.isdigit() or len(set(s)) != len(s):
            raise SchemaError(
                f"subset key {key!r} must be distinct digits, with an "
                "optional leading '-' to negate the weight")
        v = formats.decode_scalar(raw)
        if not isinstance(v, Fraction):
            raise SchemaError(f"weight for {key!r} must be rational")
        I = tuple(sorted(int(c) for c in s))
        y[I] = y.get(I, Fraction(0)) + sgn * v
    return y


def _cmd_defcone(args) -> Tuple[int, str]:
    y = _parse_y(args.y)
    violations = deformation_cone_violations(y, args.n)
    payload = {"n": args.n, "inside": not violations,
               "violations": [{"partition": pi.label(),
                               "value": formats.encode_scalar(v)}
                              for pi, v in violations]}
    if not violations and all(v.denominator == 1 for v in y.values()):
        M = polymatroid_from_weights(y, args.n)
        payload["polytope"] = formats.polytope_to_json(M)
    return (0 if not violations else 1), formats.dump_json(payload)


def _subset_label(I) -> str:
    return "".join(str(i) for i in I)


def _cmd_wmatrix(args) -> Tuple[int, str]:
    W = weight_matrix(args.n)
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if args.labels:
            writer.writerow([""] + [_subset_label(I) for I in W.subsets])
            for pi, row in zip(W.partitions, W.rows):
                writer.writerow([pi.label()] + list(row))
        else:
            writer.writerows(W.rows)
        return 0, buf.getvalue()
    payload = {"n": args.n,
               "partitions": [pi.label() for pi in W.partitions],
               "subsets": [_subset_label(I) for I in W.subsets],
               "rows": [list(row) for row in W.rows]}
    return 0, formats.dump_json(payload)


def _wall_names(cf) -> list:
    if cf.labels:
        return [cf.labels[k] for k in cf.wall_order]
    return [f"w{i}" for i in range(len(cf.wall_order))]


def _cmd_coxeter(args) -> Tuple[int, str]:
    rs = build_root_system(args.type)
    if args.permutahedron is not None:
        try:
            point = tuple(Fraction(tok)
                          for tok in args.permutahedron.split(","))
        except (ValueError, ZeroDivisionError):
            raise SchemaError("--permutahedron takes comma-separated "
                              "rationals, e.g. 3,1")
        if len(point) != rs.n:
            raise SchemaError(f"type {args.type} points have {rs.n} "
                              f"coordinates, got {len(point)}")
        P = phi_permutahedron(rs, point)
        return 0, formats.dump_json(formats.polytope_to_json(P))
    cf = coxeter_fan(rs)
    _log(args, f"{args.type}: {len(cf.fan.chambers)} chambers, "
               f"{len(cf.wall_order)} walls")
    if args.weights is not None:
        P = formats.polytope_from_json(formats.load_json(args.weights))
        w = phi_weights(P, cf)
        payload = {"type": args.type, "labels": _wall_names(cf),
                   "weights": [formats.encode_scalar(w[k])
                               for k in cf.wall_order]}
        return 0, formats.dump_json(payload)
    basis = phi_weight_cone_basis(cf)
    if args.expand is not None:
        P = formats.polytope_from_json(formats.load_json(args.expand))
        y = phi_expand(P, basis)
        payload = {"type": args.type, "r": basis.r,
                   "coefficients": [formats.encode_scalar(c) for c in y]}
        return 0, formats.dump_json(payload)
    payload = {"type": args.type, "r": basis.r,
               "labels": _wall_names(cf),
               "matrix": [[formats.encode_scalar(x) for x in row]
                          for row in basis.matrix()],
               "polytopes": [formats.polytope_to_json(B)
                             for B in basis.polytopes]}
    return 0, formats.dump_json(payload)


def _cmd_plot(args) -> Tuple[int, str]:
    obj = formats.load_json(args.input)
    kind = formats.detect_kind(obj)
    if args.divisor is not None and kind != "polynomial":
        raise SchemaError("--divisor applies only to a polynomial input")
    if kind == "polynomial":
        f = formats.polynomial_from_json(obj)
        divisor = None
        if args.divisor is not None:
            divisor = formats.polynomial_from_json(
                formats.load_json(args.divisor))
        return 0, svg.render_polynomial(f, divisor)
    if kind == "polytope":
        return 0, svg.render_polytope(formats.polytope_from_json(obj))
    fan, weights = formats.weighted_fan_from_json(obj)
    return 0, svg.render_fan(fan, weights)


def _cmd_selftest(args) -> Tuple[int, str]:
    rows, all_ok = run_selftest()
    width = max(len(name) for name, _, _ in rows)
    lines = []
    for name, ok, note in rows:
        verdict = "PASS" if ok else "FAIL"
        lines.append(f"{verdict}  {name:<{width}}  {note}".rstrip())
    passed = sum(1 for _, ok, _ in rows if ok)
    lines.append(f"{passed} of {len(rows)} checks passed")
    return (0 if all_ok else 1), "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tropfactor",
        description="Exact tropical polynomial division and Minkowski "
                    "factorization of lattice polytopes.")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="progress notes on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("-o", "--output", metavar="PATH",
                       help="write the result here instead of stdout")
        return p

    p = add("divide", _cmd_divide, "tropical quotient h with g*h = f")
    p.add_argument("f", help="dividend polynomial JSON")
    p.add_argument("g", help="divisor polynomial JSON")

    p = add("factor", _cmd_factor, "Minkowski factor R with Q + R = P")
    p.add_argument("p", help="polytope JSON for P")
    p.add_argument("q", help="summand polytope JSON for Q")

    p = add("basis", _cmd_basis,
            "factorization basis of a fan's balanced weight cone")
    p.add_argument("input", help="polytope JSON (its normal fan) or fan JSON")

    p = add("expand", _cmd_expand,
            "coordinates of a polytope in a factorization basis")
    p.add_argument("polytope", help="polytope JSON to expand")
    p.add_argument("base", help="polytope or fan JSON fixing the basis")

    p = add("defcone", _cmd_defcone,
            "membership of a simplex weight vector in the deformation cone")
    p.add_argument("--n", type=int, required=True,
                   help="quotient dimension (ground set 1..n+1)")
    p.add_argument("--y", required=True, metavar="JSON",
                   help="subset weights, e.g. '{\"12\": 2, \"-123\": 1}'")

    p = add("wmatrix", _cmd_wmatrix,
            "extended weight matrix of the simplex faces")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--labels", action="store_true",
                   help="include partition/subset labels in CSV output")

    p = add("coxeter", _cmd_coxeter,
            "reflection-fan bases, expansions and orbit polytopes")
    p.add_argument("--type", required=True,
                   help="root system tag: A1, A2, A3, A4 or B2")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--basis", action="store_true",
                       help="weight-cone basis of the reflection fan")
    group.add_argument("--expand", metavar="P.json",
                       help="expand a polytope in the basis")
    group.add_argument("--weights", metavar="P.json",
                       help="wall weights of a polytope")
    group.add_argument("--permutahedron", metavar="POINT",
                       help="orbit polytope of a point, e.g. 3,1")

    p = add("plot", _cmd_plot, "SVG rendering of a planar object")
    p.add_argument("input", help="polynomial, polytope or fan JSON")
    p.add_argument("--divisor", metavar="G.json",
                   help="dot the cells not on the divisor's variety")

    add("selftest", _cmd_selftest, "run the built-in reference fixtures")
    return parser


def _write(args, text: str):
    path = getattr(args, "output", None)
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report(e: Exception, code: int) -> int:
    print(formats.dump_json({"error": type(e).__name__, "message": str(e)}),
          end="", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        try:
            code, text = args.handler(args)
        except TropfactorError as e:
            if isinstance(e, _INPUT_ERRORS + (CertificateError,)):
                raise
            _write(args, formats.dump_json(_error_payload(e)))
            return 1
        _write(args, text)
        return code
    except _INPUT_ERRORS + (OSError,) as e:
        return _report(e, 2)
    except CertificateError as e:
        return _report(e, 3)


if __name__ == "__main__":
    sys.exit(main())
