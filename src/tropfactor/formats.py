"""JSON interchange for polynomials, polytopes and weighted fans.

Numbers travel exactly: integers as JSON integers, other rationals as
"p/q" strings and Q(sqrt(2)) scalars as {"a": "p/q", "b": "p/q", "d": 2}
objects.  Floating-point literals are rejected at parse time, so no
reader of these files can silently lose exactness.  Serialization is
canonical (sorted terms, sorted vertices, canonical cone order), which
makes byte-identical round trips testable.
"""

import json
from fractions import Fraction
from typing import Dict, List, Tuple

from .exact import QuadExt, TropfactorError
from .minkowski import WeightVector
from .polyhedra import Fan, LatticePolytope, Polyhedron
from .tropical import TropicalPolynomial


class SchemaError(TropfactorError):
    """The input does not match the documented JSON schema."""


def _expect(cond: bool, message: str):
    if not cond:
        raise SchemaError(message)


def _reject_float(value):
    raise SchemaError(
        f"floating-point literal {value!r} is not accepted; "
        "write rationals as \"p/q\" strings")


def load_json(path: str):
    """Parse a JSON file, rejecting floats and non-finite literals."""
    try:
        with open(path) as fh:
            return json.load(fh, parse_float=_reject_float,
                             parse_constant=_reject_float)
    except OSError as e:
        raise SchemaError(f"cannot read {path}: {e.strerror}") from e
    except json.JSONDecodeError as e:
        raise SchemaError(f"{path} is not valid JSON: {e}") from e


def loads(text: str):
    """Parse a JSON string with the same float rejection as load_json."""
    try:
        return json.loads(text, parse_float=_reject_float,
                          parse_constant=_reject_float)
    except json.JSONDecodeError as e:
        raise SchemaError(f"not valid JSON: {e}") from e


# ---------------------------------------------------------------------------
# scalars


def encode_scalar(x):
    """Exact scalar -> JSON value (int, "p/q" string, or sqrt(2) object)."""
    if isinstance(x, QuadExt):
        if x.b == 0:
            return encode_scalar(x.a)
        return {"a": encode_scalar(x.a), "b": encode_scalar(x.b), "d": x.d}
    q = Fraction(x)
    if q.denominator == 1:
        return int(q)
    return f"{q.numerator}/{q.denominator}"


def decode_scalar(obj):
    """JSON value -> Fraction or QuadExt; floats and junk raise SchemaError."""
    if isinstance(obj, bool):
        raise SchemaError(f"expected a number, got {obj!r}")
    if isinstance(obj, int):
        return Fraction(obj)
    if isinstance(obj, float):
        _reject_float(obj)
    if isinstance(obj, str):
        try:
            return Fraction(obj)
        except (ValueError, ZeroDivisionError):
            raise SchemaError(f"{obj!r} is not a rational \"p/q\" string")
    if isinstance(obj, dict):
        extra = set(obj) - {"a", "b", "d"}
        _expect(not extra, f"unknown keys {sorted(extra)} in sqrt object")
        _expect(obj.get("d", 2) == 2, "only d = 2 radicals are supported")
        a = decode_scalar(obj.get("a", 0))
        b = decode_scalar(obj.get("b", 0))
        _expect(isinstance(a, Fraction) and isinstance(b, Fraction),
                "sqrt object coordinates must be rational")
        value = QuadExt(a, b)
        return value.a if value.b == 0 else value
    raise SchemaError(f"expected a number, got {type(obj).__name__}")


def _decode_integer(obj, what: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise SchemaError(f"{what} must be an integer, got {obj!r}")
    return obj


def encode_vector(v) -> list:
    return [encode_scalar(x) for x in v]


def decode_vector(obj, dim: int, what: str) -> tuple:
    _expect(isinstance(obj, list), f"{what} must be a list")
    _expect(len(obj) == dim, f"{what} must have {dim} entries, got {len(obj)}")
    return tuple(decode_scalar(x) for x in obj)


# ---------------------------------------------------------------------------
# tropical polynomials


def polynomial_to_json(f: TropicalPolynomial) -> dict:
    return {"dim": f.n,
            "terms": [{"exp": [int(x) for x in a], "coef": encode_scalar(v)}
                      for a, v in sorted(f.terms.items())]}


def polynomial_from_json(obj) -> TropicalPolynomial:
    _expect(isinstance(obj, dict), "a polynomial file must hold a JSON object")
    _expect(set(obj) == {"dim", "terms"},
            'a polynomial object has exactly the keys "dim" and "terms"')
    n = _decode_integer(obj["dim"], '"dim"')
    _expect(n >= 1, '"dim" must be at least 1')
    terms = obj["terms"]
    _expect(isinstance(terms, list) and terms,
            '"terms" must be a non-empty list')
    parsed: Dict[tuple, Fraction] = {}
    for t in terms:
        _expect(isinstance(t, dict) and set(t) == {"exp", "coef"},
                'each term has exactly the keys "exp" and "coef"')
        _expect(isinstance(t["exp"], list) and len(t["exp"]) == n,
                f'"exp" must be a list of {n} integers')
        e = tuple(_decode_integer(x, "an exponent") for x in t["exp"])
        c = decode_scalar(t["coef"])
        _expect(isinstance(c, Fraction),
                "polynomial coefficients must be rational")
        parsed[e] = max(parsed[e], c) if e in parsed else c
    return TropicalPolynomial(parsed, n=n)


# ---------------------------------------------------------------------------
# polytopes


def polytope_to_json(P: LatticePolytope) -> dict:
    return {"dim": P.n, "vertices": [encode_vector(v) for v in P.vertices]}


def polytope_from_json(obj) -> LatticePolytope:
    _expect(isinstance(obj, dict), "a polytope file must hold a JSON object")
    _expect(set(obj) == {"dim", "vertices"},
            'a polytope object has exactly the keys "dim" and "vertices"')
    n = _decode_integer(obj["dim"], '"dim"')
    _expect(n >= 1, '"dim" must be at least 1')
    verts = obj["vertices"]
    _expect(isinstance(verts, list) and verts,
            '"vertices" must be a non-empty list')
    return LatticePolytope([decode_vector(v, n, "a vertex") for v in verts])


# ---------------------------------------------------------------------------
# weighted fans
#
# A fan is stored by the H-representations of its maximal cones, listed
# in canonical (sorted cone key) order.  Weights are listed against the
# derived walls, again in canonical order; for a planar fan the walls
# are rays and their primitive generators are repeated under "covectors"
# so the weight list is readable without reconstruction.


def _hrep_json(C: Polyhedron) -> list:
    ineqs, eqs = C.minimal_hrep()
    out = [{"normal": encode_vector(a), "rhs": encode_scalar(b), "eq": False}
           for a, b in ineqs]
    out += [{"normal": encode_vector(a), "rhs": encode_scalar(b), "eq": True}
            for a, b in eqs]
    return out


def weighted_fan_to_json(fan: Fan, weights=None) -> dict:
    chambers = sorted(fan.chambers, key=lambda C: C.key())
    keys = sorted(fan.walls)
    covectors = {}
    if fan.n == 2:
        for i, k in enumerate(keys):
            (ray,) = fan.walls[k].rays
            covectors[str(i)] = encode_vector(ray)
    by_key = dict(weights.by_key) if isinstance(weights, WeightVector) \
        else dict(weights or {})
    if weights is not None and set(by_key) != set(keys):
        raise ValueError("weight keys do not match the fan's walls")
    wlist = [encode_scalar(by_key[k]) for k in keys] if weights is not None \
        else []
    return {"dim": fan.n,
            "cones": [_hrep_json(C) for C in chambers],
            "covectors": covectors,
            "weights": wlist}


def _cone_from_hrep(obj, n: int) -> Polyhedron:
    _expect(isinstance(obj, list) and obj, "each cone is a non-empty list")
    ineqs: List[Tuple[tuple, Fraction]] = []
    eqs: List[Tuple[tuple, Fraction]] = []
    for row in obj:
        _expect(isinstance(row, dict) and
                set(row) <= {"normal", "rhs", "eq"} and "normal" in row,
                'each H-rep row has keys "normal", "rhs" and "eq"')
        a = decode_vector(row["normal"], n, "a normal")
        b = decode_scalar(row.get("rhs", 0))
        _expect(b == 0, '"rhs" must be 0: every cone of a fan contains '
                        'the origin')
        eq = row.get("eq", False)
        _expect(isinstance(eq, bool), '"eq" must be true or false')
        (eqs if eq else ineqs).append((a, b))
    return Polyhedron(n, ineqs, eqs)


def _expect_complete_fan(fan: Fan):
    """SchemaError unless the cones meet like the chambers of a complete fan.

    Every chamber is full-dimensional, no chamber's interior point may
    lie in another chamber, and a relative-interior point of every wall
    must lie in exactly two.
    """
    chambers = fan.chambers
    for i, C in enumerate(chambers):
        _expect(C.dim() == fan.n, f"cone {i} is not full-dimensional")
        p = C.relative_interior_point()
        _expect(not any(D.contains(p) for j, D in enumerate(chambers)
                        if j != i),
                f"cone {i} overlaps the interior of another cone")
    for W in fan.walls.values():
        p = W.relative_interior_point()
        _expect(sum(C.contains(p) for C in chambers) == 2,
                f"the wall through {[str(x) for x in p]} is not shared by "
                "exactly two cones")


def weighted_fan_from_json(obj):
    """Returns (fan, weights-by-wall-key or None)."""
    _expect(isinstance(obj, dict), "a fan file must hold a JSON object")
    _expect({"dim", "cones"} <= set(obj) <=
            {"dim", "cones", "covectors", "weights"},
            'a fan object has keys "dim", "cones", "covectors", "weights"')
    n = _decode_integer(obj["dim"], '"dim"')
    _expect(n >= 1, '"dim" must be at least 1')
    cones = obj["cones"]
    _expect(isinstance(cones, list) and cones,
            '"cones" must be a non-empty list')
    fan = Fan([_cone_from_hrep(c, n) for c in cones])
    _expect_complete_fan(fan)
    keys = sorted(fan.walls)
    raw = obj.get("weights", [])
    _expect(isinstance(raw, list), '"weights" must be a list')
    if not raw:
        return fan, None
    _expect(len(raw) == len(keys),
            f"the fan has {len(keys)} walls but {len(raw)} weights are given")
    return fan, dict(zip(keys, (decode_scalar(x) for x in raw)))


# ---------------------------------------------------------------------------
# object sniffing (for the CLI's plot and expand inputs)


def detect_kind(obj) -> str:
    """One of "polynomial", "polytope", "fan" by the top-level keys."""
    if isinstance(obj, dict):
        if "terms" in obj:
            return "polynomial"
        if "vertices" in obj:
            return "polytope"
        if "cones" in obj:
            return "fan"
    raise SchemaError(
        'unrecognized object: expected "terms", "vertices" or "cones"')


def dump_json(obj) -> str:
    """Canonical serialization: two-space indent, trailing newline."""
    return json.dumps(obj, indent=2) + "\n"
