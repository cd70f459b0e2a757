"""JSON interchange: exact scalars, object schemas, canonical round trips."""

from fractions import Fraction

import pytest

from tropfactor.exact import QuadExt, SQRT2
from tropfactor.formats import (
    SchemaError,
    decode_scalar,
    detect_kind,
    dump_json,
    encode_scalar,
    loads,
    polynomial_from_json,
    polynomial_to_json,
    polytope_from_json,
    polytope_to_json,
    weighted_fan_from_json,
    weighted_fan_to_json,
)
from tropfactor.polyhedra import LatticePolytope
from tropfactor.tropical import TropicalPolynomial

OCTAGON = LatticePolytope([(1, 0), (0, 1), (2, 0), (0, 2),
                           (3, 1), (3, 2), (2, 3), (1, 3)])


class TestScalars:
    def test_integers_stay_integers(self):
        assert encode_scalar(Fraction(4, 2)) == 2
        assert encode_scalar(-7) == -7

    def test_fractions_become_strings(self):
        assert encode_scalar(Fraction(-3, 4)) == "-3/4"
        assert decode_scalar("-3/4") == Fraction(-3, 4)
        assert decode_scalar("5") == Fraction(5)

    def test_sqrt_objects(self):
        x = QuadExt(Fraction(1, 2), 2)
        enc = encode_scalar(x)
        assert enc == {"a": "1/2", "b": 2, "d": 2}
        assert decode_scalar(enc) == x
        assert encode_scalar(SQRT2) == {"a": 0, "b": 1, "d": 2}

    def test_rational_sqrt_object_demotes(self):
        # b = 0 comes back as a plain Fraction
        out = decode_scalar({"a": "2/3", "b": 0})
        assert out == Fraction(2, 3) and isinstance(out, Fraction)

    def test_round_trips(self):
        for x in (Fraction(0), Fraction(17, 5), QuadExt(1, -1),
                  QuadExt(0, Fraction(3, 2))):
            assert decode_scalar(encode_scalar(x)) == x

    def test_rejections(self):
        for bad in (1.5, True, "x/y", "1/0", {"a": 1, "b": 1, "d": 3},
                    {"a": 1, "q": 2}, [1], None, {"a": {"a": 1, "b": 1}}):
            with pytest.raises(SchemaError):
                decode_scalar(bad)

    def test_float_literals_rejected_at_parse(self):
        with pytest.raises(SchemaError):
            loads('{"dim": 2, "terms": [{"exp": [0, 0], "coef": 1.5}]}')
        with pytest.raises(SchemaError):
            loads('[NaN]')

    def test_invalid_json_rejected(self):
        with pytest.raises(SchemaError):
            loads("{not json")


class TestPolynomialFormat:
    def test_round_trip(self):
        f = TropicalPolynomial({(0, 0): 0, (1, 1): Fraction(-1, 2)})
        obj = polynomial_to_json(f)
        assert obj == {"dim": 2, "terms": [
            {"exp": [0, 0], "coef": 0},
            {"exp": [1, 1], "coef": "-1/2"}]}
        assert polynomial_from_json(obj).terms == f.terms

    def test_serialization_is_canonical(self):
        obj = {"dim": 2, "terms": [{"exp": [1, 1], "coef": "2"},
                                   {"exp": [0, 0], "coef": 0}]}
        f = polynomial_from_json(obj)
        assert polynomial_to_json(f) == {"dim": 2, "terms": [
            {"exp": [0, 0], "coef": 0}, {"exp": [1, 1], "coef": 2}]}

    def test_duplicate_exponents_take_the_max(self):
        obj = {"dim": 1, "terms": [{"exp": [0], "coef": 1},
                                   {"exp": [0], "coef": 3}]}
        assert polynomial_from_json(obj).terms == {(0,): Fraction(3)}

    def test_schema_errors(self):
        bad = [
            {"dim": 2},
            {"dim": 2, "terms": []},
            {"dim": 2, "terms": [{"exp": [0], "coef": 0}]},
            {"dim": 0, "terms": [{"exp": [], "coef": 0}]},
            {"dim": 2, "terms": [{"exp": [0, 0]}]},
            {"dim": 2, "terms": [{"exp": [0, 0], "coef": 0, "x": 1}]},
            {"dim": 2, "terms": [{"exp": [0, "1"], "coef": 0}]},
            {"dim": 2, "terms": [{"exp": [0, 0],
                                  "coef": {"a": 0, "b": 1}}]},
            {"dim": "2", "terms": [{"exp": [0, 0], "coef": 0}]},
            [1, 2],
        ]
        for obj in bad:
            with pytest.raises(SchemaError):
                polynomial_from_json(obj)


class TestPolytopeFormat:
    def test_round_trip(self):
        obj = polytope_to_json(OCTAGON)
        assert obj["dim"] == 2 and len(obj["vertices"]) == 8
        assert polytope_from_json(obj) == OCTAGON

    def test_interior_points_drop_out(self):
        obj = {"dim": 1, "vertices": [[0], [1], [2]]}
        P = polytope_from_json(obj)
        assert polytope_to_json(P) == {"dim": 1, "vertices": [[0], [2]]}

    def test_field_vertices(self):
        P = LatticePolytope([(0, 0), (SQRT2, 1)])
        obj = polytope_to_json(P)
        assert obj["vertices"][1][0] == {"a": 0, "b": 1, "d": 2}
        assert polytope_from_json(obj) == P

    def test_schema_errors(self):
        bad = [
            {"dim": 2, "vertices": []},
            {"dim": 2, "vertices": [[0, 0]], "extra": 1},
            {"dim": 2, "vertices": [[0, 0, 0]]},
            {"dim": 2, "vertices": "nope"},
            {"vertices": [[0, 0]]},
        ]
        for obj in bad:
            with pytest.raises(SchemaError):
                polytope_from_json(obj)


class TestWeightedFanFormat:
    def test_octagon_round_trip(self):
        fan = OCTAGON.normal_fan()
        keys = sorted(fan.walls)
        w = {k: Fraction(i + 1, 2) for i, k in enumerate(keys)}
        obj = weighted_fan_to_json(fan, w)
        assert len(obj["cones"]) == 8
        assert len(obj["weights"]) == 8
        assert len(obj["covectors"]) == 8
        fan2, w2 = weighted_fan_from_json(obj)
        assert {C.key() for C in fan2.chambers} == \
            {C.key() for C in fan.chambers}
        assert w2 == w
        assert weighted_fan_to_json(fan2, w2) == obj

    def test_covectors_are_the_primitive_rays(self):
        fan = OCTAGON.normal_fan()
        obj = weighted_fan_to_json(fan)
        rays = {tuple(v) for v in obj["covectors"].values()}
        assert rays == {(1, 1), (0, 1), (-1, 1), (-1, 0),
                        (-1, -1), (0, -1), (1, -1), (1, 0)}

    def test_weights_are_optional(self):
        fan = OCTAGON.normal_fan()
        obj = weighted_fan_to_json(fan)
        assert obj["weights"] == []
        fan2, w2 = weighted_fan_from_json(obj)
        assert w2 is None and len(fan2.walls) == 8

    def test_no_covectors_beyond_the_plane(self):
        cube = LatticePolytope([(x, y, z) for x in (0, 1)
                                for y in (0, 1) for z in (0, 1)])
        obj = weighted_fan_to_json(cube.normal_fan())
        assert obj["covectors"] == {}
        fan2, _ = weighted_fan_from_json(obj)
        assert len(fan2.chambers) == 8

    def test_weight_count_mismatch(self):
        fan = OCTAGON.normal_fan()
        obj = weighted_fan_to_json(fan)
        obj["weights"] = [1, 2]
        with pytest.raises(SchemaError):
            weighted_fan_from_json(obj)

    def test_cones_must_form_a_complete_fan(self):
        def cone(*normals):
            return [{"normal": list(a), "rhs": 0} for a in normals]

        overlapping = [cone((1, 0), (0, 1)), cone((-1, 0)), cone((0, -1))]
        half_plane = [cone((1, 0))]   # its wall has one side
        for cones in (overlapping, half_plane):
            with pytest.raises(SchemaError):
                weighted_fan_from_json({"dim": 2, "cones": cones})

    def test_lower_dimensional_cones_are_rejected(self):
        # the four quadrants of the plane z = 0 in R^3
        cones = [[{"normal": [sx, 0, 0], "rhs": 0},
                  {"normal": [0, sy, 0], "rhs": 0},
                  {"normal": [0, 0, 1], "rhs": 0, "eq": True}]
                 for sx in (1, -1) for sy in (1, -1)]
        with pytest.raises(SchemaError, match="full-dimensional"):
            weighted_fan_from_json({"dim": 3, "cones": cones})
        # the same cones without the equality row form a complete fan
        for c in cones:
            del c[2]
        fan, _ = weighted_fan_from_json({"dim": 3, "cones": cones})
        assert len(fan.chambers) == 4

    def test_mismatched_weight_keys_rejected_on_encode(self):
        fan = OCTAGON.normal_fan()
        with pytest.raises(ValueError):
            weighted_fan_to_json(fan, {"bogus": 1})


class TestDetectKind:
    def test_kinds(self):
        assert detect_kind({"dim": 1, "terms": []}) == "polynomial"
        assert detect_kind({"dim": 1, "vertices": []}) == "polytope"
        assert detect_kind({"dim": 1, "cones": []}) == "fan"

    def test_unknown(self):
        for obj in ({}, {"dim": 2}, [1], "x"):
            with pytest.raises(SchemaError):
                detect_kind(obj)


def test_dump_json_is_stable():
    text = dump_json({"b": 1, "a": [2]})
    assert text == '{\n  "b": 1,\n  "a": [\n    2\n  ]\n}\n'
