"""Command-line behavior: exit codes, witnesses, output formats."""

import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import tropfactor
from tropfactor.cli import main
from tropfactor.coxeter import (
    build_root_system,
    coxeter_fan,
    phi_expand,
    phi_permutahedron,
    phi_weight_cone_basis,
)
from tropfactor.exact import dot, sign
from tropfactor.formats import (
    decode_vector,
    polynomial_from_json,
    polytope_from_json,
    polytope_to_json,
)
from tropfactor.minkowski import (
    FactorizationBasis,
    expand_in_basis,
    weight_cone_basis,
)
from tropfactor.polyhedra import LatticePolytope
from tropfactor.tropical import TropicalComplex, TropicalPolynomial

F_OBJ = {"dim": 2, "terms": [
    {"exp": [0, 0], "coef": 0}, {"exp": [0, 1], "coef": -7},
    {"exp": [1, 0], "coef": -7}, {"exp": [1, 1], "coef": -10},
    {"exp": [1, 2], "coef": -17}, {"exp": [2, 1], "coef": -17},
    {"exp": [2, 2], "coef": -20}]}
G_OBJ = {"dim": 2, "terms": [
    {"exp": [0, 0], "coef": 0}, {"exp": [0, 1], "coef": -7},
    {"exp": [1, 0], "coef": -7}, {"exp": [1, 1], "coef": -10}]}
TENT_F_OBJ = {"dim": 2, "terms": [
    {"exp": [0, 2], "coef": 0}, {"exp": [2, 0], "coef": 0},
    {"exp": [-2, 0], "coef": 0}, {"exp": [0, -2], "coef": 0},
    {"exp": [0, 1], "coef": 1}, {"exp": [1, 0], "coef": 1},
    {"exp": [0, -1], "coef": 1}, {"exp": [-1, 0], "coef": 1}]}
TENT_G_OBJ = {"dim": 2, "terms": [
    {"exp": [0, 2], "coef": 0}, {"exp": [2, 0], "coef": 0},
    {"exp": [-2, 0], "coef": 0}, {"exp": [0, -2], "coef": 0}]}
S_OBJ = {"dim": 2, "vertices": [[1, 0], [0, 1], [2, 0], [0, 2],
                                [3, 1], [3, 2], [2, 3], [1, 3]]}
TRI_OBJ = {"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]]}
# lower-dimensional cones: the four quadrants of the plane z = 0 in R^3
QUADRANTS_OF_A_PLANE = {"dim": 3, "cones": [
    [{"normal": [sx, 0, 0], "rhs": 0}, {"normal": [0, sy, 0], "rhs": 0},
     {"normal": [0, 0, 1], "rhs": 0, "eq": True}]
    for sx in (1, -1) for sy in (1, -1)]}
P1_OBJ = {"dim": 2, "vertices": [[0, 0], [1, -1], [2, 0]]}
SQRT2 = {"a": 0, "b": 1, "d": 2}
# the unit triangle dilated by sqrt(2): vertices in Q(sqrt(2))^2
SQRT2_TRI_OBJ = {"dim": 2, "vertices": [[0, 0], [SQRT2, 0], [0, SQRT2]]}
PHI_P1_OBJ = {"dim": 2, "vertices": [[0, 1], [2, 1], [1, 0]]}

TABLE_1_CSV = ("1,0,0,1\n0,0,1,1\n0,1,0,1\n"
               "1,0,0,0\n0,0,1,0\n0,1,0,0\n")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    out = {}
    fixtures = {"f": F_OBJ, "g": G_OBJ, "tent_f": TENT_F_OBJ,
                "tent_g": TENT_G_OBJ, "S": S_OBJ, "tri": TRI_OBJ,
                "p1": P1_OBJ, "phi_p1": PHI_P1_OBJ,
                "sqrt2_tri": SQRT2_TRI_OBJ,
                "square": {"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1],
                                                  [1, 1]]},
                "diagonal": {"dim": 2, "vertices": [[0, 0], [1, 1]]},
                "cube3": {"dim": 3, "vertices": [[x, y, z] for x in (0, 1)
                                                for y in (0, 1)
                                                for z in (0, 1)]}}
    for name, obj in fixtures.items():
        path = root / f"{name}.json"
        path.write_text(json.dumps(obj))
        out[name] = str(path)
    out["root"] = root
    return out


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def refinement_witness(payload, polytope_obj):
    """The witness point and direction, after checking by evaluation that
    some vertex maximizing the point does not maximize the direction."""
    P = polytope_from_json(polytope_obj)
    p, r = (decode_vector(payload["witness"][k], P.n, k)
            for k in ("point", "direction"))

    def top(y):
        h = max(dot(y, v) for v in P.vertices)
        return {v for v in P.vertices if dot(y, v) == h}

    assert not top(p) <= top(r)
    return p, r


class TestDivide:
    def test_success(self, files, capsys):
        code, out, err = run(["divide", files["f"], files["g"]], capsys)
        assert code == 0 and err == ""
        h = json.loads(out)
        assert [t["exp"] for t in h["terms"]] == [[0, 0], [1, 1]]
        assert [t["coef"] for t in h["terms"]] == [0, -10]

    def test_tent_witness(self, files, capsys):
        code, out, err = run(["divide", files["tent_f"], files["tent_g"]],
                             capsys)
        assert code == 1 and err == ""
        payload = json.loads(out)
        assert payload["error"] == "NegativeWeight"
        assert payload["witness"]["deficit"] == -1
        assert payload["witness"]["w_f"] == 1
        assert payload["witness"]["w_g_extended"] == 2

    def test_not_contained(self, files, capsys):
        code, out, _ = run(["divide", files["g"], files["tent_g"]], capsys)
        assert code == 1
        payload = json.loads(out)
        assert payload["error"] == "NotContained"
        assert len(payload["witness"]["point"]) == 2

    def test_failed_certificate_exits_3(self, files, capsys, monkeypatch):
        monkeypatch.setattr(TropicalPolynomial, "same_function",
                            lambda self, other: False)
        code, out, err = run(["divide", files["f"], files["g"]], capsys)
        assert code == 3 and out == ""
        assert json.loads(err)["error"] == "CertificateError"
        assert "Traceback" not in err

    def test_missing_file(self, files, capsys):
        code, out, err = run(["divide", files["f"], "/nonexistent.json"],
                             capsys)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "SchemaError"

    def test_float_input(self, files, capsys):
        bad = files["root"] / "bad.json"
        bad.write_text('{"dim": 1, "terms": [{"exp": [0], "coef": 0.5}]}')
        code, out, err = run(["divide", str(bad), files["g"]], capsys)
        assert code == 2
        assert "floating-point" in json.loads(err)["message"]

    def test_deterministic_output(self, files, capsys):
        _, out1, _ = run(["divide", files["f"], files["g"]], capsys)
        _, out2, _ = run(["divide", files["f"], files["g"]], capsys)
        assert out1 == out2

    def test_output_file(self, files, capsys):
        dest = files["root"] / "h.json"
        code, out, _ = run(["divide", files["f"], files["g"],
                            "-o", str(dest)], capsys)
        assert code == 0 and out == ""
        assert json.loads(dest.read_text())["dim"] == 2

    def test_unwritable_output(self, files, capsys):
        code, _, err = run(["divide", files["f"], files["g"],
                            "-o", "/nonexistent/dir/h.json"], capsys)
        assert code == 2
        assert json.loads(err)["error"].endswith("Error")


class TestFactor:
    def test_success(self, files, capsys):
        code, out, _ = run(["factor", files["S"], files["tri"]], capsys)
        assert code == 0
        R = polytope_from_json(json.loads(out))
        tri = polytope_from_json(TRI_OBJ)
        assert tri + R == polytope_from_json(S_OBJ)

    def test_not_a_summand(self, files, capsys):
        code, out, _ = run(["factor", files["tri"], files["S"]], capsys)
        assert code == 1
        payload = json.loads(out)
        assert payload["error"] == "NotASummand"
        assert payload["witness"][0] == "not_refining"

    def test_not_refining_message_names_the_exact_point(self, files,
                                                        capsys):
        code, out, _ = run(["factor", files["square"], files["diagonal"]],
                           capsys)
        assert code == 1
        message = json.loads(out)["message"]
        assert "(witness direction (-1, 1))" in message
        assert "Fraction(" not in message


class TestBasisAndExpand:
    def test_expand_rejects_irrational_vertices(self, files, capsys):
        # the triangle's fan refines the normal fan of the sqrt(2)-triangle,
        # whose edges have no lattice length
        code, out, err = run(["expand", files["sqrt2_tri"], files["tri"]],
                             capsys)
        assert code == 2 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert "rational vertices" in payload["message"]

    def test_octagon_basis(self, files, capsys):
        code, out, _ = run(["basis", files["S"]], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["r"] == 6
        assert len(payload["matrix"]) == 6
        assert all(len(row) == 8 for row in payload["matrix"])
        assert len(payload["polytopes"]) == 6

    def test_expand_matches_the_library(self, files, capsys):
        code, out, _ = run(["expand", files["p1"], files["S"]], capsys)
        assert code == 0
        payload = json.loads(out)
        basis = weight_cone_basis(polytope_from_json(S_OBJ).normal_fan())
        y = expand_in_basis(polytope_from_json(P1_OBJ), basis)
        assert payload["coefficients"] == [int(c) for c in y]

    def test_expand_rejects_unrefined_input(self, files, capsys):
        steep = files["root"] / "steep.json"
        steep.write_text(json.dumps(
            {"dim": 2, "vertices": [[0, 0], [2, 1]]}))
        code, out, _ = run(["expand", str(steep), files["S"]], capsys)
        assert code == 1
        payload = json.loads(out)
        assert payload["error"] == "NotRefined"
        p, r = refinement_witness(payload, {"dim": 2,
                                            "vertices": [[0, 0], [2, 1]]})
        # p is inside the normal cone of one vertex of S, r on its closure
        S = polytope_from_json(S_OBJ)
        (v,) = S.face_vertices(p)
        assert v in S.face_vertices(r)

    def test_fractional_edge_length_is_an_input_error(self, files, capsys):
        half = files["root"] / "half.json"
        half.write_text(json.dumps(
            {"dim": 2, "vertices": [[0, 0], ["1/2", 0]]}))
        code, out, err = run(["expand", str(half), files["S"]], capsys)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "ValueError"

    def test_basis_of_serialized_fan(self, files, capsys):
        from tropfactor.formats import dump_json, weighted_fan_to_json
        fan_file = files["root"] / "fan.json"
        fan_file.write_text(dump_json(
            weighted_fan_to_json(polytope_from_json(S_OBJ).normal_fan())))
        code, out, _ = run(["basis", str(fan_file)], capsys)
        assert code == 0 and json.loads(out)["r"] == 6

    def test_polynomial_input_is_rejected(self, files, capsys):
        code, _, err = run(["basis", files["f"]], capsys)
        assert code == 2
        assert json.loads(err)["error"] == "SchemaError"

    def test_cone_with_nonzero_rhs_is_rejected(self, files, capsys):
        fan_file = files["root"] / "affine_fan.json"
        fan_file.write_text(json.dumps({"dim": 2, "cones": [
            [{"normal": [1, 0], "rhs": 1, "eq": False},
             {"normal": [0, 1], "rhs": 0, "eq": False}],
            [{"normal": [-1, 0], "rhs": 0, "eq": False}]]}))
        code, out, err = run(["basis", str(fan_file)], capsys)
        assert code == 2 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "SchemaError"
        assert '"rhs"' in payload["message"]

    def test_overlapping_cones_are_rejected(self, files, capsys):
        # x, y <= 0; x >= 0; y >= 0: the last two cones overlap
        fan_file = files["root"] / "overlapping_fan.json"
        fan_file.write_text(json.dumps({"dim": 2, "cones": [
            [{"normal": [1, 0], "rhs": 0}, {"normal": [0, 1], "rhs": 0}],
            [{"normal": [-1, 0], "rhs": 0}],
            [{"normal": [0, -1], "rhs": 0}]]}))
        code, out, err = run(["basis", str(fan_file)], capsys)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "SchemaError"

    def test_lower_dimensional_cones_are_rejected(self, files, capsys):
        # the four quadrants of the plane z = 0 in R^3
        fan_file = files["root"] / "plane_fan.json"
        fan_file.write_text(json.dumps(QUADRANTS_OF_A_PLANE))
        for argv in (["basis", str(fan_file)],
                     ["expand", str(files["tri"]), str(fan_file)]):
            code, out, err = run(argv, capsys)
            assert code == 2 and out == ""
            payload = json.loads(err)
            assert payload["error"] == "SchemaError"
            assert "full-dimensional" in payload["message"]

    @pytest.mark.parametrize("vertices", [[[1, 2]], [[0, 0], [2, 1]]])
    def test_lower_dimensional_base_is_an_input_error(self, files, capsys,
                                                      vertices):
        # a point or a segment in R^2 has no complete normal fan
        base = files["root"] / "flat_base.json"
        base.write_text(json.dumps({"dim": 2, "vertices": vertices}))
        for argv in (["basis", str(base)],
                     ["expand", files["tri"], str(base)]):
            code, out, err = run(argv, capsys)
            assert code == 2 and out == ""
            payload = json.loads(err)
            assert payload["error"] == "DegeneratePolytope"
            assert "dimension" in payload["message"]

    def test_expand_builds_no_basis_hull(self, files, capsys, monkeypatch):
        from tropfactor import division, minkowski, polyhedra
        counts = {"hull_of_table": 0, "LatticePolytope": 0}
        real_hull, real_init = division.hull_of_table, LatticePolytope.__init__

        def hull(*args):
            counts["hull_of_table"] += 1
            return real_hull(*args)

        def init(self, *args, **kwargs):
            counts["LatticePolytope"] += 1
            real_init(self, *args, **kwargs)

        for module in (division, minkowski):
            monkeypatch.setattr(module, "hull_of_table", hull)
        monkeypatch.setattr(polyhedra.LatticePolytope, "__init__", init)
        code, out, _ = run(["expand", files["p1"], files["S"]], capsys)
        assert code == 0 and json.loads(out)["r"] == 6
        # the two input files are the only polytopes
        assert counts == {"hull_of_table": 0, "LatticePolytope": 2}

    @pytest.mark.parametrize("flag", ["yes", 1, None])
    def test_non_boolean_eq_is_rejected(self, files, capsys, flag):
        fan_file = files["root"] / "eq_fan.json"
        fan_file.write_text(json.dumps({"dim": 2, "cones": [
            [{"normal": [1, 0], "eq": flag}],
            [{"normal": [-1, 0], "rhs": 0, "eq": False}]]}))
        code, out, err = run(["basis", str(fan_file)], capsys)
        assert code == 2 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "SchemaError"
        assert '"eq"' in payload["message"]


class TestDefcone:
    def test_inside_with_polytope(self, files, capsys):
        code, out, _ = run(["defcone", "--n", "2",
                            "--y", '{"12": 2, "123": 1}'], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["inside"] is True and payload["violations"] == []
        assert len(payload["polytope"]["vertices"]) == 4

    def test_outside_with_violations(self, files, capsys):
        code, out, _ = run(["defcone", "--n", "2",
                            "--y", '{"12": 1, "-123": 1}'], capsys)
        assert code == 1
        payload = json.loads(out)
        assert payload["inside"] is False
        labels = {v["partition"] for v in payload["violations"]}
        assert labels == {"({1,3}, 2)", "({2,3}, 1)"}
        assert all(v["value"] == -1 for v in payload["violations"])

    def test_rational_weights_omit_the_polytope(self, files, capsys):
        code, out, _ = run(["defcone", "--n", "2",
                            "--y", '{"12": "1/2"}'], capsys)
        assert code == 0
        assert "polytope" not in json.loads(out)

    def test_bad_keys(self, files, capsys):
        for y in ('{"1a": 1}', '{"11": 1}', '{"": 1}', '[1]',
                  '{"12": "x"}', '{"12": {"a": 0, "b": 1}}'):
            code, _, err = run(["defcone", "--n", "2", "--y", y], capsys)
            assert code == 2, y
        code, _, err = run(["defcone", "--n", "2", "--y", '{"15": 1}'],
                           capsys)
        assert code == 2


class TestWmatrix:
    def test_table_csv(self, files, capsys):
        code, out, _ = run(["wmatrix", "--n", "2", "--format", "csv"],
                           capsys)
        assert code == 0 and out == TABLE_1_CSV

    def test_csv_labels(self, files, capsys):
        code, out, _ = run(["wmatrix", "--n", "2", "--format", "csv",
                            "--labels"], capsys)
        lines = out.splitlines()
        assert lines[0] == ",12,23,13,123"
        assert lines[1] == '"({1,2}, 3)",1,0,0,1'

    def test_json_shape(self, files, capsys):
        code, out, _ = run(["wmatrix", "--n", "3"], capsys)
        payload = json.loads(out)
        assert len(payload["rows"]) == 36
        assert len(payload["subsets"]) == 11
        assert payload["subsets"][:3] == ["12", "23", "34"]


class TestCoxeter:
    def test_b2_basis(self, files, capsys):
        code, out, _ = run(["coxeter", "--type", "B2", "--basis"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["r"] == 6
        assert payload["labels"] == ["W_t", "W_s", "sW_t", "stW_s",
                                     "stsW_t", "tstW_s", "tsW_t", "tW_s"]
        assert len(payload["matrix"]) == 6
        assert len(payload["polytopes"]) == 6

    def test_b2_weights(self, files, capsys):
        code, out, _ = run(["coxeter", "--type", "B2",
                            "--weights", files["phi_p1"]], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["weights"] == [0, 2, 0, 0,
                                      {"a": 0, "b": 1, "d": 2}, 0,
                                      {"a": 0, "b": 1, "d": 2}, 0]

    def test_b2_expand_matches_the_library(self, files, capsys):
        code, out, _ = run(["coxeter", "--type", "B2",
                            "--expand", files["phi_p1"]], capsys)
        assert code == 0
        payload = json.loads(out)
        cf = coxeter_fan(build_root_system("B2"))
        y = phi_expand(polytope_from_json(PHI_P1_OBJ),
                       phi_weight_cone_basis(cf))
        from tropfactor.formats import encode_scalar
        assert payload["coefficients"] == [encode_scalar(c) for c in y]

    def test_permutahedron(self, files, capsys):
        code, out, _ = run(["coxeter", "--type", "B2",
                            "--permutahedron", "3,1"], capsys)
        assert code == 0
        assert len(json.loads(out)["vertices"]) == 8

    def test_mirror_point_is_a_negative(self, files, capsys):
        code, out, _ = run(["coxeter", "--type", "B2",
                            "--permutahedron", "1,1"], capsys)
        assert code == 1
        assert json.loads(out)["error"] == "PointOnHyperplane"

    def test_non_phi_polytope_has_a_checked_witness(self, files, capsys):
        obj = {"dim": 3, "vertices": [[0, 0, 0], [3, 0, 0], [0, 1, 0],
                                      [0, 0, 2]]}
        path = files["root"] / "non_phi.json"
        path.write_text(json.dumps(obj))
        code, out, _ = run(["coxeter", "--type", "A3", "--weights",
                            str(path)], capsys)
        assert code == 1
        payload = json.loads(out)
        assert payload["error"] == "NotAPhiPolytope"
        p, r = refinement_witness(payload, obj)
        # p is inside a Weyl chamber and r on its closure
        rs = build_root_system("A3")
        side = [sign(dot(rs.mirror(a), p)) for a in rs.int_positive]
        assert all(side) and any(r)
        assert all(sign(dot(rs.mirror(a), r)) * s >= 0
                   for a, s in zip(rs.int_positive, side))

    def test_input_errors(self, files, capsys):
        cases = [["coxeter", "--type", "B3", "--basis"],
                 ["coxeter", "--type", "B2", "--permutahedron", "1,2,3"],
                 ["coxeter", "--type", "B2", "--permutahedron", "x,y"]]
        for argv in cases:
            code, _, err = run(argv, capsys)
            assert code == 2, argv

    def test_exactly_one_action_required(self, files, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["coxeter", "--type", "B2"])
        assert ei.value.code == 2
        capsys.readouterr()


# sha256 of the stdout of `tropfactor coxeter --type T --basis`, which is
# byte-deterministic across runs and hash seeds
COXETER_BASIS_SHA256 = {
    "A2": "6904db88c4eace614820d4e392cdcf4807e99aed8ac0af86dc61e00cdc799b54",
    "A3": "1357f546bfdcb7e1e250871e67b4391f9f3946f25621c636d1984226e07fdc18",
    "A4": "f232fe0da9898d7b03c947483131813e32917acc0dbc71c7b2ab4ec49c463547",
    "B2": "9d21ad12832af89d3931874a280394084e4e87ac98128f26f677a6c20419b73e",
}


class TestCoxeterBasisBytes:
    @pytest.mark.parametrize("tag", sorted(COXETER_BASIS_SHA256))
    def test_basis_output_is_pinned(self, tag, capsys):
        code, out, _ = run(["coxeter", "--type", tag, "--basis"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == \
            COXETER_BASIS_SHA256[tag]


# ---------------------------------------------------------------------------
# the exit contract of the coxeter actions under mutated input


def _phi_json(tag, point):
    return polytope_to_json(phi_permutahedron(build_root_system(tag), point))


FUZZ_POLYTOPES = {"B2": _phi_json("B2", (3, 1)),
                  "A2": _phi_json("A2", (5, 2)),
                  "A3": _phi_json("A3", (3, -1, 2))}

junk_scalars = st.one_of(
    st.integers(-4, 4),
    st.integers(-10**30, 10**30),
    st.sampled_from(["1/2", "-3/4", "1/0", "2/-3", "x", "", "0.5", "3"]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.sampled_from([{"a": 1, "b": 1, "d": 2}, {"a": 0, "b": "1/2", "d": 2},
                     {"a": 1, "b": 0, "d": 2}, {"a": 1, "b": 1, "d": 3},
                     {"a": 1, "b": 1}]),
    st.lists(st.integers(-2, 2), max_size=3),
)


def _mutate(data, obj):
    """One random edit of a polytope JSON object."""
    verts = obj.get("vertices") if isinstance(obj, dict) else None
    kind = data.draw(st.sampled_from(
        ["coord", "coord", "shift", "scale", "drop", "duplicate", "collapse",
         "extra_coord", "dim", "keys", "empty", "not_object"]))
    if kind == "not_object":
        return data.draw(st.one_of(junk_scalars, st.just([])))
    if not isinstance(verts, list) or not verts or not all(
            isinstance(v, list) and v for v in verts):
        return obj
    i = data.draw(st.integers(0, len(verts) - 1))
    j = data.draw(st.integers(0, len(verts[i]) - 1))
    if kind == "coord":
        verts[i][j] = data.draw(junk_scalars)
    elif kind == "shift" and isinstance(verts[i][j], int):
        verts[i][j] += data.draw(st.integers(-3, 3))
    elif kind == "scale":
        k = data.draw(st.sampled_from([0, -1, 2, 3]))
        obj["vertices"] = [[x * k if isinstance(x, int) else x for x in v]
                           for v in verts]
    elif kind == "drop":
        del verts[i]
    elif kind == "duplicate":
        verts.append(list(verts[i]))
    elif kind == "collapse":
        obj["vertices"] = [list(verts[0]) for _ in verts]
    elif kind == "extra_coord":
        verts[i].append(0)
    elif kind == "dim":
        obj["dim"] = data.draw(junk_scalars)
    elif kind == "keys":
        obj[data.draw(st.sampled_from(["dim", "vertices", "extra"]))] = None
    elif kind == "empty":
        obj["vertices"] = []
    return obj


def _exit_code(argv):
    """main's exit code with stdout and stderr captured; a traceback
    propagates and fails the test."""
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            code = main(argv + ["-o", str(Path(tmp) / "out.json")])
        except SystemExit as e:  # argparse rejects the command line
            code = e.code
        out = Path(tmp) / "out.json"
        if code == 1:
            payload = json.loads(out.read_text())
            assert "error" in payload
            # a lower-dimensional base is an input error, not a "no"
            assert payload["error"] != "DegeneratePolytope"
        elif code == 2:
            assert "error" in json.loads(err.getvalue())
    return code


class TestCoxeterContractFuzz:
    """Every mutated input exits 0, 1 or 2, never with a traceback."""

    def _run_on_polytope(self, data, action, tags):
        tag = data.draw(st.sampled_from(tags))
        obj = json.loads(json.dumps(FUZZ_POLYTOPES[tag]))
        for _ in range(data.draw(st.integers(1, 3))):
            obj = _mutate(data, obj)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "p.json"
            path.write_text(json.dumps(obj))
            code = _exit_code(["coxeter", "--type", tag, action, str(path)])
        assert code in (0, 1, 2)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_weights(self, data):
        self._run_on_polytope(data, "--weights", ("B2", "A2", "A3"))

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_expand(self, data):
        self._run_on_polytope(data, "--expand", ("B2", "A2"))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["B2", "A2", "A3"]),
           st.one_of(
               st.lists(st.one_of(
                   st.integers(-5, 5).map(str),
                   st.fractions(min_value=-5, max_value=5,
                                max_denominator=6).map(str),
                   st.sampled_from(["0", "1/0", "x", "", "nan", "inf",
                                    "1e3", " 2", "--1", "1/2/3"])),
                   max_size=4).map(",".join),
               st.text(max_size=8)))
    def test_permutahedron(self, tag, point):
        code = _exit_code(["coxeter", "--type", tag,
                           f"--permutahedron={point}"])
        assert code in (0, 1, 2)


def _fan_json(vertices):
    from tropfactor.formats import weighted_fan_to_json
    return weighted_fan_to_json(LatticePolytope(vertices).normal_fan())


OCTAGON_VERTICES = [tuple(v) for v in S_OBJ["vertices"]]
HEXAGON_VERTICES = [(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)]
TETRA_VERTICES = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
MINKOWSKI_POLYTOPES = [
    S_OBJ, P1_OBJ, TRI_OBJ,
    {"dim": 2, "vertices": [list(v) for v in HEXAGON_VERTICES]},
    {"dim": 2, "vertices": [[0, 0], [2, -2]]},
    {"dim": 3, "vertices": [list(v) for v in TETRA_VERTICES]},
    SQRT2_TRI_OBJ,
    # lower-dimensional: a point, and a triangle in R^3
    {"dim": 2, "vertices": [[1, 2]]},
    {"dim": 3, "vertices": [list(v) for v in TETRA_VERTICES[:3]]}]
MINKOWSKI_FANS = [_fan_json(OCTAGON_VERTICES), _fan_json(HEXAGON_VERTICES),
                  _fan_json([(0, 0), (1, 0), (0, 1)]),
                  _fan_json(TETRA_VERTICES), QUADRANTS_OF_A_PLANE]


def _mutate_fan(data, obj):
    """One random edit of a fan JSON object."""
    cones = obj.get("cones") if isinstance(obj, dict) else None
    kind = data.draw(st.sampled_from(
        ["normal", "normal", "flip", "drop_row", "drop_cone", "duplicate",
         "eq", "rhs", "dim", "keys", "weights", "empty", "not_object"]))
    if kind == "not_object":
        return data.draw(st.one_of(junk_scalars, st.just([])))
    if not isinstance(cones, list) or not cones or not all(
            isinstance(c, list) and c and all(
                isinstance(r, dict) and isinstance(r.get("normal"), list)
                and r["normal"] for r in c) for c in cones):
        return obj
    i = data.draw(st.integers(0, len(cones) - 1))
    j = data.draw(st.integers(0, len(cones[i]) - 1))
    row = cones[i][j]
    k = data.draw(st.integers(0, len(row["normal"]) - 1))
    if kind == "normal":
        row["normal"][k] = data.draw(st.one_of(junk_scalars,
                                               st.integers(-3, 3)))
    elif kind == "flip":
        row["normal"] = [-x if isinstance(x, int) else x
                         for x in row["normal"]]
    elif kind == "drop_row":
        del cones[i][j]
    elif kind == "drop_cone":
        del cones[i]
    elif kind == "duplicate":
        cones.append(json.loads(json.dumps(cones[i])))
    elif kind == "eq":
        row["eq"] = data.draw(st.one_of(st.booleans(), junk_scalars))
    elif kind == "rhs":
        row["rhs"] = data.draw(junk_scalars)
    elif kind == "dim":
        obj["dim"] = data.draw(junk_scalars)
    elif kind == "keys":
        obj[data.draw(st.sampled_from(["dim", "cones", "extra"]))] = None
    elif kind == "weights":
        obj["weights"] = data.draw(st.lists(junk_scalars, max_size=9))
    elif kind == "empty":
        obj["cones"] = []
    return obj


class TestMinkowskiContractFuzz:
    """factor, basis and expand exit 0, 1 or 2 on mutated polytope and fan
    files, never with a traceback."""

    def _draw_file(self, data, tmp, name, fans):
        pool = MINKOWSKI_POLYTOPES + (MINKOWSKI_FANS if fans else [])
        obj = json.loads(json.dumps(data.draw(st.sampled_from(pool))))
        for _ in range(data.draw(st.integers(0, 2))):
            if isinstance(obj, dict) and "cones" in obj:
                obj = _mutate_fan(data, obj)
            else:
                obj = _mutate(data, obj)
        path = Path(tmp) / f"{name}.json"
        path.write_text(json.dumps(obj))
        return str(path)

    def _run(self, data, command, names, fans):
        with tempfile.TemporaryDirectory() as tmp:
            paths = [self._draw_file(data, tmp, name, fan)
                     for name, fan in zip(names, fans)]
            code = _exit_code([command] + paths)
        assert code in (0, 1, 2)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_factor(self, data):
        self._run(data, "factor", ("p", "q"), (False, False))

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_basis(self, data):
        self._run(data, "basis", ("input",), (True,))

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_expand(self, data):
        self._run(data, "expand", ("polytope", "base"), (False, True))


FUZZ_POLYNOMIALS = [
    F_OBJ, G_OBJ, TENT_F_OBJ, TENT_G_OBJ,
    {"dim": 1, "terms": [{"exp": [0], "coef": 0}, {"exp": [2], "coef": 1},
                         {"exp": [-1], "coef": "-1/2"}]},
    {"dim": 3, "terms": [{"exp": [0, 0, 0], "coef": 0},
                         {"exp": [1, 0, 0], "coef": 0},
                         {"exp": [0, 1, 0], "coef": "-1/2"},
                         {"exp": [0, 0, 1], "coef": 1}]}]


def _mutate_polynomial(data, obj):
    """One random edit of a polynomial JSON object."""
    terms = obj.get("terms") if isinstance(obj, dict) else None
    kind = data.draw(st.sampled_from(
        ["coef", "coef", "exp", "shift", "extra_exp", "drop_exp", "dim",
         "keys", "term_keys", "drop", "duplicate", "empty", "one_term",
         "not_object"]))
    if kind == "not_object":
        return data.draw(st.one_of(junk_scalars, st.just([])))
    if not isinstance(terms, list) or not terms or not all(
            isinstance(t, dict) and isinstance(t.get("exp"), list)
            and t["exp"] for t in terms):
        return obj
    i = data.draw(st.integers(0, len(terms) - 1))
    term = terms[i]
    j = data.draw(st.integers(0, len(term["exp"]) - 1))
    if kind == "coef":
        term["coef"] = data.draw(junk_scalars)
    elif kind == "exp":
        term["exp"][j] = data.draw(junk_scalars)
    elif kind == "shift" and isinstance(term["exp"][j], int):
        term["exp"][j] += data.draw(st.integers(-3, 3))
    elif kind == "extra_exp":
        term["exp"].append(0)
    elif kind == "drop_exp":
        del term["exp"][j]
    elif kind == "dim":
        obj["dim"] = data.draw(st.one_of(junk_scalars, st.integers(0, 4)))
    elif kind == "keys":
        obj[data.draw(st.sampled_from(["dim", "terms", "extra"]))] = None
    elif kind == "term_keys":
        key = data.draw(st.sampled_from(["exp", "coef", "extra"]))
        if data.draw(st.booleans()):
            term.pop(key, None)
        else:
            term[key] = None
    elif kind == "drop":
        del terms[i]
    elif kind == "duplicate":
        terms.append(json.loads(json.dumps(term)))
    elif kind == "empty":
        obj["terms"] = []
    elif kind == "one_term":
        obj["terms"] = [term]
    return obj


class TestPolynomialContractFuzz:
    """divide and plot exit 0, 1 or 2 on mutated polynomial files, never
    with a traceback; the two polynomials may differ in dimension."""

    def _draw_file(self, data, tmp, name):
        obj = json.loads(json.dumps(data.draw(st.sampled_from(
            FUZZ_POLYNOMIALS))))
        for _ in range(data.draw(st.integers(0, 2))):
            obj = _mutate_polynomial(data, obj)
        path = Path(tmp) / f"{name}.json"
        path.write_text(json.dumps(obj))
        return str(path)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_divide(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            code = _exit_code(["divide", self._draw_file(data, tmp, "f"),
                               self._draw_file(data, tmp, "g")])
        assert code in (0, 1, 2)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_plot(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            argv = ["plot", self._draw_file(data, tmp, "f")]
            if data.draw(st.booleans()):
                argv += ["--divisor", self._draw_file(data, tmp, "g")]
            code = _exit_code(argv)
        assert code in (0, 1, 2)


def dilate_first_polytope(basis):
    """The basis with its first polytope swapped for twice itself."""
    bad = FactorizationBasis(basis.fan, basis.vectors, order=basis.order,
                             length=basis.length, unit=basis.unit)
    bad.tables[0] = tuple(tuple(2 * x for x in v) for v in basis.tables[0])
    return bad


class TestCertificates:
    """A failed certificate exits 3 with a JSON error and no traceback."""

    def check_exit_3(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 3 and out == ""
        assert json.loads(err)["error"] == "CertificateError"
        assert "Traceback" not in err

    def test_factor(self, files, capsys, monkeypatch):
        from tropfactor import minkowski
        real = minkowski.divide
        shift = TropicalPolynomial({(1, 0): 0})
        monkeypatch.setattr(minkowski, "divide",
                            lambda f, g: real(f, g) * shift)
        self.check_exit_3(["factor", files["S"], files["tri"]], capsys)

    def test_expand(self, files, capsys, monkeypatch):
        from tropfactor import cli
        real = cli.weight_cone_basis
        monkeypatch.setattr(cli, "weight_cone_basis",
                            lambda fan: dilate_first_polytope(real(fan)))
        # the octagon has a nonzero first coefficient in its own basis
        self.check_exit_3(["expand", files["S"], files["S"]], capsys)

    def test_coxeter_expand(self, files, capsys, monkeypatch):
        from tropfactor import cli
        real = cli.phi_weight_cone_basis
        monkeypatch.setattr(cli, "phi_weight_cone_basis",
                            lambda cf: dilate_first_polytope(real(cf)))
        self.check_exit_3(["coxeter", "--type", "B2", "--expand",
                           files["phi_p1"]], capsys)


class TestPlot:
    def test_polynomial_with_divisor(self, files, capsys):
        code, out, _ = run(["plot", files["f"],
                            "--divisor", files["g"]], capsys)
        assert code == 0
        assert out.startswith("<svg ")
        assert out.count("<line") == 7 and out.count("dasharray") == 2

    def test_polytope_and_fan(self, files, capsys):
        code, out, _ = run(["plot", files["S"]], capsys)
        assert code == 0 and "<polygon" in out
        from tropfactor.formats import dump_json, weighted_fan_to_json
        fan_file = files["root"] / "plotfan.json"
        fan_file.write_text(dump_json(
            weighted_fan_to_json(polytope_from_json(S_OBJ).normal_fan())))
        code, out, _ = run(["plot", str(fan_file)], capsys)
        assert code == 0 and out.count("<line") == 8

    def test_divisor_requires_containment(self, files, capsys):
        code, out, _ = run(["plot", files["f"],
                            "--divisor", files["tent_g"]], capsys)
        assert code == 1
        payload = json.loads(out)
        assert payload["error"] == "NotContained"
        # the witness is on V(g) and off V(f)
        p = decode_vector(payload["witness"]["point"], 2, "witness")
        f = polynomial_from_json(F_OBJ)
        g = polynomial_from_json(TENT_G_OBJ)
        assert len(g.argmax(p)) > 1 and len(f.argmax(p)) == 1

    def test_divisor_plot_builds_one_complex(self, files, capsys,
                                             monkeypatch):
        builds = []
        real = TropicalComplex.__init__

        def counted(self, f):
            builds.append(f)
            real(self, f)
        monkeypatch.setattr(TropicalComplex, "__init__", counted)
        code, _, _ = run(["plot", files["f"], "--divisor", files["g"]],
                         capsys)
        assert code == 0
        assert len(builds) == 1

    def test_divisor_only_for_polynomials(self, files, capsys):
        code, _, err = run(["plot", files["S"],
                            "--divisor", files["g"]], capsys)
        assert code == 2

    def test_three_dimensional_input_is_rejected(self, files, capsys):
        code, _, err = run(["plot", files["cube3"]], capsys)
        assert code == 2
        assert json.loads(err)["error"] == "UnsupportedDimension"


class TestSelftest:
    def test_table_and_exit_code(self, files, capsys):
        code, out, _ = run(["selftest"], capsys)
        assert code == 1
        lines = out.splitlines()
        assert any(line.startswith("PASS  division example") for line in lines)
        assert any(line.startswith("FAIL  octagon basis rank 7")
                   for line in lines)
        assert lines[-1] == "10 of 14 checks passed"


class TestEntryPoint:
    def test_version_matches_pyproject(self):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
        path = Path(__file__).resolve().parent.parent / "pyproject.toml"
        with open(path, "rb") as fh:
            project = tomllib.load(fh)["project"]
        assert project["name"] == "tropfactor"
        assert project["version"] == tropfactor.__version__

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tropfactor.cli", "wmatrix", "--n", "2",
             "--format", "csv"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == TABLE_1_CSV

    def test_no_arguments_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main([])
        assert ei.value.code == 2
        capsys.readouterr()
