import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from reference_routes import nullspace_by_fractions, row_reduce_by_fractions
from tropfactor import polyhedra
from tropfactor.coxeter import (
    build_root_system,
    coxeter_fan,
    phi_permutahedron,
    phi_weight_cone_basis,
    reconstruct_phi,
)
from tropfactor.exact import (
    QuadExt,
    SQRT2,
    dot,
    sign,
    solve_linear,
    vadd,
    vsub,
)
from tropfactor.polyhedra import (
    DegeneratePolytope,
    DimensionMismatch,
    Fan,
    LatticePolytope,
    Polyhedron,
    normalize_ray,
    rref_basis,
)


def brute_force_vertices(ineqs, n):
    """All vertices of {x : a.x <= b} by solving n-subsets of tight constraints."""
    verts = set()
    for subset in itertools.combinations(range(len(ineqs)), n):
        rows = [ineqs[i][0] for i in subset]
        rhs = [ineqs[i][1] for i in subset]
        x = solve_linear(rows, rhs)
        if x is None:
            continue
        if any(dot(a, x) != b for a, b in zip(rows, rhs)):
            continue  # underdetermined solve missed the system
        if not all(dot(a, x) <= b for a, b in ineqs):
            continue
        tight = [a for a, b in ineqs if dot(a, x) == b]
        if len(row_reduce_by_fractions(tight)[1]) == n:
            verts.add(tuple(x))
    return verts


class TestPolyhedronHRep:
    def test_unit_square(self):
        P = Polyhedron(2, [((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)])
        assert sorted(P.vertices) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert P.rays == [] and P.lineality == ()
        assert P.dim() == 2
        assert P.contains((Fraction(1, 2), Fraction(1, 2)))
        assert not P.contains((2, 0))

    def test_nonnegative_quadrant(self):
        P = Polyhedron(2, [((-1, 0), 0), ((0, -1), 0)])
        assert P.vertices == [(0, 0)]
        assert sorted(P.rays) == [(0, 1), (1, 0)]

    def test_halfplane_has_lineality(self):
        P = Polyhedron(2, [((1, 1), 1)])
        assert len(P.lineality) == 1
        assert normalize_ray(P.lineality[0]) in [(1, -1), (-1, 1)]
        assert P.dim() == 2
        assert P.vertices

    def test_empty(self):
        P = Polyhedron(1, [((1,), 0), ((-1,), -1)])
        assert not P.vertices
        assert P.dim() == -1

    def test_equalities(self):
        P = Polyhedron(2, [((1, 0), 1), ((-1, 0), 1)], [((0, 1), 2)])
        assert sorted(P.vertices) == [(-1, 2), (1, 2)]
        assert P.dim() == 1

    def test_random_bounded_against_brute_force(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.choice([2, 3])
            ineqs = [(tuple(rng.randint(-3, 3) for _ in range(n)), rng.randint(0, 4))
                     for _ in range(rng.randint(3, 7))]
            # bounding box keeps everything finite
            for i in range(n):
                e = tuple(1 if j == i else 0 for j in range(n))
                ineqs.append((e, 5))
                ineqs.append((tuple(-x for x in e), 5))
            P = Polyhedron(n, ineqs)
            assert set(P.vertices) == brute_force_vertices(ineqs, n)
            assert P.rays == [] and P.lineality == ()

    def test_relative_interior_point(self):
        P = Polyhedron(2, [((-1, 0), 0), ((0, -1), 0)])
        p = P.relative_interior_point()
        assert P.contains(p)
        assert p[0] > 0 and p[1] > 0

    def test_contains_polyhedron(self):
        quad = Polyhedron(2, [((-1, 0), 0), ((0, -1), 0)])
        wedge = Polyhedron(2, [((-1, 0), 0), ((1, -1), 0)])
        assert quad.contains_polyhedron(wedge)
        assert not wedge.contains_polyhedron(quad)

    def test_key_is_representation_independent(self):
        A = Polyhedron.from_generators([(0, 0)], [(2, 0), (2, 2)])
        B = Polyhedron(2, [((0, -1), 0), ((-1, 1), 0)])
        assert A.key() == B.key()
        assert A == B


class TestFromGenerators:
    def test_triangle_hrep(self):
        P = Polyhedron.from_generators([(0, 0), (1, 0), (0, 1)])
        ineqs, eqs = P.minimal_hrep()
        assert not eqs
        assert len(ineqs) == 3
        for x in [(0, 0), (1, 0), (0, 1), (Fraction(1, 3), Fraction(1, 3))]:
            assert P.contains(x)
        assert not P.contains((1, 1))

    def test_lower_dimensional_segment(self):
        P = Polyhedron.from_generators([(0, 0, 0), (2, 2, 0)])
        assert P.dim() == 1
        assert P.contains((1, 1, 0))
        assert not P.contains((1, 1, 1))
        assert not P.contains((3, 3, 0))

    def test_cone_roundtrip(self):
        C = Polyhedron.from_generators(
            [(0, 0, 0)], [(1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 0, 1)])
        assert C.vertices == [(0, 0, 0)]
        assert len(C.rays) == 4

    def test_interior_points_dropped(self):
        P = Polyhedron.from_generators([(0, 0), (2, 0), (0, 2), (1, 1), (0, 1)])
        assert sorted(P.vertices) == [(0, 0), (0, 2), (2, 0)]


class TestLatticePolytope:
    def test_vertex_reduction_and_order(self):
        P = LatticePolytope([(2, 0), (0, 0), (1, 0), (0, 2), (1, 1)])
        assert P.vertices == ((0, 0), (0, 2), (2, 0))

    def test_minkowski_square(self):
        h = LatticePolytope([(0, 0), (1, 0)])
        v = LatticePolytope([(0, 0), (0, 1)])
        sq = h + v
        assert sq.vertices == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_scale_translate(self):
        P = LatticePolytope([(0, 0), (1, 0)])
        assert P.scale(2).vertices == ((0, 0), (2, 0))
        assert P.scale(0).vertices == ((0, 0),)
        assert P.translate((1, 1)).vertices == ((1, 1), (2, 1))
        with pytest.raises(ValueError):
            P.scale(-1)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            LatticePolytope([(0, 0), (0, 0, 1)])

    def test_support_and_face(self):
        P = LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1)])
        assert P.support((1, 1)) == 2
        assert P.face_vertices((1, 0)) == [(1, 0), (1, 1)]
        assert P.face_vertices((1, 1)) == [(1, 1)]

    def test_edges_of_cube(self):
        cube = LatticePolytope(list(itertools.product([0, 1], repeat=3)))
        assert len(cube.vertices) == 8
        assert len(cube.edges()) == 12
        assert len(cube.two_faces()) == 6

    def test_edges_of_segment(self):
        seg = LatticePolytope([(0, 0), (3, 3)])
        assert seg.edges() == [((0, 0), (3, 3))]
        assert seg.edge_weight((0, 0), (3, 3)) == 3

    def test_two_faces_of_square(self):
        sq = LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1)])
        assert sq.two_faces() == [frozenset(sq.vertices)]


OCTAGON = [(1, 0), (0, 1), (2, 0), (0, 2), (3, 1), (3, 2), (2, 3), (1, 3)]


class TestNormalFan:
    def test_octagon_fan_shape(self):
        S = LatticePolytope(OCTAGON)
        assert len(S.vertices) == 8
        fan = S.normal_fan()
        assert len(fan.chambers) == 8
        assert len(fan.walls) == 8
        assert len(fan.ridges) == 1
        (rk,) = fan.ridges
        assert sorted(fan.ridge_walls[rk]) == sorted(fan.walls)
        assert all(w == 1 for w in fan.wall_weights.values())

    def test_octagon_wall_directions(self):
        S = LatticePolytope(OCTAGON)
        fan = S.normal_fan()
        dirs = sorted(W.rays[0] for W in fan.walls.values())
        expected = sorted([(1, 0), (1, 1), (0, 1), (-1, 1),
                           (-1, 0), (-1, -1), (0, -1), (1, -1)])
        assert dirs == expected

    def test_square_fan_weights(self):
        sq = LatticePolytope([(0, 0), (2, 0), (0, 3), (2, 3)])
        fan = sq.normal_fan()
        assert len(fan.chambers) == 4
        weights = sorted(fan.wall_weights.values())
        assert weights == [2, 2, 3, 3]

    def test_degenerate_polytope_rejected(self):
        seg = LatticePolytope([(0, 0), (2, 0)])
        with pytest.raises(DegeneratePolytope):
            seg.normal_fan()

    def test_chamber_graph_is_a_cycle(self):
        S = LatticePolytope(OCTAGON)
        fan = S.normal_fan()
        sides = fan.wall_chambers
        assert all(len({i for i, _ in s}) == 2 for s in sides.values())
        per_chamber = [i for s in sides.values() for i, _ in s]
        assert sorted(per_chamber) == sorted(list(range(8)) * 2)

    def test_refinement(self):
        S = LatticePolytope(OCTAGON)
        sq = LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1)])
        assert S.normal_fan().refines(sq.normal_fan())
        assert not sq.normal_fan().refines(S.normal_fan())
        assert S.normal_fan().refines(S.normal_fan())

    def test_zonotope_matches_octagon_up_to_translation(self):
        B1 = LatticePolytope([(0, 0), (1, 0)])
        B2 = LatticePolytope([(0, 0), (1, -1)])
        B3 = LatticePolytope([(0, 0), (0, 1)])
        B4 = LatticePolytope([(0, 0), (1, 1)])
        Z = B1 + B2 + B3 + B4
        S = LatticePolytope(OCTAGON)
        assert Z.normalize_translation() == S.normalize_translation()

    def test_cube_fan_cells(self):
        cube = LatticePolytope(list(itertools.product([0, 1], repeat=3)))
        fan = cube.normal_fan()
        assert len(fan.chambers) == 8
        assert len(fan.walls) == 12
        assert len(fan.ridges) == 6


class TestQuadExtGeometry:
    def test_sqrt2_cone(self):
        # chamber of the B2 fan between (1,0) and (1,1)
        C = Polyhedron(2, [((QuadExt(0), QuadExt(-1)), 0),
                           ((QuadExt(-1), QuadExt(1)), 0)])
        assert sorted(C.rays) == [(1, 0), (1, 1)]
        p = (QuadExt(1, 1), QuadExt(1))
        assert C.contains(p)

    def test_demotion_unifies_keys(self):
        A = Polyhedron.from_generators([(0, 0)], [(QuadExt(1), QuadExt(0))])
        B = Polyhedron.from_generators([(0, 0)], [(Fraction(3), Fraction(0))])
        assert A.key() == B.key()

    def test_normalize_ray_is_canonical(self):
        third, sixth = SQRT2 * Fraction(1, 3), SQRT2 * Fraction(1, 6)
        assert normalize_ray((-third, -sixth, third)) == (-2, -1, 2)
        assert normalize_ray((-2, -1, 2)) == (-2, -1, 2)
        assert normalize_ray((Fraction(-1), Fraction(-1, 2), 1)) == (-2, -1, 2)
        # every positive multiple, in either field, has one representative
        for v in [(QuadExt(1, 1), QuadExt(0, 1), 0), (3, 0, -6)]:
            reps = {normalize_ray(tuple(c * x for x in v))
                    for c in (1, SQRT2, QuadExt(3, 2), Fraction(2, 7))}
            assert len(reps) == 1

    def test_sqrt2_vertex_polytope(self):
        P = LatticePolytope([(QuadExt(0), QuadExt(0)), (SQRT2, QuadExt(0)),
                             (QuadExt(0), SQRT2)])
        assert len(P.vertices) == 3
        assert P.edge_weight((0, 0), (SQRT2, 0)) == SQRT2


class TestFanOneDim:
    def test_line_fan(self):
        pos = Polyhedron(1, [((-1,), 0)])
        neg = Polyhedron(1, [((1,), 0)])
        fan = Fan([pos, neg])
        assert len(fan.chambers) == 2
        assert len(fan.walls) == 1
        (k,) = fan.walls
        assert len(fan.wall_chambers[k]) == 2
        assert fan.ridges == {}


# ---------------------------------------------------------------------------
# LatticePolytope against the all-pairs two-DD reference


def reference_hull(points):
    """The brute-force route: one DD from the points to the facets, then a
    second DD from the facets back to the vertices."""
    return Polyhedron.from_generators([tuple(p) for p in points])


def reference_sum(P, Q):
    return reference_hull([vadd(u, v) for u in P.vertices
                           for v in Q.vertices])


def assert_matches(L, R):
    """L (a LatticePolytope) and R (a Polyhedron) are the same polytope,
    with the same facets and affine hull, and L's incidences are right."""
    assert L.vertices == tuple(R.vertices)
    assert L.dim() == R.dim()
    ineqs, eqs = R.minimal_hrep()
    assert (rref_basis([a + (b,) for a, b in L.equalities])
            == rref_basis([a + (b,) for a, b in eqs]))

    def facet_vertex_sets(rows):
        return sorted(tuple(v for v in L.vertices if dot(a, v) == b)
                      for a, b in rows)

    assert facet_vertex_sets(L.inequalities) == facet_vertex_sets(ineqs)
    if L.dim() == L.n:
        # facet rows are unique up to positive scaling
        def key(a, b):
            return normalize_ray(a + (b,))

        assert ({key(a, b) for a, b in L.inequalities}
                == {key(a, b) for a, b in ineqs})
    for v, mask in zip(L.vertices, L._tight):
        assert L.contains(v)
        assert mask == sum(1 << j for j, (a, b) in enumerate(L.inequalities)
                           if dot(a, v) == b)


def _random_points(rng, n):
    kind = rng.choice(["general", "general", "single", "segment", "flat"])
    k = {"single": 1, "segment": 2}.get(kind, rng.randint(2, 7))
    if kind == "segment":
        k = rng.randint(2, 4)  # with points inside the segment

    def coord():
        return Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))

    if kind == "segment":
        p, d = [coord() for _ in range(n)], [coord() for _ in range(n)]
        pts = [tuple(x + Fraction(rng.randint(0, 3)) * y
                     for x, y in zip(p, d)) for _ in range(k)]
    elif kind == "flat" and n == 3:
        # on the plane x + y + z = 1
        pts = []
        for _ in range(k):
            x, y = coord(), coord()
            pts.append((x, y, 1 - x - y))
    else:
        pts = [tuple(coord() for _ in range(n)) for _ in range(k)]
    return pts + rng.sample(pts, rng.randint(0, len(pts)))  # duplicates


def _random_sqrt2_points(rng, n):
    def coord():
        return QuadExt(rng.randint(-2, 2), rng.randint(-1, 1))

    pts = [tuple(coord() for _ in range(n)) for _ in range(rng.randint(1, 4))]
    return pts + pts[:1]


class TestPolytopeArithmeticAgainstReference:
    def check_operations(self, pts_p, pts_q, t, c):
        P, Q = LatticePolytope(pts_p), LatticePolytope(pts_q)
        assert_matches(P, reference_hull(pts_p))
        assert_matches(Q, reference_hull(pts_q))
        assert_matches(P + Q, reference_sum(P, Q))
        assert_matches(P.translate(t), reference_hull(
            [vadd(v, t) for v in P.vertices]))
        assert_matches(P.scale(c), reference_hull(
            [tuple(c * x for x in v) for v in P.vertices]))
        N = P.normalize_translation()
        assert_matches(N, reference_hull(
            [vsub(v, P.vertices[0]) for v in P.vertices]))
        # sums of mapped polytopes and sums of sums
        S = P.translate(t) + Q.scale(c)
        assert_matches(S, reference_sum(P.translate(t), Q.scale(c)))
        assert_matches(S + Q, reference_sum(S, Q))

    def test_random_rational_polytopes(self):
        rng = random.Random(23)
        for _ in range(60):
            n = rng.choice([1, 2, 3])
            t = tuple(Fraction(rng.randint(-5, 5), rng.choice([1, 2]))
                      for _ in range(n))
            c = rng.choice([2, Fraction(1, 3), Fraction(5, 2)])
            self.check_operations(_random_points(rng, n),
                                  _random_points(rng, n), t, c)

    def test_random_sqrt2_polytopes(self):
        rng = random.Random(5)
        for _ in range(12):
            n = rng.choice([2, 3])
            t = tuple(QuadExt(rng.randint(-2, 2), rng.randint(-2, 2))
                      for _ in range(n))
            self.check_operations(_random_sqrt2_points(rng, n),
                                  _random_sqrt2_points(rng, n), t, SQRT2)

    def test_b2_orbit_and_basis_polytopes(self):
        rs = build_root_system("B2")
        basis = phi_weight_cone_basis(coxeter_fan(rs))
        orbit = phi_permutahedron(rs, (3, 1))
        polys = [orbit] + list(basis.polytopes)
        for P, Q in zip(polys, polys[1:] + polys[:1]):
            self.check_operations(list(P.vertices), list(Q.vertices),
                                  (SQRT2, Fraction(1, 2)), SQRT2)


def reference_face(P, y):
    """The argmax face of P in direction y by field dot products."""
    vals = [dot(y, v) for v in P.vertices]
    m = max(vals)
    return [v for v, s in zip(P.vertices, vals) if s == m]


def _query_directions(rng, P):
    n = P.n
    dirs = [(0,) * n, tuple(Fraction(0) for _ in range(n))]
    for _ in range(4):
        dirs.append(tuple(rng.randint(-3, 3) for _ in range(n)))
        dirs.append(tuple(Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3, 7]))
                          for _ in range(n)))
        dirs.append(tuple(QuadExt(rng.randint(-2, 2), rng.randint(-2, 2))
                          for _ in range(n)))
    # facet and affine-hull normals and their sums give tied maxima
    normals = [a for a, _ in P.inequalities + P.equalities]
    dirs += normals + [tuple(-x for x in a) for a, _ in P.equalities]
    dirs += [vadd(a, b) for a, b in zip(normals, normals[1:])]
    return dirs


class TestIntegerFaceQueries:
    """face_vertices on machine integers equals the field dot products."""

    def check(self, rng, P):
        for y in _query_directions(rng, P):
            assert P.face_vertices(y) == reference_face(P, y), y

    def test_random_rational_polytopes(self):
        rng = random.Random(41)
        for _ in range(80):
            P = LatticePolytope(_random_points(rng, rng.choice([1, 2, 3])))
            self.check(rng, P)
            assert P._integer_vertices()

    def test_lower_dimensional_polytopes(self):
        rng = random.Random(43)
        for pts in ([(Fraction(1, 2), 0, Fraction(1, 3)), (2, 1, 0)],
                    [(0, 0, 1), (1, 0, 0), (0, 1, 0), (Fraction(1, 3),) * 3],
                    [(Fraction(-3, 4), Fraction(5, 6))]):
            P = LatticePolytope(pts)
            assert P.dim() < P.n or len(P.vertices) == 1
            self.check(rng, P)

    def test_sqrt2_polytopes_and_maps(self):
        rng = random.Random(47)
        for _ in range(20):
            n = rng.choice([2, 3])
            P = LatticePolytope(_random_sqrt2_points(rng, n))
            self.check(rng, P)
            Q = LatticePolytope(_random_points(rng, n))
            for R in (Q.scale(SQRT2), Q.translate((SQRT2,) * n),
                      Q.scale(Fraction(2, 3)).translate((1,) * n)):
                self.check(rng, R)

    def test_wrong_dimension_is_rejected(self):
        P = LatticePolytope([(0, 0), (1, 2)])
        with pytest.raises(DimensionMismatch):
            P.face_vertices((1, 0, 0))


def _row_set(rows):
    return {(a, b, type(b)) for a, b in rows}


class TestMappedRowsAreDemoted:
    """Rows of scale and translate equal a fresh hull's, in value and type."""

    def test_scaled_triangle(self):
        Q = LatticePolytope([(0, 0), (2, 0), (0, 2)]).scale(
            QuadExt(0, Fraction(1, 2)))
        fresh = LatticePolytope(Q.vertices)
        assert ((-1, 0), Fraction(0)) in Q.inequalities
        assert _row_set(Q.inequalities) == _row_set(fresh.inequalities)

    def test_random_maps(self):
        rng = random.Random(53)
        for _ in range(40):
            n = rng.choice([1, 2, 3])
            if rng.random() < 0.3:
                P = LatticePolytope(_random_sqrt2_points(rng, n))
            else:
                P = LatticePolytope(_random_points(rng, n))
            t = tuple(rng.choice([Fraction(rng.randint(-3, 3), 2),
                                  QuadExt(rng.randint(-2, 2), 1)])
                      for _ in range(n))
            c = rng.choice([2, Fraction(1, 3), SQRT2,
                            QuadExt(0, Fraction(1, 2)), QuadExt(1, 1)])
            for Q in (P.translate(t), P.scale(c), P.scale(c).translate(t),
                      P.translate(t).normalize_translation()):
                fresh = LatticePolytope(Q.vertices)
                assert Q.vertices == fresh.vertices
                if Q.dim() == Q.n:
                    assert (_row_set(Q.inequalities)
                            == _row_set(fresh.inequalities))
                for a, b in Q.inequalities + Q.equalities:
                    assert not (isinstance(b, QuadExt) and b.b == 0)
                    assert all(sign(dot(a, v) - b) <= 0 for v in Q.vertices)
                for a, b in Q.equalities:
                    assert all(dot(a, v) == b for v in Q.vertices)


class TestHullWork:
    """Translation and positive scaling map known data; a hull is one DD."""

    @pytest.fixture
    def dd_calls(self, monkeypatch):
        calls = []
        original = polyhedra.dd_cone

        def counted(constraints, n):
            calls.append(n)
            return original(constraints, n)

        monkeypatch.setattr(polyhedra, "dd_cone", counted)
        return calls

    def test_a_hull_is_one_dd(self, dd_calls):
        LatticePolytope(OCTAGON + [(1, 1), (2, 2)])
        assert len(dd_calls) == 1

    def test_maps_and_one_point_sums_take_no_dd(self, dd_calls):
        P = LatticePolytope(OCTAGON)
        point = LatticePolytope([(3, Fraction(1, 2))])
        del dd_calls[:]
        P.translate((1, -2))
        P.scale(3)
        P.scale(Fraction(2, 3))
        P.normalize_translation()
        P + point
        point + P
        assert dd_calls == []

    def test_normal_fan_cells_take_no_dd(self, dd_calls):
        cube = list(itertools.product((0, 1), repeat=3))
        for pts in (OCTAGON, cube):
            P = LatticePolytope(pts)
            del dd_calls[:]
            fan = P.normal_fan()
            assert fan.walls and fan.ridges is not None
            assert dd_calls == []

    def test_reconstruct_phi_on_a3_hulls_rational_rows(self, monkeypatch):
        cf = coxeter_fan(build_root_system("A3"))
        cf.fan.wall_chambers  # derive the fan's cells first
        rows = []
        original = polyhedra.dd_cone

        def recorded(constraints, n):
            constraints = list(constraints)
            rows.extend(a for a, _ in constraints)
            return original(constraints, n)

        monkeypatch.setattr(polyhedra, "dd_cone", recorded)
        P = reconstruct_phi(cf, (2,) * len(cf.wall_order))
        assert len(P.vertices) == 24
        assert rows and all(isinstance(x, (int, Fraction))
                            for a in rows for x in a)

    def test_reconstruct_phi_on_a3_is_one_dd(self, dd_calls):
        cf = coxeter_fan(build_root_system("A3"))
        cf.fan.wall_chambers  # derive the fan's cells first
        del dd_calls[:]
        P = reconstruct_phi(cf, (1,) * len(cf.wall_order))
        assert len(P.vertices) == 24
        assert len(dd_calls) == 1


# ---------------------------------------------------------------------------
# dd_cone against brute-force ray enumeration


def brute_force_cone(constraints, n):
    """(rays up to lineality, lineality basis) of {x : a.x >= 0 / a.x = 0}.

    A direction is an extreme ray of the cone modulo its lineality L iff
    its tight rows have rank n - dim L - 1; every row subset of that rank
    is tried.  Rays are returned as the normalized vectors of their row
    values, which determine a ray modulo L up to positive scaling.
    """
    rows = [a for a, _ in constraints]
    lin = tuple(row_reduce_by_fractions(nullspace_by_fractions(rows, n))[0])
    d = n - len(lin)
    eqs = [a for a, eq in constraints if eq]
    ineqs = [a for a, eq in constraints if not eq]
    rays = set()
    for k in range(len(ineqs) + 1):
        for subset in itertools.combinations(ineqs, k):
            tight = eqs + list(subset)
            if len(row_reduce_by_fractions(tight)[1]) != d - 1:
                continue
            # one direction beyond the lineality, up to sign
            x = next(v for v in nullspace_by_fractions(tight, n)
                     if any(dot(a, v) for a in ineqs))
            for r in (x, tuple(-c for c in x)):
                if all(sign(dot(a, r)) >= 0 for a in ineqs):
                    rays.add(normalize_ray(tuple(dot(a, r) for a in rows)))
    return rays, lin


def _random_cone_rows(rng, n, field):
    def entry():
        if field == "sqrt2":
            return QuadExt(rng.randint(-2, 2), rng.randint(-1, 1))
        return Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2]))

    m = rng.randint(0, n + 3)
    rows = [tuple(entry() for _ in range(n)) for _ in range(m)]
    if rows and rng.random() < 0.3:
        # rows in a proper subspace: the cone has lineality
        rows = [tuple(a[:-1]) + (0,) for a in rows]
    if len(rows) > 1 and rng.random() < 0.3:
        rows.append(vadd(rows[0], rows[1]))  # a redundant row
    return [(a, rng.random() < 0.2) for a in rows
            if any(a)]


class TestDoubleDescriptionAgainstBruteForce:
    @pytest.mark.parametrize("field,seed", [("rational", 31), ("sqrt2", 32)])
    def test_rays_lineality_and_zero_sets(self, field, seed):
        rng = random.Random(seed)
        for _ in range(120):
            n = rng.randint(1, 4)
            cons = _random_cone_rows(rng, n, field)
            rays, lin, zsets = polyhedra.dd_cone(cons, n)
            rows = [a for a, _ in cons]
            for r, z in zip(rays, zsets):
                vals = [dot(a, r) for a in rows]
                assert all(v == 0 if eq else sign(v) >= 0
                           for v, (_, eq) in zip(vals, cons))
                assert z == sum(1 << k for k, v in enumerate(vals) if v == 0)
            keys = [normalize_ray(tuple(dot(a, r) for a in rows))
                    for r in rays]
            assert len(set(keys)) == len(keys)
            want_rays, want_lin = brute_force_cone(cons, n)
            assert set(keys) == want_rays
            assert rref_basis(lin) == want_lin


# ---------------------------------------------------------------------------
# faces from their parent's generators against a per-cell DD


def per_cell_dd(P, rows):
    """The reference route: a fresh double description of the face."""
    return Polyhedron(P.n, P.inequalities, P.equalities + list(rows))


def reference_cells(fan):
    """Walls, sides, ridges and ridge stars with one DD per cell."""
    walls, sides = {}, {}
    for ci, C in enumerate(fan.chambers):
        ineqs, eqs = C.minimal_hrep()
        for a, b in ineqs:
            k = Polyhedron(fan.n, ineqs, eqs + [(a, b)]).key()
            walls.setdefault(k, Polyhedron(fan.n, ineqs, eqs + [(a, b)]))
            sides.setdefault(k, []).append((ci, tuple(-x for x in a)))
    ridges, star = set(), {}
    for wk, W in walls.items():
        ineqs, eqs = W.minimal_hrep()
        for a, b in ineqs:
            R = Polyhedron(fan.n, ineqs, eqs + [(a, b)])
            if not R.vertices or R.dim() != fan.n - 2:
                continue
            ridges.add(R.key())
            if wk not in star.setdefault(R.key(), []):
                star[R.key()].append(wk)
    return set(walls), sides, ridges, star


class TestFacesAgainstPerCellDD:
    def check_fan(self, fan):
        walls, sides, ridges, star = reference_cells(fan)
        assert set(fan.walls) == walls
        assert fan.wall_chambers == sides
        assert set(fan.ridges) == ridges
        assert fan.ridge_walls == star
        for k, W in fan.walls.items():
            assert W.key() == k

    def check_normal_fan(self, P):
        fan = P.normal_fan()
        self.check_fan(fan)
        chambers = dict(zip(fan.labels, fan.chambers))
        # the normal fan keys each wall by the chamber of one end
        want = {per_cell_dd(chambers[u], [(vsub(u, v), 0)]).key(): (u, v)
                for u, v in P.edges()}
        assert fan.wall_duals == want
        return fan

    def test_octagon_and_cube_normal_fans(self):
        cube = [p for p in itertools.product((0, 1), repeat=3)]
        for pts in (OCTAGON, cube):
            self.check_normal_fan(LatticePolytope(pts))

    def test_random_3d_normal_fans(self):
        rng = random.Random(1608)
        fans = []
        while len(fans) < 10:
            pts = {tuple(rng.randint(-2, 2) for _ in range(3))
                   for _ in range(rng.randint(5, 9))}
            P = LatticePolytope(sorted(pts))
            if P.dim() == 3:
                fans.append(self.check_normal_fan(P))
        # a vertex on four or more facets: a chamber that is not simplicial
        assert any(len(C.rays) > 3 for fan in fans for C in fan.chambers)

    def test_sqrt2_normal_fans(self):
        # the edge (1, 2 sqrt 2) has length 3 and the irrational facet
        # normal (-2 sqrt 2, 1); in the prism that normal spans a ridge
        triangle = [(0, 0), (1, 0), (1, 2 * SQRT2)]
        self.check_normal_fan(LatticePolytope(triangle))
        fan = self.check_normal_fan(LatticePolytope(
            [p + (z,) for p in triangle for z in (0, 1)]))
        assert any(not polyhedra.is_rational_vector(r)
                   for R in fan.ridges.values() for r in R.rays)
        # the prism's fan times the line through (1, 1, 1, 1): the rank of
        # that ridge's ray with the line is an elimination over the field
        self.check_fan(Fan([
            Polyhedron(4, [(a + (-sum(a),), b) for a, b in C.inequalities])
            for C in fan.chambers]))

    def test_coxeter_fans(self):
        for name in ("A1", "A2", "B2", "A3"):
            self.check_fan(coxeter_fan(build_root_system(name)).fan)

    def test_cones_with_an_offset_raise(self):
        with pytest.raises(ValueError):
            Fan([Polyhedron(1, [((1,), 1)]),
                 Polyhedron(1, [((-1,), -1)])]).walls

    def test_cells_take_no_dimension_query_or_elimination(self, monkeypatch):
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(Polyhedron, "dim",
                            counted("dim", Polyhedron.dim))
        monkeypatch.setattr(polyhedra, "row_reduce",
                            counted("row_reduce", polyhedra.row_reduce))
        cube = LatticePolytope(list(itertools.product((0, 1), repeat=3)))
        for fan in (cube.normal_fan(),
                    coxeter_fan(build_root_system("A3")).fan):
            assert fan.walls and fan.ridges
        assert not calls

    def test_fans_with_lineality(self):
        from tropfactor.formats import weighted_fan_from_json

        def cone(*normals):
            return [{"normal": list(a), "rhs": 0, "eq": False}
                    for a in normals]

        half_planes = {"dim": 2, "cones": [cone((1, 0)), cone((-1, 0))]}
        # the four quadrants of the (x, y)-plane times the z-axis
        quadrants_line = {"dim": 3, "cones": [
            cone((sx, 0, 0), (0, sy, 0)) for sx in (1, -1) for sy in (1, -1)]}
        fan, _ = weighted_fan_from_json(half_planes)
        self.check_fan(fan)
        assert len(fan.walls) == 1 and fan.ridges == {}
        fan, _ = weighted_fan_from_json(quadrants_line)
        self.check_fan(fan)
        assert len(fan.walls) == 4
        assert [len(s) for s in fan.ridge_walls.values()] == [4]

    def test_tropical_complex_walls_and_ridges(self):
        from property_sweeps import random_polynomial
        from tropfactor.tropical import TropicalPolynomial

        rng = random.Random(77)
        polys = []
        for _ in range(40):
            n = rng.choice([1, 2, 3, 3])
            polys.append(random_polynomial(rng, n))
            # a Newton polytope of lower dimension: the chambers have
            # lineality
            g = random_polynomial(rng, 2)
            polys.append(TropicalPolynomial(
                {(a, b, a + b): v for (a, b), v in g.terms.items()}))
        for f in polys:
            T = f.dual_complex()
            terms = f.terms
            index = {a: i for i, a in enumerate(T.chamber_terms)}
            want = {}
            for a, b in f.subdivision().edges():
                W = per_cell_dd(T.chambers[index[a]],
                                [(vsub(b, a), terms[a] - terms[b])])
                want[W.key()] = (a, b)
            assert T.wall_duals == want
            ridges = set()
            for face in f.subdivision().two_faces():
                a0 = face[0]
                R = per_cell_dd(T.chambers[index[a0]],
                                [(vsub(b, a0), terms[a0] - terms[b])
                                 for b in face[1:]])
                ridges.add(R.key())
            assert set(T.ridges) == ridges
            for k, R in T.ridges.items():
                assert R.key() == k


# ---------------------------------------------------------------------------
# chambers read off a hull against a per-chamber DD


def per_chamber_dd(C):
    """The reference route: a fresh double description of the chamber's rows."""
    return Polyhedron(C.n, C.inequalities, C.equalities)


def dd_facets(C):
    """The facets of C from the double description of its polar cone."""
    return Polyhedron.from_generators(C.vertices, C.rays, C.lineality,
                                      n=C.n).minimal_hrep()


class TestChambersAgainstPerChamberDD:
    def test_tropical_complex_chambers(self):
        from property_sweeps import random_polynomial
        from tropfactor.tropical import TropicalPolynomial

        rng = random.Random(606)

        def lift(exponents, weight=None):
            c = Fraction(rng.randint(-4, 4))
            return TropicalPolynomial({
                e: c + dot(weight, e) if weight else
                Fraction(rng.randint(-16, 16), 2) for e in exponents})

        polys = []
        for _ in range(40):
            n = rng.choice([1, 2, 3])
            polys.append(random_polynomial(rng, n))
            # supports on a line and on a plane in R^3
            ts = rng.sample(range(-3, 4), rng.randint(2, 4))
            polys.append(lift([(t, 2 * t, -t) for t in ts]))
            plane = random_polynomial(rng, 2)
            polys.append(lift([(a, b, a + b) for a, b in plane.terms]))
            # a single term and an affine lift
            polys.append(lift([tuple(rng.randint(-2, 2) for _ in range(n))]))
            polys.append(lift(random_polynomial(rng, n).terms,
                              tuple(rng.randint(-3, 3) for _ in range(n))))
        with_lineality = 0
        for f in polys:
            T = f.dual_complex()
            assert len(T.chambers) == len(f.essential_terms())
            for C in T.chambers:
                assert C.key() == per_chamber_dd(C).key()
                with_lineality += bool(C.lineality)
        assert with_lineality > 50

    def test_normal_fan_chambers(self):
        from tropfactor.exact import SQRT2

        rng = random.Random(607)
        polys = [LatticePolytope(OCTAGON),
                 LatticePolytope(list(itertools.product((0, 1), repeat=3))),
                 LatticePolytope([(0, 0), (SQRT2, 0), (0, SQRT2)]),
                 LatticePolytope([(0, 0), (SQRT2, 0), (SQRT2, 1), (0, 1)])]
        while len(polys) < 40:
            n = rng.choice([2, 3])
            P = LatticePolytope(_random_points(rng, n))
            if P.dim() == n:
                polys.append(P)
        for P in polys:
            for C in P.normal_fan().chambers:
                assert C.key() == per_chamber_dd(C).key()
                ineqs, eqs = C.minimal_hrep()
                want, want_eqs = dd_facets(C)
                assert set(ineqs) == set(want) and eqs == want_eqs == []

    def test_facets_of_fans_given_by_rows(self):
        from tropfactor.formats import weighted_fan_from_json

        quadrants_line = {"dim": 3, "cones": [
            [{"normal": [sx, 0, 0], "rhs": 0}, {"normal": [0, sy, 0], "rhs": 0},
             {"normal": [sx, sy, 0], "rhs": 0}]
            for sx in (1, -1) for sy in (1, -1)]}
        fans = [coxeter_fan(build_root_system(t)).fan for t in ("B2", "A3")]
        fans.append(weighted_fan_from_json(quadrants_line)[0])
        for fan in fans:
            for C in fan.chambers:
                assert C.minimal_hrep() == dd_facets(C)
