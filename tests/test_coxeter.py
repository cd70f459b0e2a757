"""Coxeter fans, root balancing and Phi-polytope bases.

The B2 oracles are frozen from hand computation: the eight rays in
Cayley-graph order, the mirror pairing at the origin, the balanced rows
of the weight space and the two triangle expansions.  Type A is checked
against the braid machinery, which provides an independent route to the
same fans and weight spaces.
"""

import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

from reference_routes import (
    basis_of_polytopes,
    check_basis_tables,
    covector_lift,
    coxeter_fan_by_sign_vectors,
    phi_expand_over_the_field,
    phi_kernel_by_nullspace,
    root_form_rows,
    signed_sum_holds,
    table_steps,
    wall_lengths_by_face_queries,
)
from tropfactor import coxeter, minkowski, polyhedra
from tropfactor.coxeter import (
    CoxeterFan,
    NotAPhiPolytope,
    PointOnHyperplane,
    UnsupportedType,
    build_root_system,
    coxeter_fan,
    phi_expand,
    phi_permutahedron,
    phi_weight_cone_basis,
    phi_weights,
    ray_heights,
    reconstruct_phi,
    root_balanced,
)
from tropfactor.division import NotBalanced, reconstruct_from_fan
from tropfactor.exact import (
    CertificateError,
    QuadExt,
    SQRT2,
    dot,
    nullspace_field,
    primitive_of_rational,
    rank,
    scalar_sqrt,
    sign,
    solve_linear,
    vadd,
    vscale,
    vsub,
)
from tropfactor.minkowski import (
    FactorizationBasis,
    certify_signed_sum,
    chamber_vertices,
    extended_weights,
    wall_lengths,
    weight_cone_basis,
)
from tropfactor.permutahedra import (
    canonical_subsets,
    simplex_polytope,
    universal_fan,
    weight_matrix,
)
from tropfactor.polyhedra import LatticePolytope, demote_vector, normalize_ray
from tropfactor.tropical import annihilator_lattice, balance_violation

R2 = SQRT2
H = QuadExt(0, Fraction(1, 2))  # 1/sqrt(2)

_CACHE = {}


# ---------------------------------------------------------------------------
# the unit-covector form of balancing: an independent reference route for
# root_balanced, which the library implements through the lattice
# balancing matrix with metric columns


def covector_balanced(cf: CoxeterFan, w) -> bool:
    """Balancedness in the unit-covector form, when it stays in the field.

    Around each ridge the covectors of its star are projected onto the
    orthogonal complement of the ridge span, normalized to unit length
    and summed with their weights; balance means the sum lies in the
    ridge span.  Raises ValueError when a covector norm leaves
    Q(sqrt(2)) (already for A_2, whose ray norms are sqrt(6)); the root
    form is the exact test in general.
    """
    by_key = cf.weight_dict(w)
    fan, rs = cf.fan, cf.rs
    for rk in sorted(fan.ridges):
        tau = fan.ridges[rk]
        pi = annihilator_lattice(tau)
        span = _ridge_span(tau)
        total = None
        for wk in fan.ridge_walls[rk]:
            c = covector_lift(tau, fan.walls[wk])
            c = _gram_perp(rs, c, span)
            u = demote_vector(x / rs.root_norm(c) for x in c)
            contrib = vscale(by_key[wk], u)
            total = contrib if total is None else vadd(total, contrib)
        if any(dot(p, total) != 0 for p in pi):
            return False
    return True


def _ridge_span(tau):
    verts, rays, lin = tau.vertices, tau.rays, tau.lineality
    dirs = [vsub(v, verts[0]) for v in verts[1:]] + list(rays) + list(lin)
    return [d for d in dirs if any(d)]


def _gram_perp(rs, c, span):
    """Component of c orthogonal to the span in the dual metric."""
    if not span:
        return c
    gram = [[rs.gdot(a, b) for b in span] for a in span]
    rhs = [rs.gdot(c, b) for b in span]
    coeffs = solve_linear(gram, rhs)
    out = c
    for t, b in zip(coeffs, span):
        out = vsub(out, vscale(t, b))
    return demote_vector(out)


def rsys(tag):
    if ("rs", tag) not in _CACHE:
        _CACHE[("rs", tag)] = build_root_system(tag)
    return _CACHE[("rs", tag)]


def cfan(tag):
    if ("cf", tag) not in _CACHE:
        _CACHE[("cf", tag)] = coxeter_fan(rsys(tag))
    return _CACHE[("cf", tag)]


def braid(n):
    if ("uf", n) not in _CACHE:
        _CACHE[("uf", n)] = universal_fan(n)
    return _CACHE[("uf", n)]


# the balanced rows of the B2 weight space, in the ray order below
B2_ROWS = {
    "b1": (1, 0, 0, 0, 1, 0, 0, 0),
    "b2": (0, 1, 0, 0, 0, 1, 0, 0),
    "b3": (0, 0, 1, 0, 0, 0, 1, 0),
    "b4": (0, 0, 0, 1, 0, 0, 0, 1),
    "b5": (1, 0, 0, R2, 0, 0, 1, 0),
    "b6": (0, 0, R2, 0, 0, 1, 0, 1),
    "b7": (R2, 0, 0, 1, 0, 1, 0, 0),
}

B2_RAY_ORDER = ((1, 1), (0, 1), (-1, 1), (-1, 0),
                (-1, -1), (0, -1), (1, -1), (1, 0))

B2_LABELS = ("W_t", "W_s", "sW_t", "stW_s", "stsW_t", "tstW_s", "tsW_t", "tW_s")

P1 = LatticePolytope([(0, 1), (2, 1), (1, 0)])
P2 = LatticePolytope([(0, 0), (2, 0), (1, 1)])


def combine(coeffs):
    """Linear combination of the frozen B2 rows, as a tuple."""
    out = [0] * 8
    for name, c in coeffs.items():
        out = [a + c * b for a, b in zip(out, B2_ROWS[name])]
    return tuple(out)


class TestBuildRootSystem:
    def test_root_counts(self):
        for tag, count in [("A1", 2), ("A2", 6), ("A3", 12),
                           ("A4", 20), ("B2", 8)]:
            assert len(rsys(tag).roots) == count

    def test_b2_unit_roots(self):
        want = {(Fraction(1), Fraction(0)), (Fraction(-1), Fraction(0)),
                (Fraction(0), Fraction(1)), (Fraction(0), Fraction(-1)),
                (H, H), (-H, -H), (H, -H), (-H, H)}
        assert set(rsys("B2").roots) == want

    def test_all_roots_are_unit(self):
        for tag in ("A1", "A2", "A3", "B2"):
            rs = rsys(tag)
            for u in rs.roots:
                assert rs.gdot(u, u) == 1

    def test_type_a_integer_roots_have_norm_two(self):
        for tag in ("A1", "A2", "A3", "A4"):
            rs = rsys(tag)
            assert all(rs.gdot(r, r) == 2 for r in rs.int_roots)

    def test_positive_roots_are_lex_positive(self):
        rs = rsys("B2")
        assert len(rs.int_positive) == 4
        for r in rs.int_positive:
            lead = next(x for x in r if x)
            assert lead > 0

    def test_simple_roots(self):
        assert rsys("B2").int_simple == ((0, 1), (1, -1))
        assert rsys("A2").int_simple == ((1, -1), (0, 1))
        # a-coordinates of the adjacent transposition roots e_i - e_{i+1}
        assert rsys("A3").int_simple == ((1, -1, 0), (0, 1, -1), (0, 0, 1))

    def test_reflections_permute_the_roots(self):
        rs = rsys("B2")
        roots = set(rs.roots)
        for r in rs.int_roots:
            assert {rs.reflect_dual(u, r) for u in roots} == roots

    def test_unsupported_types(self):
        for tag in ("B3", "H3", "a2", "A5", "D4", ""):
            with pytest.raises(UnsupportedType):
                build_root_system(tag)


class TestCoxeterFanB2:
    def test_chamber_and_wall_counts(self):
        cf = cfan("B2")
        assert len(cf.fan.chambers) == 8
        assert len(cf.fan.walls) == 8
        assert cf.group_order == 8

    def test_rays_in_cayley_order(self):
        cf = cfan("B2")
        rays = [normalize_ray(cf.fan.walls[k].rays[0]) for k in cf.wall_order]
        assert [tuple(map(int, r)) for r in rays] == list(B2_RAY_ORDER)

    def test_labels_follow_the_cosets(self):
        cf = cfan("B2")
        assert tuple(cf.labels[k] for k in cf.wall_order) == B2_LABELS

    def test_ridge_pairing(self):
        cf = cfan("B2")
        ridge_pairs = root_form_rows(cf).pairs
        assert len(ridge_pairs) == 1
        (pairs,) = ridge_pairs.values()
        assert len(pairs) == 4  # one pair of walls per positive root
        seen = {}
        for r, plus, minus in pairs:
            pr = tuple(map(int, normalize_ray(cf.fan.walls[plus].rays[0])))
            mr = tuple(map(int, normalize_ray(cf.fan.walls[minus].rays[0])))
            assert tuple(-x for x in pr) == mr, (
                "paired walls on one mirror are opposite rays")
            seen[r] = pr
        assert seen == {(1, 0): (0, 1), (0, 1): (-1, 0),
                        (1, 1): (-1, 1), (1, -1): (1, 1)}

    def test_star_size_is_twice_the_mirror_count(self):
        cf = cfan("B2")
        ridge_pairs = root_form_rows(cf).pairs
        (rk,) = ridge_pairs
        assert len(cf.fan.ridge_walls[rk]) == 2 * len(ridge_pairs[rk])


class TestCoxeterFanTypeA:
    def test_a2_equals_the_braid_fan(self):
        cf = cfan("A2")
        uf = braid(2)
        assert {C.key() for C in cf.fan.chambers} == \
            {C.key() for C in uf.fan.chambers}
        assert set(cf.fan.walls) == set(uf.fan.walls)

    def test_a3_equals_the_braid_fan(self):
        cf = cfan("A3")
        uf = braid(3)
        assert len(cf.fan.chambers) == 24
        assert {C.key() for C in cf.fan.chambers} == \
            {C.key() for C in uf.fan.chambers}

    def test_a1_is_the_point_arrangement(self):
        cf = cfan("A1")
        assert len(cf.fan.chambers) == 2
        assert len(cf.fan.walls) == 1
        assert not cf.fan.ridges
        assert root_balanced(cf, (Fraction(5),))


FAN_TYPES = ("A1", "A2", "A3", "A4", "B2")
GROUP_ORDER = {"A1": 2, "A2": 6, "A3": 24, "A4": 120, "B2": 8}


class TestCoxeterFanAgainstSignVectors:
    """The orbit polytope's normal fan against chambers cut from mirrors."""

    @pytest.mark.parametrize("tag", FAN_TYPES)
    def test_same_cells_wall_order_and_labels(self, tag):
        cf, ref = cfan(tag), coxeter_fan_by_sign_vectors(rsys(tag))
        assert len(ref.fan.chambers) == GROUP_ORDER[tag]
        assert [C.key() for C in cf.fan.chambers] == \
            [C.key() for C in ref.fan.chambers]
        assert cf.fan.wall_chambers == ref.fan.wall_chambers
        assert {k: set(ws) for k, ws in cf.fan.ridge_walls.items()} == \
            {k: set(ws) for k, ws in ref.fan.ridge_walls.items()}
        assert cf.wall_order == ref.wall_order
        assert cf.labels == ref.labels

    @pytest.mark.parametrize("tag", FAN_TYPES)
    def test_one_hull_per_fan(self, tag, monkeypatch):
        """One dd_cone call and one pass that derives cells per fan."""
        rs = rsys(tag)
        calls, passes = [], []
        real_dd, real_cells = polyhedra.dd_cone, polyhedra.Fan._compute_cells

        def dd(*args):
            calls.append(args)
            return real_dd(*args)

        def cells(fan):
            if fan._walls is None:
                passes.append(fan)
            real_cells(fan)

        monkeypatch.setattr(polyhedra, "dd_cone", dd)
        monkeypatch.setattr(minkowski, "dd_cone", dd)
        monkeypatch.setattr(polyhedra.Fan, "_compute_cells", cells)
        coxeter_fan(rs).fan.ridges  # cells are computed on demand
        assert len(calls) == 1
        assert len(passes) == 1


class TestRootBalanced:
    def test_frozen_rows_are_balanced(self):
        cf = cfan("B2")
        for name, row in B2_ROWS.items():
            assert root_balanced(cf, row), name

    def test_doubled_diagonal_entry_breaks_balance(self):
        # with 2*sqrt(2) in the W slot the y-components sum to sqrt(2)
        cf = cfan("B2")
        assert not root_balanced(cf, (1, 0, 0, 2 * R2, 0, 0, 1, 0))

    def test_misplaced_support_breaks_balance(self):
        # weight on W instead of E leaves both components nonzero
        cf = cfan("B2")
        assert not root_balanced(cf, (0, 0, R2, 1, 0, 1, 0, 0))

    def test_single_wall_is_unbalanced(self):
        cf = cfan("B2")
        assert not root_balanced(cf, (1, 0, 0, 0, 0, 0, 0, 0))

    def test_all_ones_is_balanced(self):
        for tag in ("A1", "A2", "B2"):
            cf = cfan(tag)
            assert root_balanced(cf, (1,) * len(cf.wall_order))

    def test_balanced_vectors_form_a_linear_space(self):
        cf = cfan("B2")
        rng = random.Random(3)
        for _ in range(10):
            coeffs = {name: Fraction(rng.randint(-3, 3)) + R2 *
                      rng.randint(-2, 2) for name in B2_ROWS}
            assert root_balanced(cf, combine(coeffs))

    def test_covector_form_agrees_on_b2(self):
        cf = cfan("B2")
        rng = random.Random(11)
        hits = {True: 0, False: 0}
        for _ in range(20):
            w = tuple(Fraction(rng.randint(-2, 2)) + R2 * rng.randint(-1, 1)
                      for _ in range(8))
            a, b = root_balanced(cf, w), covector_balanced(cf, w)
            assert a == b
            hits[a] += 1
        assert hits[False] > 0

    def test_agrees_with_lattice_balance_on_a2(self):
        # the six braid covectors share the norm sqrt(6), so clearing it
        # reduces the unit-covector test to the lattice balance test
        cf = cfan("A2")
        fan = braid(2).fan
        keys = sorted(fan.walls)
        rng = random.Random(5)
        seen_unbalanced = False
        for _ in range(20):
            w = {k: Fraction(rng.randint(-3, 3)) for k in keys}
            lat = balance_violation(fan, w) is None
            assert root_balanced(cf, w) == lat
            seen_unbalanced |= not lat
        assert seen_unbalanced

    def test_weight_validation(self):
        cf = cfan("B2")
        with pytest.raises(ValueError):
            root_balanced(cf, (1, 2, 3))
        with pytest.raises(ValueError):
            root_balanced(cf, {k: 1 for k in list(cf.wall_order)[:-1]})


class TestWeightConeBasis:
    def test_b2_rank_is_walls_minus_two(self):
        basis = phi_weight_cone_basis(cfan("B2"))
        assert basis.r == 6
        assert rank(basis.matrix()) == 6

    def test_b2_vectors_are_balanced_and_nonnegative(self):
        cf = cfan("B2")
        basis = phi_weight_cone_basis(cf)
        for v in basis.vectors:
            assert root_balanced(cf, v.by_key)
            assert all(x >= 0 for x in cf.weight_values(v))

    def test_frozen_rows_span_the_same_space(self):
        basis = phi_weight_cone_basis(cfan("B2"))
        rows = list(B2_ROWS.values())
        assert rank(rows) == 6
        assert rank(basis.matrix() + rows) == 6

    def test_frozen_row_dependency(self):
        lhs = combine({"b5": R2, "b6": 1})
        rhs = combine({"b3": R2, "b4": 1, "b7": 1})
        assert lhs == rhs

    def test_unbalanced_variants_leave_the_span(self):
        basis = phi_weight_cone_basis(cfan("B2"))
        for bad in [(1, 0, 0, 2 * R2, 0, 0, 1, 0),
                    (0, 0, R2, 1, 0, 1, 0, 0)]:
            assert rank(basis.matrix() + [bad]) == 7

    def test_all_ones_lies_in_the_cone(self):
        cf = cfan("B2")
        ones = (1,) * 8
        assert root_balanced(cf, ones)
        assert rank(phi_weight_cone_basis(cf).matrix() + [ones]) == 6

    def test_basis_polytopes_round_trip(self):
        cf = cfan("B2")
        basis = phi_weight_cone_basis(cf)
        for v, B in zip(basis.vectors, basis.polytopes):
            assert phi_weights(B, cf) == v.by_key

    def test_a2_rank_matches_the_lattice_route(self):
        basis = phi_weight_cone_basis(cfan("A2"))
        lattice = weight_cone_basis(braid(2).fan)
        assert basis.r == lattice.r == 4
        stack = basis.matrix() + [w.values for w in lattice.vectors]
        assert rank(stack) == 4

    def test_a1_basis_is_a_single_segment(self):
        basis = phi_weight_cone_basis(cfan("A1"))
        assert basis.r == 1
        (B,) = basis.polytopes
        assert B.dim() == 1


class TestReconstruction:
    def test_frozen_row_polytopes(self):
        cf = cfan("B2")
        expected = {
            "b1": [(0, 0), (H, -H)],
            "b2": [(0, 0), (1, 0)],
            "b3": [(0, 0), (H, H)],
            "b4": [(0, 0), (0, 1)],
            "b5": [(0, 0), (0, R2), (H, H)],
            "b6": [(0, 0), (1, 0), (1, 1)],
            "b7": [(0, 0), (1, 0), (0, 1)],
        }
        for name, pts in expected.items():
            got = reconstruct_phi(cf, dict(zip(cf.wall_order, B2_ROWS[name])))
            assert got == LatticePolytope(pts).normalize_translation(), name

    def test_scaled_row_gives_the_lattice_triangle(self):
        cf = cfan("B2")
        w = dict(zip(cf.wall_order, combine({"b5": R2})))
        got = reconstruct_phi(cf, w)
        assert got == LatticePolytope([(0, 0), (0, 2), (1, 1)])

    def test_unbalanced_weights_do_not_close_up(self):
        cf = cfan("B2")
        with pytest.raises(NotBalanced):
            reconstruct_phi(cf, (1, 0, 0, 2 * R2, 0, 0, 1, 0))

    def test_field_walk_matches_lattice_walk_on_a2(self):
        cf = cfan("A2")
        fan = braid(2).fan
        keys = sorted(fan.walls)
        subsets = [I for I in canonical_subsets(2) if len(I) >= 2]
        for seed in range(10):
            rng = random.Random(seed)
            net = {k: Fraction(0) for k in keys}
            for I in subsets:
                c = rng.randint(-2, 2)
                col = extended_weights(simplex_polytope(I, 2), fan)
                for k in keys:
                    net[k] += c * col[k]
            lat = reconstruct_from_fan(fan, net)
            fld = reconstruct_phi(cf, {k: R2 * v for k, v in net.items()})
            assert lat == fld


class TestPhiWeights:
    def test_triangle_weight_vectors(self):
        cf = cfan("B2")
        assert cf.weight_values(phi_weights(P1, cf)) == \
            (0, 2, 0, 0, R2, 0, R2, 0)
        assert cf.weight_values(phi_weights(P2, cf)) == \
            (R2, 0, R2, 0, 0, 2, 0, 0)

    def test_unit_square(self):
        cf = cfan("B2")
        square = LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1)])
        assert cf.weight_values(phi_weights(square, cf)) == \
            (0, 1, 0, 1, 0, 1, 0, 1)

    def test_segment_weights(self):
        cf = cfan("B2")
        seg = LatticePolytope([(0, 0), (2, 2)])
        assert cf.weight_values(phi_weights(seg, cf)) == \
            (0, 0, 2 * R2, 0, 0, 0, 2 * R2, 0)

    def test_field_weights_are_sqrt2_times_lattice_weights_on_a2(self):
        cf = cfan("A2")
        fan = braid(2).fan
        for I in [(1, 2), (1, 3), (1, 2, 3)]:
            Q = simplex_polytope(I, 2)
            lat = extended_weights(Q, fan)
            fld = phi_weights(Q, cf)
            assert all(fld[k] == R2 * lat[k] for k in fld)

    def test_non_root_edge_is_rejected(self):
        cf = cfan("B2")
        with pytest.raises(NotAPhiPolytope):
            phi_weights(LatticePolytope([(0, 0), (1, 2)]), cf)
        with pytest.raises(NotAPhiPolytope):
            phi_weights(LatticePolytope([(0, 0), (2, 1), (0, 1)]), cf)


class TestPhiExpand:
    def test_triangle_expansions_verify(self):
        cf = cfan("B2")
        basis = phi_weight_cone_basis(cf)
        y1 = phi_expand(P1, basis)
        y2 = phi_expand(P2, basis)
        for y, P in [(y1, P1), (y2, P2)]:
            w = cf.weight_values(phi_weights(P, cf))
            total = [0] * 8
            for yi, row in zip(y, basis.matrix()):
                total = [a + yi * b for a, b in zip(total, row)]
            assert tuple(total) == w

    def test_first_triangle_against_the_frozen_rows(self):
        cf = cfan("B2")
        w1 = cf.weight_values(phi_weights(P1, cf))
        assert combine({"b1": R2, "b2": 2, "b3": R2, "b4": 1,
                        "b6": -1, "b7": -1}) == w1

    def test_second_triangle_against_the_frozen_rows(self):
        cf = cfan("B2")
        w1 = cf.weight_values(phi_weights(P1, cf))
        w2 = cf.weight_values(phi_weights(P2, cf))
        assert combine({"b6": 1, "b7": 1, "b4": -1}) == w2
        diff = combine({"b1": R2, "b2": 2, "b3": R2})
        assert tuple(a - b for a, b in zip(diff, w1)) == w2

    def test_basis_elements_expand_to_unit_vectors(self):
        basis = phi_weight_cone_basis(cfan("B2"))
        for i, B in enumerate(basis.polytopes):
            y = phi_expand(B, basis)
            want = tuple(Fraction(1 if j == i else 0) for j in range(basis.r))
            assert y == want

    def test_expansion_is_reproducible(self):
        basis = phi_weight_cone_basis(cfan("B2"))
        assert phi_expand(P1, basis) == phi_expand(P1, basis)

    def test_a2_hexagon_expansion(self):
        cf = cfan("A2")
        basis = phi_weight_cone_basis(cf)
        hexagon = (simplex_polytope((1, 2), 2) + simplex_polytope((1, 3), 2)
                   + simplex_polytope((2, 3), 2))
        y = phi_expand(hexagon, basis)
        w = cf.weight_values(phi_weights(hexagon, cf))
        total = [0] * len(w)
        for yi, row in zip(y, basis.matrix()):
            total = [a + yi * b for a, b in zip(total, row)]
        assert tuple(total) == w

    def test_non_phi_polytope_is_rejected(self):
        basis = phi_weight_cone_basis(cfan("B2"))
        with pytest.raises(NotAPhiPolytope):
            phi_expand(LatticePolytope([(0, 0), (3, 1), (0, 1)]), basis)

    def test_dilated_basis_polytope_fails_the_certificate(self):
        basis = phi_weight_cone_basis(cfan("B2"))
        y = phi_expand(P1, basis)
        i = next(i for i, c in enumerate(y) if c)
        bad = FactorizationBasis(basis.fan, basis.vectors, order=basis.order,
                                 length=basis.length)
        bad.tables[i] = tuple(vscale(2, v) for v in basis.tables[i])
        with pytest.raises(CertificateError):
            phi_expand(P1, bad)


def phi_basis(tag):
    if ("basis", tag) not in _CACHE:
        _CACHE[("basis", tag)] = phi_weight_cone_basis(cfan(tag))
    return _CACHE[("basis", tag)]


PERMUTAHEDRON_POINTS = {
    "B2": [(3, 1), (Fraction(5, 2), Fraction(-1, 3))],
    "A3": [(3, -1, 2), (Fraction(1, 2), Fraction(-2, 3), Fraction(7, 5))]}


def phi_test_polytopes(tag):
    """Permutahedra and sums of basis polytopes of the type."""
    basis = phi_basis(tag)
    B = basis.polytopes
    out = [phi_permutahedron(rsys(tag), x) for x in PERMUTAHEDRON_POINTS[tag]]
    out += [B[0] + B[1], B[1] + B[-1]]
    return out


class TestChamberCertificate:
    """The chamber certificate gives the verdicts of the hull route."""

    def verdict(self, P, y, basis):
        try:
            certify_signed_sum(chamber_vertices(P, basis.fan, NotAPhiPolytope),
                               demote_vector(c / basis.unit for c in y),
                               basis)
            return True
        except CertificateError:
            return False

    @pytest.mark.parametrize("tag,trials", [("B2", 4), ("A3", 1)])
    def test_verdicts_match_the_hull_reference(self, tag, trials):
        basis = phi_basis(tag)
        rng = random.Random(tag)
        for P in phi_test_polytopes(tag)[:trials + 1]:
            y = phi_expand(P, basis)
            i = rng.randrange(basis.r)
            perturbed = tuple(c + (i == j) * R2 for j, c in enumerate(y))
            noise = tuple(QuadExt(rng.randint(-1, 1), rng.randint(-1, 1))
                          for _ in range(basis.r))
            cases = [(y, True), (perturbed, False)]
            if tag == "B2":
                cases.append((noise, False))
            for z, want in cases:
                assert self.verdict(P, z, basis) is want
                assert signed_sum_holds(P, z, basis.polytopes) is want

    def test_translated_basis_polytope_passes(self):
        basis = phi_basis("B2")
        moved = basis_of_polytopes(
            basis, [B.translate((H, i)) for i, B in
                    enumerate(basis.polytopes)], NotAPhiPolytope)
        for P in phi_test_polytopes("B2"):
            assert phi_expand(P, moved) == phi_expand(P, basis)

    @pytest.mark.parametrize("tag", ["B2", "A3"])
    def test_wall_lengths_match_face_queries(self, tag):
        cf = cfan(tag)
        basis = phi_basis(tag)
        for P in phi_test_polytopes(tag) + list(basis.polytopes[:3]):
            assert wall_lengths(P, cf.fan, cf.rs.primal_norm,
                                NotAPhiPolytope) == \
                wall_lengths_by_face_queries(P, cf.fan, cf.rs.primal_norm)

    def test_warm_a3_expansion_takes_no_hull_and_no_sum(self, monkeypatch):
        basis = phi_basis("A3")
        rs = rsys("A3")
        phi_expand(phi_permutahedron(rs, (3, -1, 2)), basis)
        P = phi_permutahedron(rs, (Fraction(1, 2), 4, Fraction(-7, 5)))
        calls = {"dd_cone": 0, "__add__": 0}
        real_dd, real_add = polyhedra.dd_cone, LatticePolytope.__add__

        def dd(*args, **kwargs):
            calls["dd_cone"] += 1
            return real_dd(*args, **kwargs)

        def add(self, other):
            calls["__add__"] += 1
            return real_add(self, other)

        monkeypatch.setattr(polyhedra, "dd_cone", dd)
        monkeypatch.setattr(minkowski, "dd_cone", dd)
        monkeypatch.setattr(LatticePolytope, "__add__", add)
        y = phi_expand(P, basis)
        assert calls == {"dd_cone": 0, "__add__": 0}
        monkeypatch.undo()
        assert signed_sum_holds(P, y, basis.polytopes)


class TestBasisTablesAgainstPolytopes:
    """Each walked basis table is the chamber table of its polytope."""

    @pytest.mark.parametrize("tag", ("A1", "A2", "A3", "B2"))
    def test_tables_step_by_their_vectors(self, tag):
        check_basis_tables(phi_basis(tag))

    def test_signed_walk_is_the_difference_of_two_tables(self):
        cf, basis = cfan("B2"), phi_basis("B2")
        w = {k: a - b for k, a, b in zip(cf.wall_order, basis.matrix()[2],
                                          basis.matrix()[0])}
        assert any(sign(x) < 0 for x in w.values())
        assert reconstruct_phi(cf, w) == LatticePolytope(
            [vsub(a, b) for a, b in zip(basis.tables[2], basis.tables[0])]
        ).normalize_translation()


class TestPhiPermutahedron:
    def test_b2_orbit_polytope(self):
        P = phi_permutahedron(rsys("B2"), (3, 1))
        assert len(P.vertices) == 8
        assert set(P.vertices) == {
            (Fraction(3), Fraction(1)), (Fraction(3), Fraction(-1)),
            (Fraction(-3), Fraction(1)), (Fraction(-3), Fraction(-1)),
            (Fraction(1), Fraction(3)), (Fraction(1), Fraction(-3)),
            (Fraction(-1), Fraction(3)), (Fraction(-1), Fraction(-3))}

    def test_b2_permutahedron_weights(self):
        cf = cfan("B2")
        P = phi_permutahedron(rsys("B2"), (3, 1))
        w = cf.weight_values(phi_weights(P, cf))
        assert w == (2 * R2, 2, 2 * R2, 2, 2 * R2, 2, 2 * R2, 2)

    def test_orbit_is_reflection_closed(self):
        rs = rsys("B2")
        P = phi_permutahedron(rs, (3, 1))
        verts = set(P.vertices)
        for r in rs.int_simple:
            assert {rs.reflect_primal(v, r) for v in verts} == verts

    def test_a2_orbit_has_group_order_vertices(self):
        P = phi_permutahedron(rsys("A2"), (5, 2))
        assert len(P.vertices) == 6

    def test_orbit_point_missing_from_the_hull_fails(self, monkeypatch):
        # a hull that loses an orbit point must not pass as the polytope
        monkeypatch.setattr(coxeter, "LatticePolytope",
                            lambda pts: LatticePolytope(list(pts)[1:]))
        with pytest.raises(CertificateError, match="vertices"):
            phi_permutahedron(rsys("B2"), (3, 1))

    def test_mirror_points_are_rejected(self):
        with pytest.raises(PointOnHyperplane):
            phi_permutahedron(rsys("B2"), (1, 1))
        with pytest.raises(PointOnHyperplane):
            phi_permutahedron(rsys("B2"), (0, 5))
        with pytest.raises(PointOnHyperplane):
            phi_permutahedron(rsys("A2"), (1, 1))

    def test_field_base_point(self):
        P = phi_permutahedron(rsys("B2"), (1 + R2, 1))
        assert len(P.vertices) == 8


# ---------------------------------------------------------------------------
# the rational routes against the field routes they replaced: the weight
# kernel over Q(sqrt(2)) and the walk along unit normals


def reference_phi_rows(cf):
    """The root-form rows over Q(sqrt(2)), entry by entry from the pairing."""
    form = root_form_rows(cf)
    return [tuple(Fraction(0) if not x else x / form.norms[j]
                  for j, x in enumerate(row)) for row in form.rows]


def reference_basis_vectors(cf):
    """ker R over the field, with the all-ones vector exchanged in at the
    first kernel vector its coordinates use, then made non-negative."""
    m = len(cf.wall_order)
    kernel = nullspace_field(reference_phi_rows(cf), ncols=m)
    ones = (Fraction(1),) * m
    coords = solve_linear([tuple(v[i] for v in kernel) for i in range(m)],
                          ones)
    k = next(i for i, c in enumerate(coords) if c)
    out = [ones]
    for v in (v for i, v in enumerate(kernel) if i != k):
        low = min(v)
        if low < 0:
            v = vadd(v, vscale(-low, ones))
        out.append(demote_vector(v))
    return out


def direct_norm(rs, d):
    return scalar_sqrt(dot(d, tuple(dot(row, d) for row in rs.pgram)))


def reference_reconstruct(cf, w):
    """Support integration stepping by w_F p / |p| across every wall F.

    A walk over the chamber graph from chamber 0; NotBalanced when two
    paths reach a chamber with different gradients.
    """
    by_key = cf.weight_dict(w)
    grads, todo = {0: (Fraction(0),) * cf.rs.n}, [0]
    while todo:
        i = todo.pop()
        for k, sides in cf.fan.wall_chambers.items():
            for (a, _), (b, inward) in (sides, sides[::-1]):
                if a != i:
                    continue
                p = primitive_of_rational(inward)
                step = vscale(by_key[k] / direct_norm(cf.rs, p), p)
                target = demote_vector(vadd(grads[i], step))
                if b not in grads:
                    grads[b] = target
                    todo.append(b)
                elif grads[b] != target:
                    raise NotBalanced(f"the walk disagrees across wall {k}")
    return LatticePolytope(list(grads.values())).normalize_translation()


def typed(v):
    return tuple((x, type(x)) for x in v)


def assert_same_polytope(P, Q):
    """Equal vertices and facet rows, in value and in type."""
    assert [typed(v) for v in P.vertices] == [typed(v) for v in Q.vertices]
    assert P.dim() == Q.dim()

    def rows(X):
        return {(a, typed((b,))) for a, b in X.inequalities}

    if P.dim() == P.n:
        assert rows(P) == rows(Q)
    else:
        def facets(X):
            return sorted(tuple(v for v in X.vertices if dot(a, v) == b)
                          for a, b in X.inequalities)
        assert facets(P) == facets(Q)


def random_weights(rng, cf, basis):
    coeffs = [rng.randint(-1, 3) for _ in basis.vectors]
    return {k: sum((c * v[k] for c, v in zip(coeffs, basis.vectors)), 0)
            for k in cf.wall_order}


ROUTE_TYPES = ("A1", "A2", "A3", "B2")


class TestRationalRoutesAgainstFieldRoutes:
    @pytest.mark.parametrize("tag", ROUTE_TYPES)
    def test_basis(self, tag):
        cf = cfan(tag)
        basis = phi_weight_cone_basis(cf)
        ref = reference_basis_vectors(cf)
        assert [typed(v) for v in basis.matrix()] == [typed(v) for v in ref]
        for v, B in zip(ref, basis.polytopes):
            assert_same_polytope(B, reference_reconstruct(cf, v))

    @pytest.mark.parametrize("tag", ROUTE_TYPES)
    def test_reconstruct_phi_on_random_combinations(self, tag):
        cf = cfan(tag)
        basis = phi_weight_cone_basis(cf)
        rng = random.Random(tag)
        for _ in range(40):
            w = random_weights(rng, cf, basis)
            assert_same_polytope(reconstruct_phi(cf, w),
                                 reference_reconstruct(cf, w))

    def test_irrational_type_a_weights_take_the_unit_walk(self):
        cf = cfan("A2")
        basis = phi_weight_cone_basis(cf)
        rng = random.Random(3)
        for _ in range(10):
            w = {k: x * QuadExt(1, 1)
                 for k, x in random_weights(rng, cf, basis).items()}
            assert_same_polytope(reconstruct_phi(cf, w),
                                 reference_reconstruct(cf, w))

    def test_unbalanced_rational_weights_do_not_close_up(self):
        cf = cfan("A3")
        w = [0] * len(cf.wall_order)
        w[0] = 1
        with pytest.raises(NotBalanced):
            reconstruct_phi(cf, w)

    def test_mirror_units(self):
        assert rsys("A1").mirror_unit == H
        for tag in ("A2", "A3", "A4"):
            assert rsys(tag).mirror_unit == R2
        assert rsys("B2").mirror_unit is None

    @pytest.mark.parametrize("tag", ("A1", "A2", "A3", "A4", "B2"))
    def test_primal_norm_equals_the_direct_formula(self, tag):
        rs = rsys(tag)
        rng = random.Random(tag)
        dirs = [(0,) * rs.n, (Fraction(0),) * rs.n]
        for r in rs.int_roots:
            m = rs.mirror(r)
            dirs += [m, tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9)) * x
                              for x in m)]
        for _ in range(20):
            dirs.append(tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                              for _ in range(rs.n)))
            dirs.append(tuple(QuadExt(rng.randint(-2, 2), rng.randint(-2, 2))
                              for _ in range(rs.n)))
        checked = 0
        for d in dirs:
            try:
                want = direct_norm(rs, d)
            except ValueError:
                with pytest.raises(ValueError):
                    rs.primal_norm(d)
                continue
            got = rs.primal_norm(d)
            assert got == want and type(got) is type(want), d
            checked += 1
        assert checked > len(rs.int_roots)


class TestMetricRowsAgainstRootForm:
    """The lattice balancing matrix with metric columns against the mirror
    pairing it replaced."""

    @pytest.mark.parametrize("tag", ROUTE_TYPES)
    def test_same_kernel(self, tag):
        cf = cfan(tag)
        m = len(cf.wall_order)
        Phi, lengths = cf.balance_rows()
        metric = [tuple(x / lengths[j] if x else Fraction(0)
                        for j, x in enumerate(row)) for row in Phi]
        assert nullspace_field(metric, ncols=m) == \
            nullspace_field(reference_phi_rows(cf), ncols=m)
        assert nullspace_field(Phi, ncols=m) == \
            nullspace_field(root_form_rows(cf).rows, ncols=m)

    @pytest.mark.parametrize("tag", ROUTE_TYPES)
    def test_wall_lengths_are_the_root_norms(self, tag):
        cf = cfan(tag)
        _, lengths = cf.balance_rows()
        norms = root_form_rows(cf).norms
        on_ridges = [j for j, nrm in enumerate(norms) if nrm is not None]
        # every wall lies on a ridge, except the one wall of A1
        assert len(on_ridges) == (len(norms) if cf.fan.ridges else 0)
        for j in on_ridges:
            assert lengths[j] == norms[j], cf.wall_order[j]


class TestBasisChecksSurvivePythonO:
    def test_checks_survive_python_O(self):
        script = textwrap.dedent("""
            from fractions import Fraction

            import tropfactor.coxeter as coxeter
            from tropfactor.exact import CertificateError, primitive_of_rational

            if __debug__:
                raise SystemExit("asserts are on")
            rs = coxeter.build_root_system("A2")
            failures = 0

            def expect_failure(call):
                global failures
                try:
                    call()
                except CertificateError:
                    failures += 1

            def basis():
                return coxeter.phi_weight_cone_basis(coxeter.coxeter_fan(rs))

            image_basis = coxeter.RayHeights.image_basis
            # unit vectors are not balanced
            coxeter.RayHeights.image_basis = lambda self, order: [
                tuple(Fraction(int(i == j)) for j in range(len(order)))
                for i in range(len(order))]
            expect_failure(basis)
            # balanced vectors that miss the all-ones vector
            coxeter.RayHeights.image_basis = lambda self, order: image_basis(
                self, order)[:-1]
            expect_failure(basis)
            # walls on one mirror measured twice too long after balancing:
            # the walk of a balanced vector does not close
            coxeter.RayHeights.image_basis = image_basis
            cf = coxeter.coxeter_fan(rs)
            cf.balance_rows()
            norm = rs.primal_norm
            p = primitive_of_rational(rs.mirror(rs.int_simple[0]))
            rs.primal_norm = lambda d: 2 * norm(d) if primitive_of_rational(
                d) in (p, tuple(-x for x in p)) else norm(d)
            expect_failure(lambda: coxeter.phi_weight_cone_basis(cf))
            print(failures)
            """)
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "3"


class TestCellChecksSurvivePythonO:
    def test_checks_survive_python_O(self):
        script = textwrap.dedent("""
            import itertools

            import tropfactor.coxeter as coxeter
            import tropfactor.permutahedra as permutahedra
            import tropfactor.polyhedra as polyhedra
            from tropfactor.exact import CertificateError
            from tropfactor.permutahedra import OrderedPartition

            if __debug__:
                raise SystemExit("asserts are on")
            failures = 0

            def expect_failure(call):
                global failures
                try:
                    call()
                except CertificateError:
                    failures += 1

            # every wall gets the same label
            permutahedra._partition_of_point = lambda g: OrderedPartition(
                ((1, 2), (3,)))
            expect_failure(lambda: permutahedra.universal_fan(2))
            # labels of the wrong ground set: three blocks for A2
            permutahedra._partition_of_point = lambda g: OrderedPartition(
                ((1, 2), (3,), (4,)))
            expect_failure(lambda: permutahedra.universal_fan(2))
            # B2 chambers in place of its walls: two rays each
            rs = coxeter.build_root_system("B2")
            chambers = coxeter.coxeter_fan(rs).fan.chambers

            class NotWalls:
                walls = dict(enumerate(chambers))

            expect_failure(lambda: coxeter._b2_labels(rs, NotWalls))
            # an octagon with edges along (1, -2) and (2, -1), off B2's
            # mirrors, for its orbit polytope
            permutahedron = coxeter.phi_permutahedron
            coxeter.phi_permutahedron = lambda rs, x: (
                polyhedra.LatticePolytope([(3, 0), (2, 2), (0, 3), (-2, 2),
                                           (-3, 0), (-2, -2), (0, -3),
                                           (2, -2)]))
            expect_failure(lambda: coxeter.coxeter_fan(rs))
            coxeter.phi_permutahedron = permutahedron
            # a fundamental chamber with an equality, then with a facet
            # on no mirror
            Polyhedron = coxeter.Polyhedron
            coxeter.Polyhedron = lambda n, rows: Polyhedron(
                n, rows, [((1,) + (0,) * (n - 1), 0)])
            expect_failure(lambda: coxeter.build_root_system("A2"))
            coxeter.Polyhedron = lambda n, rows: Polyhedron(
                n, list(rows) + [((-2, 3), 0)])
            expect_failure(lambda: coxeter.build_root_system("B2"))
            coxeter.Polyhedron = Polyhedron
            # type A roots of squared norm 4, a reflection that doubles
            # the roots, and one simple root for A2
            RootSystem = coxeter.RootSystem
            for name, patched in [
                    ("gdot", lambda self, u, v: 2 * RootSystem.gdot(
                        self, u, v)),
                    ("reflect_dual", lambda self, x, r: tuple(
                        2 * c for c in x)),
                    ("_find_simple", lambda self: self.int_positive[:1])]:
                patched_rs = type("Patched", (RootSystem,), {name: patched})
                coxeter.RootSystem = patched_rs
                expect_failure(lambda: coxeter.build_root_system("A2"))
            coxeter.RootSystem = RootSystem
            # every pair of facet rows of the octahedron's chambers taken
            # for a ridge: opposite rows of a four-sided chamber meet in
            # the origin only
            octahedron = polyhedra.LatticePolytope(
                [v for i in range(3) for s in (1, -1)
                 for v in [tuple(s * (j == i) for j in range(3))]])
            chambers = octahedron.normal_fan().chambers
            polyhedra.adjacent_pairs = lambda masks: [
                (i, j, masks[i] & masks[j])
                for i, j in itertools.combinations(range(len(masks)), 2)]
            expect_failure(lambda: polyhedra.Fan(chambers).ridges)
            print(failures)
            """)
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "10"


# ---------------------------------------------------------------------------
# ray heights against the routes they replaced: the kernel by elimination
# of Phi and the expansion with every wall length over Q(sqrt(2))


class TestRayHeights:
    @pytest.mark.parametrize("tag", ("A1", "A2", "A3", "A4", "B2"))
    def test_kernel_equals_the_nullspace_route(self, tag):
        cf = cfan(tag)
        heights = ray_heights(cf.fan)
        image = heights.image_basis(cf.wall_order)
        Phi, lengths = cf.balance_rows()
        assert [typed(z) for z in image] == \
            [typed(z) for z in nullspace_field(Phi, ncols=len(cf.wall_order))]
        basis = phi_basis(tag)
        for w, table in zip(basis.vectors, basis.tables):
            assert table_steps(cf.fan, table, cf.wall_order) == demote_vector(
                w[k] * basis.unit / l for k, l in zip(cf.wall_order, lengths))
        assert len(image) == len(heights.rays) - cf.rs.n

    @pytest.mark.parametrize("tag", ("A2", "A3", "B2"))
    def test_basis_vectors_equal_the_nullspace_route(self, tag):
        cf = cfan(tag)
        ref = phi_kernel_by_nullspace(cf)
        ones = (Fraction(1),) * len(cf.wall_order)
        assert tuple(map(sum, zip(*ref))) == ones
        want = [ones] + [demote_vector(vadd(v, vscale(-min(v), ones))
                                       if min(v) < 0 else v)
                         for v in ref[1:]]
        assert [typed(v) for v in phi_basis(tag).matrix()] == \
            [typed(v) for v in want]

    @pytest.mark.parametrize("tag,trials", [("A2", 6), ("A3", 3), ("B2", 6)])
    def test_expansions_equal_the_field_route(self, tag, trials):
        rs, basis = rsys(tag), phi_basis(tag)
        rng = random.Random(tag + "expand")
        for _ in range(trials):
            while True:
                x = tuple(Fraction(rng.randint(-15, 15), rng.choice((1, 2, 3,
                                                                     5)))
                          for _ in range(rs.n))
                try:
                    P = phi_permutahedron(rs, x)
                    break
                except PointOnHyperplane:
                    continue
            y = phi_expand(P, basis)
            ref = phi_expand_over_the_field(P, basis, NotAPhiPolytope)
            assert repr(y) == repr(ref) and typed(y) == typed(ref)
            assert signed_sum_holds(P, y, basis.polytopes)

    @pytest.mark.parametrize("tag", ("A3", "B2"))
    def test_non_phi_polytope_has_a_checked_witness(self, tag):
        rs, basis = rsys(tag), phi_basis(tag)
        P = LatticePolytope([tuple(int(i == j) for j in range(rs.n))
                             for i in range(rs.n)]
                            + [(0,) * (rs.n - 1) + (3,), (0,) * rs.n])
        P = LatticePolytope(list(P.vertices) + [(3,) + (1,) * (rs.n - 1)])
        with pytest.raises(NotAPhiPolytope) as info:
            phi_expand(P, basis)
        point, direction = (info.value.witness[k]
                            for k in ("point", "direction"))
        assert not set(P.face_vertices(point)) <= \
            set(P.face_vertices(direction))
        with pytest.raises(NotAPhiPolytope) as ref:
            phi_expand_over_the_field(P, basis, NotAPhiPolytope)
        assert ref.value.witness == info.value.witness

    @pytest.mark.parametrize("n", (2, 3))
    def test_heights_of_simplices_give_the_weight_matrix(self, n):
        uf = universal_fan(n)
        heights = ray_heights(uf.fan)
        W = weight_matrix(n)
        for I in W.subsets:
            D = simplex_polytope(I, n)
            h = [max(dot(rho, v) for v in D.vertices) for rho in heights.rays]
            got = tuple(sum(c * h[e] for e, c in
                            heights.columns[uf.wall_of[pi]].items())
                        for pi in W.partitions)
            assert got == W.column_of(I), I

    def test_expansion_builds_no_basis_hull(self):
        basis = phi_weight_cone_basis(cfan("A3"))
        P = phi_permutahedron(rsys("A3"), (3, -1, 2))
        phi_expand(P, basis)
        assert basis._polytopes is None
        assert len(basis.polytopes) == basis.r
