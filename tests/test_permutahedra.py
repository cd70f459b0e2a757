"""Tests for ordered partitions, weight matrices, and deformation cones."""

import itertools

import pytest

from reference_routes import NotRestricting, restricts_to, root_direction
from tropfactor.coxeter import build_root_system
from tropfactor.exact import primitive_of_rational, same_lattice
from tropfactor.polyhedra import LatticePolytope
from tropfactor.minkowski import (
    TooLarge,
    balanced_weight_lattice,
    expand_in_basis,
    extended_weights,
    weight_cone_basis,
)
from tropfactor.permutahedra import (
    NotInCone,
    OrderedPartition,
    TooSmall,
    canonical_subsets,
    deformation_cone_contains,
    deformation_cone_violations,
    geometric_weight_column,
    ordered_partitions,
    polymatroid_from_weights,
    quotient_point,
    simplex_family_basis,
    simplex_polytope,
    universal_fan,
    weight_matrix,
)


def P(*blocks):
    return OrderedPartition(blocks)


# The 6x4 weight matrix of type A_2, keyed by row label.  The canonical
# row order sorts doubletons lexicographically within each position, so
# it is a permutation of this listing; entries are compared by label.
TABLE_A2 = {
    "({1,2}, 3)": (1, 0, 0, 1),
    "({2,3}, 1)": (0, 1, 0, 1),
    "({1,3}, 2)": (0, 0, 1, 1),
    "(1, {2,3})": (0, 1, 0, 0),
    "(2, {1,3})": (0, 0, 1, 0),
    "(3, {1,2})": (1, 0, 0, 0),
}

# The full 36x11 weight matrix of type A_3 in canonical order: subsets
# sorted by size, doubletons by (span, min), larger sets by lex; rows by
# doubleton position, then doubleton, then the singleton sequence.
TABLE_A3 = [
    ("({1,2}, 3, 4)", (1, 0, 0, 0, 0, 0, 1, 1, 0, 0, 1)),
    ("({1,2}, 4, 3)", (1, 0, 0, 0, 0, 0, 1, 1, 0, 0, 1)),
    ("({1,3}, 2, 4)", (0, 0, 0, 1, 0, 0, 1, 0, 1, 0, 1)),
    ("({1,3}, 4, 2)", (0, 0, 0, 1, 0, 0, 1, 0, 1, 0, 1)),
    ("({1,4}, 2, 3)", (0, 0, 0, 0, 0, 1, 0, 1, 1, 0, 1)),
    ("({1,4}, 3, 2)", (0, 0, 0, 0, 0, 1, 0, 1, 1, 0, 1)),
    ("({2,3}, 1, 4)", (0, 1, 0, 0, 0, 0, 1, 0, 0, 1, 1)),
    ("({2,3}, 4, 1)", (0, 1, 0, 0, 0, 0, 1, 0, 0, 1, 1)),
    ("({2,4}, 1, 3)", (0, 0, 0, 0, 1, 0, 0, 1, 0, 1, 1)),
    ("({2,4}, 3, 1)", (0, 0, 0, 0, 1, 0, 0, 1, 0, 1, 1)),
    ("({3,4}, 1, 2)", (0, 0, 1, 0, 0, 0, 0, 0, 1, 1, 1)),
    ("({3,4}, 2, 1)", (0, 0, 1, 0, 0, 0, 0, 0, 1, 1, 1)),
    ("(3, {1,2}, 4)", (1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0)),
    ("(4, {1,2}, 3)", (1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0)),
    ("(2, {1,3}, 4)", (0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0)),
    ("(4, {1,3}, 2)", (0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0)),
    ("(2, {1,4}, 3)", (0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0)),
    ("(3, {1,4}, 2)", (0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0)),
    ("(1, {2,3}, 4)", (0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0)),
    ("(4, {2,3}, 1)", (0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0)),
    ("(1, {2,4}, 3)", (0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0)),
    ("(3, {2,4}, 1)", (0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0)),
    ("(1, {3,4}, 2)", (0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0)),
    ("(2, {3,4}, 1)", (0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0)),
    ("(3, 4, {1,2})", (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
    ("(4, 3, {1,2})", (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
    ("(2, 4, {1,3})", (0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0)),
    ("(4, 2, {1,3})", (0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0)),
    ("(2, 3, {1,4})", (0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0)),
    ("(3, 2, {1,4})", (0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0)),
    ("(1, 4, {2,3})", (0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
    ("(4, 1, {2,3})", (0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
    ("(1, 3, {2,4})", (0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0)),
    ("(3, 1, {2,4})", (0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0)),
    ("(1, 2, {3,4})", (0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0)),
    ("(2, 1, {3,4})", (0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0)),
]

_CACHE = {}


def braid(n):
    if n not in _CACHE:
        _CACHE[n] = universal_fan(n)
    return _CACHE[n]


class TestOrderedPartitions:
    def test_counts_match_the_closed_formula(self):
        for k in (2, 3, 4, 5):
            got = len(ordered_partitions(range(1, k + 1)))
            want = 1
            for i in range(2, k + 1):
                want *= i
            assert got == want * (k - 1) // 2

    def test_two_element_ground_set(self):
        assert ordered_partitions([1, 2]) == [P((1, 2))]

    def test_canonical_order_for_three_elements(self):
        got = [p.label() for p in ordered_partitions([1, 2, 3])]
        assert got == ["({1,2}, 3)", "({1,3}, 2)", "({2,3}, 1)",
                       "(3, {1,2})", "(2, {1,3})", "(1, {2,3})"]
        assert set(got) == set(TABLE_A2)

    def test_too_small_ground_sets(self):
        with pytest.raises(TooSmall):
            ordered_partitions([7])
        with pytest.raises(TooSmall):
            ordered_partitions([])

    def test_validation_rejects_bad_block_patterns(self):
        with pytest.raises(ValueError):
            P((1, 2), (3, 4))
        with pytest.raises(ValueError):
            P((1,), (2,))
        with pytest.raises(ValueError):
            P((1, 2), (2,))
        with pytest.raises(ValueError):
            P((1, 2, 3),)

    def test_accessors(self):
        pi = P((3,), (1, 2), (4,))
        assert pi.doubleton == (1, 2)
        assert pi.doubleton_position == 1
        assert pi.singletons == (3, 4)
        assert pi.ground == (1, 2, 3, 4)
        assert pi.label() == "(3, {1,2}, 4)"


class TestRestriction:
    def test_dropping_a_singleton_outside_i(self):
        pi = P((1, 2), (3,), (4,))
        assert restricts_to(pi, {1, 2, 3}) == P((1, 2), (3,))

    def test_deleting_the_doubleton_breaks_the_shape(self):
        pi = P((3,), (1, 2), (4,))
        r = restricts_to(pi, {1, 3})
        assert isinstance(r, NotRestricting)
        assert not r

    def test_restriction_to_the_full_ground_set_is_identity(self):
        for pi in ordered_partitions([1, 2, 3, 4]):
            assert restricts_to(pi, {1, 2, 3, 4}) == pi

    def test_restricts_exactly_when_doubleton_is_inside(self):
        for pi in ordered_partitions([1, 2, 3, 4]):
            for I in canonical_subsets(3):
                r = restricts_to(pi, I)
                inside = set(pi.doubleton) <= set(I)
                assert bool(r) == inside

    def test_restriction_to_the_doubleton_itself(self):
        pi = P((3,), (1, 2), (4,))
        assert restricts_to(pi, {1, 2}) == P((1, 2))

    def test_too_small_target(self):
        with pytest.raises(TooSmall):
            restricts_to(P((1, 2), (3,)), {1})


class TestWeightMatrixTables:
    def test_a2_matrix_matches_the_table_by_label(self):
        W = weight_matrix(2)
        assert W.subsets == [(1, 2), (2, 3), (1, 3), (1, 2, 3)]
        assert len(W.rows) == 6
        for pi in W.partitions:
            assert W.rows[W.partitions.index(pi)] == TABLE_A2[pi.label()]

    def test_a3_matrix_matches_the_table_positionally(self):
        W = weight_matrix(3)
        assert [s for s in W.subsets] == [
            (1, 2), (2, 3), (3, 4), (1, 3), (2, 4), (1, 4),
            (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (1, 2, 3, 4)]
        got = [(pi.label(), row) for pi, row in zip(W.partitions, W.rows)]
        assert got == TABLE_A3

    def test_a1_matrix_is_the_single_entry_one(self):
        W = weight_matrix(1)
        assert W.rows == ((1,),)
        assert W.subsets == [(1, 2)]

    def test_shape_formulas(self):
        fact = [1, 1, 2, 6, 24, 120]
        for n in (1, 2, 3, 4):
            W = weight_matrix(n)
            assert len(W.rows) == fact[n + 1] * n // 2
            assert len(W.subsets) == 2 ** (n + 1) - n - 2

    def test_caps(self):
        with pytest.raises(TooLarge):
            weight_matrix(7)
        with pytest.raises(TooSmall):
            weight_matrix(0)


class TestWeightMatrixInvariants:
    def test_transposition_symmetry(self):
        W = weight_matrix(3)

        def relabel(pi, t):
            return OrderedPartition(
                [tuple(t.get(x, x) for x in b) for b in pi.blocks])

        for a, b in itertools.combinations(range(1, 5), 2):
            t = {a: b, b: a}
            for pi in W.partitions:
                for I in W.subsets:
                    tI = tuple(sorted(t.get(x, x) for x in I))
                    assert W.entry(pi, I) == W.entry(relabel(pi, t), tI)

    def test_doubleton_columns_read_off_blocks(self):
        for n in (2, 3):
            W = weight_matrix(n)
            for pi in W.partitions:
                for I in W.subsets:
                    if len(I) == 2:
                        assert (W.entry(pi, I) == 1) == (I in pi.blocks)

    def test_every_row_is_nonzero(self):
        W = weight_matrix(3)
        assert all(any(row) for row in W.rows)

    def test_rows_match_the_restriction_route(self):
        # the entry is 1 iff pi restricts to I with the doubleton in front
        for n in range(1, 6):
            W = weight_matrix(n)
            for pi, row in zip(W.partitions, W.rows):
                expected = []
                for I in W.subsets:
                    r = restricts_to(pi, I)
                    expected.append(1 if r and len(r.blocks[0]) == 2 else 0)
                assert row == tuple(expected)


class TestUniversalFan:
    def test_a2_fan_has_six_labeled_walls(self):
        uf = braid(2)
        assert len(uf.fan.chambers) == 6
        assert len(uf.fan.walls) == 6
        rays = {pi.label(): uf.wall_of[pi][1][0] for pi in uf.wall_of}
        assert rays == {
            "({1,2}, 3)": (1, 1),
            "({1,3}, 2)": (1, -2),
            "({2,3}, 1)": (-2, 1),
            "(3, {1,2})": (-1, -1),
            "(2, {1,3})": (-1, 2),
            "(1, {2,3})": (2, -1),
        }

    def test_the_12_3_wall_sits_on_the_right_side(self):
        uf = braid(2)
        g = uf.wall_of[P((1, 2), (3,))][1][0]
        rs = build_root_system("A2")
        # the mirrors of e_1 - e_2 and e_1 - e_3 in quotient coordinates
        f12 = rs.mirror((1, -1))
        f13 = rs.mirror((1, 0))
        assert sum(a * x for a, x in zip(f12, g)) == 0
        assert sum(a * x for a, x in zip(f13, g)) > 0

    def test_a1_fan(self):
        uf = braid(1)
        assert len(uf.fan.chambers) == 2
        assert list(uf.wall_of) == [P((1, 2))]

    def test_a3_fan_labeling_is_a_bijection(self):
        uf = braid(3)
        assert len(uf.fan.chambers) == 24
        assert len(uf.fan.walls) == 36
        assert len(uf.wall_of) == 36

    def test_caps(self):
        with pytest.raises(TooLarge):
            universal_fan(5)
        with pytest.raises(TooSmall):
            universal_fan(0)


class TestGeometricAgreement:
    def test_a2_columns_match_the_extended_weights(self):
        uf = braid(2)
        W = weight_matrix(2)
        for I in W.subsets:
            geo = geometric_weight_column(uf, I)
            assert {p: int(v) for p, v in geo.items()} == \
                dict(zip(W.partitions, W.column_of(I)))

    def test_a3_columns_match_the_extended_weights(self):
        uf = braid(3)
        W = weight_matrix(3)
        for I in W.subsets:
            geo = geometric_weight_column(uf, I)
            assert {p: int(v) for p, v in geo.items()} == \
                dict(zip(W.partitions, W.column_of(I)))


class TestDeformationCone:
    def test_sum_of_two_simplices_lies_inside(self):
        assert deformation_cone_contains({(1, 2): 1, (1, 2, 3): 1}, 2)

    def test_segment_minus_triangle_fails_with_witness(self):
        y = {(1, 2): 1, (1, 2, 3): -1}
        assert not deformation_cone_contains(y, 2)
        viol = deformation_cone_violations(y, 2)
        assert P((2, 3), (1,)) in [pi for pi, _ in viol]
        assert all(v < 0 for _, v in viol)

    def test_zero_weights_lie_inside(self):
        assert deformation_cone_contains({}, 2)
        assert deformation_cone_contains({(1, 2): 0}, 2)

    def test_singletons_are_ignored(self):
        assert deformation_cone_contains({(1,): -5, (1, 2): 1}, 2)
        a = deformation_cone_violations({(2,): 3, (1, 2): 1, (1, 2, 3): -1}, 2)
        b = deformation_cone_violations({(1, 2): 1, (1, 2, 3): -1}, 2)
        assert [(p, v) for p, v in a] == [(p, v) for p, v in b]

    def test_entries_accumulate_over_equivalent_keys(self):
        # one +2 and one -1 on the same subset give a net weight of 1
        y = {(1, 2): 2, (2, 1): -1, (1, 2, 3): 1}
        assert deformation_cone_contains(y, 2)

    def test_out_of_range_subsets_are_rejected(self):
        with pytest.raises(ValueError):
            deformation_cone_contains({(1, 5): 1}, 2)

    def test_a2_facets_are_the_six_distinct_rows(self):
        W = weight_matrix(2)
        assert set(W.rows) == {
            (1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1),
            (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)}


class TestPolymatroids:
    def test_sum_of_segment_and_triangle(self):
        M = polymatroid_from_weights({(1, 2): 1, (1, 2, 3): 1}, 2)
        direct = simplex_polytope((1, 2), 2) + simplex_polytope((1, 2, 3), 2)
        assert M.vertices == direct.vertices
        # the triangle edge e1 e2 is parallel to the segment, so the
        # sum is a quadrilateral rather than a pentagon
        assert len(M.vertices) == 4
        assert set(M.vertices) == {(2, 0), (0, 2), (-1, 0), (0, -1)}

    def test_cancelling_weights_give_the_same_polytope(self):
        a = polymatroid_from_weights({(1, 2): 1, (1, 2, 3): 1}, 2)
        b = polymatroid_from_weights({(1, 2): 2 - 1, (1, 2, 3): 1}, 2)
        assert a.vertices == b.vertices

    def test_mixed_sign_weights_factor_through_division(self):
        # the three edges of the triangle sum to a hexagon, which is the
        # triangle plus its own reflection; subtracting Delta_123 must
        # therefore recover that reflection
        y = {(1, 2): 1, (2, 3): 1, (1, 3): 1, (1, 2, 3): -1}
        assert deformation_cone_contains(y, 2)
        M = polymatroid_from_weights(y, 2)
        D = simplex_polytope((1, 2, 3), 2)
        lhs = (M + D).normalize_translation()
        rhs = (simplex_polytope((1, 2), 2) + simplex_polytope((2, 3), 2)
               + simplex_polytope((1, 3), 2)).normalize_translation()
        assert lhs.vertices == rhs.vertices
        reflected = LatticePolytope(
            [tuple(-x for x in v) for v in D.vertices])
        assert M.normalize_translation().vertices == \
            reflected.normalize_translation().vertices

    def test_outside_the_cone_raises_with_a_witness(self):
        with pytest.raises(NotInCone) as exc:
            polymatroid_from_weights({(1, 2): 1, (1, 2, 3): -1}, 2)
        pi = exc.value.partition
        assert int(exc.value.value) < 0
        W = weight_matrix(2)
        row = W.rows[W.partitions.index(pi)]
        net = {(1, 2): 1, (1, 2, 3): -1}
        subsets = W.subsets
        assert sum(net.get(I, 0) * e for I, e in zip(subsets, row)) < 0

    def test_three_dimensional_direct_sum(self):
        y = {(1, 2): 1, (3, 4): 1, (1, 2, 3, 4): 1}
        M = polymatroid_from_weights(y, 3)
        direct = (simplex_polytope((1, 2), 3) + simplex_polytope((3, 4), 3)
                  + simplex_polytope((1, 2, 3, 4), 3))
        assert M.vertices == direct.vertices

    def test_edges_are_parallel_to_root_directions(self):
        M = polymatroid_from_weights({(1, 2): 2, (1, 3): 1, (1, 2, 3): 1}, 2)
        roots = set()
        for i, j in itertools.combinations(range(1, 4), 2):
            roots.add(root_direction(i, j, 2))
            roots.add(root_direction(j, i, 2))
        verts = list(M.vertices)
        # walk the edges via the dual faces of the normal fan's walls
        fan = M.normal_fan()
        for key in fan.walls:
            p = fan.walls[key].relative_interior_point()
            best = max(sum(a * b for a, b in zip(p, v)) for v in verts)
            edge = [v for v in verts
                    if sum(a * b for a, b in zip(p, v)) == best]
            assert len(edge) == 2
            d = tuple(a - b for a, b in zip(edge[0], edge[1]))
            assert primitive_of_rational(d) in roots


class TestSimplexFamilyBasis:
    def test_a2_family_is_a_basis_of_the_weight_cone_lattice(self):
        fam = simplex_family_basis(2)
        assert fam.r == 4
        wcb = weight_cone_basis(braid(2).fan)
        a = [tuple(int(x) for x in w.values) for w in fam.vectors]
        b = [tuple(int(x) for x in w.values) for w in wcb.vectors]
        assert same_lattice(a, b)

    def test_a3_family_is_a_basis_of_the_weight_cone_lattice(self):
        fam = simplex_family_basis(3)
        assert fam.r == 11
        lat, _ = balanced_weight_lattice(braid(3).fan)
        a = [tuple(int(x) for x in w.values) for w in fam.vectors]
        assert same_lattice(a, lat)

    def test_expanding_the_big_simplex_gives_an_indicator(self):
        for n in (2, 3):
            fam = simplex_family_basis(n)
            D = simplex_polytope(tuple(range(1, n + 2)), n)
            y = expand_in_basis(D, fam)
            subsets = canonical_subsets(n)
            want = tuple(1 if s == tuple(range(1, n + 2)) else 0
                         for s in subsets)
            assert y == want

    def test_polymatroid_weights_round_trip(self):
        fam = simplex_family_basis(2)
        y = {(1, 2): 1, (1, 2, 3): 1}
        M = polymatroid_from_weights(y, 2)
        got = expand_in_basis(M, fam)
        assert got == (1, 0, 0, 1)

    def test_mixed_sign_round_trip(self):
        fam = simplex_family_basis(2)
        y = {(1, 2): 1, (2, 3): 1, (1, 3): 1, (1, 2, 3): -1}
        M = polymatroid_from_weights(y, 2)
        got = expand_in_basis(M, fam)
        assert got == (1, 1, 1, -1)


class TestQuotientCoordinates:
    def test_quotient_is_constant_on_diagonal_translates(self):
        z = (3, 1, 4, 1)
        w = tuple(x + 7 for x in z)
        assert quotient_point(z) == quotient_point(w)

    def test_basis_images(self):
        assert quotient_point((1, 0, 0)) == (1, 0)
        assert quotient_point((0, 1, 0)) == (0, 1)
        assert quotient_point((0, 0, 1)) == (-1, -1)

    def test_simplex_polytopes_are_integral(self):
        for n in (2, 3):
            for I in canonical_subsets(n):
                D = simplex_polytope(I, n)
                for v in D.vertices:
                    assert all(x == int(x) for x in v)

    def test_root_directions_are_primitive(self):
        for n in (2, 3):
            for i, j in itertools.combinations(range(1, n + 2), 2):
                d = root_direction(i, j, n)
                assert primitive_of_rational(d) == d
