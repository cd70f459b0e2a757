import random
import subprocess
import sys
from fractions import Fraction

import pytest

from reference_routes import (
    NotRefining,
    basis_of_polytopes,
    check_basis_tables,
    complete_factorizations,
    expand_by_lattice_solve,
    is_strict_balanced_coarsening,
    signed_sum_holds,
    wall_lengths_by_face_queries,
)
from tropfactor import minkowski
from tropfactor.division import reconstruct_from_fan
from tropfactor.exact import (
    CertificateError,
    rational_content,
    same_lattice,
    vscale,
    vsub,
)
from tropfactor.minkowski import (
    FactorizationBasis,
    IncompleteFan,
    NotASummand,
    NotPolytopal,
    NotRefined,
    TooLarge,
    WeightVector,
    balanced_weight_lattice,
    certify_signed_sum,
    chamber_vertices,
    expand_in_basis,
    extended_weights,
    factor,
    has_scaled_summand,
    is_indecomposable,
    is_summand,
    maximal_summand_pairs,
    polytope_weights,
    wall_lengths,
    weight_cone_basis,
)
from tropfactor.permutahedra import simplex_family_basis
from tropfactor.polyhedra import Fan, LatticePolytope, Polyhedron
from tropfactor.tropical import TropicalPolynomial

# the octagon with unit edge weights and its eight unit factors
OCTAGON = [(1, 0), (0, 1), (2, 0), (0, 2), (3, 1), (3, 2), (2, 3), (1, 3)]
S = LatticePolytope(OCTAGON)
B1 = LatticePolytope([(0, 0), (1, 0)])
B2 = LatticePolytope([(0, 0), (1, -1)])
B3 = LatticePolytope([(0, 0), (0, 1)])
B4 = LatticePolytope([(0, 0), (1, 1)])
B5 = LatticePolytope([(0, 0), (0, 2), (1, 1)])
B6 = LatticePolytope([(0, 0), (1, 0), (1, 1)])
B7 = LatticePolytope([(0, 0), (1, 0), (0, 1)])
T1 = LatticePolytope([(0, 0), (0, 1), (1, 1)])
T2 = LatticePolytope([(0, 0), (1, -1), (1, 0)])
P1 = LatticePolytope([(0, 0), (1, -1), (2, 0)])
P2 = LatticePolytope([(0, 0), (2, 0), (1, 1)])

# a uniquely factorizable quadrilateral: triangle + segment
Q_TRI = LatticePolytope([(0, 0), (1, 0), (0, 1)])
R_SEG = LatticePolytope([(0, 0), (1, 0)])
P_UF = Q_TRI + R_SEG


def norm(P):
    return P.normalize_translation()


_OCT_CACHE = {}


def octagon_basis():
    """The octagon fan and its factorization basis, built once."""
    if "fan" not in _OCT_CACHE:
        fan = S.normal_fan()
        _OCT_CACHE["fan"] = fan
        _OCT_CACHE["basis"] = weight_cone_basis(fan)
    return _OCT_CACHE["fan"], _OCT_CACHE["basis"]


HEXAGON = LatticePolytope([(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)])


def hexagon_basis():
    if "hex" not in _OCT_CACHE:
        _OCT_CACHE["hex"] = weight_cone_basis(HEXAGON.normal_fan())
    return _OCT_CACHE["hex"]


def random_polytope(rng, n, npts, box=4):
    pts = {tuple(rng.randint(-box, box) for _ in range(n))
           for _ in range(npts)}
    return LatticePolytope(sorted(pts))


class TestFactor:
    def test_unique_factorization_recovers_segment(self):
        assert factor(P_UF, Q_TRI) == R_SEG

    def test_unique_factorization_recovers_triangle(self):
        assert factor(P_UF, R_SEG) == Q_TRI

    def test_sum_with_factor_is_exact(self):
        R = factor(P_UF, Q_TRI)
        assert Q_TRI + R == P_UF

    def test_triangle_has_no_segment_summand(self):
        with pytest.raises(NotASummand) as ei:
            factor(Q_TRI, R_SEG)
        assert ei.value.witness[0] == "not_refining"

    def test_simplex_is_not_summand_of_its_edge(self):
        # conv{e1,e2} minus conv{e1,e2,e3} fails on fan refinement
        edge = LatticePolytope([(1, 0, 0), (0, 1, 0)])
        simplex = LatticePolytope([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        with pytest.raises(NotASummand):
            factor(edge, simplex)

    def test_factor_by_point_translates(self):
        point = LatticePolytope([(3, 5)])
        R = factor(P_UF.translate((3, 5)), point)
        assert R == P_UF

    def test_octagon_minus_triangle(self):
        R = factor(S, B6)
        assert B6 + R == S

    def test_weight_deficit_witness(self):
        # 2*B1 + B3 is wider than tall; the square is not a summand
        box = LatticePolytope([(0, 0), (2, 0), (0, 1), (2, 1)])
        square = LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1)])
        R = factor(box, square)
        assert square + R == box
        with pytest.raises(NotASummand) as ei:
            factor(square, box)
        assert ei.value.witness[0] == "negative_weight"

    def test_rational_vertices_clear_denominators(self):
        half = Q_TRI.scale(Fraction(1, 2))
        P = half + R_SEG
        assert factor(P, half) == R_SEG
        assert factor(P, R_SEG) == half

    def test_is_summand_predicate(self):
        assert is_summand(P_UF, Q_TRI)
        assert not is_summand(Q_TRI, P_UF)

    def test_random_sums_factor_back(self):
        rng = random.Random(20260823)
        for n in (2, 3):
            for _ in range(12):
                Q = random_polytope(rng, n, rng.randint(2, 4))
                R = random_polytope(rng, n, rng.randint(2, 4))
                P = Q + R
                got = factor(P, Q)
                assert Q + got == P
                assert norm(got) == norm(R)


class TestScaledSummand:
    def test_self_is_scaled_summand(self):
        assert has_scaled_summand(P_UF, P_UF)

    def test_triangle_and_segment(self):
        assert not has_scaled_summand(Q_TRI, R_SEG)

    def test_quadrilateral_and_triangle(self):
        assert has_scaled_summand(P_UF, Q_TRI)

    def test_octagon_and_its_factors(self):
        for B in (B1, B2, B3, B4, B6, B7):
            assert has_scaled_summand(S, B)
        assert not has_scaled_summand(B6, B1)


class TestStrictBalancedCoarsening:
    def test_summand_weights_are_strictly_below(self):
        fine_fan, fine_w = polytope_weights(P_UF)
        coarse_fan, coarse_w = polytope_weights(Q_TRI)
        assert is_strict_balanced_coarsening(coarse_fan, coarse_w,
                                             fine_fan, fine_w)

    def test_equal_weights_are_not_strict(self):
        fan, w = polytope_weights(P_UF)
        assert not is_strict_balanced_coarsening(fan, w, fan, w)

    def test_doubled_weights_are_strict(self):
        fan, w = polytope_weights(S)
        w2 = WeightVector(fan, {k: 2 * v for k, v in w.by_key.items()})
        assert is_strict_balanced_coarsening(fan, w, fan, w2)

    def test_not_refining_raises(self):
        fine_fan, fine_w = polytope_weights(P_UF)
        coarse_fan, coarse_w = polytope_weights(Q_TRI)
        with pytest.raises(NotRefining):
            is_strict_balanced_coarsening(fine_fan, fine_w,
                                          coarse_fan, coarse_w)


class TestWeightConeBasis:
    def test_triangle_fan_has_rank_one(self):
        fan = Q_TRI.normal_fan()
        basis = weight_cone_basis(fan)
        assert basis.r == 1
        assert basis.vectors[0].values == (1, 1, 1)
        assert norm(basis.polytopes[0]) == norm(Q_TRI)

    def test_segment_fan_has_rank_one(self):
        fan = LatticePolytope([(0,), (3,)]).normal_fan()
        basis = weight_cone_basis(fan)
        assert basis.r == 1
        assert basis.polytopes[0] == LatticePolytope([(0,), (1,)])

    def test_octagon_fan_has_rank_six(self):
        _, basis = octagon_basis()
        assert basis.r == 6

    def test_octagon_basis_is_nonnegative_and_balanced(self):
        _, basis = octagon_basis()
        for w in basis.vectors:
            assert w.is_nonnegative()
            assert w.is_balanced()

    def test_octagon_basis_spans_the_balanced_lattice(self):
        fan, basis = octagon_basis()
        lattice, _ = balanced_weight_lattice(fan)
        assert same_lattice(basis.matrix(), lattice)

    def test_basis_polytopes_carry_their_weights(self):
        fan, basis = octagon_basis()
        for w, B in zip(basis.vectors, basis.polytopes):
            assert extended_weights(B, fan).values == w.values

    def test_rank_is_independent_of_chamber_order(self):
        fan, a = octagon_basis()
        rng = random.Random(7)
        chambers = list(fan.chambers)
        rng.shuffle(chambers)
        shuffled = Fan(chambers)
        b = weight_cone_basis(shuffled)
        assert a.r == b.r
        assert a.matrix() == b.matrix()

    def test_quadrilateral_fan_has_rank_two(self):
        fan = P_UF.normal_fan()
        basis = weight_cone_basis(fan)
        assert basis.r == 2
        # the basis spans the same lattice as the two prime summands
        w_tri = tuple(int(x) for x in extended_weights(Q_TRI, fan).values)
        w_seg = tuple(int(x) for x in extended_weights(R_SEG, fan).values)
        assert same_lattice(basis.matrix(), [w_tri, w_seg])
        for B in basis.polytopes:
            assert is_summand(P_UF, B) or norm(B) == norm(P_UF)


class TestExpandInBasis:
    def setup_method(self):
        self.fan, self.basis = octagon_basis()

    def test_octagon_expansion_is_sum_of_segments(self):
        ys = [expand_in_basis(B, self.basis) for B in (B1, B2, B3, B4)]
        y_s = expand_in_basis(S, self.basis)
        assert y_s == tuple(sum(c) for c in zip(*ys))

    def test_translation_invariance(self):
        assert (expand_in_basis(S.translate((4, -9)), self.basis)
                == expand_in_basis(S, self.basis))

    def test_signed_expansion_of_p1(self):
        # P1 + B6 + B7 = 2 B1 + B2 + B3 + B4, an honest signed expansion
        coef = {B1: 2, B2: 1, B3: 1, B4: 1, B6: -1, B7: -1}
        want = [0] * self.basis.r
        for B, c in coef.items():
            y = expand_in_basis(B, self.basis)
            want = [w + c * yi for w, yi in zip(want, y)]
        assert expand_in_basis(P1, self.basis) == tuple(want)
        lhs = P1 + B6 + B7
        rhs = B1 + B1 + B2 + B3 + B4
        assert norm(lhs) == norm(rhs)

    def test_signed_expansion_of_p2(self):
        # P2 + B3 = B6 + B7
        y = expand_in_basis(P2, self.basis)
        y6 = expand_in_basis(B6, self.basis)
        y7 = expand_in_basis(B7, self.basis)
        y3 = expand_in_basis(B3, self.basis)
        assert y == tuple(a + b - c for a, b, c in zip(y6, y7, y3))
        assert norm(P2 + B3) == norm(B6 + B7)

    def test_not_refined_raises(self):
        steep = LatticePolytope([(0, 0), (2, 1)])
        with pytest.raises(NotRefined):
            expand_in_basis(steep, self.basis)

    def test_triangle_expands_in_octagon_basis(self):
        y = expand_in_basis(B7, self.basis)
        lhs = B7
        rhs = LatticePolytope([(0, 0)])
        for yi, B in zip(y, self.basis.polytopes):
            if yi < 0:
                lhs = lhs + B.scale(-yi)
            elif yi > 0:
                rhs = rhs + B.scale(yi)
        assert norm(lhs) == norm(rhs)


class TestSummandPairs:
    def test_uniquely_factorizable_pairs(self):
        pairs = maximal_summand_pairs(P_UF)
        got = {(norm(a).vertices, norm(b).vertices) for a, b in pairs}
        assert got == {(Q_TRI.vertices, R_SEG.vertices),
                       (R_SEG.vertices, Q_TRI.vertices)}

    def test_octagon_has_eight_pairs(self):
        pairs = maximal_summand_pairs(S)
        assert len(pairs) == 8
        minimal = {norm(a).vertices for a, _ in pairs}
        expected = {norm(B).vertices
                    for B in (B1, B2, B3, B4, B6, B7, T1, T2)}
        assert minimal == expected

    def test_pairs_reassemble(self):
        for a, b in maximal_summand_pairs(S):
            assert norm(a + b) == norm(S)

    def test_triangle_is_indecomposable(self):
        assert is_indecomposable(Q_TRI)

    def test_quadrilateral_is_decomposable(self):
        assert not is_indecomposable(P_UF)

    def test_segment_in_plane(self):
        assert is_indecomposable(R_SEG)
        assert not is_indecomposable(R_SEG + R_SEG)
        pairs = maximal_summand_pairs(R_SEG + R_SEG)
        assert pairs == [(R_SEG, R_SEG)]

    def test_doubled_triangle_splits(self):
        pairs = maximal_summand_pairs(Q_TRI + Q_TRI)
        got = {(norm(a).vertices, norm(b).vertices) for a, b in pairs}
        assert got == {(Q_TRI.vertices, Q_TRI.vertices)}

    def test_too_large_env(self, monkeypatch):
        monkeypatch.setenv("TROPFACTOR_MAX_CONES", "4")
        with pytest.raises(TooLarge):
            maximal_summand_pairs(S)

    def test_complete_factorizations_of_octagon(self):
        factorizations = complete_factorizations(S)
        got = {tuple(sorted(F.vertices for F in combo))
               for combo in factorizations}
        expected = {
            tuple(sorted(norm(B).vertices for B in (B1, B2, B3, B4))),
            tuple(sorted(norm(B).vertices for B in (B2, B6, T1))),
            tuple(sorted(norm(B).vertices for B in (B4, B7, T2))),
        }
        assert got == expected
        for combo in factorizations:
            total = combo[0]
            for F in combo[1:]:
                total = total + F
            assert norm(total) == norm(S)


class TestWeightVector:
    def test_values_follow_canonical_order(self):
        fan, w = polytope_weights(Q_TRI)
        assert w.values == tuple(w.by_key[k] for k in sorted(fan.walls))

    def test_key_mismatch_rejected(self):
        fan, w = polytope_weights(Q_TRI)
        other = Q_TRI.normal_fan()
        bad = dict(w.by_key)
        bad.pop(sorted(bad)[0])
        with pytest.raises(ValueError):
            WeightVector(fan, bad)

    def test_from_values_round_trip(self):
        fan, w = polytope_weights(P_UF)
        again = WeightVector.from_values(fan, list(w.values))
        assert again.by_key == w.by_key


def dilated_basis(basis, i):
    """The basis with its i-th table swapped for that of twice its polytope."""
    bad = FactorizationBasis(basis.fan, basis.vectors, order=basis.order,
                             length=basis.length)
    bad.tables[i] = tuple(vscale(2, v) for v in basis.tables[i])
    return bad


class TestCertificates:
    """Each soundness certificate raises CertificateError, never asserts."""

    def test_factor_rejects_a_wrong_quotient(self, monkeypatch):
        real = minkowski.divide
        shift = TropicalPolynomial({(1, 0): 0})
        monkeypatch.setattr(minkowski, "divide",
                            lambda f, g: real(f, g) * shift)
        with pytest.raises(CertificateError):
            factor(P_UF, Q_TRI)

    def test_expand_rejects_a_dilated_basis_polytope(self):
        _, basis = octagon_basis()
        y = expand_in_basis(P1, basis)
        i = next(i for i, c in enumerate(y) if c)
        with pytest.raises(CertificateError):
            expand_in_basis(P1, dilated_basis(basis, i))

    def test_summand_pairs_reject_wrong_reassembly(self, monkeypatch):
        real = minkowski.reconstruct_from_fan
        monkeypatch.setattr(minkowski, "reconstruct_from_fan",
                            lambda fan, w: real(fan, w).scale(2))
        with pytest.raises(CertificateError):
            maximal_summand_pairs(P_UF)

    def test_summand_pairs_reject_wrong_embedding(self, monkeypatch):
        square = LatticePolytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
        assert len(maximal_summand_pairs(square)) == 2
        real = minkowski._embed_from_span
        monkeypatch.setattr(minkowski, "_embed_from_span",
                            lambda Q, B, n: real(Q, B, n).scale(2))
        with pytest.raises(CertificateError):
            maximal_summand_pairs(square)

    def test_certificate_survives_stripped_asserts(self):
        script = (
            "from tropfactor.exact import CertificateError\n"
            "from tropfactor.minkowski import FactorizationBasis, "
            "expand_in_basis, weight_cone_basis\n"
            "from tropfactor.polyhedra import LatticePolytope\n"
            f"S = LatticePolytope({OCTAGON!r})\n"
            "basis = weight_cone_basis(S.normal_fan())\n"
            "bad = FactorizationBasis(basis.fan, basis.vectors)\n"
            "bad.tables[0] = [[2 * x for x in v] for v in basis.tables[0]]\n"
            "try:\n"
            "    expand_in_basis(S, bad)\n"
            "except CertificateError:\n"
            "    print('raised')\n")
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "raised\n"

    def test_quotient_and_simplex_checks_survive_stripped_asserts(self):
        script = (
            "from tropfactor import minkowski, permutahedra\n"
            "from tropfactor.exact import CertificateError\n"
            "from tropfactor.polyhedra import LatticePolytope\n"
            "from tropfactor.tropical import TropicalPolynomial\n"
            "if __debug__:\n"
            "    raise SystemExit('asserts are on')\n"
            "real = minkowski.divide\n"
            "one = TropicalPolynomial({(0, 0): 1})\n"
            "minkowski.divide = lambda f, g: real(f, g) * one\n"
            "P = LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1)])\n"
            "Q = LatticePolytope([(0, 0), (1, 0)])\n"
            "def expect_failure(call):\n"
            "    try:\n"
            "        call()\n"
            "    except CertificateError:\n"
            "        print('raised')\n"
            "expect_failure(lambda: minkowski.factor(P, Q))\n"
            "permutahedra.same_lattice = lambda a, b: False\n"
            "expect_failure(lambda: permutahedra.simplex_family_basis(2))\n"
            "# a weight cone with a line\n"
            "minkowski.dd_cone = lambda cons, n: ([], [(1,) * n], [])\n"
            "expect_failure(lambda: minkowski.weight_cone_basis("
            "P.normal_fan()))\n"
            "# a lattice basis of the segment's span that misses its edge\n"
            "minkowski.in_lattice = lambda B, v: None\n"
            "expect_failure(lambda: minkowski.maximal_summand_pairs(Q))\n")
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "raised\n" * 4


# ---------------------------------------------------------------------------
# the chamber certificate against the hull route


def chamber_verdict(P, y, basis):
    """Does the chamber certificate accept y as an expansion of P?"""
    try:
        certify_signed_sum(chamber_vertices(P, basis.fan, NotRefined), y,
                           basis)
        return True
    except CertificateError:
        return False


# summands refined by the octagon fan, and by the hexagon fan
OCTAGON_PIECES = (B1, B2, B3, B4, B6, B7, T1, T2)
HEXAGON_PIECES = (B1, B3, B4, B6, T1)


def random_refined_sum(rng, pieces):
    """A translated sum of up to three random multiples of the pieces."""
    P = LatticePolytope([(rng.randint(-3, 3), rng.randint(-3, 3))])
    for _ in range(rng.randint(1, 3)):
        P = P + rng.choice(pieces).scale(rng.randint(1, 2))
    return P


class TestChamberCertificate:
    @pytest.mark.parametrize("which", ["octagon", "hexagon"])
    def test_verdicts_match_the_hull_reference(self, which):
        if which == "octagon":
            basis, pieces = octagon_basis()[1], OCTAGON_PIECES
        else:
            basis, pieces = hexagon_basis(), HEXAGON_PIECES
        rng = random.Random(which)
        verdicts = set()
        for _ in range(12):
            P = random_refined_sum(rng, pieces)
            y = expand_in_basis(P, basis)
            i = rng.randrange(basis.r)
            perturbed = tuple(c + (i == j) * rng.choice((-1, 1))
                              for j, c in enumerate(y))
            noise = tuple(rng.randint(-2, 2) for _ in range(basis.r))
            for z in (y, perturbed, noise):
                got = chamber_verdict(P, z, basis)
                assert got == signed_sum_holds(P, z, basis.polytopes)
                verdicts.add(got)
            assert chamber_verdict(P, y, basis)
            assert not chamber_verdict(P, perturbed, basis)
        assert verdicts == {True, False}

    def test_translated_basis_polytope_passes(self):
        _, basis = octagon_basis()
        moved = basis_of_polytopes(basis, [
            B.translate((i, -2 * i)) for i, B in enumerate(basis.polytopes)])
        for P in (S, P1, P2, B7):
            assert expand_in_basis(P, moved) == expand_in_basis(P, basis)

    def test_table_that_is_no_support_function_fails_the_certificate(self):
        _, basis = octagon_basis()
        y = expand_in_basis(P1, basis)
        i = next(i for i, c in enumerate(y) if c)
        table = basis.tables[i]
        bad = FactorizationBasis(basis.fan, basis.vectors)
        # one chamber's vertex moved: the table steps by no weight vector
        bad.tables[i] = ((table[0][0] + 1,) + table[0][1:],) \
            + tuple(table[1:])
        with pytest.raises(CertificateError):
            expand_in_basis(P1, bad)

    def test_table_follows_translation_and_scaling(self):
        fan, basis = octagon_basis()
        B = basis.polytopes[2]
        for X in (B.translate((5, -1)), B.scale(3), B.scale(Fraction(1, 2))):
            assert chamber_vertices(X, fan, NotRefined) == \
                chamber_vertices(LatticePolytope(X.vertices), fan, NotRefined)


# ---------------------------------------------------------------------------
# the table expansion against the lattice route: every wall measured,
# one lattice solve against the whole basis matrix


def expansion_or_error(route, Q, basis):
    """route's expansion of Q, or the class and witness of its error."""
    try:
        return route(Q, basis)
    except (NotRefined, ValueError) as e:
        return type(e), getattr(e, "witness", None)


class TestExpansionAgainstTheLatticeRoute:
    def check(self, polytopes, basis):
        """The outcomes seen: "y" for an expansion, else the error class."""
        outcomes = []
        for Q in polytopes:
            got = expansion_or_error(expand_in_basis, Q, basis)
            assert got == expansion_or_error(expand_by_lattice_solve, Q,
                                             basis)
            if got[0] in (NotRefined, ValueError):
                outcomes.append(got[0])
            else:
                assert all(type(c) is int for c in got)
                outcomes.append("y")
        return outcomes

    @pytest.mark.parametrize("which", ["octagon", "hexagon"])
    def test_octagon_and_hexagon(self, which):
        if which == "octagon":
            basis, pieces = octagon_basis()[1], OCTAGON_PIECES
        else:
            basis, pieces = hexagon_basis(), HEXAGON_PIECES
        rng = random.Random(which + "lattice")
        polytopes = [random_refined_sum(rng, pieces) for _ in range(15)]
        polytopes += [B.scale(Fraction(1, 2)) for B in pieces[:2]]
        polytopes += [random_polytope(rng, 2, 4, box=3) for _ in range(5)]
        assert set(self.check(polytopes, basis)) == {"y", NotRefined,
                                                     ValueError}

    @pytest.mark.parametrize("n", [2, 3])
    def test_random_normal_fans(self, n):
        rng = random.Random(f"normal fan {n}")
        outcomes = []
        for _ in range(5 if n == 2 else 2):
            while True:
                P = random_polytope(rng, n, rng.randint(3, 5), box=2)
                Q = random_polytope(rng, n, rng.randint(2, 3), box=1)
                if (P + Q).dim() == n:
                    break
            basis = weight_cone_basis((P + Q).normal_fan())
            polytopes = [P, Q, P + Q, P.scale(2) + Q, Q.scale(Fraction(1, 2)),
                         random_polytope(rng, n, 4, box=2)]
            outcomes += self.check(polytopes, basis)
        assert set(outcomes) == {"y", NotRefined, ValueError}


# ---------------------------------------------------------------------------
# walked basis tables against the chamber tables of the basis polytopes


CUBE = LatticePolytope([(x, y, z) for x in (0, 1) for y in (0, 1)
                        for z in (0, 1)])


class TestBasisTablesAgainstPolytopes:
    """Each walked basis table is the chamber table of its polytope."""

    def test_octagon_hexagon_and_cube(self):
        for basis in (octagon_basis()[1], hexagon_basis(),
                      weight_cone_basis(CUBE.normal_fan())):
            check_basis_tables(basis)

    @pytest.mark.parametrize("n", [2, 3])
    def test_random_normal_fans(self, n):
        rng = random.Random(f"basis tables {n}")
        for _ in range(3 if n == 2 else 2):
            while True:
                P = random_polytope(rng, n, rng.randint(4, 6), box=2)
                if P.dim() == n:
                    break
            check_basis_tables(weight_cone_basis(P.normal_fan()))

    def test_fan_with_lineality(self):
        basis = weight_cone_basis(lifted_fan(octagon_basis()[0]))
        assert all(C.lineality for C in basis.fan.chambers)
        check_basis_tables(basis)

    @pytest.mark.parametrize("n", [2, 3])
    def test_simplex_family(self, n):
        check_basis_tables(simplex_family_basis(n))

    def test_reconstruction_walks_the_tables(self):
        fan, basis = octagon_basis()
        for w, B in zip(basis.vectors, basis.polytopes):
            assert reconstruct_from_fan(fan, w.by_key) == B
        signed = {k: a - b for k, a, b in zip(basis.order,
                                              basis.vectors[1].values,
                                              basis.vectors[0].values)}
        assert any(v < 0 for v in signed.values())
        assert reconstruct_from_fan(fan, signed) == LatticePolytope(
            [vsub(a, b) for a, b in zip(basis.tables[1], basis.tables[0])]
        ).normalize_translation()


# ---------------------------------------------------------------------------
# wall lengths from the chamber table against one face query per wall


def lifted_fan(fan):
    """The fan times a line: each chamber C of R^2 becomes C x R in R^3."""
    return Fan([Polyhedron(3, [(a + (0,), b) for a, b in
                               C.minimal_hrep()[0]])
                for C in fan.chambers])


class TestWallLengths:
    @pytest.mark.parametrize("n", [2, 3])
    def test_random_polytopes_on_the_fan_of_their_sum(self, n):
        rng = random.Random(n)
        for _ in range(8 if n == 2 else 4):
            P = random_polytope(rng, n, rng.randint(3, 6), box=3)
            Q = random_polytope(rng, n, rng.randint(2, 4), box=2)
            total = P + Q
            if total.dim() < n:
                continue
            fan = total.normal_fan()
            for X in (P, Q, total):
                assert wall_lengths(X, fan, rational_content, NotRefined) == \
                    wall_lengths_by_face_queries(X, fan, rational_content)

    def test_fan_with_lineality(self):
        rng = random.Random(5)
        fan, _ = octagon_basis()
        fan3 = lifted_fan(fan)
        assert all(C.lineality for C in fan3.chambers)
        for _ in range(6):
            P = random_refined_sum(rng, OCTAGON_PIECES)
            z = rng.randint(-2, 2)
            lifted = LatticePolytope([v + (z,) for v in P.vertices])
            got = wall_lengths(lifted, fan3, rational_content, NotRefined)
            assert got == wall_lengths_by_face_queries(lifted, fan3,
                                                       rational_content)
            assert sorted(got.values()) == sorted(
                wall_lengths(P, fan, rational_content, NotRefined).values())

    def test_wall_on_one_chamber_is_a_clean_error(self):
        fan = LatticePolytope([(0, 0), (1, 0), (0, 1)]).normal_fan()
        half = Fan(fan.chambers[:2])
        with pytest.raises(IncompleteFan):
            wall_lengths(LatticePolytope([(0, 0)]), half, rational_content,
                         NotRefined)

    def test_chamber_of_lower_dimension_is_a_clean_error(self):
        line = Polyhedron(2, [], [((1, 0), Fraction(0))])
        segment = LatticePolytope([(0, 0), (1, 0)])
        with pytest.raises(IncompleteFan):
            chamber_vertices(segment, Fan([line]), NotRefined)
