import random
from fractions import Fraction

import pytest

from property_sweeps import random_polynomial
from reference_routes import covector_lift, direction_lattice
from tropfactor.coxeter import build_root_system, coxeter_fan
from tropfactor.exact import dot
from tropfactor.formats import weighted_fan_from_json
from tropfactor.polyhedra import Fan, LatticePolytope, Polyhedron
from tropfactor.tropical import (
    TropicalComplex,
    TropicalPolynomial,
    WeightDomainMismatch,
    annihilator_lattice,
    balance_matrix,
    balance_violation,
    covector,
    is_balanced,
)

# f = g (.) h from the worked division example: g is the square with lifted
# coefficients 0, -7, -7, -10 and h the diagonal segment 0, -10.
G_TERMS = {(0, 0): 0, (0, 1): -7, (1, 0): -7, (1, 1): -10}
H_TERMS = {(0, 0): 0, (1, 1): -10}
F_TERMS = {(0, 0): 0, (0, 1): -7, (1, 0): -7, (1, 1): -10,
           (1, 2): -17, (2, 1): -17, (2, 2): -20}

# the tent: a square support lifted flat, with four interior terms raised to 1
TENT_TERMS = {(0, 2): 0, (2, 0): 0, (-2, 0): 0, (0, -2): 0,
              (0, 1): 1, (1, 0): 1, (0, -1): 1, (-1, 0): 1}


class TestPolynomialBasics:
    def test_evaluate(self):
        f = TropicalPolynomial({(0,): 0, (1,): 0, (2,): -1})
        assert f((0,)) == 0
        assert f((2,)) == 3
        assert f((-5,)) == 0

    def test_argmax(self):
        f = TropicalPolynomial({(0,): 0, (1,): 0, (2,): -1})
        assert f.argmax((0,)) == [(0,), (1,)]
        assert f.argmax((-1,)) == [(0,)]
        assert f.argmax((1,)) == [(1,), (2,)]

    def test_duplicate_terms_take_max(self):
        f = TropicalPolynomial({(Fraction(1), Fraction(0)): 3})
        g = TropicalPolynomial({(1, 0): 2})
        assert f.terms == {(1, 0): 3}
        assert g.terms == {(1, 0): 2}

    def test_product_is_function_sum(self):
        g = TropicalPolynomial(G_TERMS)
        h = TropicalPolynomial(H_TERMS)
        f = g * h
        assert f.terms == F_TERMS
        rng = random.Random(5)
        for _ in range(50):
            x = (Fraction(rng.randint(-40, 40), rng.randint(1, 7)),
                 Fraction(rng.randint(-40, 40), rng.randint(1, 7)))
            assert f(x) == g(x) + h(x)

    def test_from_polytope(self):
        P = LatticePolytope([(0, 0), (1, 0), (0, 1)])
        f = TropicalPolynomial.from_polytope(P)
        assert f.terms == {(0, 0): 0, (0, 1): 0, (1, 0): 0}
        assert f((2, 1)) == 2

    def test_shift(self):
        f = TropicalPolynomial({(0,): 0, (1,): -1}).shift(Fraction(3, 2))
        assert f.terms == {(0,): Fraction(3, 2), (1,): Fraction(1, 2)}


class TestRegularSubdivision:
    def test_one_dim_two_cells(self):
        f = TropicalPolynomial({(0,): 0, (1,): 0, (2,): -1})
        assert f.subdivision().cells == [((0,), (1,)), ((1,), (2,))]

    def test_low_term_is_dropped_from_upper_hull(self):
        f = TropicalPolynomial({(0,): 0, (1,): -1, (2,): 0})
        assert f.subdivision().cells == [((0,), (2,))]
        assert list(f.essential_terms()) == [(0,), (2,)]

    def test_affine_lift_is_trivial(self):
        f = TropicalPolynomial({(0, 0): 0, (1, 0): 1, (0, 1): 2, (1, 1): 3})
        assert f.subdivision().cells == [((0, 0), (0, 1), (1, 0), (1, 1))]

    def test_absorbed_term_stays_in_cell(self):
        f = TropicalPolynomial(F_TERMS)
        cells = f.subdivision().cells
        assert len(cells) == 2
        assert all((1, 1) in c for c in cells)

    def test_division_example_essential_terms(self):
        f = TropicalPolynomial(F_TERMS)
        assert list(f.essential_terms()) == [
            (0, 0), (0, 1), (1, 0), (1, 2), (2, 1), (2, 2)]

    def test_tent_subdivision(self):
        f = TropicalPolynomial(TENT_TERMS)
        sub = f.subdivision()
        assert len(sub.cells) == 5
        assert len(sub.edges()) == 12

    def test_same_function_ignores_inessential_terms(self):
        f = TropicalPolynomial(F_TERMS)
        thinned = {a: v for a, v in F_TERMS.items() if a != (1, 1)}
        assert f.same_function(TropicalPolynomial(thinned))
        raised = dict(F_TERMS)
        raised[(1, 1)] = -9
        assert not f.same_function(TropicalPolynomial(raised))


class TestDualComplex:
    def test_division_example_complex(self):
        T = TropicalComplex(TropicalPolynomial(F_TERMS))
        assert len(T.chambers) == 6
        assert len(T.walls) == 7
        assert len(T.ridges) == 2
        # the two trivalent-or-higher points of the variety
        f = T.f
        assert f.argmax((3, 7)) == [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)]
        assert f.argmax((7, 3)) == [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)]
        diag = [k for k, e in T.wall_duals.items()
                if set(e) == {(0, 0), (2, 2)}]
        assert len(diag) == 1
        assert T.wall_weights[diag[0]] == 2

    def test_division_example_is_balanced(self):
        T = TropicalComplex(TropicalPolynomial(F_TERMS))
        assert is_balanced(T)

    def test_tent_complex(self):
        T = TropicalComplex(TropicalPolynomial(TENT_TERMS))
        assert len(T.walls) == 12
        weights = sorted(T.wall_weights.values())
        assert weights == [1] * 8 + [2] * 4
        assert is_balanced(T)

    def test_tripod(self):
        P = LatticePolytope([(0, 0), (1, 0), (0, 1)])
        T = TropicalComplex(TropicalPolynomial.from_polytope(P))
        assert len(T.chambers) == 3
        assert len(T.walls) == 3
        assert len(T.ridges) == 1
        assert is_balanced(T)

    def test_tripod_bad_weights_violate_at_origin(self):
        P = LatticePolytope([(0, 0), (1, 0), (0, 1)])
        T = TropicalComplex(TropicalPolynomial.from_polytope(P))
        weights = {}
        for k, W in T.walls.items():
            weights[k] = 2 if W.rays[0] == (1, 1) else 1
        v = balance_violation(T, weights)
        assert v is not None
        rk, excess = v
        assert T.ridges[rk].vertices == [(0, 0)]
        assert excess == (1, 1)

    def test_weight_domain_mismatch(self):
        P = LatticePolytope([(0, 0), (1, 0), (0, 1)])
        T = TropicalComplex(TropicalPolynomial.from_polytope(P))
        with pytest.raises(WeightDomainMismatch):
            balance_violation(T, {})

    def test_segment_support(self):
        f = TropicalPolynomial({(0, 0): 0, (2, 2): -20})
        T = TropicalComplex(f)
        assert len(T.chambers) == 2
        assert len(T.walls) == 1
        (k,) = T.walls
        assert T.wall_weights[k] == 2
        assert T.ridges == {}
        assert is_balanced(T)

    def test_single_term(self):
        f = TropicalPolynomial({(3, 1): 5})
        T = TropicalComplex(f)
        assert len(T.chambers) == 1
        assert T.walls == {}
        assert is_balanced(T)


class TestCovector:
    def test_tripod_covectors(self):
        P = LatticePolytope([(0, 0), (1, 0), (0, 1)])
        T = TropicalComplex(TropicalPolynomial.from_polytope(P))
        (rk,) = T.ridges
        tau = T.ridges[rk]
        A = annihilator_lattice(tau)
        got = sorted(covector(tau, T.walls[wk], A)
                     for wk in T.ridge_walls[rk])
        assert got == [(-1, 0), (0, -1), (1, 1)]

    def test_covector_ignores_lattice_length(self):
        # wall in direction (2,2) still has primitive covector (1,1)
        f = TropicalPolynomial({(0, 0): 0, (1, 0): 0, (0, 1): 0,
                                (1, 1): Fraction(-1)})
        T = TropicalComplex(f)
        for rk, tau in T.ridges.items():
            for wk in T.ridge_walls[rk]:
                c = covector(tau, T.walls[wk], annihilator_lattice(tau))
                assert max(abs(x) for x in c) >= 1

    def test_direction_lattice_of_diagonal_wall(self):
        f = TropicalPolynomial(F_TERMS)
        T = TropicalComplex(f)
        diag = next(k for k, e in T.wall_duals.items()
                    if set(e) == {(0, 0), (2, 2)})
        L = direction_lattice(T.walls[diag])
        assert [tuple(map(abs, v)) for v in L] == [(1, 1)]


def _json_cone(*normals):
    return [{"normal": list(a), "rhs": 0, "eq": False} for a in normals]


def _covector_cases():
    """Fans and complexes whose ridges exercise the quotient coordinates."""
    rng = random.Random(1011)
    cases = []
    for n in (2, 2, 3, 3, 3):
        while True:
            pts = {tuple(rng.randint(-2, 2) for _ in range(n))
                   for _ in range(rng.randint(n + 1, 7))}
            P = LatticePolytope(sorted(pts))
            if P.dim() == n:
                break
        cases.append(P.normal_fan())

    def with_ridges(draw):
        while True:
            T = draw().dual_complex()
            if T.ridges:
                return T

    for n in (2, 3, 3):
        cases.append(with_ridges(
            lambda: random_polynomial(rng, n, max_terms=7)))
    for _ in range(3):
        # a Newton polytope in the plane a + b = c: chambers with lineality
        cases.append(with_ridges(lambda: TropicalPolynomial(
            {(a, b, a + b): v for (a, b), v in
             random_polynomial(rng, 2, max_terms=7).terms.items()})))
    quadrants_line = {"dim": 3, "cones": [
        _json_cone((sx, 0, 0), (0, sy, 0)) for sx in (1, -1) for sy in (1, -1)]}
    cases.append(weighted_fan_from_json(quadrants_line)[0])
    # the same quadrants in the plane z = 0, cut out by an equality row:
    # the walls are rays, so no ridge of dimension n - 2 and no rows.
    # The JSON fan format rejects such cones, so the fan is built directly.
    cases.append(Fan([Polyhedron(3, [((sx, 0, 0), 0), ((0, sy, 0), 0)],
                                 [((0, 0, 1), 0)])
                      for sx in (1, -1) for sy in (1, -1)]))
    for tag in ("A1", "A2", "A3", "B2"):
        cases.append(coxeter_fan(build_root_system(tag)).fan)
    return cases


class TestCovectorAgainstLift:
    """covector(tau, sigma, A) is A times the lattice lift of u_{sigma/tau}."""

    @pytest.mark.parametrize("case", _covector_cases(),
                             ids=lambda c: type(c).__name__)
    def test_quotient_coordinates_match_the_lift(self, case):
        keys = sorted(case.walls)
        col = {k: i for i, k in enumerate(keys)}
        rows = []
        for rk in sorted(case.ridges):
            tau = case.ridges[rk]
            A = annihilator_lattice(tau)
            lifted = {}
            for wk in case.ridge_walls[rk]:
                W = case.walls[wk]
                want = tuple(dot(f, covector_lift(tau, W)) for f in A)
                assert covector(tau, W, A) == want
                lifted[wk] = want
            for i in range(len(A)):
                row = [0] * len(keys)
                for wk, c in lifted.items():
                    row[col[wk]] = c[i]
                rows.append(tuple(row))
        assert balance_matrix(case, keys) == rows

    def test_lower_dimensional_fan_has_no_ridges(self):
        (case,) = [c for c in _covector_cases() if isinstance(c, Fan)
                   and any(C.equalities for C in c.chambers)]
        assert len(case.walls) == 4 and case.ridges == {}

    def test_cases_reach_quotients_off_the_coordinate_axes(self):
        # in space a ridge is a line, and A is a 2 x 3 matrix that is not
        # a coordinate projection for some ridges
        cases = [c for c in _covector_cases() if c.n == 3 and c.ridges]
        assert len(cases) >= 6
        assert any(sorted(map(abs, f)) != [0, 0, 1]
                   for c in cases for rk in c.ridges
                   for f in annihilator_lattice(c.ridges[rk]))


class TestRandomized:
    def test_essential_terms_preserve_function(self):
        rng = random.Random(99)
        for _ in range(30):
            n = rng.choice([1, 2])
            terms = {}
            for _ in range(rng.randint(2, 7)):
                e = tuple(rng.randint(-2, 2) for _ in range(n))
                terms[e] = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            f = TropicalPolynomial(terms)
            g = TropicalPolynomial(f.essential_terms())
            for _ in range(20):
                x = tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 5))
                          for _ in range(n))
                assert f(x) == g(x)

    def test_products_are_balanced(self):
        rng = random.Random(4)
        for _ in range(10):
            def rand_poly():
                terms = {}
                for _ in range(rng.randint(2, 4)):
                    e = (rng.randint(0, 2), rng.randint(0, 2))
                    terms[e] = Fraction(rng.randint(-4, 4))
                return TropicalPolynomial(terms)
            f = rand_poly() * rand_poly()
            assert is_balanced(TropicalComplex(f))


def cellwise_faces(f):
    """Vertices, edges and 2-faces of the subdivision, one hull per cell.

    The reference route for the incidence-derived faces: each cell's
    vertex set, edges and 2-faces come from its own LatticePolytope.
    """
    verts, edges, faces = set(), set(), set()
    for cell in f.subdivision().cells:
        P = LatticePolytope(list(cell))
        verts.update(P.vertices)
        if P.dim() == 1:
            edges.add(P.vertices)
        elif P.dim() >= 2:
            edges.update(tuple(sorted(e)) for e in P.edges())
            faces.update(tuple(sorted(fv)) for fv in P.two_faces())

    def ints(v):
        return tuple(int(x) for x in v)
    return (sorted(map(ints, verts)),
            sorted(tuple(map(ints, e)) for e in edges),
            sorted(tuple(map(ints, fv)) for fv in faces))


class TestSubdivisionFromIncidences:
    SPECIAL = {
        # all coefficients 0: the lift is affine, one cell with an
        # absorbed interior point and a boundary point
        "affine lift": {(0, 0): 0, (2, 0): 0, (0, 2): 0, (2, 2): 0,
                        (1, 1): 0, (1, 0): 0},
        "tilted affine lift": {(0, 0, 0): 1, (1, 0, 0): 3, (0, 1, 0): -1,
                               (0, 0, 1): 2, (1, 1, 1): 3},
        "single term": {(3, 1): 5},
        "segment support": {(0, 0): 0, (1, 1): 2, (2, 2): 1, (3, 3): -4},
        "planar support in 3-space": {(0, 0, 0): 0, (1, 0, 1): 1,
                                      (0, 1, 1): 1, (1, 1, 2): -1,
                                      (2, 1, 3): 0},
        "tent": TENT_TERMS,
        "division example": F_TERMS,
    }

    @pytest.mark.parametrize("name", sorted(SPECIAL))
    def test_special_supports(self, name):
        self.check(TropicalPolynomial(self.SPECIAL[name]))

    def test_random_polynomials(self):
        rng = random.Random(2024)
        for _ in range(60):
            n = rng.choice([1, 2, 2, 3])
            self.check(random_polynomial(rng, n, max_terms=9))

    def test_random_products(self):
        rng = random.Random(11)
        for _ in range(12):
            n = rng.choice([2, 3])
            g = random_polynomial(rng, n, max_terms=4)
            h = random_polynomial(rng, n, max_terms=4)
            self.check(g * h)

    @staticmethod
    def check(f):
        sub = f.subdivision()
        verts, edges, faces = cellwise_faces(f)
        assert sub.vertices() == verts
        assert list(f.essential_terms()) == verts
        assert all(f.essential_terms()[a] == f.terms[a] for a in verts)
        assert sub.edges() == edges
        assert sub.two_faces() == faces
