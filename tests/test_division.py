import itertools
import random
import subprocess
import sys
import textwrap
from collections import Counter
from fractions import Fraction

import pytest

from property_sweeps import random_polynomial
from reference_routes import (
    cells_by_face,
    containment_by_fractions,
    extend_weights_by_wall_points,
)
from tropfactor import polyhedra
from tropfactor.division import (
    NegativeWeight,
    NotBalanced,
    NotContained,
    divide,
    extend_weights,
    reconstruct_from_fan,
    variety_containment_witness,
    variety_contained,
)
from tropfactor.exact import CertificateError
from tropfactor.polyhedra import LatticePolytope, Polyhedron
from tropfactor.tropical import TropicalComplex, TropicalPolynomial

G_TERMS = {(0, 0): 0, (0, 1): -7, (1, 0): -7, (1, 1): -10}
F_TERMS = {(0, 0): 0, (0, 1): -7, (1, 0): -7, (1, 1): -10,
           (1, 2): -17, (2, 1): -17, (2, 2): -20}
TENT_F = {(0, 2): 0, (2, 0): 0, (-2, 0): 0, (0, -2): 0,
          (0, 1): 1, (1, 0): 1, (0, -1): 1, (-1, 0): 1}
TENT_G = {(0, 2): 0, (2, 0): 0, (-2, 0): 0, (0, -2): 0}

OCTAGON = [(1, 0), (0, 1), (2, 0), (0, 2), (3, 1), (3, 2), (2, 3), (1, 3)]


def ray_weights(fan, by_direction):
    """Spell a weight vector keyed by 2-d wall ray directions."""
    out = {}
    for k, W in fan.walls.items():
        out[k] = by_direction[W.rays[0]]
    assert len(out) == len(by_direction)
    return out


def containment_by_intersection(g, f):
    """Reference route for variety_containment_witness.

    Each wall of T(g) is cut along the chambers of T(f); a piece either
    lies on the boundary of its chamber (hence inside V(f)) or its
    relative interior is in the open chamber, which one interior probe
    detects exactly.
    """
    Tg = g.dual_complex()
    Tf = f.dual_complex()
    for wk in sorted(Tg.walls):
        sigma = Tg.walls[wk]
        for D in Tf.chambers:
            piece = sigma.intersect(D)
            if not piece.vertices:
                continue
            p = piece.relative_interior_point()
            if len(f.argmax(p)) == 1:
                return p
    return None


def collinear_polynomial(rng, direction, k):
    """Terms on one line: every chamber of its complex has lineality."""
    return TropicalPolynomial(
        {tuple(t * x for x in direction): Fraction(rng.randint(-16, 16), 2)
         for t in rng.sample(range(-3, 4), k)})


class TestVarietyContainment:
    def test_worked_example_contained(self):
        g = TropicalPolynomial(G_TERMS)
        f = TropicalPolynomial(F_TERMS)
        assert variety_contained(g, f)

    def test_not_contained_gives_point_of_difference(self):
        g = TropicalPolynomial({(0, 0): 0, (1, 0): 0})   # variety x1 = 0
        f = TropicalPolynomial({(0, 0): 0, (0, 1): 0})   # variety x2 = 0
        w = variety_containment_witness(g, f)
        assert w is not None
        assert len(g.argmax(w)) >= 2
        assert len(f.argmax(w)) == 1

    def test_tent_variety_is_contained(self):
        # containment holds for the tent; division still fails on weights
        g = TropicalPolynomial(TENT_G)
        f = TropicalPolynomial(TENT_F)
        assert variety_contained(g, f)

    def test_wall_split_across_chambers(self):
        # V(g) is one line, cut into three pieces by the walls of T(f)
        g = TropicalPolynomial({(0, 0): 0, (1, 1): 0})
        f = TropicalPolynomial(F_TERMS)
        w = variety_containment_witness(g, f)
        assert w is not None  # the diagonal of T(f) is only a segment + rays

    def test_single_term_divisor(self):
        g = TropicalPolynomial({(1, 1): -3})
        f = TropicalPolynomial(F_TERMS)
        assert variety_contained(g, f)  # empty variety

    def test_prebuilt_complex_gives_the_same_witness(self):
        g = TropicalPolynomial({(0, 0): 0, (1, 1): 0})
        f = TropicalPolynomial(F_TERMS)
        assert (variety_containment_witness(g, f, f.dual_complex())
                == variety_containment_witness(g, f))


class TestContainmentAgainstIntersections:
    """The per-chamber test agrees with cutting walls of T(g) by T(f)."""

    @staticmethod
    def pairs(rng, n, count):
        d = (1, -2) if n == 2 else (1, 2, -1)
        e = (1, 1) if n == 2 else (0, 1, 1)
        out = []
        for _ in range(count):
            g = random_polynomial(rng, n, max_terms=5)
            h = random_polynomial(rng, n, max_terms=5)
            out += [(g, h), (g, g * h), (h, g * h), (g * g, g * h)]
            monomial = tuple(rng.randint(-2, 2) for _ in range(n))
            out.append((TropicalPolynomial({monomial: rng.randint(-8, 8)}), h))
            # chambers with lineality: collinear supports, both ways
            L = collinear_polynomial(rng, d, rng.randint(2, 5))
            M = collinear_polynomial(rng, d, rng.randint(2, 5))
            out += [(L, M), (L, L * M), (L, h), (g, L),
                    (collinear_polynomial(rng, e, 3), L * M)]
        return out

    @pytest.mark.parametrize("n, count, seed", [(2, 12, 5), (3, 3, 6)])
    def test_verdicts_and_witnesses(self, n, count, seed):
        verdicts = Counter()
        for g, f in self.pairs(random.Random(seed), n, count):
            w = variety_containment_witness(g, f)
            ref = containment_by_intersection(g, f)
            assert (w is None) == (ref is None), (g.terms, f.terms)
            verdicts[w is None] += 1
            if w is not None:
                assert len(g.argmax(w)) >= 2
                assert len(f.argmax(w)) == 1
        assert verdicts[True] and verdicts[False]


class TestIntegerPassAgainstFractionRoutes:
    """Cells and containment read off facet masks agree with the routes
    through chamber faces and Fractions, on divide-shaped pairs."""

    @staticmethod
    def poly(rng, n, k, planar=False):
        grid = list(itertools.product(range(-2, 3), repeat=2 if planar else n))
        terms = {e: Fraction(rng.randint(-16, 16), 2)
                 for e in rng.sample(grid, k)}
        if planar:
            # supports on the plane x3 = x1 + x2: chambers with lineality
            terms = {(a, b, a + b): v for (a, b), v in terms.items()}
        return TropicalPolynomial(terms)

    @classmethod
    def pairs(cls, rng, n, count, planar=False):
        """(f, divisor) as in divide: g (.) h by g, by g (.) g, h by g."""
        out = []
        for _ in range(count):
            g = cls.poly(rng, n, rng.randint(2, 5), planar)
            h = cls.poly(rng, n, rng.randint(2, 5), planar)
            out += [(g * h, g), (g * h, g * g), (h, g)]
        return out

    @pytest.mark.parametrize("n, count, planar, seed",
                             [(2, 12, False, 13), (3, 4, False, 14),
                              (3, 5, True, 15)])
    def test_cells_winners_and_witnesses(self, n, count, planar, seed):
        verdicts = Counter()
        for f, g in self.pairs(random.Random(seed), n, count, planar):
            T = f.dual_complex()
            walls, ridges = cells_by_face(T)
            assert walls == {k: (T.wall_duals[k], T.wall_weights[k])
                             for k in T.walls}
            assert all(W.key() == k for k, W in T.walls.items())
            assert set(ridges) == set(T.ridges)
            assert all(R.key() == k for k, R in T.ridges.items())
            for C in T.chambers:
                assert C.key() == Polyhedron(C.n, C.inequalities).key()
            got, want = [], []
            w = variety_containment_witness(g, f, T, got)
            assert w == containment_by_fractions(g, f, T, want)
            assert got == want
            verdicts[w is None] += 1
        assert verdicts[True] and verdicts[False]


class TestExtendWeights:
    def test_tent_extension(self):
        g = TropicalPolynomial(TENT_G)
        f = TropicalPolynomial(TENT_F)
        T = f.dual_complex()
        wup = extend_weights(f, g, T)
        got = sorted((tuple(sorted(T.wall_duals[k])), wup[k]) for k in wup)
        by_edge = dict(got)
        # outer diagonal walls and inner half-diagonals both lie on V(g)
        assert by_edge[((0, 2), (2, 0))] == 2
        assert by_edge[((0, 1), (1, 0))] == 2
        # connector walls are off the variety of g
        assert by_edge[((0, 1), (0, 2))] == 0
        assert sorted(wup.values()) == [0] * 4 + [2] * 8

    def test_self_extension_recovers_weights(self):
        f = TropicalPolynomial(F_TERMS)
        T = f.dual_complex()
        wup = extend_weights(f, f, T)
        assert wup == T.wall_weights

    def test_chamber_winners_agree_with_wall_maximizers(self):
        # f = g (.) h, and g (.) g whose weights may exceed those of f:
        # both divisors have their variety inside V(f)
        rng = random.Random(1150)
        checked = 0
        for i in range(60):
            n = (1, 2, 3)[i % 3]
            g = random_polynomial(rng, n, max_terms=5)
            h = random_polynomial(rng, n, max_terms=5)
            f = g * h
            T = f.dual_complex()
            for d in (g, h, g * g):
                if not variety_contained(d, f):
                    continue
                got = extend_weights(f, d, T)
                want = extend_weights_by_wall_points(d, T)
                assert got == want, (f.terms, d.terms)
                assert [type(got[k]) for k in sorted(got)] == \
                    [type(want[k]) for k in sorted(want)]
                checked += 1
        assert checked >= 120


class TestDivide:
    def test_worked_example(self):
        g = TropicalPolynomial(G_TERMS)
        f = TropicalPolynomial(F_TERMS)
        h = divide(f, g)
        assert set(h.terms) == {(0, 0), (1, 1)}
        assert h.terms[(0, 0)] == 0
        assert h.terms[(1, 1)] == -10
        rng = random.Random(123)
        for _ in range(100):
            x = (Fraction(rng.randint(-60, 60), rng.randint(1, 9)),
                 Fraction(rng.randint(-60, 60), rng.randint(1, 9)))
            assert f(x) == g(x) + h(x)

    def test_tent_fails_with_deficit(self):
        g = TropicalPolynomial(TENT_G)
        f = TropicalPolynomial(TENT_F)
        with pytest.raises(NegativeWeight) as ei:
            divide(f, g)
        err = ei.value
        assert err.deficit == -1
        assert err.w_f == 1 and err.w_up == 2
        # the witness wall is dual to an edge of the inner square
        e = set(map(tuple, err.dual_edge))
        assert e in [{(0, 1), (1, 0)}, {(0, 1), (-1, 0)},
                     {(0, -1), (1, 0)}, {(0, -1), (-1, 0)}]

    def test_not_contained_raises(self):
        g = TropicalPolynomial({(0, 0): 0, (1, 0): 0})
        f = TropicalPolynomial({(0, 0): 0, (0, 1): 0})
        with pytest.raises(NotContained) as ei:
            divide(f, g)
        w = ei.value.witness
        assert len(g.argmax(w)) >= 2

    def test_divide_by_itself(self):
        f = TropicalPolynomial(F_TERMS)
        h = divide(f, f)
        assert h.terms == {(0, 0): 0}

    def test_divide_by_constant(self):
        f = TropicalPolynomial(F_TERMS)
        g = TropicalPolynomial({(0, 0): Fraction(5, 2)})
        h = divide(f, g)
        assert h.same_function(f.shift(Fraction(-5, 2)))

    def test_divide_by_monomial(self):
        f = TropicalPolynomial(F_TERMS)
        g = TropicalPolynomial({(1, 1): -3})
        h = divide(f, g)
        assert (g * h).same_function(f)
        assert (-1, -1) in h.terms

    def test_random_products_divide_back(self):
        rng = random.Random(77)
        for _ in range(25):
            n = rng.choice([1, 2])

            def rand_poly():
                terms = {}
                for _ in range(rng.randint(1, 4)):
                    e = tuple(rng.randint(0, 2) for _ in range(n))
                    terms[e] = Fraction(rng.randint(-5, 5), rng.randint(1, 2))
                return TropicalPolynomial(terms)

            g, h = rand_poly(), rand_poly()
            f = g * h
            q = divide(f, g)
            assert q.same_function(h)


class TestCertificates:
    def test_failed_product_identity_raises(self, monkeypatch):
        monkeypatch.setattr(TropicalPolynomial, "same_function",
                            lambda self, other: False)
        with pytest.raises(CertificateError):
            divide(TropicalPolynomial(F_TERMS), TropicalPolynomial(G_TERMS))

    def test_non_collinear_tie_on_a_wall_raises(self):
        f = TropicalPolynomial({(0, 0): 0, (1, 0): 0})       # wall x1 = 0
        g = TropicalPolynomial({(0, 0): 0, (1, 0): 0, (0, 1): 0})
        # the tripod of g ties three terms on the wall: V(g) is not in V(f)
        with pytest.raises(CertificateError):
            extend_weights(f, g)

    def test_divide_builds_one_complex_and_no_ridges(self, monkeypatch):
        calls = Counter()

        def counted(name):
            orig = getattr(TropicalComplex, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return orig(*args, **kwargs)
            monkeypatch.setattr(TropicalComplex, name, wrapper)

        counted("__init__")
        counted("_compute_ridges")
        g = TropicalPolynomial({(0, 0, 0): 0, (1, 0, 0): -1,
                                (0, 1, 1): -2, (1, 1, 0): 1})
        h = TropicalPolynomial({(0, 0, 0): 0, (0, 0, 1): 1, (1, 1, 1): -3})
        q = divide(g * h, g)
        assert q.same_function(h)
        assert calls["__init__"] == 1
        assert calls["_compute_ridges"] == 0

    def test_divide_runs_no_dd_per_wall(self, monkeypatch):
        calls = []
        original = polyhedra.dd_cone

        def counted(constraints, n):
            calls.append(n)
            return original(constraints, n)

        monkeypatch.setattr(polyhedra, "dd_cone", counted)
        g = TropicalPolynomial({(0, 0, 0): 0, (1, 0, 0): -1,
                                (0, 1, 1): -2, (1, 1, 0): 1})
        h = TropicalPolynomial({(0, 0, 0): 0, (0, 0, 1): 1, (1, 1, 1): -3})
        # supports on the plane x3 = x1 + x2: every chamber has lineality
        gp = TropicalPolynomial({(0, 0, 0): 0, (1, 0, 1): -1,
                                 (0, 1, 1): 2, (1, 1, 2): -1})
        hp = TropicalPolynomial({(0, 0, 0): 1, (2, 1, 3): 0, (1, 2, 3): -2})
        for g, h in ((g, h), (gp, hp)):
            f = g * h
            del calls[:]
            divide(f, g)
            assert len(f.dual_complex().walls) > len(f.essential_terms())
            # f's lifted hull and the essential terms of g (.) h in the
            # certificate; no chamber, wall or ridge runs its own
            assert len(calls) == 2

    def test_cells_take_no_face_query_or_elimination(self, monkeypatch):
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
        g = TropicalPolynomial({(0, 0, 0): 0, (1, 0, 0): -1,
                                (0, 1, 1): -2, (1, 1, 0): 1})
        h = TropicalPolynomial({(0, 0, 0): 0, (0, 0, 1): 1, (1, 1, 1): -3})
        T = (g * h).dual_complex()
        assert len(T.walls) > 10 and len(T.ridges) > 10
        assert not calls

    def test_not_contained_witness_is_checked(self, monkeypatch):
        import tropfactor.division as division

        g = TropicalPolynomial({(0, 0): 0, (1, 1): 0})
        f = TropicalPolynomial(F_TERMS)
        with pytest.raises(NotContained):
            divide(f, g)
        # a first tie at t = 0 leaves the witness off V(g)
        monkeypatch.setattr(division, "_first_tie", lambda *args: 0)
        with pytest.raises(CertificateError):
            divide(f, g)

    def test_checks_survive_python_O(self):
        script = textwrap.dedent("""
            import tropfactor.division as division
            from tropfactor.exact import CertificateError
            from tropfactor.tropical import TropicalPolynomial

            if __debug__:
                raise SystemExit("asserts are on")
            failures = 0
            f = TropicalPolynomial({(0, 0): 0, (1, 0): -7, (0, 1): -7})
            g = TropicalPolynomial({(0, 0): 0, (1, 1): 0})
            division._first_tie = lambda *args: 0
            try:
                division.divide(f, g)
            except CertificateError:
                failures += 1
            f = TropicalPolynomial({(0,): 0})
            g = TropicalPolynomial({(0,): 0, (1,): 0})
            # V(g) meets the one chamber of T(f); with containment and the
            # product identity taken as given, only the check that the
            # containment pass read g's winner on every chamber fails
            division.variety_containment_witness = lambda *args: None
            TropicalPolynomial.same_function = lambda self, other: True
            try:
                division.divide(f, g)
            except CertificateError:
                failures += 1
            print(failures)
            """)
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "2\n"

    def test_integer_checks_survive_python_O(self):
        script = textwrap.dedent("""
            import tropfactor.division as division
            import tropfactor.tropical as tropical
            from tropfactor.exact import CertificateError, dot
            from tropfactor.tropical import TropicalPolynomial

            if __debug__:
                raise SystemExit("asserts are on")
            failures = 0
            try:
                dot((1, 2), (3,))
            except ValueError:
                failures += 1
            g = TropicalPolynomial({(0, 0): 0, (0, 1): -7, (1, 0): -7,
                                    (1, 1): -10})
            f = g * TropicalPolynomial({(0, 0): 0, (1, 1): -10})
            # no term of g maximal on any facet: every chamber falls back
            # to the Fraction route, which finds g's winner unbeaten
            real = division._maximal_terms
            division._maximal_terms = lambda g, sub: (
                [0] * len(sub.rows), 0)
            try:
                division.variety_containment_witness(g, f)
            except CertificateError:
                failures += 1
            division._maximal_terms = real
            # a wall whose facet rows fall short of rank n
            tropical.rank = lambda rows: 1
            try:
                division.divide(TropicalPolynomial(f.terms), g)
            except CertificateError:
                failures += 1
            print(failures)
            """)
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "3\n"


class TestReconstruct:
    def test_octagon_roundtrip(self):
        S = LatticePolytope(OCTAGON)
        fan = S.normal_fan()
        P = reconstruct_from_fan(fan, fan.wall_weights)
        assert P == S.normalize_translation()

    def test_tall_triangle_from_weights(self):
        S = LatticePolytope(OCTAGON)
        fan = S.normal_fan()
        w = ray_weights(fan, {(1, 1): 1, (0, 1): 0, (-1, 1): 0, (-1, 0): 2,
                              (-1, -1): 0, (0, -1): 0, (1, -1): 1, (1, 0): 0})
        P = reconstruct_from_fan(fan, w)
        assert P == LatticePolytope([(0, 0), (0, 2), (1, 1)])

    def test_corner_triangle_from_weights(self):
        S = LatticePolytope(OCTAGON)
        fan = S.normal_fan()
        w = ray_weights(fan, {(1, 1): 0, (0, 1): 0, (-1, 1): 1, (-1, 0): 0,
                              (-1, -1): 0, (0, -1): 1, (1, -1): 0, (1, 0): 1})
        P = reconstruct_from_fan(fan, w)
        assert P == LatticePolytope([(0, 0), (1, 0), (1, 1)])

    def test_unbalanced_weights_raise(self):
        S = LatticePolytope(OCTAGON)
        fan = S.normal_fan()
        w = ray_weights(fan, {(1, 1): 0, (0, 1): 0, (-1, 1): 1, (-1, 0): 1,
                              (-1, -1): 0, (0, -1): 1, (1, -1): 0, (1, 0): 0})
        with pytest.raises(NotBalanced):
            reconstruct_from_fan(fan, w)

    def test_hexagon_plus_segment_is_octagon(self):
        # dropping the N and S walls removes the horizontal segment summand
        S = LatticePolytope(OCTAGON)
        fan = S.normal_fan()
        w = ray_weights(fan, {(1, 1): 1, (0, 1): 0, (-1, 1): 1, (-1, 0): 1,
                              (-1, -1): 1, (0, -1): 0, (1, -1): 1, (1, 0): 1})
        H = reconstruct_from_fan(fan, w)
        assert len(H.vertices) == 6
        B1 = LatticePolytope([(0, 0), (1, 0)])
        assert (H + B1).normalize_translation() == S.normalize_translation()

    def test_signed_weights_are_accepted_when_balanced(self):
        S = LatticePolytope(OCTAGON)
        fan = S.normal_fan()
        w = ray_weights(fan, {(1, 1): 1, (0, 1): -1, (-1, 1): 1, (-1, 0): 1,
                              (-1, -1): 1, (0, -1): -1, (1, -1): 1, (1, 0): 1})
        reconstruct_from_fan(fan, w)  # balanced, so it must not raise

    def test_missing_weight_raises(self):
        S = LatticePolytope(OCTAGON)
        fan = S.normal_fan()
        with pytest.raises(NotBalanced):
            reconstruct_from_fan(fan, {})

    def test_cube_roundtrip(self):
        import itertools
        cube = LatticePolytope([tuple(3 * x for x in p)
                                for p in itertools.product([0, 1], repeat=3)])
        fan = cube.normal_fan()
        P = reconstruct_from_fan(fan, fan.wall_weights)
        assert P == cube.normalize_translation()


class TestRoundTripWeights:
    def test_octagon_weight_vector_of_summand(self):
        # w_P for P = conv{(0,1),(2,1),(1,0)} on the octagon fan
        S = LatticePolytope(OCTAGON)
        fan = S.normal_fan()
        P1 = LatticePolytope([(0, 1), (2, 1), (1, 0)])
        fP = TropicalPolynomial.from_polytope(P1)
        # extended weights of f_P1 on T(f_S) walls, keyed back to ray dirs
        fS = TropicalPolynomial.from_polytope(S)
        T = fS.dual_complex()
        wup = extend_weights(fS, fP, T)
        by_dir = {T.walls[k].rays[0]: v for k, v in wup.items()}
        assert by_dir == {(1, 1): 0, (0, 1): 2, (-1, 1): 0, (-1, 0): 0,
                          (-1, -1): 1, (0, -1): 0, (1, -1): 1, (1, 0): 0}
