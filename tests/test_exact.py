import math
import random
from fractions import Fraction

import pytest

from reference_routes import row_reduce_by_fractions
from tropfactor.exact import (
    SQRT2,
    NoPositiveWitness,
    QuadExt,
    ZeroVector,
    format_rational,
    hnf,
    in_lattice,
    integer_nullspace,
    lattice_basis_through,
    nonnegative_basis,
    nullspace_field,
    parse_rational,
    primitive_of_rational,
    primitive_vector,
    rank,
    rational_content,
    row_reduce,
    same_lattice,
    scalar_sqrt,
    sign,
    solve_linear,
)


def test_parse_and_format_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == -7
    assert parse_rational(5) == 5
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(-8, 2)) == "-4"
    assert format_rational(2) == "2"


class TestQuadExt:
    def test_arithmetic_identities(self):
        x = QuadExt(Fraction(1, 2), 3)
        y = QuadExt(-2, Fraction(1, 3))
        assert (x + y) - y == x
        assert (x * y) / y == x
        assert x * (y + 1) == x * y + x
        assert SQRT2 * SQRT2 == 2

    def test_sign_is_exact(self):
        # 7/5 < sqrt(2) < 17/12: both gaps are far below float noise if scaled
        assert (SQRT2 - Fraction(7, 5)).sign() == 1
        assert (SQRT2 - Fraction(17, 12)).sign() == -1
        # 99/70 is a convergent: 99^2 = 9801, 2*70^2 = 9800
        assert (QuadExt(99, -70)).sign() == 1
        assert (QuadExt(-99, 70)).sign() == -1
        assert QuadExt(0, 0).sign() == 0

    def test_ordering_matches_floats_on_random_samples(self):
        rng = random.Random(20260823)
        for _ in range(300):
            x = QuadExt(Fraction(rng.randint(-50, 50), rng.randint(1, 9)),
                        Fraction(rng.randint(-50, 50), rng.randint(1, 9)))
            y = QuadExt(Fraction(rng.randint(-50, 50), rng.randint(1, 9)),
                        Fraction(rng.randint(-50, 50), rng.randint(1, 9)))
            fx, fy = float(x), float(y)
            if abs(fx - fy) > 1e-9:
                assert (x < y) == (fx < fy)

    def test_hash_compatible_with_rationals(self):
        assert hash(QuadExt(Fraction(3, 4), 0)) == hash(Fraction(3, 4))
        assert QuadExt(3, 0) == 3
        d = {QuadExt(3, 0): "a"}
        assert d[3] == "a"

    def test_mixed_radicals_refused(self):
        with pytest.raises(ValueError):
            QuadExt(1, 1, 2) + QuadExt(1, 1, 3)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            QuadExt(1, 1) / QuadExt(0, 0)

    def test_float_conversion(self):
        assert abs(float(SQRT2) - math.sqrt(2)) < 1e-12


class TestScalarSqrt:
    def test_rational_squares(self):
        assert scalar_sqrt(Fraction(9, 4)) == Fraction(3, 2)
        assert scalar_sqrt(0) == 0

    def test_sqrt2_itself(self):
        assert scalar_sqrt(QuadExt(2, 0)) == SQRT2

    def test_norm_of_unit_b2_root(self):
        # |(1,-1)/sqrt(2)|^2 = 1
        assert scalar_sqrt(QuadExt(1, 0)) == 1

    def test_three_plus_two_sqrt2(self):
        # (1 + sqrt(2))^2 = 3 + 2 sqrt(2)
        assert scalar_sqrt(QuadExt(3, 2)) == QuadExt(1, 1)

    def test_not_in_field(self):
        with pytest.raises(ValueError):
            scalar_sqrt(QuadExt(3, 0))
        with pytest.raises(ValueError):
            scalar_sqrt(QuadExt(6, 0))  # sqrt(6) needs sqrt(3)
        with pytest.raises(ValueError):
            scalar_sqrt(SQRT2 * -1 + 0)


def test_sign_helper():
    assert sign(Fraction(-3, 7)) == -1
    assert sign(0) == 0
    assert sign(SQRT2 - 1) == 1


class TestPrimitive:
    def test_basic(self):
        assert primitive_vector((2, -4, 6)) == (1, -2, 3)
        assert primitive_vector((0, 5)) == (0, 1)

    def test_zero_raises(self):
        with pytest.raises(ZeroVector):
            primitive_vector((0, 0, 0))

    def test_rational_content(self):
        assert rational_content((Fraction(1, 2), Fraction(3, 2))) == Fraction(1, 2)
        assert rational_content((Fraction(2), Fraction(4))) == 2
        assert primitive_of_rational((Fraction(1, 2), Fraction(3, 2))) == (1, 3)
        with pytest.raises(ZeroVector):
            rational_content((Fraction(0), Fraction(0)))


class TestHNF:
    def test_canonical_form(self):
        H = hnf([(2, 0), (0, 2), (1, 1)])
        assert H == [(1, 1), (0, 2)]

    def test_same_lattice(self):
        assert same_lattice([(1, 0), (0, 1)], [(1, 5), (2, 11)])
        assert not same_lattice([(2, 0), (0, 1)], [(1, 0), (0, 1)])

    def test_in_lattice_coefficients(self):
        rows = [(2, 1, 0), (0, 3, 1)]
        c = in_lattice(rows, (4, 5, 1))
        assert c == (2, 1)
        assert in_lattice(rows, (1, 0, 0)) is None

    def test_in_lattice_empty(self):
        assert in_lattice([], (0, 0)) == ()
        assert in_lattice([], (1, 0)) is None


class TestIntegerNullspace:
    def test_identity_has_trivial_kernel(self):
        assert integer_nullspace([(1, 0, 0), (0, 1, 0), (0, 0, 1)]) == []

    def test_single_difference(self):
        ker = integer_nullspace([(1, -1)])
        assert same_lattice(ker, [(1, 1)])

    def test_saturation_makes_vectors_primitive(self):
        # kernel of [2 4] is spanned by (2,-1), not (4,-2)
        ker = integer_nullspace([(2, 4)])
        assert same_lattice(ker, [(2, -1)])
        for v in ker:
            assert math.gcd(*map(abs, v)) == 1

    def test_random_kernels_annihilate(self):
        rng = random.Random(7)
        for _ in range(50):
            m, n = rng.randint(1, 3), rng.randint(2, 5)
            A = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(m)]
            ker = integer_nullspace(A)
            for v in ker:
                for row in A:
                    assert sum(a * b for a, b in zip(row, v)) == 0
            # rank-nullity over Q
            assert len(ker) == n - rank(A)


class TestLatticeBasisThrough:
    def test_keeps_lattice_and_places_vector_first(self):
        basis = [(1, 0, -1), (0, 1, -1)]
        w = (1, 1, -2)
        out = lattice_basis_through(basis, w)
        assert out[0] == w
        assert same_lattice(out, basis)

    def test_rejects_imprimitive(self):
        with pytest.raises(ValueError):
            lattice_basis_through([(1, 0), (0, 1)], (2, 0))


class TestNonnegativeBasis:
    def test_spec_counterexample_sum_zero(self):
        # the kernel of [1 1] contains no positive vector at all
        with pytest.raises(NoPositiveWitness):
            nonnegative_basis([(1, -1)], (1, 1))

    def test_spec_counterexample_witness_not_positive(self):
        with pytest.raises(NoPositiveWitness):
            nonnegative_basis([(1, 0, -1), (0, 1, -1)], (1, 1, -2))

    def test_witness_outside_lattice(self):
        with pytest.raises(NoPositiveWitness):
            nonnegative_basis([(2, 0), (0, 2)], (1, 1))

    def test_result_is_nonnegative_and_unimodular(self):
        basis = [(1, 0, 1), (0, 1, 2), (0, 0, 4)]
        out = nonnegative_basis(basis, (1, 1, 3))
        assert same_lattice(out, basis)
        for v in out:
            assert all(x >= 0 for x in v)

    def test_witness_made_primitive(self):
        out = nonnegative_basis([(1, 1)], (3, 3))
        assert out == [(1, 1)]

    def test_random_sweep(self):
        rng = random.Random(42)
        for _ in range(60):
            n = rng.randint(2, 4)
            k = rng.randint(1, n)
            basis = []
            while len(basis) < k:
                cand = tuple(rng.randint(-3, 3) for _ in range(n))
                if rank(basis + [cand]) > len(basis):
                    basis.append(cand)
            # build a witness from positive combinations when one exists
            wit = None
            for _ in range(200):
                coeffs = [rng.randint(-3, 3) for _ in range(k)]
                v = tuple(sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(n))
                if all(x > 0 for x in v):
                    wit = v
                    break
            if wit is None:
                continue
            out = nonnegative_basis(basis, wit)
            assert same_lattice(out, basis)
            assert all(x >= 0 for v in out for x in v)


class TestFieldSolvers:
    def test_row_reduce_int_rows_stay_exact(self):
        red, piv = row_reduce([(2, 4), (1, 3)])
        assert red == [(1, 0), (0, 1)]
        assert piv == [0, 1]

    def test_solve_linear(self):
        x = solve_linear([(1, 1), (1, -1)], (3, 1))
        assert x == (2, 1)
        assert solve_linear([(1, 1), (2, 2)], (1, 3)) is None

    def test_solve_underdetermined_sets_free_to_zero(self):
        x = solve_linear([(1, 1, 0)], (5,))
        assert x == (5, 0, 0)

    def test_nullspace_field(self):
        basis = nullspace_field([(1, 1, 1)])
        assert len(basis) == 2
        for v in basis:
            assert sum(v) == 0

    def test_quadext_system(self):
        # x + sqrt(2) y = 1 + sqrt(2), x - y = 1  =>  x = ... solve exactly
        rows = [(QuadExt(1), SQRT2), (QuadExt(1), QuadExt(-1))]
        x = solve_linear(rows, (QuadExt(1, 1), QuadExt(1)))
        assert rows[0][0] * x[0] + rows[0][1] * x[1] == QuadExt(1, 1)
        assert x[0] - x[1] == 1


class TestEliminationAgainstFractions:
    """row_reduce and rank against Gauss-Jordan in Fractions.

    Rational matrices are eliminated fraction-free and those with a
    QuadExt entry over the field; both must give the reference's reduced
    rows, entry types and pivots, and rank its pivot count.
    """

    @staticmethod
    def check(rows):
        red, pivots = row_reduce(rows)
        want, want_pivots = row_reduce_by_fractions(rows)
        assert (red, pivots) == (want, want_pivots)
        assert repr(red) == repr(want)
        assert rank(rows) == len(pivots)

    @staticmethod
    def matrices(rng, entry, count):
        """Random matrices, with combinations of earlier rows appended."""
        for _ in range(count):
            m, n = rng.randint(1, 5), rng.randint(1, 6)
            rows = [tuple(entry() for _ in range(n)) for _ in range(m)]
            for _ in range(rng.randint(0, 2)):
                c = [Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                     for _ in rows]
                rows.append(tuple(sum((a * r[j] for a, r in zip(c, rows)),
                                      Fraction(0)) for j in range(n)))
            rng.shuffle(rows)
            yield rows

    def test_empty_and_zero_shapes(self):
        for rows in ([], [()], [(), ()], [(0,)], [(0, 0), (0, 0)],
                     [(0, 0, 0), (2, 0, 4), (0, 0, 0)], [(0, 3), (0, 1)],
                     [(Fraction(0), 0), (0, Fraction(5, 3))], [(-7,)],
                     [(QuadExt(0), 0)], [(0, 0), (SQRT2, 1)]):
            self.check(rows)

    def test_random_rational(self):
        rng = random.Random(22)

        def entry():
            if rng.random() < 0.3:
                return 0
            den = rng.choice([1, 1, 6, 10 ** 5])
            q = Fraction(rng.randint(-10 ** 5, 10 ** 5), rng.randint(1, den))
            return q.numerator if q.denominator == 1 and rng.random() < 0.5 \
                else q

        for rows in self.matrices(rng, entry, 200):
            self.check(rows)

    def test_random_mixed_with_quadext(self):
        rng = random.Random(23)

        def entry():
            k = rng.randrange(4)
            if k == 0:
                return rng.randint(-3, 3)
            if k == 1:
                return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            return QuadExt(rng.randint(-3, 3), rng.randint(-2, 2))

        for rows in self.matrices(rng, entry, 80):
            self.check(rows)
