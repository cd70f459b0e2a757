"""SVG rendering: element counts, stroke classes, determinism."""

import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

from tropfactor.exact import QuadExt, SQRT2
from tropfactor.polyhedra import LatticePolytope
from tropfactor.svg import (
    UnsupportedDimension,
    render_fan,
    render_polynomial,
    render_polytope,
    scalar_label,
)
from tropfactor.tropical import TropicalPolynomial

F_TERMS = {(0, 0): 0, (0, 1): -7, (1, 0): -7, (1, 1): -10,
           (1, 2): -17, (2, 1): -17, (2, 2): -20}
G_TERMS = {(0, 0): 0, (0, 1): -7, (1, 0): -7, (1, 1): -10}
OCTAGON = LatticePolytope([(1, 0), (0, 1), (2, 0), (0, 2),
                           (3, 1), (3, 2), (2, 3), (1, 3)])


class TestScalarLabel:
    def test_labels(self):
        assert scalar_label(Fraction(3)) == "3"
        assert scalar_label(Fraction(3, 2)) == "3/2"
        assert scalar_label(SQRT2) == "√2"
        assert scalar_label(2 * SQRT2) == "2√2"
        assert scalar_label(-SQRT2) == "-√2"
        assert scalar_label(1 + SQRT2) == "1+√2"
        assert scalar_label(2 - SQRT2) == "2-√2"
        assert scalar_label(Fraction(1, 2) * SQRT2) == "√2/2"
        assert scalar_label(Fraction(-3, 4) * SQRT2) == "-3√2/4"


class TestRenderPolynomial:
    def test_tripod(self):
        f = TropicalPolynomial({(0, 0): 0, (1, 0): 0, (0, 1): 0})
        out = render_polynomial(f)
        assert out.startswith("<svg ")
        assert out.count("<line") == 3
        assert "dasharray" not in out

    def test_weight_two_wall_is_labeled(self):
        f = TropicalPolynomial({(0, 0): 0, (2, 0): 0})
        out = render_polynomial(f)
        assert out.count("<line") == 1
        assert ">2</text>" in out

    def test_divisor_dots_refinement_cells(self):
        f = TropicalPolynomial(F_TERMS)
        g = TropicalPolynomial(G_TERMS)
        out = render_polynomial(f, g)
        assert out.count("<line") == 7
        assert out.count("dasharray") == 2
        # without the divisor every wall is solid
        assert "dasharray" not in render_polynomial(f)

    def test_line_variety(self):
        f = TropicalPolynomial({(1, 0): 0, (0, 1): 0})
        out = render_polynomial(f)
        assert out.count("<line") == 1

    def test_monomial_draws_nothing(self):
        f = TropicalPolynomial({(3, 4): 0})
        out = render_polynomial(f)
        assert "<line" not in out

    def test_deterministic(self):
        f = TropicalPolynomial(F_TERMS)
        assert render_polynomial(f) == render_polynomial(f)

    def test_dimension_guard(self):
        f = TropicalPolynomial({(0, 0, 0): 0, (1, 0, 0): 0})
        with pytest.raises(UnsupportedDimension):
            render_polynomial(f)


class TestRenderFan:
    def test_octagon_star(self):
        fan = OCTAGON.normal_fan()
        out = render_fan(fan)
        assert out.count("<line") == 8
        assert "dasharray" not in out

    def test_zero_weights_are_dotted(self):
        fan = OCTAGON.normal_fan()
        keys = sorted(fan.walls)
        w = {k: (0 if i < 3 else 1) for i, k in enumerate(keys)}
        out = render_fan(fan, w)
        assert out.count("dasharray") == 3

    def test_field_weight_labels(self):
        fan = OCTAGON.normal_fan()
        w = {k: 2 * SQRT2 for k in fan.walls}
        out = render_fan(fan, w)
        assert out.count(">2√2</text>") == 8


class TestRenderPolytope:
    def test_octagon_outline(self):
        out = render_polytope(OCTAGON)
        assert out.count("<polygon") == 1
        assert out.count("<circle") == 8
        pts = out.split('points="')[1].split('"')[0].split()
        assert len(pts) == 8

    def test_point_is_a_dot(self):
        out = render_polytope(LatticePolytope([(1, 1)]))
        assert out.count("<circle") == 1 and "<line" not in out

    def test_segment(self):
        out = render_polytope(LatticePolytope([(0, 0), (2, 1)]))
        assert out.count("<line") == 1 and out.count("<circle") == 2

    def test_field_vertices_render(self):
        P = LatticePolytope([(0, 0), (0, SQRT2),
                             (QuadExt(0, Fraction(1, 2)),
                              QuadExt(0, Fraction(1, 2)))])
        out = render_polytope(P)
        assert out.count("<polygon") == 1 and out.count("<circle") == 3

    def test_view_box_has_margin(self):
        out = render_polytope(LatticePolytope([(0, 0), (10, 0), (0, 10),
                                               (10, 10)]))
        view = out.split('viewBox="')[1].split('"')[0].split()
        assert [float(x) for x in view] == [-1.0, -11.0, 12.0, 12.0]

    def test_dimension_guard(self):
        with pytest.raises(UnsupportedDimension):
            render_polytope(LatticePolytope([(0, 0, 0), (1, 0, 0)]))


class TestChecksSurvivePythonO:
    def test_clip_and_boundary_checks_raise(self):
        script = textwrap.dedent("""
            import tropfactor.svg as svg
            from tropfactor.exact import CertificateError
            from tropfactor.polyhedra import LatticePolytope

            if __debug__:
                raise SystemExit("asserts are on")
            failures = 0
            # a zero direction never leaves the box
            try:
                svg._Box([(0, 0)]).exit_scale((0, 0), (0, 0))
            except CertificateError:
                failures += 1
            # a diagonal gives (0, 0) and (1, 1) three neighbours each
            square = LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1)])
            square.edges = lambda: LatticePolytope.edges(square) + [
                ((0, 0), (1, 1))]
            try:
                svg._boundary_cycle(square)
            except CertificateError:
                failures += 1
            print(failures)
            """)
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "2\n"
