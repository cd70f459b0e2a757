"""The benchmark tracer still reaches the library's traced entry points.

perfbench/tracer.py wraps functions by rebinding module attributes, so a
function that is renamed, or a route that stops calling it, silently
zeroes its counters in traced benchmark runs.
"""

import sys
from pathlib import Path

from tropfactor import division, minkowski, tropical
from tropfactor.polyhedra import LatticePolytope
from tropfactor.tropical import TropicalPolynomial

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
OCTAGON = [(1, 0), (0, 1), (2, 0), (0, 2), (3, 1), (3, 2), (2, 3), (1, 3)]


def test_traced_divide_and_basis_count_and_uninstall():
    sys.path.insert(0, PERFBENCH)
    try:
        from tracer import Tracer
    finally:
        sys.path.remove(PERFBENCH)
    original = tropical.covector
    fan = LatticePolytope(OCTAGON).normal_fan()
    pairs = sum(len(walls) for walls in fan.ridge_walls.values())
    g = TropicalPolynomial({(0, 0): 0, (0, 1): -7, (1, 0): -7, (1, 1): -10})
    h = TropicalPolynomial({(0, 0): 0, (1, 1): -10})
    tracer = Tracer()
    tracer.install()
    try:
        q = division.divide(g * h, g)
        minkowski.weight_cone_basis(fan)
    finally:
        tracer.uninstall()
    assert q.same_function(h)
    metrics = tracer.metrics()
    # one covector per (ridge, wall) pair of the octagon's fan
    assert metrics["tropical.covector.calls"] == pairs > 0
    assert tracer.calls["division.extend_weights"] == 1
    assert metrics["division.extend_weights.self_s"] > 0
    assert tropical.covector is original
