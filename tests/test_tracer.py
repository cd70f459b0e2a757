"""The benchmark tracer still reaches the library's traced entry points.

perfbench/tracer.py wraps functions by rebinding module attributes, so a
function that is renamed, or a route that stops calling it, silently
zeroes its counters in traced benchmark runs.
"""

import sys
from pathlib import Path

from tropfactor import cli, coxeter, division, minkowski, tropical
from tropfactor.polyhedra import LatticePolytope
from tropfactor.tropical import TropicalPolynomial

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
OCTAGON = [(1, 0), (0, 1), (2, 0), (0, 2), (3, 1), (3, 2), (2, 3), (1, 3)]


def load_tracer():
    sys.path.insert(0, PERFBENCH)
    try:
        from tracer import Tracer
    finally:
        sys.path.remove(PERFBENCH)
    return Tracer()


def test_traced_divide_and_basis_count_and_uninstall():
    original = tropical.covector
    fan = LatticePolytope(OCTAGON).normal_fan()
    pairs = sum(len(walls) for walls in fan.ridge_walls.values())
    g = TropicalPolynomial({(0, 0): 0, (0, 1): -7, (1, 0): -7, (1, 1): -10})
    h = TropicalPolynomial({(0, 0): 0, (1, 1): -10})
    tracer = load_tracer()
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


def test_traced_expansions_record_one_span_each_and_uninstall():
    """A lattice expand_in_basis and an A3 phi_expand, through the one
    expansion routine, each record one span under their own name."""
    fan = LatticePolytope(OCTAGON).normal_fan()
    basis = minkowski.weight_cone_basis(fan)
    cf = coxeter.coxeter_fan(coxeter.build_root_system("A3"))
    phi_basis = coxeter.phi_weight_cone_basis(cf)
    P = coxeter.phi_permutahedron(cf.rs, (3, -1, 2))
    originals = (minkowski.expand_in_basis, coxeter.phi_expand)
    tracer = load_tracer()
    tracer.install()
    try:
        y = minkowski.expand_in_basis(LatticePolytope(OCTAGON), basis)
        z = coxeter.phi_expand(P, phi_basis)
    finally:
        tracer.uninstall()
    names = [span[3] for span in tracer.spans]
    assert names.count("minkowski.expand") == 1
    assert names.count("coxeter.phi_expand") == 1
    assert tracer.calls["minkowski.expand"] == 1
    assert tracer.calls["coxeter.phi_expand"] == 1
    assert (minkowski.expand_in_basis, coxeter.phi_expand) == originals
    assert (cli.expand_in_basis, cli.phi_expand) == originals
    assert y == minkowski.expand_in_basis(LatticePolytope(OCTAGON), basis)
    assert z == coxeter.phi_expand(P, phi_basis)
