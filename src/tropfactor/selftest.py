"""Built-in reference fixtures and the checks behind `tropfactor selftest`.

Each check compares a frozen reference claim against a fresh
computation.  Two families of reference rows are recorded with values
that the computation falsifies (an unbalanced matrix row and a rank of
7 where the balanced-weight space has rank 6); those checks report FAIL
with the corrected value in the note, and their corrected twins pass.
The exit convention of the CLI treats any FAIL as a mathematical
negative, so `selftest` returns 1 while those rows remain.
"""

import random
from fractions import Fraction
from typing import Callable, List, Tuple

from .coxeter import (
    build_root_system,
    coxeter_fan,
    phi_expand,
    phi_permutahedron,
    phi_weight_cone_basis,
    phi_weights,
    root_balanced,
)
from .division import NegativeWeight, divide
from .exact import SQRT2, rank, same_lattice
from .minkowski import WeightVector, expand_in_basis, weight_cone_basis
from .permutahedra import (
    deformation_cone_contains,
    deformation_cone_violations,
    geometric_weight_column,
    universal_fan,
    weight_matrix,
)
from .polyhedra import LatticePolytope
from .tropical import TropicalPolynomial

Check = Tuple[str, Callable[[], Tuple[bool, str]]]

# -- division fixtures ------------------------------------------------------

G_TERMS = {(0, 0): 0, (0, 1): -7, (1, 0): -7, (1, 1): -10}
F_TERMS = {(0, 0): 0, (0, 1): -7, (1, 0): -7, (1, 1): -10,
           (1, 2): -17, (2, 1): -17, (2, 2): -20}
TENT_F = {(0, 2): 0, (2, 0): 0, (-2, 0): 0, (0, -2): 0,
          (0, 1): 1, (1, 0): 1, (0, -1): 1, (-1, 0): 1}
TENT_G = {(0, 2): 0, (2, 0): 0, (-2, 0): 0, (0, -2): 0}

# -- octagon fixtures -------------------------------------------------------

OCTAGON = LatticePolytope([(1, 0), (0, 1), (2, 0), (0, 2),
                           (3, 1), (3, 2), (2, 3), (1, 3)])
RAY_ORDER = ((1, 1), (0, 1), (-1, 1), (-1, 0),
             (-1, -1), (0, -1), (1, -1), (1, 0))

REFERENCE_LATTICE_MATRIX = (
    (1, 0, 0, 0, 1, 0, 0, 0),
    (0, 1, 0, 0, 0, 1, 0, 0),
    (0, 0, 1, 0, 0, 0, 1, 0),
    (0, 0, 0, 1, 0, 0, 0, 1),
    (1, 0, 0, 2, 0, 0, 1, 0),
    (0, 0, 1, 1, 0, 1, 0, 0),
    (1, 0, 0, 1, 0, 1, 0, 0),
)
CORRECTED_ROW_6 = (0, 0, 1, 0, 0, 1, 0, 1)

B1 = LatticePolytope([(0, 0), (1, 0)])
B2 = LatticePolytope([(0, 0), (1, -1)])
B3 = LatticePolytope([(0, 0), (0, 1)])
B4 = LatticePolytope([(0, 0), (1, 1)])
B6 = LatticePolytope([(0, 0), (1, 0), (1, 1)])
B7 = LatticePolytope([(0, 0), (1, 0), (0, 1)])
P1 = LatticePolytope([(0, 0), (1, -1), (2, 0)])
P2 = LatticePolytope([(0, 0), (2, 0), (1, 1)])

# -- B2 fixtures ------------------------------------------------------------

REFERENCE_FIELD_MATRIX = (
    (1, 0, 0, 0, 1, 0, 0, 0),
    (0, 1, 0, 0, 0, 1, 0, 0),
    (0, 0, 1, 0, 0, 0, 1, 0),
    (0, 0, 0, 1, 0, 0, 0, 1),
    (1, 0, 0, 2 * SQRT2, 0, 0, 1, 0),
    (0, 0, SQRT2, 1, 0, 1, 0, 0),
    (SQRT2, 0, 0, 1, 0, 1, 0, 0),
)
CORRECTED_FIELD_5 = (1, 0, 0, SQRT2, 0, 0, 1, 0)
CORRECTED_FIELD_6 = (0, 0, SQRT2, 0, 0, 1, 0, 1)

PHI_P1 = LatticePolytope([(0, 1), (2, 1), (1, 0)])
PHI_P2 = LatticePolytope([(0, 0), (2, 0), (1, 1)])


def _octagon_weights(fan, row):
    by_dir = dict(zip(RAY_ORDER, row))
    by_key = {}
    for k, W in fan.walls.items():
        (ray,) = W.rays
        by_key[k] = Fraction(by_dir[tuple(int(x) for x in ray)])
    return WeightVector(fan, by_key)


# -- individual checks ------------------------------------------------------


def check_division_example() -> Tuple[bool, str]:
    f = TropicalPolynomial(F_TERMS)
    g = TropicalPolynomial(G_TERMS)
    h = divide(f, g)
    if set(h.terms) != {(0, 0), (1, 1)}:
        return False, f"quotient support {sorted(h.terms)}"
    rng = random.Random(123)
    for _ in range(100):
        x = (Fraction(rng.randint(-60, 60), rng.randint(1, 9)),
             Fraction(rng.randint(-60, 60), rng.randint(1, 9)))
        if f(x) != g(x) + h(x):
            return False, f"f != g + h at {x}"
    return True, "quotient has 2 terms; identity holds on 100 points"


def check_tent_obstruction() -> Tuple[bool, str]:
    f = TropicalPolynomial(TENT_F)
    g = TropicalPolynomial(TENT_G)
    try:
        divide(f, g)
    except NegativeWeight as e:
        if (e.deficit, e.w_f, e.w_up) == (-1, 1, 2):
            return True, f"deficit -1 on the wall dual to {e.dual_edge}"
        return False, f"unexpected deficit {e.deficit}"
    return False, "division unexpectedly succeeded"


def check_reference_lattice_matrix() -> Tuple[bool, str]:
    fan = OCTAGON.normal_fan()
    bad = []
    for i, row in enumerate(REFERENCE_LATTICE_MATRIX, start=1):
        w = _octagon_weights(fan, row)
        if not (w.is_balanced() and w.is_nonnegative()):
            bad.append(i)
    if bad:
        return False, (f"row {bad[0]} = {REFERENCE_LATTICE_MATRIX[bad[0]-1]} "
                       f"is not balanced; the corner triangle gives "
                       f"{CORRECTED_ROW_6}")
    return True, "all 7 rows balanced and non-negative"


def check_corrected_lattice_matrix() -> Tuple[bool, str]:
    fan = OCTAGON.normal_fan()
    rows = [r if i != 5 else CORRECTED_ROW_6
            for i, r in enumerate(REFERENCE_LATTICE_MATRIX)]
    keys = sorted(fan.walls)
    mats = []
    for row in rows:
        w = _octagon_weights(fan, row)
        if not (w.is_balanced() and w.is_nonnegative()):
            return False, f"corrected row {row} fails"
        mats.append(tuple(int(w.by_key[k]) for k in keys))
    basis = weight_cone_basis(fan)
    if not same_lattice(mats, [tuple(int(x) for x in r)
                               for r in basis.matrix()]):
        return False, "corrected rows span a different lattice"
    return True, "balanced, non-negative, spans the computed basis lattice"


def check_octagon_rank_seven() -> Tuple[bool, str]:
    basis = weight_cone_basis(OCTAGON.normal_fan())
    if basis.r == 7:
        return True, ""
    return False, (f"computed rank is {basis.r}: an 8-wall planar fan has "
                   "rank 8 - 2 (two balance equations)")


def check_octagon_expansions() -> Tuple[bool, str]:
    fan = OCTAGON.normal_fan()
    basis = weight_cone_basis(fan)
    ys = [expand_in_basis(B, basis) for B in (B1, B2, B3, B4)]
    if expand_in_basis(OCTAGON, basis) != tuple(sum(c) for c in zip(*ys)):
        return False, "octagon is not the sum of the four segments"
    coef = [(B1, 2), (B2, 1), (B3, 1), (B4, 1), (B6, -1), (B7, -1)]
    want = [0] * basis.r
    for B, c in coef:
        y = expand_in_basis(B, basis)
        want = [w + c * yi for w, yi in zip(want, y)]
    if expand_in_basis(P1, basis) != tuple(want):
        return False, "first triangle expansion mismatch"
    if (P1 + B6 + B7).normalize_translation() != \
            (B1 + B1 + B2 + B3 + B4).normalize_translation():
        return False, "first signed Minkowski identity fails"
    y, y6, y7, y3 = [expand_in_basis(Q, basis) for Q in (P2, B6, B7, B3)]
    if y != tuple(a + b - c for a, b, c in zip(y6, y7, y3)):
        return False, "second triangle expansion mismatch"
    if (P2 + B3).normalize_translation() != (B6 + B7).normalize_translation():
        return False, "second signed Minkowski identity fails"
    return True, "sum-of-segments and both signed triangle expansions"


def _geometric_match(n: int, subsets) -> Tuple[bool, str]:
    W = weight_matrix(n)
    rows = len(W.partitions)
    if any(e not in (0, 1) for row in W.rows for e in row):
        return False, "matrix has entries outside {0, 1}"
    uf = universal_fan(n)
    for I in subsets:
        geo = geometric_weight_column(uf, I)
        want = dict(zip(W.partitions, W.column_of(I)))
        if {p: int(v) for p, v in geo.items()} != want:
            return False, f"column {I} disagrees with the geometric route"
    return True, (f"{rows}x{len(W.subsets)} 0/1 matrix; "
                  f"{len(subsets)} columns re-derived from simplex faces")


def check_weight_matrix_n2() -> Tuple[bool, str]:
    return _geometric_match(2, [(1, 2), (1, 3), (2, 3), (1, 2, 3)])


def check_weight_matrix_n3() -> Tuple[bool, str]:
    return _geometric_match(3, [(1, 2), (2, 4), (1, 2, 3, 4)])


def check_deformation_cone_members() -> Tuple[bool, str]:
    if not deformation_cone_contains({(1, 2): 1, (1, 2, 3): 1}, 2):
        return False, "y = Delta_12 + Delta_123 should lie inside"
    viol = deformation_cone_violations({(1, 2): 1, (1, 2, 3): -1}, 2)
    if not viol or any(v >= 0 for _, v in viol):
        return False, "y = Delta_12 - Delta_123 should violate"
    return True, (f"one inside vector, one outside with "
                  f"{len(viol)} violated facet(s)")


def check_reference_field_matrix() -> Tuple[bool, str]:
    cf = coxeter_fan(build_root_system("B2"))
    bad = [i for i, row in enumerate(REFERENCE_FIELD_MATRIX, start=1)
           if not root_balanced(cf, row)]
    if bad:
        return False, (f"rows {bad} are not balanced; balanced forms are "
                       f"{CORRECTED_FIELD_5} and {CORRECTED_FIELD_6}")
    return True, "all 7 rows balanced"


def check_corrected_field_matrix() -> Tuple[bool, str]:
    cf = coxeter_fan(build_root_system("B2"))
    rows = list(REFERENCE_FIELD_MATRIX)
    rows[4] = CORRECTED_FIELD_5
    rows[5] = CORRECTED_FIELD_6
    for row in rows:
        if not root_balanced(cf, row):
            return False, f"corrected row {row} fails"
        if any(x < 0 for x in row):
            return False, f"corrected row {row} has a negative entry"
    basis = phi_weight_cone_basis(cf)
    joint = rank(basis.matrix() + rows)
    if joint != basis.r or rank(rows) != basis.r:
        return False, f"corrected rows span rank {rank(rows)}"
    return True, "balanced, non-negative, same span as the computed basis"


def check_b2_rank_seven() -> Tuple[bool, str]:
    basis = phi_weight_cone_basis(coxeter_fan(build_root_system("B2")))
    if basis.r == 7:
        return True, ""
    return False, (f"computed rank is {basis.r}: an 8-wall planar fan has "
                   "rank 8 - 2 (two balance equations)")


def check_b2_expansions() -> Tuple[bool, str]:
    cf = coxeter_fan(build_root_system("B2"))
    basis = phi_weight_cone_basis(cf)
    w1 = cf.weight_values(phi_weights(PHI_P1, cf))
    w2 = cf.weight_values(phi_weights(PHI_P2, cf))
    if w1 != (0, 2, 0, 0, SQRT2, 0, SQRT2, 0):
        return False, f"first triangle weights {w1}"
    if w2 != (SQRT2, 0, SQRT2, 0, 0, 2, 0, 0):
        return False, f"second triangle weights {w2}"
    for P, w in ((PHI_P1, w1), (PHI_P2, w2)):
        y = phi_expand(P, basis)
        total = [0] * 8
        for yi, row in zip(y, basis.matrix()):
            total = [a + yi * b for a, b in zip(total, row)]
        if tuple(total) != w:
            return False, "expansion does not reproduce the weight vector"
    return True, "both triangle expansions verified in the field"


def check_b2_orbit_octagon() -> Tuple[bool, str]:
    rs = build_root_system("B2")
    cf = coxeter_fan(rs)
    P = phi_permutahedron(rs, (3, 1))
    if len(P.vertices) != 8:
        return False, f"orbit of (3, 1) has {len(P.vertices)} vertices"
    w = cf.weight_values(phi_weights(P, cf))
    if w != (2 * SQRT2, 2, 2 * SQRT2, 2, 2 * SQRT2, 2, 2 * SQRT2, 2):
        return False, f"octagon weights {w}"
    return True, "8 vertices; weights alternate 2√2 and 2"


CHECKS: List[Check] = [
    ("division example", check_division_example),
    ("tent obstruction", check_tent_obstruction),
    ("octagon reference matrix", check_reference_lattice_matrix),
    ("octagon corrected matrix", check_corrected_lattice_matrix),
    ("octagon basis rank 7", check_octagon_rank_seven),
    ("octagon expansions", check_octagon_expansions),
    ("weight matrix n=2", check_weight_matrix_n2),
    ("weight matrix n=3", check_weight_matrix_n3),
    ("deformation cone n=2", check_deformation_cone_members),
    ("B2 reference field matrix", check_reference_field_matrix),
    ("B2 corrected field matrix", check_corrected_field_matrix),
    ("B2 basis rank 7", check_b2_rank_seven),
    ("B2 triangle expansions", check_b2_expansions),
    ("B2 orbit octagon", check_b2_orbit_octagon),
]


def run_selftest() -> Tuple[List[Tuple[str, bool, str]], bool]:
    """Run every check; returns ([(name, ok, note)], all_ok)."""
    rows = []
    for name, fn in CHECKS:
        ok, note = fn()
        rows.append((name, ok, note))
    return rows, all(ok for _, ok, _ in rows)
