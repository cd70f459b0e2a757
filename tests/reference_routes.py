"""Independent routes the library no longer takes, kept as test oracles.

Each function computes an answer the library now reads off the chambers
of a fan, the slow way: by Minkowski sums and hulls, or by one face
query per wall.
"""

from fractions import Fraction

from tropfactor.division import segment_length
from tropfactor.exact import sign
from tropfactor.polyhedra import LatticePolytope


def signed_sum_holds(P, y, polytopes) -> bool:
    """Does P + sum(y_i^- B_i) = sum(y_i^+ B_i) hold up to translation?

    Both sides are built as Minkowski sums, each with its hull, and
    compared after translating their smallest vertices to the origin.
    """
    lhs, rhs = P, None
    for yi, B in zip(y, polytopes):
        s = sign(yi)
        if not s:
            continue
        # k-fold Minkowski sum of a convex polytope is its dilation by k
        term = B if s * yi == 1 else B.scale(s * yi)
        if s < 0:
            lhs = lhs + term
        else:
            rhs = term if rhs is None else rhs + term
    if rhs is None:
        rhs = LatticePolytope([tuple(Fraction(0) for _ in range(P.n))])
    return lhs.normalize_translation() == rhs.normalize_translation()


def wall_lengths_by_face_queries(P, fan, length) -> dict:
    """Wall key -> length of the face of P at an interior point of it."""
    return {wk: segment_length(P.face_vertices(W.relative_interior_point()),
                               length)
            for wk, W in fan.walls.items()}
