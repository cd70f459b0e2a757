"""Independent routes the library no longer takes, kept as test oracles.

Most functions compute an answer the library now reads off the chambers
of a fan, the slow way: by Minkowski sums and hulls, or by one face
query per wall.  root_form_rows is the mirror pairing of a Coxeter fan,
the balancing formulation the library replaced by the lattice balancing
matrix with metric columns.
"""

from fractions import Fraction
from typing import NamedTuple

from tropfactor.division import segment_length
from tropfactor.exact import dot, sign
from tropfactor.polyhedra import LatticePolytope
from tropfactor.tropical import annihilator_lattice, covector


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


class RootForm(NamedTuple):
    """The root form of balancing on a Coxeter fan.

    pairs maps each ridge key to its mirror pairs (integer root alpha,
    F+ key, F- key); rows are the integer rows R0, one per ridge and
    annihilating functional pi, with pi . alpha in the column of F+ and
    -pi . alpha in that of F-; norms[j] is the norm of the root of wall
    j, or None for a wall on no ridge.  The metric balance rows are
    R0 . diag(1/norms).
    """
    pairs: dict
    rows: list
    norms: list


def root_form_rows(cf) -> RootForm:
    """Pair the walls around each ridge by the mirror they lie on.

    Around a ridge A every wall lies on exactly one mirror H_alpha, and
    the two walls on H_alpha lie on opposite sides of it: F+ where the
    pair (alpha, covector) is positively oriented against the
    functionals of A, F- where it is not.  Weights are balanced at A
    when sum (w(F+) - w(F-)) alpha / |alpha| lies in the span of A.
    """
    fan, rs = cf.fan, cf.rs
    mirrors = {r: rs.mirror(r) for r in rs.int_positive}
    col = {k: i for i, k in enumerate(cf.wall_order)}
    norms = [None] * len(col)
    pairs, rows = {}, []
    for rk in sorted(fan.ridges):
        tau = fan.ridges[rk]
        pi = annihilator_lattice(tau)
        assert len(pi) == 2, "a ridge of a Coxeter fan has codimension 2"
        signed = {}
        for wk in fan.ridge_walls[rk]:
            W = fan.walls[wk]
            p = W.relative_interior_point()
            (r,) = [r for r, m in mirrors.items() if dot(m, p) == 0]
            c = covector(tau, W)
            s = sign(dot(pi[0], r) * dot(pi[1], c)
                     - dot(pi[1], r) * dot(pi[0], c))
            assert s, "a root is transverse to its mirror"
            signed.setdefault(r, {})[s] = wk
        entry = []
        for r in rs.int_positive:
            if r in signed:
                assert set(signed[r]) == {1, -1}, \
                    "a mirror carries walls of a ridge on both sides"
                entry.append((r, signed[r][1], signed[r][-1]))
        assert 2 * len(entry) == len(fan.ridge_walls[rk]), \
            "the mirrors through a ridge pair its walls two by two"
        pairs[rk] = tuple(entry)
        for j in (0, 1):
            row = [0] * len(col)
            for r, plus, minus in entry:
                c = dot(pi[j], r)
                row[col[plus]] += c
                row[col[minus]] -= c
                norms[col[plus]] = norms[col[minus]] = rs.root_norm(r)
            rows.append(tuple(row))
    return RootForm(pairs, rows, norms)
