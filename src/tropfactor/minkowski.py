"""Minkowski factorization of polytopes and factorization bases of fans.

A polytope Q is a summand of P exactly when the normal fan of P refines
that of Q and the edge weights of P dominate the extended weights of Q;
the complement R is the Newton polytope of f_P - f_Q.  Since support
functions of polytopes are tropical polynomials with zero coefficients,
factor() is a thin wrapper around tropical division, which also makes it
work for lower-dimensional and rational-vertex inputs.

The weight cone W(N) of a fan N collects the balanced non-negative
weight vectors on its walls; a factorization basis is a non-negative
lattice basis of its linear span, with one polytope per basis vector via
support integration.  Expansions of polytopes in such a basis are
unique and integral, giving signed Minkowski identities.

Everything about a polytope X whose normal fan a complete fan N refines
is read off one vertex per chamber: on a chamber C the support function
is h_X(x) = v_C(X).x, where v_C(X) is the vertex of X that maximizes the
interior of C (chamber_vertices).  Crossing the wall from C into D, the
vertex steps by the wall's weight times the primitive inward normal of
D (McMullen's wall-crossing; arXiv:1906.06861, section 2), so the table
holds every wall weight.  Tables have two sources: the walk of a weight
vector for a basis polytope (FactorizationBasis), the vertices for a
given one.  There is one expansion for every fan, rational or Coxeter
(FactorizationBasis.expand): it reads r wall weights off the table of
the polytope, solves for y, and checks the signed Minkowski identity
chamber by chamber, with no sum and no hull (see certify_signed_sum).
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple

from .exact import (
    CertificateError,
    TropfactorError,
    dot,
    in_lattice,
    integer_nullspace,
    nonnegative_basis,
    primitive_of_rational,
    rational_content,
    row_reduce,
    sign,
    vscale,
    vsub,
)
from .division import (
    NegativeWeight,
    NotContained,
    divide,
    edge_lengths,
    hull_of_table,
    point_text,
    reconstruct_from_fan,
    support_table,
)
from .polyhedra import (
    Fan,
    LatticePolytope,
    dd_cone,
    demote_vector,
    is_rational_vector,
    normalize_ray,
)
from .tropical import TropicalPolynomial, balance_matrix, balance_violation


class NotASummand(TropfactorError):
    """Q is not a Minkowski summand of P; .witness explains why.

    witness is ("not_refining", point) for a point where the normal fan
    of P is strictly finer than V(f_Q) allows, or ("negative_weight",
    edge, deficit) for an edge of P whose weight drops below the
    extension of w_Q.
    """

    def __init__(self, witness, message):
        self.witness = witness
        super().__init__(message)


class NotRefined(TropfactorError):
    """A fan does not refine a polytope's normal fan; .witness shows where.

    witness is {"point": p, "direction": r}: p is an interior point of a
    chamber of the fan and r a generator of that chamber, and some
    vertex of the face of the polytope maximizing p is off the face
    maximizing r.
    """

    def __init__(self, message, witness):
        self.witness = witness
        super().__init__(message)


class NotPolytopal(TropfactorError):
    pass


class TooLarge(TropfactorError):
    pass


class IncompleteFan(TropfactorError):
    """A wall of the fan lies on other than two chambers, or a chamber is
    not full-dimensional."""


MAX_CONES_ENV = "TROPFACTOR_MAX_CONES"
DEFAULT_MAX_CONES = 12


# ---------------------------------------------------------------------------
# weight vectors


class WeightVector:
    """Weights on the walls of a fan, in canonical (sorted key) cone order."""

    def __init__(self, fan: Fan, by_key: Dict):
        if set(by_key) != set(fan.walls):
            raise ValueError("weight keys do not match the fan's walls")
        self.fan = fan
        self.by_key = dict(by_key)

    @classmethod
    def from_values(cls, fan: Fan, values: Sequence):
        keys = sorted(fan.walls)
        if len(values) != len(keys):
            raise ValueError(f"expected {len(keys)} weights, got {len(values)}")
        return cls(fan, dict(zip(keys, values)))

    @property
    def values(self) -> tuple:
        return tuple(self.by_key[k] for k in sorted(self.fan.walls))

    def __getitem__(self, key):
        return self.by_key[key]

    def is_balanced(self) -> bool:
        return balance_violation(self.fan, self.by_key) is None

    def is_nonnegative(self) -> bool:
        return all(v >= 0 for v in self.by_key.values())


class FactorizationBasis:
    """A non-negative basis of the span of W(N), with its polytopes.

    The rows of matrix() list each vector's weights in the wall order
    `order`, the sorted wall keys unless given.  `length` measures edges
    in the metric of the weights: lattice length for rational fans, the
    primal norm of the root system for Coxeter fans.

    Basis polytope B_i is given by its chamber table: the vertex of
    unit * B_i that maximizes each chamber of the fan, in fan.chambers
    order and up to one translation (see chamber_vertices).  Table i is
    the walk (division.support_table) of the lattice weights v_k unit /
    l_k of vector i, l_k the length of the primitive normal of wall k:
    l_k = unit, and the walk rational, on rational fans (unit 1) and in
    type A (coxeter.phi_weight_cone_basis).  Expansions read the tables
    only; the polytopes are their hulls, scaled by 1/unit when read.
    """

    def __init__(self, fan: Fan, vectors: List[WeightVector], order=None,
                 length: Callable = rational_content, unit=1):
        self.fan, self.vectors = fan, vectors
        self.order = sorted(fan.walls) if order is None else list(order)
        self.length, self.unit = length, unit
        ratio = {}  # unit / l_k where l_k is not the unit
        for k, sides in fan.wall_chambers.items():
            l = length(primitive_of_rational(sides[0][1]))
            if l != unit:
                ratio[k] = unit / l
        self.tables = [support_table(fan, {**w.by_key, **{
            k: w[k] * c for k, c in ratio.items()}}) for w in vectors]
        self._polytopes = None
        self._solver = None

    @property
    def polytopes(self) -> List[LatticePolytope]:
        if self._polytopes is None:
            hulls = [hull_of_table(t) for t in self.tables]
            self._polytopes = hulls if self.unit == 1 else [
                B.scale(1 / self.unit) for B in hulls]
        return self._polytopes

    def coordinates(self, table) -> tuple:
        """y / unit for the y with sum_i y_i b_i = the weights of a polytope.

        table is the polytope's chamber table on the fan.  Crossing a
        wall from chamber C into D, the vertex steps by the wall's
        lattice weight times the primitive inward normal p of D, so the
        weight is (v_D - v_C) / p at a nonzero coordinate of p, and l_k
        times it the weight in the metric, l_k the length of p.  The
        first call row-reduces [basis matrix | I_r] once: the pivots of
        the left block are r walls whose basis matrix columns are
        independent, the right block the inverse of that r x r block,
        and its transpose times l_k / (unit p) is kept, so each call is
        one product with r vertex differences.  The other walls are not
        read: the certificate of expand checks them.
        CertificateError when the basis vectors are dependent, which
        puts a pivot in the right block.
        """
        if self._solver is None:
            mat, r, w = self.matrix(), self.r, len(self.order)
            red, pivots = row_reduce([tuple(row) + tuple(
                int(i == k) for i in range(r)) for k, row in enumerate(mat)])
            pivots = [c for c in pivots if c < w]
            if len(pivots) != r:
                raise CertificateError(
                    "the vectors of a factorization basis are dependent")
            steps, scale = [], []
            for col in pivots:
                (i, _), (j, inward) = self.fan.wall_chambers[self.order[col]]
                p = primitive_of_rational(inward)
                t = next(t for t, x in enumerate(p) if x)
                steps.append((i, j, t))
                scale.append(self.length(p) / (self.unit * p[t]))
            scale = demote_vector(scale)
            self._solver = (steps, [
                demote_vector(row[w + j] * c for row, c in zip(red, scale))
                for j in range(r)])
        steps, inverse = self._solver
        d = [table[j][t] - table[i][t] for i, j, t in steps]
        return tuple(dot(row, d) for row in inverse)

    def expand(self, P: LatticePolytope, not_refined) -> tuple:
        """The unique y with w_P = sum_i y_i b_i, certified.

        chamber_vertices checks that the fan refines the normal fan of P
        (not_refined with its witness otherwise) and gives its table;
        coordinates reads y / unit off the table, and certify_signed_sum
        checks it against the basis tables on every chamber before y is
        returned.
        """
        table = chamber_vertices(P, self.fan, not_refined)
        c = self.coordinates(table)
        certify_signed_sum(table, c, self)
        return demote_vector(vscale(self.unit, c))

    @property
    def r(self) -> int:
        return len(self.vectors)

    def matrix(self) -> List[tuple]:
        return [tuple(w[k] for k in self.order) for w in self.vectors]


# ---------------------------------------------------------------------------
# extended weights of a polytope on a fan


def chamber_vertices(P: LatticePolytope, fan: Fan, not_refined) -> tuple:
    """The vertex of P that maximizes each chamber of the fan, in order.

    The fan must refine the normal fan of P, else not_refined (a
    NotRefined class) is raised: the face of P at an interior point of
    each chamber must stay on the face in the direction of every
    generator of the chamber, and the point and the first generator
    that drops a vertex are the witness.  Such a face is then one
    vertex v_C, for the face is orthogonal to the chamber, which must
    be full-dimensional (IncompleteFan otherwise); and h_P(x) = v_C.x
    on all of C.
    """
    if P.n != fan.n:
        raise ValueError("polytope and fan live in different dimensions")
    faces, at = [], {}  # generator -> its face, shared by chambers
    for C in fan.chambers:
        p = C.relative_interior_point()
        F = set(P.face_vertices(p))
        dirs = list(C.rays)
        for l in C.lineality:
            dirs.append(l)
            dirs.append(tuple(-x for x in l))
        for r in dirs:
            if r not in at:
                at[r] = set(P.face_vertices(r))
            if not F <= at[r]:
                raise not_refined(
                    "a chamber of the fan crosses a wall of the "
                    "polytope's normal fan", {"point": p, "direction": r})
        faces.append(F)
    if any(len(F) != 1 for F in faces):
        raise IncompleteFan("a chamber of the fan is not full-dimensional")
    return tuple(F.pop() for F in faces)


def wall_lengths(P: LatticePolytope, fan: Fan, length: Callable,
                 not_refined) -> Dict:
    """Wall key -> length of the face of P dual to that wall of the fan.

    The fan must refine the normal fan of P (see chamber_vertices for
    the check and its witness).  A wall between chambers C and D then
    has the face conv(v_C, v_D): the vertex v_C = v_D, of length zero,
    or the edge between them, measured with length.  IncompleteFan when
    a wall lies on other than two chambers.
    """
    table = chamber_vertices(P, fan, not_refined)
    for sides in fan.wall_chambers.values():
        if len(sides) != 2:
            raise IncompleteFan(
                f"a wall of the fan lies on {len(sides)} chambers, not two")
    return edge_lengths(fan.wall_chambers, table, length)


def extended_weights(Q: LatticePolytope, fan: Fan) -> WeightVector:
    """w_Q extended to the walls of a fan refining N(Q).

    Raises NotRefined when some cone of the fan is not contained in a
    single normal cone of Q.
    """
    return WeightVector(fan, wall_lengths(Q, fan, rational_content,
                                          NotRefined))


def polytope_weights(P: LatticePolytope) -> Tuple[Fan, WeightVector]:
    """The normal fan of P with its edge-length weight vector."""
    fan = P.normal_fan()
    return fan, WeightVector(fan, dict(fan.wall_weights))


# ---------------------------------------------------------------------------
# factorization


def _clear_scale(polys: Sequence[LatticePolytope]) -> int:
    m = 1
    for P in polys:
        for v in P.vertices:
            for x in v:
                d = Fraction(x).denominator
                m = m * d // math.gcd(m, d)
    return m


def factor(P: LatticePolytope, Q: LatticePolytope) -> LatticePolytope:
    """The unique R with Q + R = P, or raise NotASummand with a witness.

    Works through tropical division of support functions; rational vertex
    coordinates are handled by clearing denominators first, and
    irrational ones are a ValueError.
    """
    if P.n != Q.n:
        raise ValueError("ambient dimensions differ")
    if not all(is_rational_vector(v) for X in (P, Q) for v in X.vertices):
        raise ValueError("factor takes polytopes with rational vertices")
    m = _clear_scale([P, Q])
    Pm = P.scale(m) if m != 1 else P
    Qm = Q.scale(m) if m != 1 else Q
    fP = TropicalPolynomial.from_polytope(Pm)
    fQ = TropicalPolynomial.from_polytope(Qm)
    try:
        h = divide(fP, fQ)
    except NotContained as e:
        raise NotASummand(("not_refining", e.witness),
                          f"normal fan of P does not refine that of Q "
                          f"(witness direction {point_text(e.witness)})") from e
    except NegativeWeight as e:
        raise NotASummand(("negative_weight", e.dual_edge, e.deficit),
                          f"edge {e.dual_edge} of P has weight deficit "
                          f"{e.deficit}") from e
    if any(c != 0 for c in h.terms.values()):
        raise CertificateError(
            "the quotient of two support functions has a nonzero "
            "coefficient")
    R = LatticePolytope(list(h.essential_terms()))
    if m != 1:
        R = R.scale(Fraction(1, m))
    if Q + R != P:
        raise CertificateError(
            "Q + R differs from P although the quotient of the support "
            "functions exists")
    return R


def is_summand(P: LatticePolytope, Q: LatticePolytope) -> bool:
    try:
        factor(P, Q)
        return True
    except NotASummand:
        return False


def has_scaled_summand(P: LatticePolytope, Q: LatticePolytope) -> bool:
    """Is P = c Q + R for some rational c >= 0 and polytope R?

    Decided by the vertex-count criterion: this holds exactly when P and
    P + Q have the same number of vertices.
    """
    if P.n != Q.n:
        raise ValueError("ambient dimensions differ")
    return len(P.vertices) == len((P + Q).vertices)


# ---------------------------------------------------------------------------
# the weight cone and factorization bases


def balanced_weight_lattice(fan: Fan) -> Tuple[List[tuple], List]:
    """Lattice basis of all integer balanced weight vectors, plus wall order."""
    keys = sorted(fan.walls)
    rows = balance_matrix(fan, keys)
    if not rows:
        lat = [tuple(1 if j == i else 0 for j in range(len(keys)))
               for i in range(len(keys))]
        return lat, keys
    return integer_nullspace(rows), keys


def _balanced_cone_rays(lattice: List[tuple], m: int) -> List[tuple]:
    """Primitive extreme rays of the cone of non-negative balanced weights.

    lattice spans the balanced weights in R^m; the cone is cut out by
    the m non-negativity constraints in the coordinates of that basis,
    and its rays are mapped back to weight vectors.
    """
    cons = [(tuple(b[i] for b in lattice), False) for i in range(m)]
    rays, lin, _ = dd_cone(cons, len(lattice))
    if lin:
        raise CertificateError("the non-negativity constraints leave a line")
    return [normalize_ray(tuple(sum(c * b[i] for c, b in zip(ray, lattice))
                                for i in range(m)))
            for ray in rays]


def weight_cone_basis(fan: Fan) -> FactorizationBasis:
    """A factorization basis for a polytopal fan.

    The basis vectors form a non-negative lattice basis of the span of
    W(N); the positive witness comes from the extreme rays of the cone of
    non-negative balanced weights.  Each basis table is the walk of its
    vector (FactorizationBasis), with no hull.
    NotPolytopal if no strictly positive balanced weight vector exists.
    """
    lattice, keys = balanced_weight_lattice(fan)
    m = len(keys)
    if not lattice:
        raise NotPolytopal("no nonzero balanced weight vector exists")
    rays = _balanced_cone_rays(lattice, m)
    if not rays:
        raise NotPolytopal("the balanced non-negative cone is trivial")
    witness = tuple(sum(r[i] for r in rays) for i in range(m))
    if any(x <= 0 for x in witness):
        raise NotPolytopal(
            "no strictly positive balanced weight vector exists")
    return FactorizationBasis(fan, [WeightVector.from_values(fan, v) for v
                                    in nonnegative_basis(lattice, witness)])


def certify_signed_sum(table, c, basis: FactorizationBasis):
    """Check P + sum(y_i^- B_i) = sum(y_i^+ B_i) + t for y = unit * c.

    table is chamber_vertices(P, basis.fan, ...) and the B_i are the
    basis polytopes.  The identity is checked on the vertex of every
    chamber, with no Minkowski sum and no hull.  The basis fan is
    complete and refines the normal fans of P and of every B_i, so on a
    chamber C each support function is linear, h_X(x) = v_C(X).x.
    Support functions add under Minkowski sums and scale under
    dilations, and a polytope is fixed by its support function, so the
    identity holds exactly when v_C(P) - sum(y_i v_C(B_i)) is one and
    the same vector t on every chamber.  The v_C(B_i) are read from the
    basis tables, those of unit * B_i, against c_i = y_i / unit.
    CertificateError when the differences disagree: when y is not the
    expansion of P, or a basis table is not that of its polytope.
    """
    terms = [(x, T) for x, T in zip(c, basis.tables) if sign(x)]
    t = None
    for k, v in enumerate(table):
        for x, vertices in terms:
            v = vsub(v, vscale(x, vertices[k]))
        if t is None:
            t = v
        elif v != t:
            raise CertificateError(
                "the signed Minkowski identity of the expansion fails on "
                "a chamber of the basis fan")


def expand_in_basis(Q: LatticePolytope, basis: FactorizationBasis) -> tuple:
    """The unique integer y with w_Q^ = sum_i y_i b_i over the basis fan.

    Read off the chamber table of Q and verified by the signed Minkowski
    identity Q + sum(y_i^- B_i) = sum(y_i^+ B_i) up to translation (see
    FactorizationBasis.expand).  NotRefined if the basis fan does not
    refine the normal fan of Q; ValueError for a vertex off Q^n, where
    lattice lengths are not defined, or for a y that is not integral.
    The basis is a lattice basis of the integer balanced weights, so y
    is integral exactly when every edge of Q has an integer lattice
    length.
    """
    if not all(is_rational_vector(v) for v in Q.vertices):
        raise ValueError("expand takes polytopes with rational vertices")
    y = basis.expand(Q, NotRefined)
    if any(c.denominator != 1 for c in y):
        raise ValueError("an edge of the polytope has a non-integer lattice "
                         "length; only integer lengths expand")
    return tuple(int(c) for c in y)


# ---------------------------------------------------------------------------
# summands and indecomposability


def _span_coordinates(P: LatticePolytope):
    """Coordinates of P in a saturated lattice basis of its direction span.

    Returns (image polytope, basis rows); the image is full-dimensional in
    Z^d, and embedding is x -> sum x_i b_i up to the dropped translation.
    """
    v0 = P.vertices[0]
    dirs = [vsub(v, v0) for v in P.vertices[1:]]
    funcs = integer_nullspace(dirs)
    if not funcs:
        B = [tuple(1 if j == i else 0 for j in range(P.n))
             for i in range(P.n)]
    else:
        B = integer_nullspace(funcs)
    coords = []
    for v in P.vertices:
        c = in_lattice(B, vsub(v, v0))
        if c is None:
            raise CertificateError("a saturated lattice basis misses an edge")
        coords.append(c)
    return LatticePolytope(coords), B


def _embed_from_span(Q: LatticePolytope, B, n: int) -> LatticePolytope:
    verts = [tuple(sum(c * b[j] for c, b in zip(cv, B)) for j in range(n))
             for cv in Q.vertices]
    return LatticePolytope(verts).normalize_translation()


def _summand_cone_rays(P: LatticePolytope):
    """Primitive extreme rays of {w balanced on N(P) : w >= 0}, with w_P."""
    fan = P.normal_fan()
    m = len(fan.walls)
    cap = int(os.environ.get(MAX_CONES_ENV, DEFAULT_MAX_CONES))
    if m > cap:
        raise TooLarge(f"{m} walls exceed the configured bound of {cap}")
    lattice, keys = balanced_weight_lattice(fan)
    wp = tuple(fan.wall_weights[k] for k in keys)
    return fan, keys, wp, _balanced_cone_rays(lattice, m)


def is_indecomposable(P: LatticePolytope) -> bool:
    """Are 0 and integer multiples of w_P the only balanced weights below w_P?

    Equivalently, P admits no decomposition into two non-point lattice
    summands, which maximal_summand_pairs witnesses directly.
    """
    return not maximal_summand_pairs(P)


def maximal_summand_pairs(P: LatticePolytope):
    """Pairs (R, R') with P = R + R' and R a minimal summand.

    Minimal summands carry the primitive generators of the extreme rays
    of the cone of non-negative balanced weights on N(P); a generator u
    yields a pair exactly when u <= w_P and u is not w_P itself.
    Lower-dimensional polytopes are factored inside their affine span.
    TooLarge when the fan has more walls than the configured bound.
    """
    d = P.dim()
    if d == 0:
        return []
    if d < P.n:
        Q, B = _span_coordinates(P)
        out = []
        for Rq, R2q in maximal_summand_pairs(Q):
            R = _embed_from_span(Rq, B, P.n)
            R2 = _embed_from_span(R2q, B, P.n)
            _certify_pair(P, R, R2)
            out.append((R, R2))
        return out
    fan, keys, wp, rays = _summand_cone_rays(P)
    pairs = []
    seen = set()
    for u in rays:
        if any(a > b for a, b in zip(u, wp)):
            continue
        if tuple(u) == tuple(wp):
            continue
        comp = {k: fan.wall_weights[k] - ui for k, ui in zip(keys, u)}
        R = reconstruct_from_fan(fan, dict(zip(keys, u)))
        R2 = reconstruct_from_fan(fan, comp)
        key = (R.vertices, R2.vertices)
        if key in seen:
            continue
        seen.add(key)
        _certify_pair(P, R, R2)
        pairs.append((R, R2))
    pairs.sort(key=lambda p: (p[0].vertices, p[1].vertices))
    return pairs


def _certify_pair(P: LatticePolytope, R: LatticePolytope,
                  R2: LatticePolytope):
    """CertificateError unless R + R2 equals P up to translation."""
    if (R + R2).normalize_translation() != P.normalize_translation():
        raise CertificateError(
            "a summand pair does not add up to the polytope")
