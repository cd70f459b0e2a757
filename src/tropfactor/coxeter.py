"""Coxeter fans and Phi-polytopes over Q(sqrt(2)).

A finite reflection arrangement in R^n cuts space into the chambers of
the Coxeter fan, the normal fan of the orbit polytope of a generic
point; its walls lie on the mirror hyperplanes.  The weight of a
Phi-polytope on a wall F is the metric length of the edge dual to F,
which is parallel to the primitive normal of F: l_F times its lattice
length, l_F the primal norm of that normal.  So metric weights w are
balanced exactly when w_F / l_F lies in the kernel of the lattice
balancing matrix Phi (tropical.balance_matrix).

The fans are simplicial: a support function is fixed by its heights on
the rays, and the lattice weights of the walls are linear in them (the
height map M of RayHeights, whose image is ker Phi).  The weight kernel
comes from one elimination of M.  Bases, their chamber tables and
expansions are those of every fan (FactorizationBasis): a table is
walked from its vector, and an expansion reads the lattice weights of a
polytope off the steps of its chamber table.  In type A all mirror
directions have one primal norm u, so that work runs in lattice units,
on rationals, and scales by u once.

Type A_n is coordinatized on the quotient of R^{n+1} by the diagonal:
points of the fan's ambient space are the action coordinates (f_1, ...,
f_n) of mean-zero functionals, so the dual Gram matrix is I + J and the
root e_i - e_j pairs with primal points through the integer vector
G(e_i - e_j), which is exactly the braid inequality normal.  B2 is
self-dual with the standard metric.  In both cases polytope edge
lengths are measured in the primal metric, the inverse of the dual
Gram matrix, and every root has squared length 2 on the type A side.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict

from .exact import (
    CertificateError,
    TropfactorError,
    dot,
    is_zero_vector,
    primitive_of_rational,
    rational_content,
    row_reduce,
    scalar_sqrt,
    sign,
    solve_linear,
    vadd,
    vscale,
    vsub,
)
from .division import NotBalanced, reconstruct_from_fan
from .minkowski import (
    FactorizationBasis,
    NotRefined,
    WeightVector,
    wall_lengths,
)
from .polyhedra import (
    Fan,
    LatticePolytope,
    Polyhedron,
    demote_vector,
    is_rational_vector,
    normalize_ray,
)
from .tropical import balance_matrix


class UnsupportedType(TropfactorError):
    """The requested Coxeter type is outside A_1..A_4, B2."""


class NotAPhiPolytope(NotRefined):
    """The polytope's normal fan is not refined by the Coxeter fan."""


class PointOnHyperplane(TropfactorError):
    """The base point lies on a mirror, so its orbit is degenerate."""


_SUPPORTED = ("A1", "A2", "A3", "A4", "B2")
_GROUP_ORDER = {"A1": 2, "A2": 6, "A3": 24, "A4": 120, "B2": 8}


# ---------------------------------------------------------------------------
# root systems


class RootSystem:
    """A finite root system with unit-length roots over Q(sqrt(2)).

    Roots are stored both as primitive integer vectors (for exact sign
    work) and as unit vectors in the dual metric.  gram is the dual Gram
    matrix, pgram its inverse; mirror(r) = gram . r is the integer
    pairing vector of the mirror hyperplane of r, and at the same time
    the primal direction of edges dual to walls on that mirror.
    mirror_unit is the primal norm shared by the primitive mirror
    directions, or None when they have more than one (B2: 1 and sqrt(2)).
    """

    def __init__(self, tag: str, n: int, gram, int_roots):
        self.tag = tag
        self.n = n
        self.gram = tuple(tuple(row) for row in gram)
        # the inverse of the symmetric gram, column by column
        self.pgram = tuple(
            solve_linear(self.gram, tuple(int(i == j) for i in range(n)))
            for j in range(n))
        self.int_roots = tuple(int_roots)
        self.int_positive = tuple(r for r in self.int_roots
                                  if _lex_positive(r))
        self.roots = tuple(self.unit_root(r) for r in self.int_roots)
        self.int_simple = tuple(self._find_simple())
        self.simple_roots = tuple(self.unit_root(r) for r in self.int_simple)
        self._norms = {}  # primitive direction -> its primal norm
        units = {self.primal_norm(primitive_of_rational(self.mirror(r)))
                 for r in self.int_positive}
        self.mirror_unit = units.pop() if len(units) == 1 else None

    # -- metric ------------------------------------------------------------

    def mirror(self, r) -> tuple:
        return tuple(dot(row, r) for row in self.gram)

    def gdot(self, u, v):
        return dot(u, self.mirror(v))

    def root_norm(self, r):
        return scalar_sqrt(self.gdot(r, r))

    def unit_root(self, r) -> tuple:
        nrm = self.root_norm(r)
        return demote_vector(x / nrm for x in r)

    def primal_norm(self, d):
        """The length sqrt(d . pgram d) of the primal vector d.

        A rational d is rational_content(d) times the norm of its
        primitive direction, which is computed once per direction: the
        edges of Phi-polytopes run along the |Phi+| mirror directions.
        Q(sqrt(2)) input takes the formula directly.
        """
        if not is_rational_vector(d):
            return self._direct_norm(d)
        if is_zero_vector(d):
            return Fraction(0)
        p = primitive_of_rational(d)
        nrm = self._norms.get(p)
        if nrm is None:
            nrm = self._norms[p] = self._direct_norm(p)
        return rational_content(d) * nrm

    def _direct_norm(self, d):
        return scalar_sqrt(dot(d, tuple(dot(row, d) for row in self.pgram)))

    # -- reflections -------------------------------------------------------

    def reflect_dual(self, x, r) -> tuple:
        """Image of the dual-space point x under the reflection in r."""
        c = 2 * self.gdot(x, r) / self.gdot(r, r)
        return demote_vector(vsub(x, vscale(c, r)))

    def reflect_primal(self, v, r) -> tuple:
        """Image of the primal point v; r pairs with v through mirror(r)."""
        c = 2 * dot(v, r) / self.gdot(r, r)
        return demote_vector(vsub(v, vscale(c, self.mirror(r))))

    def orbit(self, x, reflect) -> set:
        """The orbit of x under reflect(., r) for the simple roots r."""
        seen, queue = {x}, [x]
        while queue:
            p = queue.pop()
            for r in self.int_simple:
                q = reflect(p, r)
                if q not in seen:
                    seen.add(q)
                    queue.append(q)
        return seen

    # -- simple roots ------------------------------------------------------

    def _find_simple(self):
        """Positive roots whose mirrors are facets of the fundamental cone.

        The cone {x : <x, alpha> >= 0 for all positive alpha} is cut out
        by the simple roots alone; the irredundant H-description of the
        intersection recovers exactly their mirrors.
        """
        C = Polyhedron(self.n, [(tuple(-x for x in self.mirror(r)),
                                 Fraction(0)) for r in self.int_positive])
        ineqs, eqs = C.minimal_hrep()
        if eqs:
            raise CertificateError("the fundamental chamber is not "
                                   "full-dimensional")
        facets = {normalize_ray(tuple(-x for x in a)) for a, _ in ineqs}
        simple = [r for r in self.int_positive
                  if normalize_ray(self.mirror(r)) in facets]
        if len(simple) != len(facets):
            raise CertificateError(
                "a facet of the fundamental chamber lies on no mirror")
        return simple

    def __repr__(self):
        return f"RootSystem({self.tag!r}, {len(self.int_roots)} roots)"


def _lex_positive(r) -> bool:
    for x in r:
        if x:
            return x > 0
    return False


def build_root_system(tag: str) -> RootSystem:
    """The root system of the given type, with validated reflection closure.

    A_n (n <= 4) uses the quotient coordinates described in the module
    docstring; its n(n+1) roots are the images of e_i - e_j and all have
    squared dual norm 2.  B2 has the eight roots +-e_1, +-e_2,
    (+-1, +-1)/sqrt(2) in the standard metric.  Raises UnsupportedType
    for any other tag.
    """
    if tag not in _SUPPORTED:
        raise UnsupportedType(
            f"type {tag!r} is not supported; choose one of {_SUPPORTED}")
    if tag == "B2":
        n = 2
        gram = ((1, 0), (0, 1))
        ints = [(1, 0), (0, 1), (1, 1), (1, -1)]
    else:
        n = int(tag[1])
        gram = tuple(tuple(2 if i == j else 1 for j in range(n))
                     for i in range(n))
        # a-coordinates of e_i - e_j: drop the last entry of the
        # mean-orthogonal representative
        ints = []
        for i in range(n):
            ints.append(tuple(1 if k == i else 0 for k in range(n)))
            for j in range(i + 1, n):
                ints.append(tuple(1 if k == i else (-1 if k == j else 0)
                                  for k in range(n)))
    int_roots = [tuple(r) for r in ints] + [tuple(-x for x in r) for r in ints]
    rs = RootSystem(tag, n, gram, int_roots)
    if tag.startswith("A") and any(rs.gdot(r, r) != 2 for r in rs.int_roots):
        raise CertificateError("a type A root has squared dual norm not 2")
    roots = set(rs.roots)
    if any({rs.reflect_dual(u, r) for u in roots} != roots
           for r in rs.int_roots):
        raise CertificateError("a reflection does not permute the root set")
    if len(rs.int_simple) != n:
        raise CertificateError(
            f"{len(rs.int_simple)} simple roots found, not {n}")
    return rs


# ---------------------------------------------------------------------------
# the Coxeter fan


class CoxeterFan:
    """The chamber fan of a reflection arrangement, with wall bookkeeping.

    wall_order fixes the cone order used when weight vectors are written
    as tuples; for B2 it is the Cayley-graph order of the eight rays
    (W_t, W_s, sW_t, stW_s, stsW_t, tstW_s, tsW_t, tW_s) starting at the
    ray (1, 1) and going counterclockwise, for type A it is the sorted
    canonical key order.  balance_rows gives the balancing conditions of
    metric wall weights over that order.
    """

    def __init__(self, rs: RootSystem, fan: Fan, wall_order, labels=None):
        self.rs = rs
        self.fan = fan
        self.wall_order = list(wall_order)
        self.labels = dict(labels) if labels is not None else None
        self.group_order = len(fan.chambers)
        self._rows = None

    # -- weights as dicts or tuples ---------------------------------------

    def weight_dict(self, w) -> Dict:
        if isinstance(w, dict):
            missing = [k for k in self.wall_order if k not in w]
            if missing or len(w) != len(self.wall_order):
                raise ValueError("weight keys do not match the fan's walls")
            return dict(w)
        values = list(w)
        if len(values) != len(self.wall_order):
            raise ValueError(
                f"expected {len(self.wall_order)} weights, got {len(values)}")
        return dict(zip(self.wall_order, values))

    def weight_values(self, by_key) -> tuple:
        return tuple(by_key[k] for k in self.wall_order)

    # -- balancing ----------------------------------------------------------

    def balance_rows(self):
        """(Phi, lengths): the metric balance rows are Phi . diag(1/lengths).

        Phi is the integer balancing matrix of the fan over wall_order
        (tropical.balance_matrix) and lengths[j] the primal norm l_j of
        the primitive inward normal of wall j: the edge dual to wall j is
        parallel to that normal, so its metric length is l_j times its
        lattice length (see the module docstring).
        """
        if self._rows is None:
            lengths = [self.rs.primal_norm(primitive_of_rational(
                self.fan.wall_chambers[k][0][1])) for k in self.wall_order]
            self._rows = balance_matrix(self.fan, self.wall_order), lengths
        return self._rows

    def __repr__(self):
        return (f"CoxeterFan({self.rs.tag!r}, {self.group_order} chambers, "
                f"{len(self.wall_order)} walls)")


_B2_LABEL_ORDER = ("W_t", "W_s", "sW_t", "stW_s",
                   "stsW_t", "tstW_s", "tsW_t", "tW_s")


def _b2_labels(rs: RootSystem, fan: Fan):
    """Wall order and labels for B2, following the Cayley-graph cosets.

    The generator s reflects in the vertical mirror and fixes the ray
    (0, 1); t reflects in the main diagonal and fixes (1, 1).  A label
    like stW_s names the coset st<s>, whose ray is s(t(ray of W_s)).
    """
    base = {"t": (Fraction(1), Fraction(1)), "s": (Fraction(0), Fraction(1))}
    gen_root = {"s": (1, 0), "t": (1, -1)}
    if any(rs.reflect_dual(base[g], gen_root[g]) != base[g] for g in "st"):
        raise CertificateError("a generator does not fix its own ray")
    wall_of_ray = {}
    for k, W in fan.walls.items():
        rays = W.rays
        if len(rays) != 1:
            raise CertificateError(f"a B2 wall has {len(rays)} rays")
        wall_of_ray[normalize_ray(rays[0])] = k
    order, labels = [], {}
    for label in _B2_LABEL_ORDER:
        word, g = label.split("W_")
        ray = base[g]
        for ch in reversed(word):
            ray = rs.reflect_dual(ray, gen_root[ch])
        k = wall_of_ray[normalize_ray(ray)]
        order.append(k)
        labels[k] = label
    if len(set(order)) != 8:
        raise CertificateError("the eight cosets miss a ray")
    return order, labels


def coxeter_fan(rs: RootSystem) -> CoxeterFan:
    """The complete fan of Weyl chambers of the arrangement of rs.

    The normal fan of the orbit polytope of x, <x, alpha> = 1 for each
    simple root alpha (Ardila-Castillo-Eur-Postnikov, arXiv:1904.11029),
    from one hull: phi_permutahedron certifies the group order of
    vertices, and each wall is checked to lie on a mirror, so each open
    Weyl chamber lies in one of as many normal cones, and they are equal.
    The vertex normal cones are listed by their interior points, the sums
    of their rays, and their cells are derived once, with no edge weights.
    """
    x = solve_linear(rs.int_simple, (1,) * rs.n)
    chambers, _ = phi_permutahedron(rs, x).normal_cones()
    fan = Fan(sorted(chambers, key=Polyhedron.relative_interior_point))
    mirrors = {normalize_ray(rs.mirror(r)) for r in rs.int_roots}
    if any(normalize_ray(sides[0][1]) not in mirrors
           for sides in fan.wall_chambers.values()):
        raise CertificateError(
            "a wall of the orbit polytope's normal fan lies on no mirror")
    if rs.tag == "B2":
        wall_order, labels = _b2_labels(rs, fan)
    else:
        wall_order, labels = sorted(fan.walls), None
    return CoxeterFan(rs, fan, wall_order, labels)


# ---------------------------------------------------------------------------
# balancing


def root_balanced(cf: CoxeterFan, w) -> bool:
    """Are the metric wall weights w balanced around every ridge?

    The test is Phi . (w_F / l_F) = 0: w_F / l_F are the lattice lengths
    of the dual edges, and the lattice balancing matrix decides them.
    It is exact for weights in Q(sqrt(2)).
    """
    Phi, lengths = cf.balance_rows()
    values = cf.weight_values(cf.weight_dict(w))
    return not any(sum(x * values[j] / lengths[j] for j, x in enumerate(row)
                       if x) for row in Phi)


# ---------------------------------------------------------------------------
# ray heights


class RayHeights:
    """The height map M: Q^rays -> Q^walls of a complete simplicial fan.

    On a chamber C the gradient x_C(h) of the function with heights h
    solves rho . x = h(rho) for the n rays of C.  The lattice weight of
    the wall between C and D is x_D - x_C along the primitive inward
    normal p of D: (h(rho_D) - rho_D . x_C(h)) / (rho_D . p) for the ray
    rho_D of D off the wall, the column of M for that wall (columns),
    read off the inverse of C's rays.  The kernel of M is the linear
    functions and its image is ker Phi, McMullen's wall-crossing
    description of the type cone (arXiv:1906.06861, section 2).
    """

    def __init__(self, fan: Fan):
        index, n = {}, fan.n
        chamber_rays, inverse = [], []
        for C in fan.chambers:
            if C.lineality or len(C.rays) != n:
                raise CertificateError("a chamber is not simplicial")
            chamber_rays.append(tuple(index.setdefault(r, len(index))
                                      for r in C.rays))
            red, _ = row_reduce([tuple(r) + tuple(int(i == j)
                                                  for j in range(n))
                                 for i, r in enumerate(C.rays)])
            inverse.append([row[n:] for row in red])
        self.rays = list(index)
        self.columns = {}
        for k, ((i, _), (j, inward)) in fan.wall_chambers.items():
            (d,) = set(chamber_rays[j]) - set(chamber_rays[i])
            rho, inv = self.rays[d], inverse[i]
            c = Fraction(dot(rho, primitive_of_rational(inward)))
            col = self.columns[k] = {d: 1 / c}
            for t, e in enumerate(chamber_rays[i]):
                lam = sum(rho[s] * inv[s][t] for s in range(n))
                if lam:
                    col[e] = -lam / c

    def image_basis(self, order) -> list:
        """The reduced basis z of the image of M.

        M is row-reduced as a #rays x #walls matrix with its columns in
        reverse order.  The reversed echelon form is the basis of ker Phi
        that nullspace_field gives: z is 1 at its free column f, 0 at the
        other free columns and after f.  The list runs by increasing f.
        """
        red, _ = row_reduce([tuple(self.columns[k].get(e, 0)
                                   for k in reversed(order))
                             for e in range(len(self.rays))])
        return [row[::-1] for row in red][::-1]


def ray_heights(fan: Fan) -> RayHeights:
    """The height map of a simplicial fan, built once and kept on it."""
    if fan.heights is None:
        fan.heights = RayHeights(fan)
    return fan.heights


# ---------------------------------------------------------------------------
# the weight cone over the field


def phi_weight_cone_basis(cf: CoxeterFan) -> FactorizationBasis:
    """A basis of the balanced weight space, non-negative entry-wise.

    Metric weights w are balanced exactly when (w_j / l_j) lies in ker
    Phi, the image of the height map; one elimination of M gives its
    reduced basis z (RayHeights.image_basis), with Phi . z = 0 checked
    over Q.  z, with free column f (its last non-zero entry), maps to
    x_j = z_j l_j / l_f, the field kernel vector of Phi . diag(1/l) with
    x_f = 1.  The all-ones vector is balanced (the weights of the orbit
    polytope of the point at distance 1/2 from every wall of the
    fundamental chamber); it is the sum of the x, which is checked, so it
    replaces the first of them, and adding multiples of it makes the
    others non-negative.  Rows follow cf.wall_order.

    The basis tables are the walks of the vectors (FactorizationBasis)
    with unit u: in type A, RootSystem.mirror_unit, the one primal norm
    of the mirror directions, so the walks step by the rational x; B2
    takes u = 1.  The vectors are balanced, so a walk that does not close
    is a CertificateError.
    """
    m = len(cf.wall_order)
    Phi, lengths = cf.balance_rows()
    rows = [[(j, x) for j, x in enumerate(row) if x] for row in Phi]
    kernel = []
    for z in ray_heights(cf.fan).image_basis(cf.wall_order):
        if any(sum(x * z[j] for j, x in row) for row in rows):
            raise CertificateError(
                "a vector of the ray-height kernel is not balanced")
        lf = lengths[max(j for j, x in enumerate(z) if x)]
        kernel.append(demote_vector(x if not x or l == lf else x * l / lf
                                    for x, l in zip(z, lengths)))
    ones = (Fraction(1),) * m
    if not kernel or tuple(map(sum, zip(*kernel))) != ones:
        raise CertificateError(
            "the balanced weight kernel does not sum to the all-ones vector")
    out = [ones]
    for v in kernel[1:]:
        c = min(v)
        out.append(demote_vector(vadd(v, vscale(-c, ones)) if sign(c) < 0
                                 else v))
    try:
        return FactorizationBasis(
            cf.fan, [WeightVector(cf.fan, dict(zip(cf.wall_order, v)))
                     for v in out], order=cf.wall_order,
            length=cf.rs.primal_norm,
            unit=1 if cf.rs.mirror_unit is None else cf.rs.mirror_unit)
    except NotBalanced as e:
        raise CertificateError("the walk of a balanced basis vector does "
                               "not close") from e


def reconstruct_phi(cf: CoxeterFan, w) -> LatticePolytope:
    """The polytope with the given balanced wall weights as edge lengths.

    Support integration over the chamber graph on the lattice lengths
    w_F / l_F.  In type A, rational weights are walked as they are, on
    rationals, and the polytope is scaled by 1/u with no second hull.
    NotBalanced propagates from the walk when the weights fail to close
    up.
    """
    by_key = cf.weight_dict(w)
    rs = cf.rs
    if rs.mirror_unit is not None and is_rational_vector(by_key.values()):
        return reconstruct_from_fan(cf.fan, by_key).scale(1 / rs.mirror_unit)
    return reconstruct_from_fan(cf.fan, {k: x / rs.primal_norm(
        primitive_of_rational(cf.fan.wall_chambers[k][0][1]))
        for k, x in by_key.items()})


# ---------------------------------------------------------------------------
# Phi-polytopes


def phi_weights(P: LatticePolytope, cf: CoxeterFan) -> Dict:
    """Metric edge weights of P on the walls of the Coxeter fan.

    Requires the Coxeter fan to refine the normal fan of P; otherwise
    NotAPhiPolytope.  Walls whose dual face is a vertex get weight zero;
    refinement forces every edge to be parallel to a mirror normal, so
    all lengths stay in Q(sqrt(2)).
    """
    return wall_lengths(P, cf.fan, cf.rs.primal_norm, NotAPhiPolytope)


def phi_expand(P: LatticePolytope, basis: FactorizationBasis) -> tuple:
    """The unique y over the basis with w_P = sum_i y_i b_i.

    FactorizationBasis.expand with NotAPhiPolytope: chamber_vertices
    checks that the Coxeter fan refines the normal fan of P, with its
    witness, and gives the vertex v_C of each chamber.  The steps of
    that table across the walls are the lattice weights of P, and r of
    them give y / u, rational in type A.  y is verified as the signed
    Minkowski identity P + sum(y_i^- B_i) = sum(y_i^+ B_i) up to
    translation on every chamber, against the basis tables of u B_i and
    y / u, before it is returned.
    """
    return basis.expand(P, NotAPhiPolytope)


def phi_permutahedron(rs: RootSystem, x) -> LatticePolytope:
    """The convex hull of the orbit of x under the reflection group.

    x is a primal point; it pairs with the root r through the integer
    vector mirror(r), and must avoid all mirrors (PointOnHyperplane
    otherwise).  Every orbit point is then a vertex, so the vertex count
    equals the group order.
    """
    x = demote_vector(Fraction(v) if isinstance(v, int) else v for v in x)
    if len(x) != rs.n:
        raise ValueError("point has wrong dimension")
    for r in rs.int_positive:
        if dot(x, r) == 0:
            raise PointOnHyperplane(
                f"the point lies on the mirror of the root {r}")
    seen = rs.orbit(x, rs.reflect_primal)
    if len(seen) != _GROUP_ORDER[rs.tag]:
        raise CertificateError(
            f"the orbit of a generic point has {len(seen)} points, "
            f"not the group order {_GROUP_ORDER[rs.tag]}")
    P = LatticePolytope(sorted(seen))
    if len(P.vertices) != len(seen):
        raise CertificateError(
            f"only {len(P.vertices)} of the {len(seen)} orbit points of a "
            f"generic point are vertices of their hull")
    return P
