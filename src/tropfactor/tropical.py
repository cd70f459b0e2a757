"""Tropical polynomials over (R, max, +) and their dual complexes.

A tropical polynomial is a finite map from integer exponent vectors to
rational coefficients, evaluated as f(x) = max_a (v_a + a.x).  The induced
regular subdivision of the Newton polytope comes from the upper convex
hull of the lifted points (a, v_a): a face is upper when its normal cone
meets {last coordinate > 0}, which is the side the argmax structure of a
max-plus polynomial sees.

The dual complex T(f) decomposes R^n into the chambers where a single
term wins; its codimension 1 cells carry lattice-length weights and the
balancing condition around codimension 2 cells characterizes tropical
varieties among weighted complexes.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from .exact import (
    CertificateError,
    TropfactorError,
    dot,
    integer_nullspace,
    integer_row,
    primitive_of_rational,
    rank,
    rational_content,
    sign,
    vadd,
    vscale,
    vsub,
)
from .polyhedra import (
    LatticePolytope,
    Polyhedron,
    adjacent_pairs,
    in_mask,
    normalize_ray,
    point_hull,
    rref_basis,
)


class WeightDomainMismatch(TropfactorError):
    pass


Exponent = Tuple[int, ...]


class TropicalPolynomial:
    """A max-plus polynomial with integer exponents and rational coefficients."""

    def __init__(self, terms: Dict[Sequence[int], object], n: Optional[int] = None):
        clean = {}
        for a, v in terms.items():
            e = tuple(int(x) for x in a)
            v = Fraction(v)
            if e in clean:
                clean[e] = max(clean[e], v)
            else:
                clean[e] = v
        if not clean:
            raise ValueError("a tropical polynomial needs at least one term")
        dims = {len(e) for e in clean}
        if len(dims) != 1:
            raise ValueError("mixed exponent dimensions")
        self.n = dims.pop() if n is None else n
        if n is not None and n not in dims:
            raise ValueError("exponent dimension disagrees with n")
        self.terms = dict(sorted(clean.items()))
        self._subdivision = None
        self._essential = None

    # -- evaluation --------------------------------------------------------

    def __call__(self, x):
        return max(v + dot(a, x) for a, v in self.terms.items())

    def argmax(self, x):
        """The terms achieving the maximum at x."""
        best = None
        arg = []
        for a, v in self.terms.items():
            s = v + dot(a, x)
            if best is None or s > best:
                best, arg = s, [a]
            elif s == best:
                arg.append(a)
        return arg

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other: "TropicalPolynomial") -> "TropicalPolynomial":
        """Tropical product: Minkowski sum of supports, max of coefficient sums."""
        if self.n != other.n:
            raise ValueError("ambient dimensions differ")
        out: Dict[Exponent, Fraction] = {}
        for a, v in self.terms.items():
            for b, u in other.terms.items():
                e = tuple(x + y for x, y in zip(a, b))
                s = v + u
                if e not in out or s > out[e]:
                    out[e] = s
        return TropicalPolynomial(out)

    def shift(self, c) -> "TropicalPolynomial":
        return TropicalPolynomial({a: v + Fraction(c) for a, v in self.terms.items()})

    @classmethod
    def from_polytope(cls, P: LatticePolytope) -> "TropicalPolynomial":
        """The support function of P as a tropical polynomial (all coefficients 0)."""
        return cls({v: Fraction(0) for v in P.vertices})

    # -- essential structure ------------------------------------------------

    def subdivision(self) -> "RegularSubdivision":
        if self._subdivision is None:
            self._subdivision = RegularSubdivision(self)
        return self._subdivision

    def essential_terms(self) -> Dict[Exponent, Fraction]:
        """Terms that are the unique maximum somewhere (upper hull vertices)."""
        if self._essential is None:
            self._essential = {a: self.terms[a]
                               for a in self.subdivision().vertices()}
        return self._essential

    def same_function(self, other: "TropicalPolynomial") -> bool:
        return self.n == other.n and self.essential_terms() == other.essential_terms()

    def dual_complex(self) -> "TropicalComplex":
        return TropicalComplex(self)


class RegularSubdivision:
    """The subdivision of the Newton polytope induced by the coefficient lift.

    Cells are recorded as tuples of exponent vectors: all lifted points
    lying on the corresponding upper face, so terms absorbed into the
    interior or boundary of a cell are kept visible.

    Everything is read off one double description: the lifted points
    (a, v_a) plus the downward ray (0, ..., 0, -1).  Each facet row
    (alpha, c).(x, t) <= beta of that polyhedron is either upper (c > 0),
    a cell of the subdivision, or vertical (c = 0), lying over a facet of
    the Newton polytope; its equalities (alpha, 0) are those of the
    affine hull of the Newton polytope, and normals keeps their alpha.
    tight[i] is the bitmask of the facets the i-th lifted point lies on,
    as point_hull returns it.  A face is the set of points tight on a set
    T of facets; it belongs to the subdivision when T contains an upper
    facet (a bit of the mask upper).  An affine lift, or a single term,
    has one upper facet.  Edges and 2-faces come with their mask T, the
    facets through all of their points, which TropicalComplex reads its
    walls and ridges off.
    """

    def __init__(self, f: TropicalPolynomial):
        # no reference back to f: f caches its subdivision
        self.points = list(f.terms)
        lifted = [a + (v,) for a, v in f.terms.items()]
        self.rows, eqs, self.tight = point_hull(
            lifted, [(0,) * f.n + (-1,)])
        self.normals = [a[:-1] for a, _ in eqs]
        facets = [1 << j for j, (a, _) in enumerate(self.rows)
                  if sign(a[-1]) > 0]
        self.upper = sum(facets)
        self.cells = sorted(
            tuple(p for p, t in zip(self.points, self.tight) if t & bit)
            for bit in facets)
        self._vertices = None

    def _face(self, T):
        """Indices of the points tight on every facet in the bitmask T."""
        return [k for k, t in enumerate(self.tight) if t & T == T]

    def _vertex_indices(self):
        if self._vertices is None:
            self._vertices = [
                i for i, t in enumerate(self.tight)
                if t & self.upper and self._face(t) == [i]]
        return self._vertices

    def vertices(self):
        return [self.points[i] for i in self._vertex_indices()]

    def _edge_facets(self):
        """(i, j, T) per edge: adjacent vertex masks, T with an upper facet."""
        vs = self._vertex_indices()
        return [(vs[i], vs[j], T)
                for i, j, T in adjacent_pairs([self.tight[k] for k in vs])
                if T & self.upper]

    def edges(self):
        """Edges of the subdivision, as ordered pairs of exponent vertices."""
        pts = self.points
        return [(pts[i], pts[j]) for i, j, _ in self._edge_facets()]

    def _two_face_facets(self):
        """(vertex tuple, T) for each 2-face, T the facets on all of it.

        Two edges at a common vertex lie in a 2-face exactly when the
        points on all of their shared facets T = T1 & T2 have affine rank
        2, an integer rank test on the points (1, a).  The facets through
        both edges are those through the 2-face they span, so T does not
        depend on the pair that finds the face.
        """
        vs = set(self._vertex_indices())
        out = {}
        for (i1, j1, T1), (i2, j2, T2) in itertools.combinations(
                self._edge_facets(), 2):
            if not {i1, j1} & {i2, j2}:
                continue
            T = T1 & T2
            if not T & self.upper:
                continue
            pts = tuple(self.points[k] for k in self._face(T) if k in vs)
            if pts not in out and rank([(1,) + p for p in pts]) == 3:
                out[pts] = T
        return sorted(out.items())

    def two_faces(self):
        """2-dimensional faces of the subdivision, as sorted vertex tuples."""
        return [face for face, _ in self._two_face_facets()]


# ---------------------------------------------------------------------------
# dual complex


class TropicalComplex:
    """The polyhedral complex dual to the regular subdivision of f.

    chambers are the closed regions where one essential term is maximal;
    walls (codimension 1) are dual to subdivision edges and weighted by
    their lattice length; ridges (codimension 2) are dual to subdivision
    2-faces and are built on first use.  The attribute names match Fan so
    the balancing check below serves both.

    No hull runs per cell, and no cell is checked against its parent's
    generators.  The chamber of a term a is dual to its star in the
    subdivision (Maclagan-Sturmfels, Introduction to Tropical Geometry,
    3.1): each upper facet (alpha, c) of the lifted hull through a gives
    the vertex alpha / c, each vertical facet (alpha, 0) the ray alpha,
    and the lineality is orthogonal to the Newton polytope.  Like a
    double description of the chamber, the hull's double description
    splits the lineality off from the first coordinate on, so both give
    the same representatives.  Each facet row is turned into its
    generator once, and a cell takes the generators of the facets in its
    mask: chamber k those of chamber_facets[k], the tight mask of its
    term, a wall or ridge those of the mask T of its dual edge or 2-face.
    A generator of the chamber of a lies on the row (b - a).x <= v_a - v_b
    exactly when the lifted point of b lies on its facet too (at the
    vertex alpha / c both terms then attain f), so the face of the
    chamber on that row has the generators of tight[a] & tight[b].  A
    cell keeps its chamber's rows with those of the dual cell as
    equalities.

    The dimension check of a cell is an integer rank test: its
    homogenized generators are positive multiples of the facet rows
    (alpha, c) in T, with the lineality rows (l, 0), so their rank is the
    dimension of the cell plus one, n for a wall and n - 1 for a ridge.
    CertificateError when it is not.
    """

    def __init__(self, f: TropicalPolynomial):
        self.f = f
        self.n = f.n
        sub = f.subdivision()
        self.chamber_terms = list(f.essential_terms())
        self._lin = rref_basis(sub.normals)
        self._lin_rows = [integer_row(l) + (0,) for l in self._lin]
        self._rows = [row for row, _ in sub.rows]
        self._upper = sub.upper
        self._generators = [
            tuple(Fraction(x) / row[-1] for x in row[:-1]) if row[-1]
            else normalize_ray(row[:-1]) for row in self._rows]
        self.chamber_facets = [sub.tight[i] for i in sub._vertex_indices()]
        self.chambers = []
        for a, T in zip(self.chamber_terms, self.chamber_facets):
            va = f.terms[a]
            ineqs = [(vsub(b, a), va - vb) for b, vb in f.terms.items() if b != a]
            self.chambers.append(
                Polyhedron(self.n, ineqs, generators=self._on(T)))
        self.walls = {}
        self.wall_duals = {}
        self.wall_weights = {}
        self._wall_sides = {}
        index = {a: i for i, a in enumerate(self.chamber_terms)}
        pts = sub.points
        for i, j, T in sub._edge_facets():
            a, b = pts[i], pts[j]
            if rank(in_mask(self._rows, T) + self._lin_rows) != self.n:
                raise CertificateError(
                    f"the subdivision edge {(a, b)} dualizes to no wall")
            ia, ib = index[a], index[b]
            W = self._cell(ia, [b], T)
            k = W.key()
            self.walls[k] = W
            self.wall_duals[k] = (a, b)
            self.wall_weights[k] = rational_content(vsub(b, a))
            self._wall_sides[k] = [(ia, None), (ib, None)]
        self._ridges = None
        self._ridge_walls = None

    def _on(self, T):
        """(vertices, rays, lineality) of the facets in the bitmask T."""
        return (in_mask(self._generators, T & self._upper),
                in_mask(self._generators, T & ~self._upper), self._lin)

    def _cell(self, i, others, T):
        """The face of chamber i where each term of others ties with its
        term, with the generators of the facets in T."""
        a = self.chamber_terms[i]
        C = self.chambers[i]
        eqs = [(vsub(b, a), self.f.terms[a] - self.f.terms[b]) for b in others]
        return Polyhedron(self.n, C.inequalities, C.equalities + eqs,
                          generators=self._on(T))

    def _compute_ridges(self):
        sub = self.f.subdivision()
        index = {a: i for i, a in enumerate(self.chamber_terms)}
        self._ridges = {}
        self._ridge_walls = {}
        for face, T in sub._two_face_facets():
            if rank(in_mask(self._rows, T) + self._lin_rows) != self.n - 1:
                raise CertificateError(
                    f"the subdivision 2-face {face} dualizes to no ridge")
            R = self._cell(index[face[0]], face[1:], T)
            k = R.key()
            self._ridges[k] = R
            # an edge of the subdivision with both ends in the face is an
            # edge of the face
            members = set(face)
            self._ridge_walls[k] = [wk for wk, (a, b) in self.wall_duals.items()
                                    if a in members and b in members]

    @property
    def ridges(self):
        if self._ridges is None:
            self._compute_ridges()
        return self._ridges

    @property
    def ridge_walls(self):
        """ridge key -> list of wall keys containing it."""
        if self._ridges is None:
            self._compute_ridges()
        return self._ridge_walls

    @property
    def wall_chambers(self):
        return self._wall_sides


# ---------------------------------------------------------------------------
# balancing


def annihilator_lattice(cell: Polyhedron):
    """Saturated basis of the integer functionals vanishing on L(cell)."""
    verts = cell.vertices
    span = rref_basis([vsub(v, verts[0]) for v in verts[1:]]
                      + list(cell.rays) + list(cell.lineality))
    if not span:
        return [tuple(1 if j == i else 0 for j in range(cell.n))
                for i in range(cell.n)]
    return integer_nullspace([integer_row(r) for r in span])


def covector(tau: Polyhedron, sigma: Polyhedron, functionals):
    """The primitive vector u_{sigma/tau}, in the quotient coordinates of tau.

    functionals is annihilator_lattice(tau), a saturated basis A of the
    integer functionals vanishing on L(tau).  Write L_Z for the lattice
    points of a direction space.  Being saturated, x -> A.x maps Z^n
    onto Z^k with kernel L_Z(tau), so it carries the rank-1 quotient
    L_Z(sigma) / L_Z(tau) onto a saturated rank-1 sublattice of Z^k (an
    integer point A.x on the line A.L(sigma) has x in L(sigma) + L(tau)
    = L(sigma)).  A lattice generator u of that quotient pointing
    into sigma is thus sent to the primitive vector along A.(p - q), for
    relative interior points p of sigma and q of tau: p - q lies in
    L(sigma) on sigma's side of L(tau), and A kills the choice of u
    modulo L(tau).  The result is A.u, an integer vector of length k.
    """
    d = vsub(sigma.relative_interior_point(), tau.relative_interior_point())
    return primitive_of_rational(tuple(dot(f, d) for f in functionals))


def ridge_stars(complex_like):
    """(ridge key, covectors) for every ridge, in key order.

    complex_like provides ridges, ridge_walls and walls in the shared
    layout of TropicalComplex and Fan.  covectors maps each wall of the
    star of a ridge to covector(ridge, wall, A), with one A =
    annihilator_lattice(ridge) for the whole star, so every covector of
    a ridge is written in the same coordinates of R^n / L(ridge).
    Weights w on the star are balanced at the ridge exactly when
    sum_F w_F u_F lies in L(ridge), that is when sum_F w_F A.u_F = 0.
    """
    for rk in sorted(complex_like.ridges):
        tau = complex_like.ridges[rk]
        funcs = annihilator_lattice(tau)
        yield rk, {wk: covector(tau, complex_like.walls[wk], funcs)
                   for wk in complex_like.ridge_walls[rk]}


def balance_matrix(complex_like, keys):
    """The balancing conditions as integer rows over the wall order keys.

    One row per ridge and quotient coordinate i of ridge_stars, with the
    i-th coordinate of the covector of each wall F of the star in the
    column of F: the kernel of the stacked rows is the space of balanced
    weight vectors.
    """
    col = {k: i for i, k in enumerate(keys)}
    rows = []
    for _, covs in ridge_stars(complex_like):
        cols = [col[wk] for wk in covs]
        for coords in zip(*covs.values()):
            row = [0] * len(col)
            for j, x in zip(cols, coords):
                row[j] = x
            rows.append(tuple(row))
    return rows


def balance_violation(complex_like, weights=None):
    """First unbalanced ridge of a weighted complex, or None if balanced.

    complex_like provides ridges, ridge_walls, walls and wall_weights in
    the shared layout of TropicalComplex and Fan.  weights may override
    the complex's own wall weights; its keys must be exactly the wall
    keys.  Returns (ridge key, excess) for the first ridge, in key order,
    where the excess sum_F w_F u_F of the covectors of ridge_stars is
    not zero.  The excess is written in the quotient coordinates A of
    the ridge (see covector), so it is zero exactly when the weighted
    sum of lattice covectors lies in the span of the ridge.  In the
    plane a ridge is a point, A is the identity and the excess is the
    weighted sum of the primitive wall directions.
    """
    if weights is None:
        weights = complex_like.wall_weights
    if weights is None:
        raise WeightDomainMismatch("complex carries no weights and none were given")
    if set(weights) != set(complex_like.walls):
        raise WeightDomainMismatch(
            f"weights cover {len(weights)} cells, complex has "
            f"{len(complex_like.walls)} walls")
    for rk, covs in ridge_stars(complex_like):
        total = None
        for wk, c in covs.items():
            contrib = vscale(weights[wk], c)
            total = contrib if total is None else vadd(total, contrib)
        if total is not None and any(sign(x) for x in total):
            return rk, total
    return None


def is_balanced(complex_like, weights=None) -> bool:
    return balance_violation(complex_like, weights) is None
