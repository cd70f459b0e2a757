"""Exact polyhedral geometry: cones, polyhedra, polytopes, fans.

One double description engine does all conversions between inequality and
generator descriptions; hulls, facets, normal fans and cell incidence are
thin layers over it.  Entries may be Fraction or QuadExt, so the same code
paths serve the rational fans and the Coxeter fans over Q(sqrt(2)).

Conventions.  An inequality is stored as (a, b) and means a.x <= b, so the
vectors a are outer normals.  Cones are polyhedra whose offsets are all
zero.  Normal cones use the max convention: N(v) = {y : y.v >= y.v' for
all vertices v'}, matching support functions f_P(y) = max_v y.v.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Sequence

from .exact import (
    CertificateError,
    QuadExt,
    TropfactorError,
    dot,
    integer_row,
    is_zero_vector,
    primitive_of_rational,
    primitive_vector,
    rank,
    rational_content,
    row_reduce,
    scalar_sqrt,
    sign,
    vadd,
    vsub,
)


class DimensionMismatch(TropfactorError):
    pass


class DegeneratePolytope(TropfactorError):
    pass


def _demote(x):
    """Collapse QuadExt values with no radical part back to Fraction."""
    if isinstance(x, QuadExt) and x.b == 0:
        return x.a
    return x


def demote_vector(v) -> tuple:
    return tuple(_demote(x) for x in v)


def is_rational_vector(v) -> bool:
    return all(isinstance(x, (int, Fraction)) for x in v)


def normalize_ray(v) -> tuple:
    """Canonical representative of the ray through v (positive scaling only)."""
    v = tuple(v)
    if all(isinstance(x, int) for x in v):
        if not any(v):
            raise ValueError("zero vector spans no ray")
        return primitive_vector(v)
    v = demote_vector(v)
    if is_zero_vector(v):
        raise ValueError("zero vector spans no ray")
    if is_rational_vector(v):
        return primitive_of_rational(v)
    c = abs(next(x for x in v if x))
    if isinstance(c, int):
        c = Fraction(c)  # int / int would give a float
    u = demote_vector(x / c for x in v)
    # a rational direction with an irrational scale gets the primitive form
    return primitive_of_rational(u) if is_rational_vector(u) else u


def _scaled_to_normal(a, b) -> tuple:
    """The row a.x <= b rescaled so that a is normalize_ray(a).

    Facets of different polytopes with the same outer normal direction
    then have the same normal vector, so support queries can look it up.
    """
    u = normalize_ray(a)
    k = next(i for i, x in enumerate(a) if x)
    ratio = u[k] / Fraction(a[k]) if isinstance(a[k], int) else u[k] / a[k]
    return u, _demote(b * ratio)


def rref_basis(vectors) -> tuple:
    """Canonical (reduced echelon) basis of the span of the given vectors."""
    vecs = [v for v in vectors if not is_zero_vector(v)]
    if not vecs:
        return ()
    red, _ = row_reduce(vecs)
    return tuple(demote_vector(r) for r in red)


# ---------------------------------------------------------------------------
# double description


def dd_cone(constraints, n):
    """Extreme rays, lineality and incidences of {x : a.x >= 0 / a.x = 0}.

    constraints is a sequence of (a, is_equality) with a in R^n.  Returns
    (rays, lineality, zero_sets), where zero_sets[i] is the int bitmask
    of the constraints that vanish on rays[i]: bit k is set when the k-th
    constraint does.  Starts from the whole space and inserts constraints
    one at a time; adjacency of rays is decided combinatorially from zero
    sets: rays i and j are adjacent when no third ray's mask z contains
    t = zero_sets[i] & zero_sets[j], that is has z & t == t.  Zero sets
    are never recomputed from the rows: projecting along a lineality
    generator rescales every processed row value by a positive factor,
    so sign patterns survive, and a combined ray is a positive
    combination of two rays that satisfy every processed row, so it
    vanishes on exactly the rows both parents vanish on (Fukuda-Prodon
    1996).
    """
    lineality = [tuple(1 if j == i else 0 for j in range(n))
                 for i in range(n)]
    rays = []      # normalized ray representatives
    zsets = []     # per ray: bitmask of processed constraints it annihilates

    def insert(m, a, equality):
        nonlocal rays, zsets, lineality
        bit = 1 << m
        hot = next((l for l in lineality if dot(a, l)), None)
        if hot is not None:
            # lineality escapes the hyperplane: split off one generator
            if sign(dot(a, hot)) < 0:
                hot = tuple(-x for x in hot)
            s0 = dot(a, hot)

            def drop(v):
                t = dot(a, v)
                return vsub(tuple(s0 * x for x in v),
                            tuple(t * x for x in hot))

            lineality = [p for p in map(drop, lineality)
                         if not is_zero_vector(p)]
            kept, kept_z = [], []
            for r, z in zip(rays, zsets):
                p = drop(r)
                if not is_zero_vector(p):
                    # every processed row vanishes on hot, so dropping
                    # rescales the row values by s0 > 0: zero sets keep
                    kept.append(normalize_ray(p))
                    kept_z.append(z | bit)
            rays, zsets = kept, kept_z
            if not equality:
                rays.append(normalize_ray(hot))
                zsets.append(bit - 1)
            return
        vals = [dot(a, r) for r in rays]
        signs = [sign(v) for v in vals]
        pos = [i for i, s in enumerate(signs) if s > 0]
        neg = [i for i, s in enumerate(signs) if s < 0]
        zero = [i for i, s in enumerate(signs) if s == 0]
        if not neg and not equality:
            zsets[:] = [z | bit if s == 0 else z
                        for z, s in zip(zsets, signs)]
            return
        if not pos and not neg:
            zsets[:] = [z | bit for z in zsets]
            return
        keep = zero + (pos if not equality else [])
        new = [rays[i] for i in keep]
        new_z = [zsets[i] | bit if signs[i] == 0 else zsets[i] for i in keep]
        for i, j in itertools.product(pos, neg):
            t = zsets[i] & zsets[j]
            adjacent = not any(k != i and k != j and z & t == t
                               for k, z in enumerate(zsets))
            if not adjacent:
                continue
            r = vsub(tuple(vals[i] * x for x in rays[j]),
                     tuple(vals[j] * x for x in rays[i]))
            if is_zero_vector(r):
                continue
            new.append(normalize_ray(r))
            new_z.append(t | bit)
        rays[:] = new
        zsets[:] = new_z

    for m, (a, eq) in enumerate(constraints):
        insert(m, integer_row(a), eq)
        # dedupe rays by direction (safety; combinations can repeat)
        seen = {}
        for r, z in zip(rays, zsets):
            seen.setdefault(r, z)
        rays[:] = list(seen)
        zsets[:] = list(seen.values())
    return list(rays), rref_basis(lineality), list(zsets)


def adjacent_pairs(masks) -> list:
    """(i, j, masks[i] & masks[j]) for the pairs whose common mask no third
    mask holds, in combinations order: the edges on vertex facet masks, the
    facet pairs meeting in a ridge on facet ray masks, since a face of
    codimension 2 lies in exactly two facets (Ziegler, Lectures, ch. 2)."""
    out = []
    for i, j in itertools.combinations(range(len(masks)), 2):
        t = masks[i] & masks[j]
        held = 0  # masks i and j hold t; a third rules the pair out
        for m in masks:
            if m & t == t:
                held += 1
                if held > 2:
                    break
        else:
            out.append((i, j, t))
    return out


def in_mask(items, mask) -> list:
    """The items whose bits are set in mask, one step per set bit."""
    out = []
    while mask:
        out.append(items[(mask & -mask).bit_length() - 1])
        mask &= mask - 1
    return out


def point_hull(points, rays=()):
    """(facet rows, equalities, facet bitmasks) of conv(points) + cone(rays).

    One double description of the homogenized generators: the facets
    a.x <= b are its rays, each scaled so that a is in normalize_ray form,
    the equalities a.x = b its lineality, and bit j of the i-th bitmask is
    set when points[i] lies on facet j (read off the zero sets, whose
    low bits are the points).
    """
    n = len(points[0])
    cons = ([((1,) + tuple(p), False) for p in points]
            + [((0,) + tuple(r), False) for r in rays])
    hrays, lin, zsets = dd_cone(cons, n + 1)
    ineqs = []
    on = [0] * len(points)
    for r, z in zip(hrays, zsets):
        if is_zero_vector(r[1:]):
            continue  # the inequality t >= 0 itself
        bit = 1 << len(ineqs)
        ineqs.append(_scaled_to_normal(tuple(-x for x in r[1:]), r[0]))
        for i in range(len(points)):
            if z >> i & 1:
                on[i] |= bit
    eqs = [(tuple(-x for x in l[1:]), l[0]) for l in lin]
    return ineqs, eqs, on


def _homogeneous_row(a, b):
    """The row a.x <= b scaled as from_generators returns a facet."""
    f = normalize_ray((b,) + tuple(-x for x in a))
    return tuple(-x for x in f[1:]), f[0]


# ---------------------------------------------------------------------------
# polyhedra


class Polyhedron:
    """A convex polyhedron {x : A x <= b, E x = c} with exact entries.

    generators, when known, is its (vertices, rays, lineality) in the form
    a double description of the rows returns, which then never runs.
    """

    def __init__(self, n: int, inequalities=(), equalities=(),
                 generators=None):
        self.n = n
        self.inequalities = [(tuple(a), b) for a, b in inequalities]
        self.equalities = [(tuple(a), b) for a, b in equalities]
        for a, _ in self.inequalities + self.equalities:
            if len(a) != n:
                raise DimensionMismatch(f"normal of length {len(a)} in R^{n}")
        self._vrep = None
        if generators is not None:
            verts, rays, lin = generators
            self._vrep = (sorted(verts), sorted(rays), tuple(lin))
        self._hrep_min = None
        self._rip = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_generators(cls, points, rays=(), lineality=(), n=None):
        pts = [tuple(p) for p in points]
        rys = [tuple(r) for r in rays]
        lin = [tuple(l) for l in lineality]
        if n is None:
            probe = (pts + rys + lin)
            if not probe:
                raise DimensionMismatch("cannot infer ambient dimension")
            n = len(probe[0])
        if any(len(v) != n for v in pts + rys + lin):
            raise DimensionMismatch("mixed-dimension generators")
        cons = ([((1,) + p, False) for p in pts]
                + [((0,) + r, False) for r in rys]
                + [((0,) + l, True) for l in lin])
        ineqs_h, eqs_h, _ = dd_cone(cons, n + 1)
        ineqs, eqs = [], []
        for f in ineqs_h:
            s, y = f[0], f[1:]
            if is_zero_vector(y):
                continue  # the inequality t >= 0 itself
            ineqs.append((tuple(-x for x in y), s))
        for f in eqs_h:
            s, y = f[0], f[1:]
            if is_zero_vector(y):
                continue
            eqs.append((tuple(-x for x in y), s))
        P = cls(n, ineqs, eqs)
        P._hrep_min = (sorted(P.inequalities), P.equalities)
        return P

    def intersect(self, other: "Polyhedron") -> "Polyhedron":
        if self.n != other.n:
            raise DimensionMismatch("ambient dimensions differ")
        return Polyhedron(self.n, self.inequalities + other.inequalities,
                          self.equalities + other.equalities)

    # -- V-representation --------------------------------------------------

    def _compute_vrep(self):
        if self._vrep is not None:
            return self._vrep
        cons = [((1,) + tuple(0 for _ in range(self.n)), False)]  # t >= 0
        for a, b in self.inequalities:
            cons.append(((b,) + tuple(-x for x in a), False))
        for a, b in self.equalities:
            cons.append(((b,) + tuple(-x for x in a), True))
        crays, clin, _ = dd_cone(cons, self.n + 1)
        verts, rays = [], []
        for r in crays:
            t, x = r[0], r[1:]
            if sign(t) > 0:
                if isinstance(t, int):
                    t = Fraction(t)
                verts.append(demote_vector(v / t for v in x))
            else:
                rays.append(normalize_ray(x))
        lin = []
        for l in clin:
            # homogenization lineality always has t = 0
            if l[0]:
                raise CertificateError(
                    f"the homogenized lineality {l} leaves t = 0")
            lin.append(l[1:])
        self._vrep = (sorted(verts), sorted(rays), rref_basis(lin))
        return self._vrep

    @property
    def vertices(self):
        """Points generating the bounded part (true vertices iff pointed)."""
        return self._compute_vrep()[0]

    @property
    def rays(self):
        return self._compute_vrep()[1]

    @property
    def lineality(self):
        return self._compute_vrep()[2]

    def dim(self) -> int:
        verts, rays, lin = self._compute_vrep()
        if not verts:
            return -1
        diffs = [vsub(v, verts[0]) for v in verts[1:]]
        return rank(diffs + list(rays) + list(lin))

    def key(self):
        """Canonical hashable identity of the point set."""
        verts, rays, lin = self._compute_vrep()
        return (tuple(verts), tuple(rays), lin)

    def __eq__(self, other):
        return isinstance(other, Polyhedron) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def contains(self, x, strict=False) -> bool:
        if len(x) != self.n:
            raise DimensionMismatch("point has wrong dimension")
        for a, b in self.equalities:
            if dot(a, x) != b:
                return False
        for a, b in self.inequalities:
            s = sign(b - dot(a, x))
            if s < 0 or (strict and s == 0):
                return False
        return True

    def contains_polyhedron(self, other: "Polyhedron") -> bool:
        verts, rays, lin = other._compute_vrep()
        for v in verts:
            if not self.contains(v):
                return False
        recession = list(rays) + [l for l in lin] + [tuple(-x for x in l) for l in lin]
        for r in recession:
            for a, b in self.equalities:
                if dot(a, r):
                    return False
            for a, b in self.inequalities:
                if sign(dot(a, r)) > 0:
                    return False
        return True

    def relative_interior_point(self):
        """The vertex average plus the ray sum, computed once."""
        if self._rip is None:
            verts, rays, _ = self._compute_vrep()
            if not verts:
                raise ValueError("empty polyhedron has no relative interior")
            k = len(verts)
            p = tuple(sum(v[i] for v in verts) / k for i in range(self.n))
            for r in rays:
                p = vadd(p, r)
            self._rip = p
        return self._rip

    # -- irredundant H-representation -------------------------------------

    def minimal_hrep(self):
        """(sorted facet inequalities, affine-hull equalities), canonically
        scaled.

        Read off the incidences when the polyhedron is full-dimensional,
        that is when it has no equalities and no row is tight on every
        generator: each facet is the face of a row, and a row's face is a
        facet when it contains a vertex and no other row's face contains
        it.  Otherwise one double description of the polar cone runs.
        """
        if self._hrep_min is None:
            verts, rays, lin = self._compute_vrep()
            if not verts:
                raise ValueError("empty polyhedron has no facet description")
            masks = [sum(1 << k for k, on in enumerate(
                         [dot(a, v) == b for v in verts]
                         + [not dot(a, r) for r in rays]) if on)
                     for a, b in self.inequalities]
            full = (1 << (len(verts) + len(rays))) - 1
            if self.equalities or full in masks:
                P = Polyhedron.from_generators(verts, rays, lin, n=self.n)
                self._hrep_min = P._hrep_min
            else:
                at_vertex = (1 << len(verts)) - 1
                facets = {_homogeneous_row(a, b)
                          for (a, b), m in zip(self.inequalities, masks)
                          if m & at_vertex and not any(
                              o != m and o & m == m for o in masks)}
                self._hrep_min = (sorted(facets), [])
        ineqs, eqs = self._hrep_min
        return list(ineqs), list(eqs)


# ---------------------------------------------------------------------------
# polytopes


class LatticePolytope:
    """A bounded polytope given by its vertices, with exact coordinates.

    Vertices are stored sorted, so equal polytopes compare equal.  Despite
    the name, rational and Q(sqrt(2)) vertex coordinates are accepted; edge
    weights fall back from lattice length to metric length in that case.

    Alongside the vertices the polytope keeps its facet inequalities
    a.x <= b, a basis of the equalities of its affine hull, and for each
    vertex the bitmask of the facets it lies on.  All three come from the
    one double description of point_hull, and a point is a vertex exactly
    when no other point lies on a superset of its facets.  Translation
    and positive scaling map this data without a hull, and a Minkowski
    sum takes hulls only of vertices of the sum (see __add__).
    """

    def __init__(self, points: Iterable[Sequence]):
        pts = [demote_vector(Fraction(x) if isinstance(x, int) else x for x in p)
               for p in points]
        if not pts:
            raise ValueError("a polytope needs at least one point")
        n = len(pts[0])
        if any(len(p) != n for p in pts):
            raise DimensionMismatch("mixed-dimension points")
        pts = list(dict.fromkeys(pts))
        ineqs, eqs, on = point_hull(pts)
        verts = sorted((p, m) for i, (p, m) in enumerate(zip(pts, on))
                       if not any(k != i and mk & m == m
                                  for k, mk in enumerate(on)))
        self.n = n
        self.vertices = tuple(p for p, _ in verts)
        self.inequalities = ineqs
        self.equalities = eqs
        self._tight = tuple(m for _, m in verts)
        self._facet_of = {a: j for j, (a, _) in enumerate(ineqs)}
        self._ints = None

    def _mapped(self, point, offset) -> "LatticePolytope":
        """The image under an order-preserving affine map of the points.

        point maps a vertex; offset(a, b) is the new right-hand side of
        the row a.x <= b (or = b), whose normal a is unchanged.  Vertices
        and offsets are demoted as a fresh hull's are.
        """
        Q = object.__new__(LatticePolytope)
        Q.n = self.n
        Q.vertices = tuple(demote_vector(point(v)) for v in self.vertices)
        Q.inequalities = [(a, _demote(offset(a, b)))
                          for a, b in self.inequalities]
        Q.equalities = [(a, _demote(offset(a, b))) for a, b in self.equalities]
        Q._tight = self._tight
        Q._facet_of = self._facet_of
        Q._ints = None
        return Q

    # -- basics ------------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, LatticePolytope) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"LatticePolytope({list(self.vertices)!r})"

    def dim(self) -> int:
        return self.n - len(self.equalities)

    def contains(self, x) -> bool:
        if len(x) != self.n:
            raise DimensionMismatch("point has wrong dimension")
        return (all(dot(a, x) == b for a, b in self.equalities)
                and all(sign(b - dot(a, x)) >= 0
                        for a, b in self.inequalities))

    def translate(self, t) -> "LatticePolytope":
        t = tuple(t)
        return self._mapped(lambda v: vadd(v, t), lambda a, b: b + dot(a, t))

    def scale(self, c) -> "LatticePolytope":
        if sign(c) < 0:
            raise ValueError("negative scaling factor")
        if sign(c) == 0:
            return LatticePolytope([tuple(Fraction(0) for _ in range(self.n))])
        return self._mapped(lambda v: tuple(c * x for x in v),
                            lambda a, b: c * b)

    def __add__(self, other: "LatticePolytope") -> "LatticePolytope":
        """The Minkowski sum, from its vertices found by support queries.

        For every direction y, the lexicographically smallest and largest
        points of the face of P + Q maximizing y are the sums of those of
        P and of Q, hence vertices of P + Q.  Seeded with the facet and
        equality normals of both summands, the hull of such vertices is
        grown until each of its facet and equality rows a.x <= b has
        b = h_P(a) + h_Q(a); the hull then equals P + Q.
        """
        if self.n != other.n:
            raise DimensionMismatch("ambient dimensions differ")
        if len(other.vertices) == 1:
            return self.translate(other.vertices[0])
        if len(self.vertices) == 1:
            return other.translate(self.vertices[0])
        top = {}  # direction -> (h_P + h_Q, both extreme vertices of the sum)

        def query(y):
            if y not in top:
                hp, p0, p1 = self._face_extremes(y)
                hq, q0, q1 = other._face_extremes(y)
                top[y] = (hp + hq, {vadd(p0, q0), vadd(p1, q1)})
            return top[y]

        dirs = [a for a, _ in self.inequalities + other.inequalities]
        for a, _ in self.equalities + other.equalities:
            dirs += [a, tuple(-x for x in a)]
        seeds = set().union(*(query(y)[1] for y in dirs))
        while True:
            S = LatticePolytope(sorted(seeds))
            rows = S.inequalities + S.equalities + [
                (tuple(-x for x in a), -b) for a, b in S.equalities]
            missing = set()
            for a, b in rows:
                h, found = query(a)
                if h != b:
                    missing |= found
            if not missing:
                return S
            seeds |= missing

    def normalize_translation(self) -> "LatticePolytope":
        """Translate so the lexicographically smallest vertex is the origin."""
        return self.translate(tuple(-x for x in self.vertices[0]))

    # -- support function --------------------------------------------------

    def support(self, y):
        return max(dot(y, v) for v in self.vertices)

    def _face_extremes(self, y):
        """(h(y), the lexicographically first and last vertex attaining it).

        Read off the incidences when y is a facet normal, else by dot
        products.
        """
        j = self._facet_of.get(y)
        if j is not None:
            on = [v for v, m in zip(self.vertices, self._tight) if m >> j & 1]
            return self.inequalities[j][1], on[0], on[-1]
        h = first = last = None
        for v in self.vertices:  # ascending, so maximizers come in lex order
            s = dot(y, v)
            if h is None or s > h:
                h, first, last = s, v, v
            elif s == h:
                last = v
        return h, first, last

    def face_vertices(self, y):
        """Vertices of the face of P in direction y (the argmax face).

        A rational y on a rational polytope is compared on machine
        integers: y times its common denominator against the vertices
        times theirs, a table kept from the first query.  Positive
        scalings leave the argmax unchanged.
        """
        if len(y) != self.n:
            raise DimensionMismatch("direction has wrong dimension")
        table = self._integer_vertices()
        if table and is_rational_vector(y):
            y = integer_row(y)
            vals = [sum(a * b for a, b in zip(y, v)) for v in table]
        else:
            vals = [dot(y, v) for v in self.vertices]
        m = max(vals)
        return [v for v, s in zip(self.vertices, vals) if s == m]

    def _integer_vertices(self) -> tuple:
        """The vertices times their common denominator; () if irrational."""
        if self._ints is None:
            self._ints = ()
            if all(is_rational_vector(v) for v in self.vertices):
                d = math.lcm(*(x.denominator for v in self.vertices
                               for x in v))
                self._ints = tuple(
                    tuple(x.numerator * (d // x.denominator) for x in v)
                    for v in self.vertices)
        return self._ints

    # -- face structure ----------------------------------------------------

    def _edge_index(self):
        """(i, j, facets on both) of the edges: adjacent vertex masks."""
        return adjacent_pairs(self._tight)

    def edges(self):
        """Vertex pairs (u, v) forming the 1-faces."""
        return [(self.vertices[i], self.vertices[j])
                for i, j, _ in self._edge_index()]

    def two_faces(self):
        """Vertex sets of the 2-faces."""
        d = self.dim()
        if d < 2:
            return []
        if d == 2:
            return [frozenset(self.vertices)]
        faces = set()
        for (i1, j1, t1), (i2, j2, t2) in itertools.combinations(
                self._edge_index(), 2):
            if not {i1, j1} & {i2, j2}:
                continue
            pts = [v for v, m in zip(self.vertices, self._tight)
                   if m & t1 & t2 == t1 & t2]
            diffs = [vsub(p, pts[0]) for p in pts[1:]]
            if rank(diffs) == 2:
                faces.add(frozenset(pts))
        return sorted(faces, key=lambda f: sorted(f))

    def edge_weight(self, u, v):
        """Lattice length of the edge u-v.

        An edge whose direction is irrational gets its Euclidean length.
        """
        d = vsub(v, u)
        if is_rational_vector(d):
            return rational_content(d)
        return scalar_sqrt(dot(d, d))

    # -- normal fan --------------------------------------------------------

    def normal_cones(self):
        """The vertex normal cones N(v) in vertex order, with each vertex's
        neighbours along the edges.

        N(v), in the max convention, is read off the incidences with no
        hull: it is the pointed cone spanned by the outer normals of the
        facets at v, and its facets (w - v).y <= 0 are dual to the edges
        (v, w) (Ziegler, Lectures on Polytopes, 7.1).
        """
        if self.dim() != self.n:
            raise DegeneratePolytope(
                f"polytope has dimension {self.dim()} < ambient {self.n}")
        neighbours = [[] for _ in self.vertices]
        for i, j, _ in self._edge_index():
            neighbours[i].append(j)
            neighbours[j].append(i)
        origin = tuple(Fraction(0) for _ in range(self.n))
        normals = [a for a, _ in self.inequalities]
        chambers = []
        for v, t, near in zip(self.vertices, self._tight, neighbours):
            rows = [(integer_row(vsub(self.vertices[j], v)), 0) for j in near]
            chambers.append(Polyhedron(self.n, rows, generators=(
                [origin], in_mask(normals, t), ())))
        return chambers, neighbours

    def normal_fan(self) -> "Fan":
        """The complete normal fan, with edge weights attached to walls.

        Chambers are the vertex normal cones (normal_cones).  Each wall
        (codimension 1 cone) is dual to the edge joining the vertices of
        its two sides and carries the edge's weight (see edge_weight).
        """
        chambers, neighbours = self.normal_cones()
        fan = Fan(chambers, labels=list(self.vertices))
        fan.wall_weights, fan.wall_duals = {}, {}
        for k, sides in fan.wall_chambers.items():
            pair = [ci for ci, _ in sides]
            if len(pair) != 2 or pair[1] not in neighbours[pair[0]]:
                raise CertificateError(
                    "a wall of the normal fan is dual to no edge")
            u, v = (self.vertices[ci] for ci in pair)
            fan.wall_weights[k] = self.edge_weight(u, v)
            fan.wall_duals[k] = (u, v)
        return fan


# ---------------------------------------------------------------------------
# fans


class Fan:
    """A polyhedral fan given by its maximal cones.

    Cells of codimension 1 (walls) and 2 (ridges) are read off the
    chambers' incidence masks and identified across chambers by canonical
    keys of their point sets, so incidence is available by dictionary lookup.
    """

    def __init__(self, chambers: Sequence[Polyhedron], labels=None):
        if not chambers:
            raise ValueError("a fan needs at least one cone")
        self.n = chambers[0].n
        if any(c.n != self.n for c in chambers):
            raise DimensionMismatch("mixed-dimension cones")
        self.chambers = list(chambers)
        self.labels = list(labels) if labels is not None else list(range(len(chambers)))
        self._walls = None
        self._ridges = None
        self.wall_weights = None
        self.wall_duals = None
        self.heights = None  # coxeter.ray_heights of a simplicial fan

    def _compute_cells(self):
        """Walls and ridges read off each chamber's facet row masks.

        The wall on a facet row has the origin, the rays the row vanishes
        on and the lineality; its ridges are its faces on the rows that
        adjacent_pairs pairs it with, each certified by the rank n - 2 of
        its rays with the lineality.  A chamber with equalities has walls
        but no ridges.
        """
        if self._walls is not None:
            return
        walls, wall_sides, ridges, ridge_star = {}, {}, {}, {}
        for ci, C in enumerate(self.chambers):
            verts, rays, lin = C._compute_vrep()
            ineqs, eqs = C.minimal_hrep()
            if any(b for _, b in ineqs):
                raise ValueError("fan cones must be homogeneous")
            masks = [sum(1 << r for r, g in enumerate(rays) if not dot(a, g))
                     for a, _ in ineqs]
            near = [[] for _ in ineqs]  # in row order, as combinations are
            for i, j, t in [] if eqs else adjacent_pairs(masks):
                near[i].append((j, t))
                near[j].append((i, t))

            def cell(rows, mask):
                return Polyhedron(self.n, C.inequalities, C.equalities + rows,
                                  (verts, in_mask(rays, mask), lin))
            for row, m in enumerate(masks):
                W = cell([ineqs[row]], m)
                wk = W.key()
                if wk not in walls:
                    walls[wk] = W
                    for other, t in near[row]:
                        R = cell([ineqs[row], ineqs[other]], t)
                        if rank(R.rays + list(lin)) != self.n - 2:
                            raise CertificateError(
                                f"rows {row}, {other} of cone {ci}: no ridge")
                        ridges.setdefault(R.key(), R)
                        ridge_star.setdefault(R.key(), []).append(wk)
                wall_sides.setdefault(wk, []).append(
                    (ci, tuple(-x for x in ineqs[row][0])))
        self._walls, self._wall_sides = walls, wall_sides
        self._ridges, self._ridge_star = ridges, ridge_star

    @property
    def walls(self):
        self._compute_cells()
        return self._walls

    @property
    def wall_chambers(self):
        """wall key -> list of (chamber index, inward normal)."""
        self._compute_cells()
        return self._wall_sides

    @property
    def ridges(self):
        self._compute_cells()
        return self._ridges

    @property
    def ridge_walls(self):
        """ridge key -> list of wall keys containing it."""
        self._compute_cells()
        return self._ridge_star

    def refines(self, other: "Fan") -> bool:
        """Is every cone of this fan contained in a cone of the other?"""
        for C in self.chambers:
            if not any(D.contains_polyhedron(C) for D in other.chambers):
                return False
        return True
