"""Independent routes the library no longer takes, kept as test oracles.

Most functions compute an answer the library now reads off the chambers
of a fan, the slow way: by Minkowski sums and hulls, or by one face
query or argmax per wall.  cells_by_face and containment_by_fractions
build the walls and ridges of T(f) by one double description per cell
and decide variety containment in Fractions at every chamber generator,
where the library reads both off the facet rows of f's lifted hull.
root_form_rows is the mirror pairing of a Coxeter fan, the balancing
formulation the library replaced by the lattice balancing matrix with
metric columns.  coxeter_fan_by_sign_vectors cuts each Weyl chamber
from the mirrors of all positive roots by its sign vector, one double
description per chamber, where the library reads the chambers off the
normal fan of one orbit polytope.  covector_lift finds the
primitive vector of a wall over a ridge in Z^n through saturated
direction lattices, where the library reads its image in the ridge's
quotient coordinates off two interior points.  phi_kernel_by_nullspace
is the Coxeter weight kernel by elimination of the balancing matrix,
where the library reads it off ray heights.  phi_expand_over_the_field
and expand_by_lattice_solve are expansions that measure every wall of
the fan and solve against the whole basis matrix, over Q(sqrt(2)) or in
the lattice, where the library reads r walls off the polytope's chamber
table; check_basis_tables reads every wall of every basis table and
compares it with the chamber table of its polytope.

row_reduce_by_fractions is Gauss-Jordan in Fractions for every matrix,
where the library eliminates rational matrices fraction-free, and
nullspace_by_fractions reads a kernel off it; the brute-force oracles of
the double description use them, since its lineality comes from the
library's elimination.

The rest are notions of the source paper that no library routine calls:
the restriction of ordered partitions, which weight_matrix evaluates on
bitmasks, strict balanced coarsenings, and complete factorizations by
recursion over maximal_summand_pairs.
"""

import functools
import itertools
from fractions import Fraction
from typing import Callable, Dict, Iterable, NamedTuple

from tropfactor.coxeter import CoxeterFan, _b2_labels
from tropfactor.exact import (
    CertificateError,
    TropfactorError,
    dot,
    in_lattice,
    integer_nullspace,
    integer_row,
    nullspace_field,
    primitive_of_rational,
    rational_content,
    sign,
    solve_linear,
    vscale,
    vsub,
)
from tropfactor.minkowski import (
    FactorizationBasis,
    NotRefined,
    WeightVector,
    certify_signed_sum,
    chamber_vertices,
    extended_weights,
    maximal_summand_pairs,
    wall_lengths,
)
from tropfactor.permutahedra import OrderedPartition, TooSmall, quotient_point
from tropfactor.polyhedra import (
    Fan,
    LatticePolytope,
    Polyhedron,
    demote_vector,
    rref_basis,
)
from tropfactor.tropical import annihilator_lattice


def row_reduce_by_fractions(rows):
    """Reduced row echelon form.  Returns (rref rows, pivot column list)."""
    mat = [[Fraction(x) if isinstance(x, int) else x for x in r] for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if p is None:
            continue
        mat[r], mat[p] = mat[p], mat[r]
        inv = mat[r][c]
        mat[r] = [x / inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat[:r]], pivots


def nullspace_by_fractions(rows, n):
    """Basis of {x in K^n : A x = 0}, one vector per free column of the
    reduced echelon form of row_reduce_by_fractions."""
    red, pivots = row_reduce_by_fractions(rows)
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for row, p in zip(red, pivots):
            v[p] = -row[f]
        basis.append(tuple(v))
    return basis


def direction_lattice(cell):
    """Saturated integer basis of the direction space of a cell's affine span."""
    verts = cell.vertices
    span = rref_basis([vsub(v, verts[0]) for v in verts[1:]]
                      + list(cell.rays) + list(cell.lineality))
    if not span:
        return []
    funcs = nullspace_field(list(span), ncols=cell.n)
    if not funcs:
        # full-dimensional span: the whole lattice
        return [tuple(1 if j == i else 0 for j in range(cell.n))
                for i in range(cell.n)]
    return integer_nullspace([integer_row(f) for f in funcs])


def covector_lift(tau, sigma):
    """Primitive generator of L(sigma)/L(tau) in Z^n, pointing into sigma.

    The returned integer vector lies in the direction lattice of sigma and
    its class generates the quotient by the direction lattice of tau; it is
    well defined up to elements of L(tau).  Found by two lattice solves
    in a saturated basis of L(sigma) and one field solve for the side.
    """
    Bs = direction_lattice(sigma)
    Bt = direction_lattice(tau)
    T = []
    for t in Bt:
        coeffs = in_lattice(Bs, t)
        assert coeffs is not None, "tau must be a face of sigma"
        T.append(coeffs)
    if T:
        funcs = integer_nullspace(T)
        assert len(funcs) == 1, "sigma/tau must have relative dimension 1"
        fvec = funcs[0]
    else:
        assert len(Bs) == 1
        fvec = (1,)
    y = in_lattice([(c,) for c in fvec], (1,))
    assert y is not None, "a saturated quotient admits a generator"
    c = tuple(sum(yi * b[j] for yi, b in zip(y, Bs)) for j in range(sigma.n))
    p = sigma.relative_interior_point()
    q = tau.relative_interior_point()
    gamma = solve_linear([tuple(b[j] for b in Bs) for j in range(sigma.n)],
                         vsub(p, q))
    assert gamma is not None
    s = sign(dot(fvec, gamma))
    assert s != 0, "relative interior of sigma lies off the span of tau"
    return c if s > 0 else tuple(-x for x in c)


def segment_length(points, length: Callable):
    """The length of the segment spanned by distinct points, 0 for one point.

    The points are the maximizers of a linear form on a wall of a fan or
    complex that refines the points' own normal fan, so they are
    collinear; CertificateError when they are not.  Collinear points
    sort along their line, so the ends come first and last.
    """
    if len(points) == 1:
        return Fraction(0)
    pts = sorted(points)
    u = pts[0]
    if len(pts) > 2 and len(rref_basis([vsub(v, u) for v in pts[1:]])) != 1:
        raise CertificateError(
            f"the maximizers {pts} on a wall of a refining fan are not "
            "collinear")
    return length(vsub(pts[-1], u))


def extend_weights_by_wall_points(g, Tf) -> dict:
    """Wall key of T(f) -> length of g's maximizers at an interior point."""
    return {wk: segment_length(g.argmax(W.relative_interior_point()),
                               rational_content)
            for wk, W in Tf.walls.items()}


def cells_by_face(T):
    """(walls, ridges) of a TropicalComplex, each a face of a chamber.

    The route the complex took before it read cells off facet masks:
    the face of the chamber of one end of the dual edge or 2-face on the
    rows where the other ends tie with it, by a fresh double description
    of the chamber's rows with those rows as equalities, and a dimension
    check by row reduction.  walls maps each wall key to (dual edge,
    weight), ridges each ridge key to its dual 2-face.
    """
    f = T.f
    index = {a: i for i, a in enumerate(T.chamber_terms)}

    def face(cell, dim):
        a = cell[0]
        C = T.chambers[index[a]]
        rows = [(vsub(b, a), f.terms[a] - f.terms[b]) for b in cell[1:]]
        F = Polyhedron(f.n, C.inequalities, C.equalities + rows)
        if F.dim() != dim:
            raise CertificateError(f"{cell} dualizes to no cell of dim {dim}")
        return F.key()

    walls = {face(e, f.n - 1): (e, rational_content(vsub(e[1], e[0])))
             for e in f.subdivision().edges()}
    ridges = {face(F, f.n - 2): F for F in f.subdivision().two_faces()}
    return walls, ridges


def containment_by_fractions(g, f, Tf, winners=None):
    """variety_containment_witness in Fractions, chamber by chamber.

    The route the library took before its integer pass: on every chamber
    D, b = argmax of g at an interior point p (p the witness on a tie),
    then b checked at every vertex and along every ray and +/- lineality
    generator of D, with g's values cached across chambers; the first
    failure gives the first tie on the way from p as the witness.
    """
    value, top = {}, {}

    def g_at(w):
        if w not in value:
            value[w] = g(w)
        return value[w]

    def g_top(u):
        if u not in top:
            top[u] = max(dot(c, u) for c in g.terms)
        return top[u]

    for D in Tf.chambers:
        p = D.relative_interior_point()
        arg = g.argmax(p)
        if len(arg) > 1:
            return p
        b = arg[0]
        if winners is not None:
            winners.append(b)
        vb = g.terms[b]
        dirs = list(D.rays) + [u for l in D.lineality
                               for u in (l, tuple(-x for x in l))]
        bad = next(itertools.chain(
            (vsub(w, p) for w in D.vertices if vb + dot(b, w) != g_at(w)),
            (u for u in dirs if dot(b, u) != g_top(u))), None)
        if bad is not None:
            lead, slope = vb + dot(b, p), dot(b, bad)
            t = min((lead - vc - dot(c, p)) / (dot(c, bad) - slope)
                    for c, vc in g.terms.items()
                    if sign(dot(c, bad) - slope) > 0)
            return tuple(x + t * y for x, y in zip(p, bad))
    return None


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
            c = covector_lift(tau, W)
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


def coxeter_fan_by_sign_vectors(rs) -> CoxeterFan:
    """The Weyl chambers of rs, each cut from every positive-root mirror.

    The orbit of an interior point of the fundamental chamber under the
    simple reflections has one point in each chamber, and the chamber is
    the cone of that point's sign vector against the mirrors.  Wall
    order and labels are set as coxeter_fan sets them.
    """
    mirrors = [rs.mirror(r) for r in rs.int_positive]
    fundamental = Polyhedron(rs.n, [(tuple(-x for x in rs.mirror(r)),
                                     Fraction(0)) for r in rs.int_simple])
    p0 = demote_vector(fundamental.relative_interior_point())
    chambers = []
    for p in sorted(rs.orbit(p0, rs.reflect_dual)):
        signs = [sign(dot(m, p)) for m in mirrors]
        if 0 in signs:
            raise CertificateError("an orbit point lies on a mirror")
        chambers.append(Polyhedron(rs.n, [(vscale(-s, m), Fraction(0))
                                          for s, m in zip(signs, mirrors)]))
    fan = Fan(chambers)
    if rs.tag == "B2":
        wall_order, labels = _b2_labels(rs, fan)
    else:
        wall_order, labels = sorted(fan.walls), None
    return CoxeterFan(rs, fan, wall_order, labels)


def phi_kernel_by_nullspace(cf) -> list:
    """ker Phi over Q by one elimination of the balancing matrix Phi.

    Each vector z, with its free column f as the last non-zero entry, is
    rescaled to the metric weights z_j l_j / l_f.
    """
    Phi, lengths = cf.balance_rows()
    out = []
    for z in nullspace_field(Phi, ncols=len(cf.wall_order)):
        f = max(j for j, x in enumerate(z) if x)
        out.append(demote_vector(
            x if not x or lengths[j] == lengths[f]
            else x * lengths[j] / lengths[f] for j, x in enumerate(z)))
    return out


def basis_of_polytopes(basis, polytopes, not_refined=NotRefined):
    """basis with its polytopes replaced, given by their chamber tables.

    The new basis has unit 1: its tables are those of the polytopes
    themselves.
    """
    out = FactorizationBasis(basis.fan, basis.vectors, order=basis.order,
                             length=basis.length)
    out.tables = [chamber_vertices(B, basis.fan, not_refined)
                  for B in polytopes]
    return out


def table_steps(fan, table, order):
    """The lattice weight of each wall read off a chamber table.

    Crossing a wall into chamber D the table steps by the weight times
    the primitive inward normal p of D; the step must be parallel to p.
    """
    out = []
    for k in order:
        (i, _), (j, inward) = fan.wall_chambers[k]
        p = primitive_of_rational(inward)
        step = vsub(table[j], table[i])
        t = next(t for t, x in enumerate(p) if x)
        w = step[t] * Fraction(1, p[t])
        assert step == vscale(w, p), k
        out.append(w)
    return demote_vector(out)


def check_basis_tables(basis):
    """Each basis table against its polytope, with every wall read.

    Table i must be unit times the chamber table of basis polytope i up
    to one translation, and step by vector i across every wall: by the
    lattice weight v_k unit / l_k, l_k the length of the primitive
    normal of wall k.
    """
    fan, unit = basis.fan, basis.unit
    lengths = [basis.length(primitive_of_rational(fan.wall_chambers[k][0][1]))
               for k in basis.order]
    for i, (table, hull) in enumerate(zip(basis.tables,
                                          _hull_basis(basis).tables)):
        ref = [vscale(unit, v) for v in hull]
        shift = vsub(table[0], ref[0])
        assert all(vsub(t, v) == shift for t, v in zip(table, ref)), i
        assert table_steps(fan, table, basis.order) == demote_vector(
            basis.vectors[i][k] * unit / l
            for k, l in zip(basis.order, lengths)), i


def phi_expand_over_the_field(P, basis, not_refined) -> tuple:
    """The expansion of P with every wall length in the metric.

    All wall lengths of P are taken over Q(sqrt(2)), y comes from one
    field solve against the whole basis matrix, and the chamber
    certificate runs on the basis polytopes themselves (unit 1).
    """
    wp = wall_lengths(P, basis.fan, basis.length, not_refined)
    mat = basis.matrix()
    y = solve_linear([tuple(row[j] for row in mat)
                      for j in range(len(basis.order))],
                     [wp[k] for k in basis.order])
    certify_signed_sum(chamber_vertices(P, basis.fan, not_refined), y,
                       _hull_basis(basis))
    return demote_vector(y)


@functools.lru_cache(maxsize=None)
def _hull_basis(basis):
    """basis_of_polytopes on the basis hulls, built once per basis."""
    return basis_of_polytopes(basis, basis.polytopes)


def expand_by_lattice_solve(Q, basis) -> tuple:
    """The integer expansion of Q with every wall measured in the lattice.

    The extended weights of Q on every wall of the basis fan must be
    integers (ValueError otherwise); y is their coordinates in the
    lattice spanned by the basis matrix, and the chamber certificate
    checks it against the basis tables.
    """
    wq = extended_weights(Q, basis.fan)
    vals = []
    for k in basis.order:
        q = Fraction(wq[k])
        if q.denominator != 1:
            raise ValueError(f"an edge of the polytope has lattice length "
                             f"{q}; only integer lengths expand")
        vals.append(int(q))
    y = in_lattice(basis.matrix(), tuple(vals))
    if y is None:
        raise CertificateError(
            "the wall weights lie outside the lattice of the basis")
    certify_signed_sum(chamber_vertices(Q, basis.fan, NotRefined), y, basis)
    return tuple(y)


# ---------------------------------------------------------------------------
# notions of the paper that the library does not call


class NotRestricting:
    """Marker: deleting non-I blocks did not leave an ordered partition of I."""

    def __init__(self, reason: str):
        self.reason = reason

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        return f"NotRestricting({self.reason!r})"


def restricts_to(pi: OrderedPartition, I: Iterable[int]):
    """The restriction pi|_I, or a NotRestricting marker.

    Blocks containing any element outside I are deleted wholesale; the
    survivors must again form an ordered partition of I with a doubleton.
    """
    Iset = set(I)
    if len(Iset) < 2:
        raise TooSmall("restriction targets need at least two elements")
    kept = [b for b in pi.blocks if set(b) <= Iset]
    covered = {x for b in kept for x in b}
    if covered != Iset:
        return NotRestricting("deletion removed elements of I")
    if not any(len(b) == 2 for b in kept):
        return NotRestricting("the doubleton was deleted")
    return OrderedPartition(kept)


def root_direction(i: int, j: int, n: int) -> tuple:
    """The image of e_i - e_j in quotient coordinates."""
    z = [0] * (n + 1)
    z[i - 1] += 1
    z[j - 1] -= 1
    return quotient_point(z)


class NotRefining(TropfactorError):
    pass


def is_strict_balanced_coarsening(coarse_fan: Fan, coarse_w: WeightVector,
                                  fine_fan: Fan, fine_w: WeightVector) -> bool:
    """Is (coarse_fan, coarse_w) a strict balanced coarsening under (fine_fan, fine_w)?

    Requires fine_fan to refine coarse_fan (else NotRefining); then tests
    w_fine - coarse_w^ >= 0 with strict inequality somewhere.
    """
    if not fine_fan.refines(coarse_fan):
        raise NotRefining("the fine fan does not refine the coarse fan")
    strict = False
    for wk, W in fine_fan.walls.items():
        up = Fraction(0)
        for ck, CW in coarse_fan.walls.items():
            if CW.contains_polyhedron(W):
                up = coarse_w[ck]
                break
        diff = fine_w[wk] - up
        if diff < 0:
            return False
        if diff > 0:
            strict = True
    return strict


def complete_factorizations(P: LatticePolytope):
    """All factorizations of P into minimal summands, as sorted tuples.

    Repeated summands are reported with multiplicity.  Recursion follows
    maximal_summand_pairs; results are deduplicated as multisets and the
    recursion is memoized on translation-normalized vertex sets.
    """
    memo: Dict[tuple, list] = {}

    def go(X: LatticePolytope):
        key = X.vertices
        if key in memo:
            return memo[key]
        pairs = maximal_summand_pairs(X)
        if not pairs:
            out = [(X,)]
        else:
            acc = set()
            for R, R2 in pairs:
                for rest in go(R2.normalize_translation()):
                    acc.add(tuple(sorted((R.normalize_translation(),) + rest,
                                         key=lambda T: T.vertices)))
            out = sorted(acc, key=lambda c: (len(c), [T.vertices for T in c]))
        memo[key] = out
        return out

    return go(P.normalize_translation())
