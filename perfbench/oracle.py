"""Independent answer checks, written with the standard library only.

Nothing here imports or calls tropfactor.  Program outputs are read as
plain data (numbers, tuples, attributes such as QuadExt's .a/.b), and
every verdict is re-derived by a route the program does not use:
max-plus evaluation for division, the planar edge-vector criterion for
factorization, support functions for Minkowski identities, and the
closed-form restriction rule for the type A weight matrix.  Numbers in
Q(sqrt(2)) are (a, b) pairs of Fractions meaning a + b*sqrt(2).
"""

import itertools
import math
import random
from fractions import Fraction

ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# tropical polynomials as {exponent tuple: Fraction}


def maxplus_eval(terms, x):
    return max(c + sum(a * xi for a, xi in zip(e, x))
               for e, c in terms.items())


def maxplus_argmax_count(terms, x):
    vals = [c + sum(a * xi for a, xi in zip(e, x)) for e, c in terms.items()]
    top = max(vals)
    return sum(1 for v in vals if v == top)


def maxplus_product(g, h):
    out = {}
    for a, u in g.items():
        for b, v in h.items():
            e = tuple(x + y for x, y in zip(a, b))
            s = u + v
            if e not in out or s > out[e]:
                out[e] = s
    return out


def sample_points(rng, n, count):
    """Rational points with small denominators, never all integral."""
    return [tuple(Fraction(rng.randint(-60, 60), rng.choice((1, 3, 7, 11)))
                  for _ in range(n)) for _ in range(count)]


def check_quotient(f, g, h, points):
    """g (.) h agrees with f at every sample point."""
    for x in points:
        if maxplus_eval(g, x) + maxplus_eval(h, x) != maxplus_eval(f, x):
            return f"g(.)h != f at {tuple(str(c) for c in x)}"
    return None


def check_not_contained(f, g, witness):
    """A NotContained witness lies on V(g) and off V(f)."""
    x = tuple(Fraction(c) for c in witness)
    if maxplus_argmax_count(g, x) < 2:
        return "witness is not on the variety of the divisor"
    if maxplus_argmax_count(f, x) != 1:
        return "witness lies on the variety of the dividend"
    return None


def lattice_length(d):
    """The lattice length of a rational vector (gcd content)."""
    d = [Fraction(x) for x in d]
    den = 1
    for x in d:
        den = den * x.denominator // math.gcd(den, x.denominator)
    g = 0
    for x in d:
        g = math.gcd(g, int(x * den))
    return Fraction(g, den)


def check_negative_weight(f, dual_edge, w_f, w_up, deficit):
    """The arithmetic a NegativeWeight witness carries is self-consistent.

    There is no independent oracle for the extended weight w_up itself;
    the check covers what can be recomputed: both edge ends are terms of
    f, w_f is the lattice length of the edge, and the deficit is
    w_f - w_up and negative.
    """
    a, b = (tuple(int(x) for x in v) for v in dual_edge)
    if a not in f or b not in f:
        return "dual edge endpoints are not terms of the dividend"
    if Fraction(w_f) != lattice_length([y - x for x, y in zip(a, b)]):
        return "w_f is not the lattice length of the dual edge"
    if Fraction(deficit) != Fraction(w_f) - Fraction(w_up):
        return "deficit != w_f - w_up"
    if Fraction(deficit) >= 0:
        return "deficit is not negative"
    return None


# ---------------------------------------------------------------------------
# planar polygons (rational coordinates)


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull2(points):
    """Counterclockwise vertices of the convex hull (no collinear points)."""
    pts = sorted(set((Fraction(p[0]), Fraction(p[1])) for p in points))
    if len(pts) <= 2:
        return pts
    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def minkowski2(*polys):
    out = [(ZERO, ZERO)]
    for P in polys:
        out = hull2([(u[0] + v[0], u[1] + v[1]) for u in out for v in P])
    return out


def primitive(d):
    """Primitive integer vector in the direction of a rational vector."""
    L = lattice_length(d)
    return tuple(int(Fraction(x) / L) for x in d)


def edges2(verts):
    """[(outer primitive normal, lattice length, (start, end))] of a polygon.

    A segment has two edges with opposite normals; a point has none.
    """
    if len(verts) < 2:
        return []
    cyc = verts if len(verts) > 2 else [verts[0], verts[1]]
    out = []
    for i, u in enumerate(cyc):
        v = cyc[(i + 1) % len(cyc)]
        d = (v[0] - u[0], v[1] - u[1])
        out.append((primitive((d[1], -d[0])), lattice_length(d), (u, v)))
    return out


def edge_lengths(verts):
    return {u: L for u, L, _ in edges2(verts)}


def support(verts, y):
    return max(sum(a * b for a, b in zip(y, v)) for v in verts)


def face_size(verts, y):
    vals = [sum(a * b for a, b in zip(y, v)) for v in verts]
    top = max(vals)
    return sum(1 for s in vals if s == top)


def is_summand2(P, Q):
    """The planar edge-vector criterion: Q's edges fit in P's parallel ones."""
    lp = edge_lengths(P)
    return all(lp.get(u, ZERO) >= L for u, L in edge_lengths(Q).items())


def balanced_generators(normals):
    """Segments and triangles whose normal fans the given rays refine.

    Each generator is a small lattice polygon given by its vertices: a
    segment for every pair of opposite rays, a triangle for every triple
    of rays that positively spans the plane.
    """
    rot = [(-u[1], u[0]) for u in normals]
    gens = []
    for i, j in itertools.combinations(range(len(normals)), 2):
        if normals[i] == (-normals[j][0], -normals[j][1]):
            gens.append(hull2([(0, 0), rot[i]]))
    for i, j, k in itertools.combinations(range(len(normals)), 3):
        u, v, w = normals[i], normals[j], normals[k]
        a = v[0] * w[1] - v[1] * w[0]
        b = w[0] * u[1] - w[1] * u[0]
        c = u[0] * v[1] - u[1] * v[0]
        if a and b and c and (a > 0) == (b > 0) == (c > 0):
            g = math.gcd(math.gcd(abs(a), abs(b)), abs(c))
            a, b = abs(a) // g, abs(b) // g
            A = (a * rot[i][0], a * rot[i][1])
            B = (b * rot[j][0], b * rot[j][1])
            gens.append(hull2([(0, 0), A, (A[0] + B[0], A[1] + B[1])]))
    return gens


def _det(M):
    """Integer determinant by fraction-free elimination (Bareiss)."""
    M = [list(r) for r in M]
    n = len(M)
    sgn, prev = 1, 1
    for k in range(n - 1):
        if M[k][k] == 0:
            p = next((i for i in range(k + 1, n) if M[i][k]), None)
            if p is None:
                return 0
            M[k], M[p] = M[p], M[k]
            sgn = -sgn
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sgn * M[n - 1][n - 1] if n else 1


def check_planar_basis(normals, matrix, polytopes):
    """A planar factorization basis for the fan with the given wall rays.

    normals are the primitive wall rays in the column order of matrix.
    Checks that every row is non-negative, integral and balanced, that
    the rows form a lattice basis of all integer balanced weights (rank
    m - 2 and coprime maximal minors, since that lattice is saturated),
    and that each polytope has the row as its edge lengths.
    """
    m = len(normals)
    if len(matrix) != m - 2 or len(polytopes) != len(matrix):
        return f"basis has {len(matrix)} rows for a fan with {m} walls"
    rows = []
    for row in matrix:
        vals = [Fraction(x) for x in row]
        if len(vals) != m or any(x < 0 or x.denominator != 1 for x in vals):
            return "basis row is not a non-negative integer vector"
        if any(sum(w * u[t] for w, u in zip(vals, normals)) for t in (0, 1)):
            return "basis row is not balanced"
        rows.append([int(x) for x in vals])
    g = 0
    for cols in itertools.combinations(range(m), m - 2):
        g = math.gcd(g, _det([[r[c] for c in cols] for r in rows]))
        if g == 1:
            break
    if g != 1:
        return f"basis rows span a sublattice of index {g}"
    for row, B in zip(rows, polytopes):
        lens = edge_lengths(hull2(B))
        want = {u: Fraction(w) for u, w in zip(normals, row) if w}
        if lens != want:
            return "basis polytope does not have its row as edge lengths"
    return None


# ---------------------------------------------------------------------------
# Q(sqrt(2)) as (a, b) pairs


def pair(x):
    """A program scalar (int, Fraction or an object with .a/.b) as a pair."""
    if isinstance(x, (int, Fraction)):
        return (Fraction(x), ZERO)
    return (Fraction(x.a), Fraction(x.b))


def padd(p, q):
    return (p[0] + q[0], p[1] + q[1])


def psub(p, q):
    return (p[0] - q[0], p[1] - q[1])


def pmul(p, q):
    return (p[0] * q[0] + 2 * p[1] * q[1], p[0] * q[1] + p[1] * q[0])


def psign(p):
    a, b = p
    if b == 0 or (a != 0 and (a > 0) == (b > 0)):
        return (a > 0) - (a < 0)
    if a == 0:
        return (b > 0) - (b < 0)
    # opposite signs: compare a^2 with 2 b^2, the sign follows a's
    c = (a * a > 2 * b * b) - (a * a < 2 * b * b)
    return c if a > 0 else -c


def pdot(u, v):
    """u rational, v a vector of pairs."""
    s = (ZERO, ZERO)
    for x, p in zip(u, v):
        s = (s[0] + x * p[0], s[1] + x * p[1])
    return s


def psupport(verts, y):
    best = None
    for v in verts:
        s = pdot(y, v)
        if best is None or psign(psub(s, best)) > 0:
            best = s
    return best


def psqrt(q):
    """sqrt of a non-negative rational, when it lies in Q(sqrt(2))."""
    q = Fraction(q)
    for scale, shape in ((1, lambda r: (r, ZERO)), (2, lambda r: (ZERO, r))):
        t = q / scale
        rn, rd = math.isqrt(t.numerator), math.isqrt(t.denominator)
        if rn * rn == t.numerator and rd * rd == t.denominator:
            return shape(Fraction(rn, rd))
    return None


def rational_pairs(verts):
    return [tuple((Fraction(x), ZERO) for x in v) for v in verts]


def directions(n):
    """Twelve fixed integer directions in R^n."""
    rng = random.Random(f"directions-{n}")
    return [tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(12)]


def check_linear_identity(lhs, terms):
    """h_lhs - sum c_i h_{B_i} is linear: the Minkowski identity holds.

    lhs is a vertex list of pairs; terms is a list of (c_i pair, vertex
    list of pairs).  The support functions are compared at the unit
    vectors, which fixes the translation, and then at fixed directions.
    """
    n = len(lhs[0])
    def diff(y):
        s = psupport(lhs, y)
        for c, B in terms:
            if c[0] or c[1]:
                s = psub(s, pmul(c, psupport(B, y)))
        return s

    unit = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    t = [diff(e) for e in unit]
    for y in directions(n):
        want = (ZERO, ZERO)
        for yi, ti in zip(y, t):
            want = padd(want, (yi * ti[0], yi * ti[1]))
        if diff(y) != want:
            return f"support functions disagree at {y}"
    return None


# ---------------------------------------------------------------------------
# reflection groups in the package's coordinates


def b2_orbit(x):
    x1, x2 = x
    out = set()
    for a, b in ((x1, x2), (x2, x1)):
        for s, t in itertools.product((1, -1), repeat=2):
            out.add((s * a, t * b))
    return out


def a_orbit(x):
    """Orbit under S_{n+1} of x in the quotient coordinates z_k - z_{n+1}."""
    z = tuple(x) + (ZERO,)
    return {tuple(p[i] - p[-1] for i in range(len(x)))
            for p in itertools.permutations(z)}


def primal_length(tag, d):
    """Length of an edge vector in the primal metric of the given type.

    B2 uses the standard metric; type A_n uses the inverse of I + J,
    which is I - J/(n+1).
    """
    q = sum(x * x for x in d)
    if tag != "B2":
        q -= Fraction(sum(d)) ** 2 / (len(d) + 1)
    return psqrt(q)


def check_phi_weights(tag, verts, weights):
    """Each wall weight is the metric length of P's face in the wall.

    weights maps the program's wall keys, (vertices, rays, lineality)
    tuples of numbers, to scalars; the wall's relative interior point is
    the apex plus the sum of its rays.
    """
    verts = [tuple(Fraction(x) for x in v) for v in verts]
    for key, w in weights.items():
        apexes, rays, lin = key
        if lin or len(apexes) != 1:
            return "wall key is not a pointed cone"
        y = tuple(Fraction(apexes[0][j]) + sum(Fraction(r[j]) for r in rays)
                  for j in range(len(verts[0])))
        vals = [sum(a * b for a, b in zip(y, v)) for v in verts]
        top = max(vals)
        face = [v for v, s in zip(verts, vals) if s == top]
        if len(face) == 1:
            want = (ZERO, ZERO)
        elif len(face) == 2:
            want = primal_length(tag, [b - a for a, b in zip(*face)])
        else:
            return "a wall meets a face of dimension two"
        if want is None or pair(w) != want:
            return f"wall weight {w} != metric edge length"
    return None


# ---------------------------------------------------------------------------
# type A weight matrix and deformation cone


def ordered_partitions(n):
    """Ordered partitions of [n+1] into one doubleton and singletons."""
    ground = range(1, n + 2)
    out = []
    for pair_ in itertools.combinations(ground, 2):
        rest = [x for x in ground if x not in pair_]
        for perm in itertools.permutations(rest):
            for pos in range(len(rest) + 1):
                blocks = [(x,) for x in perm]
                blocks.insert(pos, pair_)
                out.append(tuple(blocks))
    return out


def weight_entry(blocks, I):
    """1 iff the doubleton is inside I and no element of I comes before it."""
    Iset = set(I)
    for b in blocks:
        if len(b) == 2:
            return 1 if Iset.issuperset(b) else 0
        if b[0] in Iset:
            return 0
    return 0


def check_weight_matrix(n, partitions, subsets, rows):
    want_parts = set(ordered_partitions(n))
    got_parts = [tuple(tuple(b) for b in blocks) for blocks in partitions]
    if set(got_parts) != want_parts or len(got_parts) != len(want_parts):
        return "rows are not the ordered partitions with one doubleton"
    want_subs = {I for k in range(2, n + 2)
                 for I in itertools.combinations(range(1, n + 2), k)}
    if set(map(tuple, subsets)) != want_subs or len(subsets) != len(want_subs):
        return "columns are not the subsets with at least two elements"
    for blocks, row in zip(got_parts, rows):
        for I, e in zip(subsets, row):
            if e != weight_entry(blocks, I):
                return f"entry ({blocks}, {I}) = {e} breaks the rule"
    return None


def cone_values(y, n):
    """(partition blocks, value of W y) for every ordered partition."""
    return [(blocks, sum(v * weight_entry(blocks, I) for I, v in y.items()
                         if len(I) >= 2))
            for blocks in ordered_partitions(n)]


def simplex_vertices(I, n):
    """Delta_I in quotient coordinates: e_i, and e_{n+1} -> (-1, ..., -1)."""
    out = []
    for i in I:
        out.append(tuple(-1 if i == n + 1 else (1 if j == i else 0)
                         for j in range(1, n + 1)))
    return out
