"""Tropical polynomial division and reconstruction from weighted fans.

divide(f, g) decides whether f = g (.) h for some tropical polynomial h
and builds h when it exists.  The test is the divisibility criterion: the
variety of g must sit inside the variety of f, and on every wall of T(f)
the weight of f must dominate the weight pulled back from g.  Both
failure modes raise, with an exact witness attached.

Everything is decided on the one complex T(f); T(g) is never built.
V(g) lies inside V(f) exactly when a single term of g is maximal on each
chamber of T(f), which the chamber's generators decide: a term is
maximal on the whole chamber iff it is maximal at every vertex, along
every ray and along both directions of every lineality generator.  The
generators are the facets of f's lifted hull through the chamber's term
(see TropicalComplex), so the terms of g maximal on each facet row are
found once, on machine integers, and a chamber's winner is the one term
in the intersection over its facets.  Only a chamber whose intersection
is empty goes through Fractions: the winning term at an interior point
is overtaken on the way to some generator, and the first tie on the way
there is a point of V(g) inside the open chamber.

support_table integrates a weighted complete fan: walking the chamber
graph, the supporting linear form changes by weight times wall normal
at each crossing, and the gradients of the resulting forms are the
vertices of the polytope that reconstruct_from_fan returns.  Loop
closure of this integration is exactly the balancing condition, so
unbalanced input raises NotBalanced.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Dict, Optional

from .exact import (
    CertificateError,
    TropfactorError,
    dot,
    integer_row,
    primitive_of_rational,
    rational_content,
    sign,
    vadd,
    vsub,
)
from .polyhedra import Fan, LatticePolytope, demote_vector
from .tropical import TropicalComplex, TropicalPolynomial


class NotContained(TropfactorError):
    """V(g) is not a subset of V(f); .witness is a point of the difference."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(
            f"variety not contained; separating point {point_text(witness)}")


def point_text(x) -> str:
    """A rational point as text: (-1, 1/2)."""
    return "(" + ", ".join(str(Fraction(c)) for c in x) + ")"


class NegativeWeight(TropfactorError):
    """Some wall of T(f) has w_f < extended w_g; carries the witness cell."""

    def __init__(self, dual_edge, w_f, w_up):
        self.dual_edge = dual_edge
        self.w_f = w_f
        self.w_up = w_up
        self.deficit = w_f - w_up
        super().__init__(
            f"weight deficit {self.deficit} on the wall dual to {dual_edge} "
            f"(w_f={w_f}, extended w_g={w_up})")


class NotBalanced(TropfactorError):
    def __init__(self, detail):
        super().__init__(f"weights are not balanced: {detail}")


# ---------------------------------------------------------------------------
# variety containment


def variety_containment_witness(g: TropicalPolynomial, f: TropicalPolynomial,
                                Tf: Optional[TropicalComplex] = None,
                                winners: Optional[list] = None):
    """A point of V(g) \\ V(f), or None when V(g) is contained in V(f).

    V(f) misses exactly the open chambers of T(f), so containment holds
    iff no open chamber D meets V(g), i.e. iff one term b of g is the
    unique maximum on all of int(D).  That holds iff b is maximal at
    every generator of D: at each vertex, and along each ray and each
    +/- lineality direction.

    The integer pass reads this off f's lifted hull.  With g's
    coefficients scaled by their common denominator d, the terms of g
    maximal on the generator of a facet row (alpha, c) are the maximizers
    of c * d * v_b + d * alpha.b: at the vertex alpha / c when c > 0,
    along the ray alpha when c = 0.  Those masks are taken once per facet
    and once for the lineality (see _maximal_terms), and the winner of D
    is the one term in the intersection of the masks of its facets and
    the lineality mask.  There is at most one: two terms maximal on all
    of D agree on D, which is full-dimensional, so they are the same
    exponent.

    When the intersection is empty, D alone goes through the Fraction
    route of _chamber_witness, which finds the witness, CertificateError
    if it finds none.  The pass and the route agree chamber by chamber,
    since a term maximal on every generator is the unique maximum at an
    interior point, so the witness is the route's.  Tf may pass a prebuilt
    f.dual_complex(), and winners a list that receives b for each chamber
    in turn: g's winners, when containment holds.  A witness is checked
    before it is returned: g attains its maximum at two terms or more
    there and f at exactly one, else CertificateError.
    """
    if g.n != f.n:
        raise ValueError("ambient dimensions differ")
    if Tf is None:
        Tf = f.dual_complex()
    terms = list(g.terms)
    facet_tops, lin_top = _maximal_terms(g, f.subdivision())
    for D, T in zip(Tf.chambers, Tf.chamber_facets):
        top = lin_top
        for j, mask in enumerate(facet_tops):
            if T >> j & 1:
                top &= mask
        if not top:
            witness = _chamber_witness(g, f, D, winners)
            if witness is None:
                raise CertificateError(
                    "no term of g is maximal on every generator of a "
                    "chamber, but none is overtaken inside it")
            return witness
        if top & (top - 1):
            raise CertificateError(
                "two terms of g are maximal on a whole chamber of T(f)")
        if winners is not None:
            winners.append(terms[top.bit_length() - 1])
    return None


def _maximal_terms(g: TropicalPolynomial, sub):
    """Bitmasks over g.terms: per facet row of sub, the terms maximal on
    its generator; and the terms maximal along both directions of every
    lineality row.  Scores are integers, with g's coefficients scaled by
    their common denominator d.
    """
    d = math.lcm(*(v.denominator for v in g.terms.values()))
    lifted = [b + (v.numerator * (d // v.denominator),)
              for b, v in g.terms.items()]

    def top(scores):
        m = max(scores)
        return sum(1 << k for k, s in enumerate(scores) if s == m)

    facets = []
    for row, _ in sub.rows:
        scaled = tuple(d * x for x in row[:-1]) + (row[-1],)
        facets.append(top([dot(scaled, b) for b in lifted]))
    lin = (1 << len(lifted)) - 1
    for l in sub.normals:
        l = integer_row(l)
        scores = [dot(l, b[:-1]) for b in lifted]
        lin &= top(scores) & top([-s for s in scores])
    return facets, lin


def _chamber_witness(g: TropicalPolynomial, f: TropicalPolynomial, D,
                     winners: Optional[list] = None):
    """A point of V(g) in the open chamber D, by the Fraction route.

    b = argmax of g at an interior point p of D, appended to winners; p
    when it ties.  Otherwise b must stay maximal on the generators of D:
    at each vertex w, on the segment from p to w, and for all t >= 0
    along each ray and each +/- lineality direction u.  That holds iff
    v_b + b.w = g(w) at each vertex and b.u = max_c c.u along each
    direction.  At the first generator where this fails, a term
    overtakes b along p + t*u within that range, and the first tie point
    is the witness: it is in V(g) and still interior to D, since it lies
    strictly before the vertex or on an unbounded direction.  None when
    b is maximal on every generator.
    """
    p = D.relative_interior_point()
    arg = g.argmax(p)
    if len(arg) > 1:
        return _checked_witness(g, f, p)
    b = arg[0]
    if winners is not None:
        winners.append(b)
    vb = g.terms[b]
    dirs = list(D.rays) + [u for l in D.lineality
                           for u in (l, tuple(-x for x in l))]
    bad = next(itertools.chain(
        (vsub(w, p) for w in D.vertices if vb + dot(b, w) != g(w)),
        (u for u in dirs if dot(b, u) != max(dot(c, u) for c in g.terms))),
        None)
    if bad is None:
        return None
    t = _first_tie(g, b, p, bad)
    return _checked_witness(g, f, tuple(x + t * y for x, y in zip(p, bad)))


def _checked_witness(g: TropicalPolynomial, f: TropicalPolynomial, x):
    """x, after checking that it lies on V(g) and off V(f)."""
    if len(g.argmax(x)) < 2 or len(f.argmax(x)) != 1:
        raise CertificateError(
            f"the point {x} does not separate V(g) from V(f)")
    return x


def _first_tie(g: TropicalPolynomial, b, p, u):
    """Smallest t > 0 where a term of g catches up with b along p + t*u.

    b is the unique maximal term of g at p; None if no term gains on b.
    """
    lead = g.terms[b] + dot(b, p)
    slope = dot(b, u)
    best = None
    for c, vc in g.terms.items():
        gain = dot(c, u) - slope
        if sign(gain) > 0:
            t = (lead - vc - dot(c, p)) / gain
            if best is None or t < best:
                best = t
    return best


def variety_contained(g: TropicalPolynomial, f: TropicalPolynomial) -> bool:
    return variety_containment_witness(g, f) is None


# ---------------------------------------------------------------------------
# weight extension and division


def edge_lengths(wall_chambers, table, length: Callable) -> Dict:
    """Wall key -> length of table[j] - table[i], 0 where they agree.

    wall_chambers maps each wall to its two sides (i, _), (j, _), in the
    layout of Fan and TropicalComplex; table holds one point per chamber.
    """
    return {wk: Fraction(0) if table[i] == table[j]
            else length(vsub(table[j], table[i]))
            for wk, ((i, _), (j, _)) in wall_chambers.items()}


def extend_weights(f: TropicalPolynomial, g: TropicalPolynomial,
                   Tf: Optional[TropicalComplex] = None,
                   winners: Optional[list] = None) -> Dict:
    """The extension of w_g to the walls of T(f).

    Requires V(g) inside V(f), else CertificateError.  An open chamber C
    of T(f) then misses V(g), so one term b_C of g is maximal on all of
    it: its winner at the interior point, read by the containment check
    (divide passes in the winners of its own check).  A small ball
    around an interior point p of the wall between chambers C and D
    lies in C and D, where g is the affine function of b_C or of b_D.
    If b_C = b_D, g is affine near p, the wall is off V(g) and gets
    weight 0.  Otherwise p lies on a wall of T(g) whose dual edge in g's
    subdivision joins b_C and b_D, and the wall inherits its lattice
    length |b_D - b_C|.  The same rule measures the walls of a fan
    refining a polytope's normal fan (minkowski.wall_lengths); both go
    through edge_lengths.
    """
    if Tf is None:
        Tf = f.dual_complex()
    if winners is None:
        winners = []
        if variety_containment_witness(g, f, Tf, winners) is not None:
            raise CertificateError("the variety of g is not inside that of f")
    return edge_lengths(Tf.wall_chambers, winners, rational_content)


def divide(f: TropicalPolynomial, g: TropicalPolynomial) -> TropicalPolynomial:
    """The tropical quotient h with g (.) h = f, when it exists.

    Raises NotContained if V(g) is not inside V(f) and NegativeWeight if
    the weight criterion fails on some wall of T(f).  When both checks
    pass, f - g is convex and h is the maximum of the per-chamber
    difference forms; the identity g (.) h = f is verified exactly before
    returning, and CertificateError reports a failure of that check.
    """
    Tf = f.dual_complex()
    winners = []
    witness = variety_containment_witness(g, f, Tf, winners)
    if witness is not None:
        raise NotContained(witness)
    if len(winners) != len(Tf.chambers):
        raise CertificateError("a chamber of T(f) has no winning term of g")
    wup = extend_weights(f, g, Tf, winners)
    for wk in sorted(Tf.walls):
        if Tf.wall_weights[wk] < wup[wk]:
            raise NegativeWeight(Tf.wall_duals[wk], Tf.wall_weights[wk], wup[wk])
    terms = {}
    for a, b in zip(Tf.chamber_terms, winners):
        e = vsub(a, b)
        c = f.terms[a] - g.terms[b]
        if e not in terms or c > terms[e]:
            terms[e] = c
    h = TropicalPolynomial(terms, n=f.n)
    if not (g * h).same_function(f):
        raise CertificateError(
            "g (.) h differs from f although the divisibility criterion held")
    return h


# ---------------------------------------------------------------------------
# reconstruction


def support_table(fan: Fan, weights: Dict) -> list:
    """The gradients of the support function with the given wall increments.

    weights maps every wall key of the (complete) fan to a lattice
    length, a multiple of the primitive normal of the wall.  The walk
    over the chamber graph starts at the origin on chamber 0, and
    crossing a wall into chamber j adds weight * (inward normal of j) to
    the gradient; each wall is crossed once, out of the first of its
    chambers that the walk leaves.  Loop closure is exactly the
    balancing condition, so NotBalanced when the walk disagrees with
    itself, when a wall has one side or no weight, or when the chamber
    graph is disconnected.
    """
    adj = [[] for _ in fan.chambers]
    for k, sides in fan.wall_chambers.items():
        w = weights.get(k)
        if w is None:
            raise NotBalanced(f"{sum(x not in weights for x in fan.walls)} "
                              f"walls carry no weight")
        if len(sides) != 2:
            raise NotBalanced("fan is not complete: a wall has one side")
        if isinstance(w, Fraction) and w.denominator == 1:
            w = w.numerator  # integer weights walk on ints
        (i, _), (j, inward) = sides
        step = tuple(w * x for x in primitive_of_rational(inward))
        adj[i].append((j, k, step))
        adj[j].append((i, k, tuple(-x for x in step)))
    grads = [None] * len(fan.chambers)
    grads[0] = (0,) * fan.n
    left, order = set(), [0]
    while order:
        i = order.pop()
        left.add(i)
        for j, k, step in adj[i]:
            if j in left:
                continue
            target = vadd(grads[i], step)
            if grads[j] is None:
                grads[j] = target
                order.append(j)
            elif grads[j] != target:
                raise NotBalanced(
                    f"support integration disagrees across wall {k}")
    if len(left) != len(fan.chambers):
        raise NotBalanced("chamber graph is disconnected")
    return grads


def reconstruct_from_fan(fan: Fan, weights: Dict) -> LatticePolytope:
    """The polytope whose support function has the given wall increments.

    The gradients come from support_table.  The result is translated so
    its lexicographically smallest vertex is the origin.  Signed weights
    are accepted; only loop closure is required.  With weights >= 0 the
    gradients are the vertices, each once (see hull_of_table).
    """
    table = support_table(fan, weights)
    if all(sign(weights[k]) >= 0 for k in fan.walls):
        return hull_of_table(table)
    return LatticePolytope(table).normalize_translation()


def hull_of_table(table) -> LatticePolytope:
    """The hull of the gradients of a convex support function, translated.

    table lists one gradient per chamber of a complete fan, stepping by a
    non-negative weight times the inward normal across every wall.  Loop
    closure makes the integrated function h continuous, and it is at
    least the linear extension of its neighbour on each side of every
    wall.  A continuous piecewise-linear function on a complete fan that
    is convex across every wall is convex, so h is the maximum of its
    gradients: the support function of their hull, attained on the
    interior of a chamber only at its own gradient.  So every gradient is
    a vertex, CertificateError if not.
    """
    table = [demote_vector(v) for v in table]
    P = LatticePolytope(table)
    if set(table) != set(P.vertices):
        raise CertificateError(
            "the chamber gradients of a convex support function are not "
            "the vertices of their hull")
    return P.normalize_translation()
