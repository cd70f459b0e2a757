"""Type A_n machinery: ordered partitions, the universal fan, the 0-1
weight matrix, and deformation-cone membership for generalized
permutahedra.

The ambient quotient R^{n+1}/R(1,...,1) is coordinatized by the
unimodular section z -> (z_1 - z_{n+1}, ..., z_n - z_{n+1}), which keeps
all simplices Delta_I integral.  Under this map e_i goes to e_i for
i <= n and e_{n+1} goes to (-1, ..., -1).

The (n-1)-dimensional cones of the universal fan are indexed by ordered
partitions of [n+1] with exactly one doubleton block; the extended
weight of Delta_I on such a cone is 1 exactly when the partition
restricts to I with the doubleton in front.  Stacking these 0-1 weights
gives the weight matrix W, and a signed combination sum y_I Delta_I is
a polytope minus a polytope exactly when W y >= 0.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Sequence

from .coxeter import build_root_system, coxeter_fan
from .exact import CertificateError, TropfactorError, same_lattice
from .minkowski import (
    FactorizationBasis,
    TooLarge,
    balanced_weight_lattice,
    extended_weights,
    factor,
)
from .polyhedra import Fan, LatticePolytope


class TooSmall(TropfactorError):
    pass


class NotInCone(TropfactorError):
    """The weight vector leaves the deformation cone; .partition violates."""

    def __init__(self, partition, value):
        self.partition = partition
        self.value = value
        super().__init__(
            f"weights give {value} < 0 on the cone of {partition}")


class OrderedPartition:
    """An ordered partition of a ground set with one doubleton block.

    Blocks are disjoint, cover the ground set, and exactly one block has
    two elements while the rest are singletons; such partitions index the
    codimension-one cones of the braid arrangement of the ground set.
    """

    def __init__(self, blocks: Iterable[Iterable[int]]):
        blk = tuple(tuple(sorted(b)) for b in blocks)
        if not blk:
            raise ValueError("an ordered partition needs at least one block")
        sizes = sorted(len(b) for b in blk)
        if sizes != [1] * (len(blk) - 1) + [2]:
            raise ValueError("exactly one block of size two, the rest single")
        flat = [x for b in blk for x in b]
        if len(set(flat)) != len(flat):
            raise ValueError("blocks must be pairwise disjoint")
        self.blocks = blk
        self.ground = tuple(sorted(flat))

    @property
    def doubleton(self) -> tuple:
        return next(b for b in self.blocks if len(b) == 2)

    @property
    def doubleton_position(self) -> int:
        return next(i for i, b in enumerate(self.blocks) if len(b) == 2)

    @property
    def singletons(self) -> tuple:
        return tuple(b[0] for b in self.blocks if len(b) == 1)

    def label(self) -> str:
        parts = []
        for b in self.blocks:
            if len(b) == 2:
                parts.append("{%d,%d}" % b)
            else:
                parts.append(str(b[0]))
        return "(" + ", ".join(parts) + ")"

    def __eq__(self, other):
        return isinstance(other, OrderedPartition) and self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self):
        return f"OrderedPartition{self.label()}"


def ordered_partitions(I: Iterable[int]) -> List[OrderedPartition]:
    """All ordered partitions of I with one doubleton, in canonical order.

    Canonical order sorts by position of the doubleton, then by the
    doubleton itself, then by the singleton sequence; this is the row
    order of the type A_3 weight matrix table.  The loops produce that
    order directly: combinations and permutations of a sorted ground set
    come out lexicographically, and blocks built from them are disjoint.
    """
    ground = tuple(sorted(set(I)))
    if len(ground) < 2:
        raise TooSmall("ordered partitions need at least two elements")
    out = []
    for pos in range(len(ground) - 1):
        for pair in itertools.combinations(ground, 2):
            rest = [x for x in ground if x not in pair]
            for perm in itertools.permutations(rest):
                pi = object.__new__(OrderedPartition)
                pi.blocks = (tuple((x,) for x in perm[:pos]) + (pair,)
                             + tuple((x,) for x in perm[pos:]))
                pi.ground = ground
                out.append(pi)
    return out


def _factorial(k: int) -> int:
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


# ---------------------------------------------------------------------------
# quotient coordinates and simplices


def quotient_point(z: Sequence) -> tuple:
    """Image of z in R^{n+1}/R(1,...,1) via z -> (z_k - z_{n+1})."""
    last = z[-1]
    return tuple(x - last for x in z[:-1])


def simplex_polytope(I: Iterable[int], n: int) -> LatticePolytope:
    """Delta_I = conv{e_i : i in I} in quotient coordinates."""
    pts = []
    for i in sorted(set(I)):
        if not 1 <= i <= n + 1:
            raise ValueError(f"index {i} outside [n+1]")
        z = [0] * (n + 1)
        z[i - 1] = 1
        pts.append(quotient_point(z))
    return LatticePolytope(pts)


def canonical_subsets(n: int) -> List[tuple]:
    """Subsets of [n+1] with at least two elements, in column order.

    Sorted by size; within size two by (span, minimum); larger sizes
    lexicographically.  This is the column order of the printed weight
    matrix tables.
    """
    ground = list(range(1, n + 2))
    out = []
    for k in range(2, n + 2):
        subs = list(itertools.combinations(ground, k))
        if k == 2:
            subs.sort(key=lambda s: (s[1] - s[0], s[0]))
        out.extend(subs)
    return out


# ---------------------------------------------------------------------------
# the weight matrix


class WeightMatrix:
    """Extended 0-1 weights of all simplex faces on the universal fan.

    Rows are indexed by ordered partitions of [n+1] in canonical order,
    columns by subsets I of [n+1] with |I| >= 2 in canonical order; the
    entry is 1 exactly when the partition restricts to I with the
    doubleton block in front.
    """

    def __init__(self, n: int, partitions, subsets, rows):
        self.n = n
        self.partitions = partitions
        self.subsets = subsets
        self.rows = rows
        self._col = {s: i for i, s in enumerate(subsets)}

    def entry(self, pi: OrderedPartition, I) -> int:
        i = self.partitions.index(pi)
        return self.rows[i][self._col[tuple(sorted(I))]]

    def column_of(self, I) -> tuple:
        j = self._col[tuple(sorted(I))]
        return tuple(r[j] for r in self.rows)


def weight_matrix(n: int) -> WeightMatrix:
    """The weight matrix of type A_n.  TooLarge above n = 6.

    By the restriction rule, pi restricts to I with the doubleton in
    front exactly when the doubleton lies in I and no element of I lies
    in an earlier block; each entry is that test on bitmasks.  A row
    depends only on the doubleton and the set of earlier singletons, so
    each distinct row is built once (240 of the 1800 rows for n = 5).
    """
    if n < 1:
        raise TooSmall("the type A_n weight matrix needs n >= 1")
    if n > 6:
        raise TooLarge(f"n = {n} exceeds the cap of 6")
    partitions = ordered_partitions(range(1, n + 2))
    subsets = canonical_subsets(n)
    masks = [sum(1 << i for i in I) for I in subsets]
    rows, seen = [], {}  # (doubleton, earlier singletons) -> row
    for pi in partitions:
        before = 0
        for b in pi.blocks:
            if len(b) == 2:
                break
            before |= 1 << b[0]
        row = seen.get((b, before))
        if row is None:
            pair = (1 << b[0]) | (1 << b[1])
            row = seen[b, before] = tuple(
                1 if m & pair == pair and not m & before else 0
                for m in masks)
        rows.append(row)
    return WeightMatrix(n, partitions, subsets, tuple(rows))


# ---------------------------------------------------------------------------
# the universal fan


class UniversalFan:
    """The A_n Coxeter fan (the braid fan) with ordered-partition labels."""

    def __init__(self, n: int, fan: Fan, label_of: Dict, wall_of: Dict):
        self.n = n
        self.fan = fan
        self.label_of = label_of
        self.wall_of = wall_of


def _partition_of_point(g: Sequence) -> OrderedPartition:
    """The ordered partition reading off the tie pattern of a dual point."""
    z = list(g) + [-sum(g)]
    order = sorted(range(len(z)), key=lambda i: z[i], reverse=True)
    blocks = []
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and z[order[j + 1]] == z[order[i]]:
            j += 1
        blocks.append(tuple(sorted(order[k] + 1 for k in range(i, j + 1))))
        i = j + 1
    return OrderedPartition(blocks)


def universal_fan(n: int) -> UniversalFan:
    """The A_n Coxeter fan, with its walls labeled by ordered partitions.

    The fan is coxeter_fan of the root system A_n, whose chambers realize
    the strict orderings x_{s(1)} > ... > x_{s(n+1)} of the coordinates;
    each wall's relative interior determines an ordered partition of
    [n+1] with a single doubleton, and this labeling is a bijection.
    TooLarge above A_4, the largest supported type.
    """
    if n < 1:
        raise TooSmall("the universal fan needs n >= 1")
    if n > 4:
        raise TooLarge(f"n = {n} exceeds the largest supported type A4")
    fan = coxeter_fan(build_root_system(f"A{n}")).fan
    label_of = {}
    wall_of = {}
    for wk, W in fan.walls.items():
        pi = _partition_of_point(W.relative_interior_point())
        if len(pi.blocks) != n:
            raise CertificateError(f"{pi.label()} is no wall label of A{n}")
        label_of[wk] = pi
        wall_of[pi] = wk
    if not len(wall_of) == len(fan.walls) == _factorial(n + 1) * n // 2:
        raise CertificateError("the labeling is not a bijection")
    return UniversalFan(n, fan, label_of, wall_of)


def geometric_weight_column(uf: UniversalFan, I) -> Dict:
    """w_I^ on the universal fan, computed from the polytope Delta_I."""
    Q = simplex_polytope(I, uf.n)
    w = extended_weights(Q, uf.fan)
    return {uf.label_of[k]: v for k, v in w.by_key.items()}


# ---------------------------------------------------------------------------
# deformation cone membership


def _net_weights(y: Dict, n: int) -> Dict[tuple, int]:
    out = {}
    for key, val in y.items():
        I = tuple(sorted(key))
        if any(not 1 <= i <= n + 1 for i in I):
            raise ValueError(f"subset {I} is not within [n+1]")
        if len(I) <= 1:
            # singletons and the empty set only translate; ignored
            continue
        out[I] = out.get(I, 0) + val
    return out


def deformation_cone_violations(y: Dict, n: int,
                                W: Optional[WeightMatrix] = None):
    """All (partition, value) pairs with a negative weight combination."""
    if W is None:
        W = weight_matrix(n)
    net = _net_weights(y, n)
    out = []
    for pi, row in zip(W.partitions, W.rows):
        val = sum(net.get(I, 0) * e for I, e in zip(W.subsets, row))
        if val < 0:
            out.append((pi, val))
    return out


def deformation_cone_contains(y: Dict, n: int,
                              W: Optional[WeightMatrix] = None) -> bool:
    """Does the signed simplex combination y deform to a polytope?

    True exactly when W y >= 0 componentwise over all ordered partitions.
    """
    return not deformation_cone_violations(y, n, W)


def polymatroid_from_weights(y: Dict, n: int) -> LatticePolytope:
    """The polytope M with M + sum y_I^- Delta_I = sum y_I^+ Delta_I.

    Raises NotInCone with a violating partition when W y >= 0 fails.
    """
    violations = deformation_cone_violations(y, n)
    if violations:
        pi, val = violations[0]
        raise NotInCone(pi, val)
    net = _net_weights(y, n)
    origin = LatticePolytope([tuple(0 for _ in range(n))])
    pos = origin
    neg = origin
    for I, v in sorted(net.items()):
        D = simplex_polytope(I, n)
        if v > 0:
            pos = pos + D.scale(v)
        elif v < 0:
            neg = neg + D.scale(-v)
    return factor(pos, neg)


# ---------------------------------------------------------------------------
# the simplex family as a factorization basis


def simplex_family_basis(n: int) -> FactorizationBasis:
    """The faces Delta_I as a factorization basis of the universal fan.

    Verified on construction: the extended weight columns are a lattice
    basis of the balanced weight vectors on the fan.
    """
    uf = universal_fan(n)
    vectors = [extended_weights(simplex_polytope(I, n), uf.fan)
               for I in canonical_subsets(n)]
    lattice, _ = balanced_weight_lattice(uf.fan)
    mat = [tuple(int(x) for x in w.values) for w in vectors]
    if not same_lattice(mat, lattice):
        raise CertificateError(
            "the simplex faces do not span the balanced weight lattice of "
            "the fan")
    return FactorizationBasis(uf.fan, vectors)
