"""Exact scalars and linear algebra.

Everything downstream (hulls, fans, balancing tests, cone membership)
reduces to sign decisions, so this module deliberately offers no floating
point path.  Scalars are ``int``, ``fractions.Fraction`` or :class:`QuadExt`
elements a + b*sqrt(d) of a real quadratic field; the sign of a + b*sqrt(d)
is decided by comparing a^2 with d*b^2, never by approximation.

row_reduce, rank, solve_linear and nullspace_field share one elimination
per kind of matrix: a rational one is scaled to integers row by row and
eliminated fraction-free, one with a QuadExt entry by Gauss-Jordan over
Q(sqrt(d)).

The integer side (Hermite normal form, kernels, lattice membership) backs
the weight-cone computations; kernels of integer matrices are saturated,
which is what makes "each basis vector is primitive" automatic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence


class TropfactorError(Exception):
    """Base class for all structured errors raised by this package."""


class CertificateError(TropfactorError):
    """An exact check of a computed answer failed.

    This is a fault of the program, not a property of the input: it is
    raised instead of returning an answer that could not be certified.
    """


class ZeroVector(TropfactorError):
    pass


class NoPositiveWitness(TropfactorError):
    pass


# ---------------------------------------------------------------------------
# scalars


def parse_rational(s) -> Fraction:
    """Parse "p/q" (or "p", or an int) into a Fraction."""
    if isinstance(s, (int, Fraction)):
        return Fraction(s)
    return Fraction(str(s))


def format_rational(q) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _rational_sqrt(q: Fraction):
    """Exact square root of a non-negative rational, or None."""
    q = Fraction(q)
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


class QuadExt:
    """An element a + b*sqrt(d) of Q(sqrt(d)), d a square-free positive integer.

    A single d is fixed per computation (d = 2 throughout this package);
    mixing elements with different d raises.  Ordering is total and exact.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b=0, d: int = 2):
        if d <= 1:
            raise ValueError("d must be a square-free integer > 1")
        self.a = a if type(a) is Fraction else Fraction(a)
        self.b = b if type(b) is Fraction else Fraction(b)
        self.d = d

    # -- coercion ----------------------------------------------------------

    def _lift(self, other):
        if isinstance(other, QuadExt):
            if other.d != self.d:
                raise ValueError(f"mixed radicals: sqrt({self.d}) vs sqrt({other.d})")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt(other, 0, self.d)
        return None

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.a - o.a, self.b - o.b, self.d)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.a * o.a + self.d * self.b * o.b,
                       self.a * o.b + self.b * o.a, self.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        n = o.a * o.a - o.d * o.b * o.b  # field norm, zero only for 0
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(d))")
        inv = QuadExt(o.a / n, -o.b / n, o.d)
        return self * inv

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o / self

    def __abs__(self):
        return self if self.sign() >= 0 else -self

    # -- comparisons -------------------------------------------------------

    def sign(self) -> int:
        """Sign of a + b*sqrt(d), decided by exact integer comparisons."""
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 with d b^2, answer carries a's sign
        cmp = (a * a > self.d * b * b) - (a * a < self.d * b * b)
        if cmp == 0:
            # a^2 = d b^2 is impossible for square-free d and b != 0
            raise ArithmeticError("sqrt(d) rational?")
        return cmp if a > 0 else -cmp

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __lt__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __le__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() <= 0

    def __gt__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() > 0

    def __ge__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() >= 0

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __repr__(self):
        if self.b == 0:
            return format_rational(self.a)
        if self.b == 1:
            root = f"sqrt({self.d})"
        elif self.b == -1:
            root = f"-sqrt({self.d})"
        else:
            root = f"{format_rational(self.b)}*sqrt({self.d})"
        if self.a == 0:
            return root
        joiner = "" if root.startswith("-") else "+"
        return f"{format_rational(self.a)}{joiner}{root}"


SQRT2 = QuadExt(0, 1, 2)


def sign(x) -> int:
    if isinstance(x, QuadExt):
        return x.sign()
    return (x > 0) - (x < 0)


def scalar_sqrt(x):
    """Exact square root within Q or Q(sqrt(2)); raises if it does not exist there.

    Solves (c + e*sqrt(d))^2 = x.  The norm a^2 - d b^2 of x must be a
    rational square, and one of the two quadratic branches must give a
    rational square as well; otherwise the root leaves the field.
    """
    if isinstance(x, (int, Fraction)):
        x = QuadExt(x, 0, 2)
    if x.sign() < 0:
        raise ValueError("square root of a negative value")
    if not x:
        return Fraction(0)
    d = x.d
    disc = _rational_sqrt(x.a * x.a - d * x.b * x.b)
    if disc is None:
        raise ValueError(f"sqrt({x!r}) is not in Q(sqrt({d}))")
    for u in ((x.a + disc) / 2, (x.a - disc) / 2):
        c = _rational_sqrt(u)
        if c is None:
            continue
        if c == 0:
            if x.b != 0:
                continue
            e2 = Fraction(x.a, d)
            e = _rational_sqrt(e2)
            if e is None:
                continue
            root = QuadExt(0, e, d)
        else:
            root = QuadExt(c, x.b / (2 * c), d)
        if root * root == x and root.sign() >= 0:
            return root if root.b != 0 else root.a
    raise ValueError(f"sqrt({x!r}) is not in Q(sqrt({d}))")


# ---------------------------------------------------------------------------
# vectors


def dot(u: Sequence, v: Sequence):
    if len(u) != len(v):
        raise ValueError(f"dot of vectors of lengths {len(u)} and {len(v)}")
    s = 0
    for a, b in zip(u, v):
        s = s + a * b
    return s


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vscale(c, u):
    return tuple(c * a for a in u)


def is_zero_vector(v) -> bool:
    return all(not a for a in v)


def vgcd(v: Iterable[int]) -> int:
    g = 0
    for a in v:
        g = math.gcd(g, abs(a))
    return g


def primitive_vector(v: Sequence[int]) -> tuple:
    """v / gcd(v); preserves direction.  Raises ZeroVector on v = 0."""
    v = tuple(int(a) for a in v)
    g = math.gcd(*v)
    if g == 0:
        raise ZeroVector("the zero vector has no primitive representative")
    return tuple(a // g for a in v)


def integer_row(a) -> tuple:
    """Positive integer rescale of a rational row; other rows pass through.

    Rescaling a row by a positive factor leaves its span, the cone it
    cuts out and the pivots of its matrix unchanged, but lets elimination
    and the double description loops run on plain machine integers.
    """
    if all(isinstance(x, int) for x in a):
        return tuple(a)
    if all(isinstance(x, (int, Fraction)) for x in a):
        m = 1
        for x in a:
            if isinstance(x, Fraction):
                m = m * x.denominator // math.gcd(m, x.denominator)
        return tuple(int(x * m) for x in a)
    return tuple(a)


def rational_content(v) -> Fraction:
    """The unique q > 0 such that v/q is a primitive integer vector."""
    u = primitive_of_rational(v)
    k = next(i for i, x in enumerate(u) if x)
    return Fraction(v[k]) / u[k]


def primitive_of_rational(v) -> tuple:
    """Primitive integer vector with the same direction as the rational v."""
    return primitive_vector(integer_row(v))


# ---------------------------------------------------------------------------
# linear algebra: fraction-free over Q, Gauss-Jordan over Q(sqrt(d))


def _eliminate(rows, above: bool):
    """(mat, pivots, field): the rows eliminated, with their pivot columns.

    Rational rows are scaled to integers (integer_row), zero rows are
    dropped, and each step is fraction-free, as in Bareiss (Math. Comp.
    22, 1968) with the row gcd as divisor: a row r becomes
    (p[c] r - r[c] p) / gcd, p the pivot row.  Each row stays a nonzero
    multiple of the row Gauss-Jordan would hold, so the pivots agree.
    With a QuadExt entry (field), where such entries grow without bound,
    it is Gauss-Jordan over the field.  Rows below each pivot are
    cleared, with above also those over it: the first len(pivots) rows
    are then reduced up to one factor per row.
    """
    mat, field = [], False
    for a in rows:
        if not all(isinstance(x, int) for x in a):
            if not all(isinstance(x, (int, Fraction)) for x in a):
                mat, field = [[Fraction(x) if isinstance(x, int) else x
                               for x in a] for a in rows], True
                break
            a = integer_row(a)
        if any(a):
            mat.append(list(a))
    pivots = []
    for c in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if p is None:
            continue
        mat[r], mat[p] = mat[p], mat[r]
        if field:
            inv = mat[r][c]
            mat[r] = [u / inv for u in mat[r]]
        pivot = mat[r]
        x = pivot[c]
        for i in range(0 if above else r + 1, len(mat)):
            y = mat[i][c]
            if not y or i == r:
                continue
            if field:
                mat[i] = [u - y * w for u, w in zip(mat[i], pivot)]
            else:
                row = [x * u - y * w for u, w in zip(mat[i], pivot)]
                g = math.gcd(*row)
                mat[i] = [u // g for u in row] if g > 1 else row
        pivots.append(c)
        if r + 1 == len(mat):
            break
    return mat, pivots, field


def row_reduce(rows):
    """Reduced row echelon form.  Returns (rref rows, pivot column list).

    The entries come back as Fractions, or QuadExt.  A rational matrix is
    eliminated fraction-free and each row divided by its pivot at the end.
    """
    mat, pivots, field = _eliminate(rows, True)
    if field:
        return [tuple(row) for row in mat[:len(pivots)]], pivots
    return [tuple(Fraction(u, row[c]) for u in row)
            for row, c in zip(mat, pivots)], pivots


def rank(rows) -> int:
    """Rank of a matrix: the pivot count of the elimination of row_reduce,
    clearing only below the pivots."""
    return len(_eliminate(rows, False)[1])


def solve_linear(rows, rhs):
    """One solution x of A x = rhs over the field, or None if inconsistent.

    Free variables are set to zero.
    """
    rows = [list(r) + [b] for r, b in zip(rows, rhs)]
    if not rows:
        return ()
    n = len(rows[0]) - 1
    red, pivots = row_reduce(rows)
    x = [Fraction(0)] * n
    for row, p in zip(red, pivots):
        if p == n:
            return None  # pivot in the constant column
        x[p] = row[n]
    return tuple(x)


def nullspace_field(rows, ncols=None):
    """Basis of {x : A x = 0} over the field of the entries."""
    n = ncols if ncols is not None else len(rows[0]) if rows else 0
    red, pivots = row_reduce(rows)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for row, p in zip(red, pivots):
            v[p] = -row[f]
        basis.append(tuple(v))
    return basis


# ---------------------------------------------------------------------------
# integer matrices


def hnf(rows):
    """Row-style Hermite normal form of an integer matrix.

    Positive pivots, entries above each pivot reduced into [0, pivot).
    Zero rows are dropped; the result is the canonical basis of the row
    lattice, so two matrices span the same lattice iff their HNFs agree.
    """
    H, _ = hnf_with_transform(rows)
    return H


def hnf_with_transform(rows):
    """(H, U) with U unimodular, U * rows = H followed by zero rows.

    U is returned as a full square matrix over the input rows, so solving
    integer systems can track coefficients through the reduction.
    """
    mat = [list(map(int, r)) for r in rows]
    m = len(mat)
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    if m == 0:
        return [], []
    ncols = len(mat[0])
    r = 0
    for c in range(ncols):
        # euclid on the column below the current row
        while True:
            nz = [i for i in range(r, m) if mat[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(mat[i][c]))
            mat[r], mat[i0] = mat[i0], mat[r]
            U[r], U[i0] = U[i0], U[r]
            if mat[r][c] < 0:
                mat[r] = [-x for x in mat[r]]
                U[r] = [-x for x in U[r]]
            done = True
            for i in range(r + 1, m):
                if mat[i][c] != 0:
                    q = mat[i][c] // mat[r][c]
                    mat[i] = [x - q * y for x, y in zip(mat[i], mat[r])]
                    U[i] = [x - q * y for x, y in zip(U[i], U[r])]
                    if mat[i][c] != 0:
                        done = False
            if done:
                break
        if r < m and mat[r][c] != 0:
            for i in range(r):
                q = mat[i][c] // mat[r][c]
                if q:
                    mat[i] = [x - q * y for x, y in zip(mat[i], mat[r])]
                    U[i] = [x - q * y for x, y in zip(U[i], U[r])]
            r += 1
            if r == m:
                break
    H = [tuple(row) for row in mat[:r] if any(row)]
    return H, [tuple(row) for row in U]


def same_lattice(rows_a, rows_b) -> bool:
    """Do two integer row sets span the same lattice?"""
    return hnf(rows_a) == hnf(rows_b)


def in_lattice(rows, v):
    """Integer coefficients expressing v over the rows, or None.

    The coefficients refer to the rows as given, not to their HNF.
    """
    H, U = hnf_with_transform(rows)
    v = list(map(int, v))
    coeffs_h = []
    for h in H:
        p = next(i for i, x in enumerate(h) if x)
        if v[p] % h[p] != 0:
            return None
        q = v[p] // h[p]
        coeffs_h.append(q)
        v = [x - q * y for x, y in zip(v, h)]
    if any(v):
        return None
    m = len(rows)
    out = [0] * m
    for q, urow in zip(coeffs_h, U):
        for j in range(m):
            out[j] += q * urow[j]
    return tuple(out)


def integer_nullspace(rows):
    """Lattice basis of {x in Z^n : A x = 0}.

    Every integer solution is an integer combination of the result; the
    kernel is saturated, hence each basis vector is primitive.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    # HNF of [A^T | I]: rows with zero left part carry the kernel on the right
    at = [[rows[i][j] for i in range(len(rows))] + [1 if k == j else 0 for k in range(ncols)]
          for j in range(ncols)]
    H, _ = hnf_with_transform(at)
    nleft = len(rows)
    out = []
    for h in H:
        if any(h[:nleft]):
            continue
        out.append(tuple(h[nleft:]))
    # also count all-zero HNF rows that were dropped: cannot happen since
    # the identity block keeps every row nonzero
    return out


def lattice_basis_through(basis, vector):
    """A basis of the same lattice whose first element is the given vector.

    The vector must be a primitive lattice element (coefficient gcd 1).
    Realized by integer row operations, so the change of basis is unimodular.
    """
    coeffs = in_lattice(basis, vector)
    if coeffs is None:
        raise ValueError("vector is not in the lattice")
    c = list(coeffs)
    g = vgcd(c)
    if g != 1:
        raise ValueError("vector is not primitive in the lattice")
    B = [list(map(int, b)) for b in basis]
    # euclid on the coefficient vector; B_j <- B_j + q B_i mirrors c_i -= q c_j
    while sum(1 for x in c if x) > 1:
        nz = sorted((i for i in range(len(c)) if c[i]), key=lambda i: abs(c[i]))
        j, i = nz[0], nz[1]
        q = c[i] // c[j]
        c[i] -= q * c[j]
        B[j] = [x + q * y for x, y in zip(B[j], B[i])]
    k = next(i for i in range(len(c)) if c[i])
    if abs(c[k]) != 1:
        raise CertificateError("the coefficient reduction left no unit")
    B[k] = [c[k] * x for x in B[k]]  # now B[k] == vector
    if tuple(B[k]) != tuple(map(int, vector)):
        raise CertificateError("the new basis does not start with the vector")
    B[0], B[k] = B[k], B[0]
    return [tuple(b) for b in B]


def nonnegative_basis(basis, positive_witness):
    """A basis of the same lattice consisting of coordinate-wise >= 0 vectors.

    positive_witness must be a strictly positive element of the lattice; the
    witness (made primitive in the lattice) becomes a basis element and
    suitable multiples of it are added to the remaining ones.  Raises
    NoPositiveWitness if the witness has a non-positive coordinate or lies
    outside the lattice.
    """
    w = tuple(map(int, positive_witness))
    if any(x <= 0 for x in w):
        raise NoPositiveWitness("witness must be strictly positive in every coordinate")
    if not basis:
        raise NoPositiveWitness("witness is outside the span of an empty basis")
    coeffs = in_lattice(basis, w)
    if coeffs is None:
        raise NoPositiveWitness("witness is outside the lattice spanned by the basis")
    g = vgcd(coeffs)
    wprim = tuple(x // g for x in w)
    B = lattice_basis_through(basis, wprim)
    out = [wprim]
    for b in B[1:]:
        k = 0
        for bi, wi in zip(b, wprim):
            if bi < 0:
                k = max(k, (-bi + wi - 1) // wi)  # ceil(-bi / wi)
        v = tuple(bi + k * wi for bi, wi in zip(b, wprim))
        if any(x < 0 for x in v):
            raise CertificateError(f"the shifted basis vector {v} is negative")
        out.append(v)
    return out
