"""The three benchmark workloads.

Each workload has four steps.  generate(rng, workdir) builds every input
from the seed with the standard library, before tropfactor is imported,
as a list of blocks; a block is a fixed mix of calls, so every complete
block has the same proportions of call kinds whatever the seed.
setup() imports tropfactor and builds the shared structures.
prepare(op, ctx, state) returns the call to time, with its arguments
already built; state is shared by the calls of one block.  check(op,
result, exc, ctx, state) runs outside the timed interval and returns
(kind, error or None), using only the checks in oracle.py.

Calls go through module attributes at call time (tropfactor.divide, not
a saved reference) so that the tracer's wrappers are seen when it is
installed.
"""

import hashlib
import io
import itertools
import json
import math
import os
import traceback
from collections import namedtuple
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import oracle


def _unexpected(exc):
    return "".join(traceback.format_exception(exc)).strip()


def _scalar(x):
    """A JSON scalar of the package's formats as a pair (a, b)."""
    if isinstance(x, dict):
        return (Fraction(x.get("a", 0)), Fraction(x.get("b", 0)))
    return (Fraction(x), oracle.ZERO)


def _encode(q):
    q = Fraction(q)
    return q.numerator if q.denominator == 1 else str(q)


def _rational(x):
    a, b = _scalar(x)
    if b:
        raise ValueError(f"expected a rational, got {x!r}")
    return a


# ---------------------------------------------------------------------------
# divide_mix


class DivideMix:
    """Tropical division through the Python API.

    A block holds 15 calls: 10 in n=2 and 5 in n=3; in each dimension
    three fifths divide g(.)h by g (always divisible), one fifth divides
    g(.)h by g(.)g (never NotContained, often NegativeWeight) and one
    fifth divides independent random f by g (mostly NotContained).
    The cost of a division grows with the term counts of f and g, so
    every block uses the same (|g|, |h|) pairs, from 2 to 6 terms; the
    seed draws the exponents and coefficients.
    """

    name = "divide_mix"
    kinds = ("divide_yes", "divide_negweight", "divide_notcontained")
    setups = 7
    trace_blocks = 8
    pool_blocks = 40
    # (n, shape, |g|, |h|) of the calls of one block
    SLOTS = ((2, "yes", 2, 6), (2, "yes", 3, 5), (2, "yes", 4, 4),
             (2, "yes", 5, 3), (2, "yes", 6, 2), (2, "yes", 3, 3),
             (2, "gg", 3, 4), (2, "gg", 5, 2), (2, "rand", 4, 5),
             (2, "rand", 6, 3), (3, "yes", 2, 6), (3, "yes", 3, 3),
             (3, "yes", 4, 2), (3, "gg", 2, 3), (3, "rand", 5, 4))

    @staticmethod
    def _poly(rng, n, k):
        grid = list(itertools.product(range(-2, 3), repeat=n))
        return {e: Fraction(rng.randint(-16, 16), 2)
                for e in rng.sample(grid, k)}

    def generate(self, rng, workdir):
        blocks = []
        for _ in range(self.pool_blocks):
            block = []
            for n, shape, kg, kh in self.SLOTS:
                g = self._poly(rng, n, kg)
                h = self._poly(rng, n, kh)
                if shape == "yes":
                    f, d = oracle.maxplus_product(g, h), g
                elif shape == "gg":
                    f = oracle.maxplus_product(g, h)
                    d = oracle.maxplus_product(g, g)
                else:
                    f, d = h, g
                block.append({"shape": shape, "n": n, "f": f, "g": d,
                              "points": oracle.sample_points(rng, n, 12)})
            rng.shuffle(block)
            blocks.append(block)
        return blocks

    def setup(self):
        import tropfactor
        return {"tf": tropfactor}

    def prepare(self, op, ctx, state):
        tf = ctx["tf"]
        return lambda: tf.divide(tf.TropicalPolynomial(op["f"], n=op["n"]),
                                 tf.TropicalPolynomial(op["g"], n=op["n"]))

    def check(self, op, result, exc, ctx, state):
        from tropfactor.division import NegativeWeight, NotContained
        f, g, shape = op["f"], op["g"], op["shape"]
        if exc is None:
            return "divide_yes", oracle.check_quotient(f, g, result.terms,
                                                       op["points"])
        if isinstance(exc, NotContained):
            if shape != "rand":
                return "divide_notcontained", (
                    "NotContained for a divisor whose variety is inside")
            return "divide_notcontained", oracle.check_not_contained(
                f, g, exc.witness)
        if isinstance(exc, NegativeWeight):
            if shape == "yes":
                return "divide_negweight", "NegativeWeight for g(.)h / g"
            return "divide_negweight", oracle.check_negative_weight(
                f, exc.dual_edge, exc.w_f, exc.w_up, exc.deficit)
        return "divide_error", _unexpected(exc)

    def describe(self, op):
        return (f"{op['shape']} n={op['n']} f={op['f']} g={op['g']}")


# ---------------------------------------------------------------------------
# factor_cli


CliResult = namedtuple("CliResult", "exit_code stderr path")


def _run_cli(cli, argv):
    """(exit code, captured stdout and stderr) of one in-process CLI call."""
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(err):
        code = cli.main(argv)
    return code, err.getvalue()


OCTAGON = [(1, 0), (0, 1), (2, 0), (0, 2), (3, 1), (3, 2), (2, 3), (1, 3)]
HEXAGON = [(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)]


class FactorCli:
    """Planar polytopes through the in-process command line.

    A block holds five distinct calls, each executed twice in a shuffled
    order so that every output file can be compared byte for byte: factor
    Q(+)R by Q (always a summand), Q(+)R by Q(+)Q (mostly the
    negative_weight witness), a random pair (mostly the not_refining
    witness), expand over the octagon or hexagon fan, and basis of a
    random polygon's normal fan.
    """

    name = "factor_cli"
    kinds = ("factor_yes", "factor_no", "expand", "basis")
    setups = 7
    trace_blocks = 24
    pool_blocks = 120

    def generate(self, rng, workdir):
        self.workdir = workdir
        self._files = 0
        self._exec = 0
        bases = []
        for verts in (OCTAGON, HEXAGON):
            hull = oracle.hull2(verts)
            normals = sorted(u for u, _, _ in oracle.edges2(hull))
            bases.append({"path": self._write(hull), "normals": normals,
                          "gens": oracle.balanced_generators(normals)})
        blocks = []
        for b in range(self.pool_blocks):
            calls = [self._factor_yes(rng), self._factor_double(rng),
                     self._factor_pair(rng), self._expand(rng, bases[b % 2]),
                     self._basis(rng)]
            for i, call in enumerate(calls):
                call["id"] = (b, i)
            block = calls + calls
            rng.shuffle(block)
            blocks.append(block)
        return blocks

    def _write(self, verts):
        self._files += 1
        path = os.path.join(self.workdir, f"in{self._files}.json")
        with open(path, "w") as fh:
            json.dump({"dim": 2, "vertices": [[_encode(x) for x in v]
                                              for v in verts]}, fh)
        return path

    @staticmethod
    def _polygon(rng, lo, hi, full):
        while True:
            pts = [(rng.randint(lo, hi), rng.randint(lo, hi))
                   for _ in range(rng.randint(3, 6))]
            hull = oracle.hull2(pts)
            if len(hull) >= (3 if full else 2):
                return hull

    def _factor_call(self, P, Q):
        kind = "factor_yes" if oracle.is_summand2(P, Q) else "factor_no"
        return {"kind": kind, "P": P, "Q": Q,
                "argv": ["factor", self._write(P), self._write(Q)]}

    def _factor_yes(self, rng):
        Q = self._polygon(rng, 0, 3, full=False)
        R = self._polygon(rng, 0, 3, full=False)
        return self._factor_call(oracle.minkowski2(Q, R), Q)

    def _factor_double(self, rng):
        Q = self._polygon(rng, 0, 3, full=False)
        R = self._polygon(rng, 0, 3, full=False)
        return self._factor_call(oracle.minkowski2(Q, R),
                                 oracle.minkowski2(Q, Q))

    def _factor_pair(self, rng):
        return self._factor_call(self._polygon(rng, 0, 4, full=True),
                                 self._polygon(rng, 0, 3, full=False))

    def _expand(self, rng, base):
        picks = [rng.choice(base["gens"]) for _ in range(rng.randint(1, 3))]
        Q = oracle.minkowski2(*picks)
        return {"kind": "expand", "Q": Q, "base": base,
                "argv": ["expand", self._write(Q), base["path"]]}

    def _basis(self, rng):
        P = self._polygon(rng, 0, 4, full=True)
        return {"kind": "basis", "P": P, "argv": ["basis", self._write(P)]}

    def setup(self):
        import tropfactor.cli
        return {"cli": tropfactor.cli, "digests": {}, "bases": {}}

    def prepare(self, op, ctx, state):
        self._exec += 1
        path = os.path.join(self.workdir, f"out{self._exec}.json")
        argv = op["argv"] + ["-o", path]
        return lambda: CliResult(*_run_cli(ctx["cli"], argv), path)

    def _base_basis(self, base, ctx):
        """The factorization basis of a base fan, checked independently."""
        key = base["path"]
        if key not in ctx["bases"]:
            path = os.path.join(self.workdir, "base-basis.json")
            code, _ = _run_cli(ctx["cli"], ["basis", key, "-o", path])
            if code:
                ctx["bases"][key] = (None, None, f"basis exited {code}")
                return ctx["bases"][key]
            with open(path) as fh:
                payload = json.load(fh)
            os.remove(path)
            polys = [[tuple(_rational(x) for x in v)
                      for v in B["vertices"]] for B in payload["polytopes"]]
            err = oracle.check_planar_basis(base["normals"],
                                            payload["matrix"], polys)
            ctx["bases"][key] = (payload["matrix"], polys, err)
        return ctx["bases"][key]

    def check(self, op, result, exc, ctx, state):
        kind = op["kind"]
        if exc is not None:
            return kind, _unexpected(exc)
        try:
            with open(result.path, "rb") as fh:
                data = fh.read()
        except OSError:
            return kind, f"no output file (exit {result.exit_code})"
        os.remove(result.path)
        digest = hashlib.sha256(data).hexdigest()
        first = ctx["digests"].setdefault(op["id"], digest)
        if first != digest:
            return kind, "output bytes differ between two executions"
        if "Traceback" in result.stderr:
            return kind, "traceback on stderr:\n" + result.stderr
        want = 1 if kind == "factor_no" else 0
        if result.exit_code != want:
            return kind, (f"exit {result.exit_code}, expected {want}: "
                          f"{data.decode()[:400]} {result.stderr[:400]}")
        return kind, getattr(self, "_check_" + kind)(op, json.loads(data),
                                                     ctx)

    def _check_factor_yes(self, op, payload, ctx):
        P, Q = op["P"], op["Q"]
        R = [tuple(_rational(x) for x in v) for v in payload["vertices"]]
        dirs = [u for u, _, _ in oracle.edges2(P) + oracle.edges2(Q)]
        dirs += [(1, 0), (0, 1), (-1, 0), (0, -1), (3, 7), (-5, 2), (2, -9)]
        for y in dirs:
            if oracle.support(Q, y) + oracle.support(R, y) != \
                    oracle.support(P, y):
                return f"Q + R != P in direction {y}"
        return None

    def _check_factor_no(self, op, payload, ctx):
        P, Q = op["P"], op["Q"]
        if payload["error"] != "NotASummand":
            return f"error {payload['error']}, expected NotASummand"
        witness = payload["witness"]
        if witness[0] == "not_refining":
            y = tuple(_rational(x) for x in witness[1])
            if oracle.face_size(Q, y) < 2 or oracle.face_size(P, y) != 1:
                return "not_refining witness is not a vertex of P over an " \
                       "edge of Q"
            return None
        if witness[0] == "negative_weight":
            a, b = (tuple(_rational(x) for x in v) for v in witness[1])
            deficit = _rational(witness[2])
            for u, L, ends in oracle.edges2(P):
                if set(ends) == {a, b}:
                    want = L - oracle.edge_lengths(Q).get(u, oracle.ZERO)
                    if deficit != want or deficit >= 0:
                        return f"deficit {deficit}, expected negative {want}"
                    return None
            return "negative_weight witness is not an edge of P"
        return f"unknown witness {witness[0]!r}"

    def _check_expand(self, op, payload, ctx):
        matrix, polys, err = self._base_basis(op["base"], ctx)
        if err:
            return err
        y = [_rational(c) for c in payload["coefficients"]]
        if payload["r"] != len(matrix) or len(y) != len(matrix):
            return "coefficient count differs from the basis rank"
        normals = op["base"]["normals"]
        lens = oracle.edge_lengths(op["Q"])
        for k, u in enumerate(normals):
            if sum(c * Fraction(row[k]) for c, row in zip(y, matrix)) != \
                    lens.get(u, oracle.ZERO):
                return f"sum y_i b_i differs from w_Q on the wall {u}"
        terms = [(oracle.pair(c), oracle.rational_pairs(B))
                 for c, B in zip(y, polys)]
        return oracle.check_linear_identity(oracle.rational_pairs(op["Q"]),
                                            terms)

    def _check_basis(self, op, payload, ctx):
        normals = sorted(u for u, _, _ in oracle.edges2(op["P"]))
        polys = [[tuple(_rational(x) for x in v) for v in B["vertices"]]
                 for B in payload["polytopes"]]
        if payload["r"] != len(payload["matrix"]):
            return "r differs from the number of basis rows"
        return oracle.check_planar_basis(normals, payload["matrix"], polys)

    def describe(self, op):
        return " ".join(op["argv"][:1] + [
            json.dumps(op[k] and [[str(x) for x in v] for v in op[k]])
            for k in ("P", "Q") if k in op])


# ---------------------------------------------------------------------------
# coxeter_mix


WALLS = {"B2": 8, "A3": 36}


class CoxeterMix:
    """Reflection fans over Q(sqrt(2)) and type A deformation cones.

    A block holds 22 calls: three orbit polytopes per type (B2, A3); the
    wall weights of the first and the expansion of the second in the
    shared basis, per type; one support reconstruction per type; six
    deformation-cone tests and two polymatroids (n = 2, 3); and
    weight_matrix(4) and weight_matrix(5).  Thirteen of the calls take
    a few milliseconds and the rest tens to hundreds, so the median
    falls inside the fast group rather than in the gap between groups.
    """

    name = "coxeter_mix"
    kinds = ("permutahedron", "phi_weights", "phi_expand", "reconstruct_phi",
             "defcone", "polymatroid", "weight_matrix4", "weight_matrix5")
    setups = 5
    trace_blocks = 3
    pool_blocks = 30

    @staticmethod
    def _point(rng, tag):
        """A generic point whose coordinates have denominators 2, 3, 5.

        Fixed denominators keep the size of the exact arithmetic, and so
        the cost of every call on the orbit polytope, alike across seeds.
        """
        while True:
            x = tuple(Fraction(rng.choice([a for a in range(-15, 16)
                                           if math.gcd(a, d) == 1]), d)
                      for d in ((2, 3) if tag == "B2" else (2, 3, 5)))
            if tag == "B2":
                if abs(x[0]) != abs(x[1]):
                    return x
            elif len(set(x + (0,))) == 4:
                return x

    @staticmethod
    def _subset_weights(rng, n, lo, hi):
        y = {}
        for _ in range(rng.randint(2, 4)):
            k = rng.randint(2, n + 1)
            I = tuple(sorted(rng.sample(range(1, n + 2), k)))
            y[I] = y.get(I, 0) + rng.choice([v for v in range(lo, hi + 1)
                                             if v])
        return {I: v for I, v in y.items() if v}

    def _in_cone(self, rng, n):
        while True:
            y = self._subset_weights(rng, n, -1, 3)
            if y and all(v >= 0 for _, v in oracle.cone_values(y, n)):
                return y

    def generate(self, rng, workdir):
        blocks = []
        for _ in range(self.pool_blocks):
            block = []
            for tag in ("B2", "A3"):
                for slot in (0, 1, 2):
                    block.append({"op": "permutahedron", "tag": tag,
                                  "slot": slot, "x": self._point(rng, tag)})
            rest = []
            for tag in ("B2", "A3"):
                rest.append({"op": "phi_weights", "tag": tag, "slot": 0})
                rest.append({"op": "phi_expand", "tag": tag, "slot": 1})
                coeffs = [0] * 12
                for _ in range(3):
                    coeffs[rng.randrange(12)] += 1
                rest.append({"op": "reconstruct_phi", "tag": tag,
                             "coeffs": coeffs})
            for n in (2, 3):
                for _ in range(3):
                    rest.append({"op": "defcone", "n": n,
                                 "y": self._subset_weights(rng, n, -2, 3)})
                rest.append({"op": "polymatroid", "n": n,
                             "y": self._in_cone(rng, n)})
            rest.append({"op": "weight_matrix", "n": 4})
            rest.append({"op": "weight_matrix", "n": 5})
            rng.shuffle(rest)
            blocks.append(block + rest)
        return blocks

    def setup(self):
        import tropfactor
        ctx = {"tf": tropfactor}
        for tag in ("B2", "A3"):
            rs = tropfactor.build_root_system(tag)
            cf = tropfactor.coxeter_fan(rs)
            basis = tropfactor.phi_weight_cone_basis(cf)
            fan = cf.fan
            for C in list(fan.chambers) + list(fan.walls.values()) + \
                    list(fan.ridges.values()):
                C.vertices
            ctx[tag] = (rs, cf, basis)
        return ctx

    def prepare(self, op, ctx, state):
        tf, kind = ctx["tf"], op["op"]
        if kind == "permutahedron":
            rs = ctx[op["tag"]][0]

            def call():
                P = tf.phi_permutahedron(rs, op["x"])
                state[(op["tag"], op["slot"])] = P
                return P
            return call
        if kind == "phi_weights":
            P, cf = state[(op["tag"], op["slot"])], ctx[op["tag"]][1]
            return lambda: tf.phi_weights(P, cf)
        if kind == "phi_expand":
            P, basis = state[(op["tag"], op["slot"])], ctx[op["tag"]][2]
            return lambda: tf.phi_expand(P, basis)
        if kind == "reconstruct_phi":
            _, cf, basis = ctx[op["tag"]]
            w = {k: sum((c * v[k] for c, v in zip(op["coeffs"],
                                                   basis.vectors)), 0)
                 for k in cf.wall_order}
            return lambda: tf.reconstruct_phi(cf, w)
        if kind == "defcone":
            return lambda: tf.deformation_cone_violations(op["y"], op["n"])
        if kind == "polymatroid":
            return lambda: tf.polymatroid_from_weights(op["y"], op["n"])
        return lambda: tf.weight_matrix(op["n"])

    def check(self, op, result, exc, ctx, state):
        kind = op["op"]
        if kind == "weight_matrix":
            kind += str(op["n"])
        if exc is not None:
            return kind, _unexpected(exc)
        return kind, getattr(self, "_check_" + op["op"])(op, result, ctx,
                                                          state)

    @staticmethod
    def _verts(P):
        return [tuple(oracle.pair(x) for x in v) for v in P.vertices]

    def _check_permutahedron(self, op, P, ctx, state):
        verts = self._verts(P)
        if any(b for v in verts for _, b in v):
            return "orbit polytope has irrational vertices"
        got = {tuple(a for a, _ in v) for v in verts}
        orbit = oracle.b2_orbit(op["x"]) if op["tag"] == "B2" \
            else oracle.a_orbit(op["x"])
        if got != orbit or len(verts) != len(orbit):
            return "vertices differ from the reflection orbit of the point"
        return None

    def _check_phi_weights(self, op, weights, ctx, state):
        if len(weights) != WALLS[op["tag"]]:
            return f"{len(weights)} wall weights for {WALLS[op['tag']]} walls"
        P = state[(op["tag"], op["slot"])]
        return oracle.check_phi_weights(op["tag"], P.vertices, weights)

    def _identity(self, lhs, coeffs, polys):
        terms = [(oracle.pair(c), self._verts(B))
                 for c, B in zip(coeffs, polys)]
        return oracle.check_linear_identity(lhs, terms)

    def _check_phi_expand(self, op, y, ctx, state):
        basis = ctx[op["tag"]][2]
        if len(y) != len(basis.polytopes):
            return "coefficient count differs from the basis rank"
        lhs = self._verts(state[(op["tag"], op["slot"])])
        return self._identity(lhs, y, basis.polytopes)

    def _check_reconstruct_phi(self, op, R, ctx, state):
        basis = ctx[op["tag"]][2]
        return self._identity(self._verts(R), op["coeffs"], basis.polytopes)

    def _check_defcone(self, op, violations, ctx, state):
        got = sorted((tuple(tuple(b) for b in pi.blocks), Fraction(v))
                     for pi, v in violations)
        want = sorted((b, Fraction(v))
                      for b, v in oracle.cone_values(op["y"], op["n"])
                      if v < 0)
        if got != want:
            return "violations differ from the closed-form weight rule"
        return None

    def _check_polymatroid(self, op, M, ctx, state):
        terms = [(oracle.pair(v),
                  oracle.rational_pairs(oracle.simplex_vertices(I, op["n"])))
                 for I, v in op["y"].items()]
        return oracle.check_linear_identity(self._verts(M), terms)

    def _check_weight_matrix(self, op, W, ctx, state):
        return oracle.check_weight_matrix(
            op["n"], [pi.blocks for pi in W.partitions], W.subsets, W.rows)

    def describe(self, op):
        return json.dumps({k: (str(v) if k != "op" else v)
                           for k, v in op.items()})


WORKLOADS = {w.name: w for w in (DivideMix, FactorCli, CoxeterMix)}
