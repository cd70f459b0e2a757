"""Outside-in tracing of tropfactor's layers.

The tracer wraps public entry points of each layer from outside the
package.  A wrapped function is replaced at every module binding that
refers to it, because the package imports helpers by name (minkowski
binds dd_cone, and tropical, coxeter, minkowski and division bind the
exact helpers); methods are replaced on their class.  Span wrappers
record (id, parent, request, name, start, end) in memory and accumulate
calls and self time, where self time is a span's duration minus the
time covered by its child spans.  Count wrappers only count, for hot
paths where a span would cost more than the work it measures.
"""

import functools
import sys
import time
from collections import Counter


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "tropfactor"
                                  or name.startswith("tropfactor."))]


class Tracer:
    def __init__(self):
        self.calls = Counter()     # span name -> calls
        self.self_s = Counter()    # span name -> self seconds
        self.counts = Counter()    # counter name -> value
        self.spans = []            # (id, parent, request, name, t0, t1)
        self.request = -1
        self._stack = []           # [span id, child seconds]
        self._active = Counter()   # span name -> open spans of that name
        self._patches = []         # (owner, attribute, original)
        self._next_id = 0

    # -- spans ---------------------------------------------------------------

    def _enter(self, name):
        self._next_id += 1
        self._active[name] += 1
        self._stack.append([self._next_id, 0.0])
        return self._next_id, time.perf_counter()

    def _exit(self, name, span_id, t0):
        t1 = time.perf_counter()
        _, child = self._stack.pop()
        self._active[name] -= 1
        dur = t1 - t0
        self.calls[name] += 1
        self.self_s[name] += dur - child
        parent = self._stack[-1][0] if self._stack else 0
        if self._stack:
            self._stack[-1][1] += dur
        self.spans.append((span_id, parent, self.request, name, t0, t1))

    def span(self, name, fn, after=None):
        """Wrap fn in a span; after(args, result) may add counts."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id, t0 = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, span_id, t0)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def run_op(self, request, fn):
        """Run one benchmark call as the root span of its request."""
        self.request = request
        span_id, t0 = self._enter("op")
        try:
            return fn()
        finally:
            self._exit("op", span_id, t0)

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation --------------------------------------------------------

    def _rebind(self, orig, wrapper):
        hits = 0
        for mod in _package_modules():
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._patches.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)
                    hits += 1
        if not hits:
            raise RuntimeError(f"{orig.__qualname__} has no module binding")

    def _method(self, cls, name, make):
        orig = vars(cls)[name]
        wrapper = make(orig)
        for attr, val in list(vars(cls).items()):
            if val is orig:
                self._patches.append((cls, attr, orig))
                setattr(cls, attr, wrapper)

    def install(self):
        import tropfactor.cli  # noqa: F401  (loads every layer module)
        from tropfactor import (coxeter, division, exact, formats, minkowski,
                                permutahedra, polyhedra, tropical)

        c = self.counts
        span, counter = self.span, self.counter

        def dd_after(args, result):
            c["dd_cone.constraints_in"] += len(args[0])
            c["dd_cone.rays_out"] += len(result[0])

        def dd_make(fn):
            wrapped = span("polyhedra.dd_cone", fn, dd_after)
            # constraints may be a one-shot iterable: materialize it once
            return lambda constraints, n: wrapped(list(constraints), n)

        self._rebind(polyhedra.dd_cone, dd_make(polyhedra.dd_cone))

        def vrep_make(fn):
            def wrapper(P):
                c["vrep.calls"] += 1
                if P._vrep is not None:
                    c["vrep.hits"] += 1
                return fn(P)
            return wrapper

        self._method(polyhedra.Polyhedron, "_compute_vrep", vrep_make)

        def intersect_make(fn):
            def wrapper(P, Q):
                if self._active["division.containment"]:
                    c["containment.intersections"] += 1
                return fn(P, Q)
            return wrapper

        self._method(polyhedra.Polyhedron, "intersect", intersect_make)
        LP = polyhedra.LatticePolytope
        self._method(LP, "__init__", lambda fn: counter("hull.calls", fn))
        self._method(LP, "normalize_translation",
                     lambda fn: counter("normalize_translation.calls", fn))

        def add_after(args, result):
            P, Q = args
            c["minkowski_add.candidates"] += len(P.vertices) * len(Q.vertices)
            c["minkowski_add.vertices"] += len(result.vertices)

        self._method(LP, "__add__", lambda fn: span(
            "polyhedra.minkowski_add", fn, add_after))

        def cells_make(fn):
            traced = span("polyhedra.fan_cells", fn)

            def wrapper(fan):
                # only the first call per fan derives cells
                return fn(fan) if fan._walls is not None else traced(fan)
            return wrapper

        self._method(polyhedra.Fan, "_compute_cells", cells_make)

        self._method(tropical.TropicalComplex, "__init__",
                     lambda fn: span("tropical.complex", fn))
        self._method(tropical.RegularSubdivision, "__init__",
                     lambda fn: span("tropical.subdivision", fn))
        self._rebind(tropical.covector,
                     counter("covector.calls", tropical.covector))
        self._rebind(tropical.balance_violation,
                     span("tropical.balance", tropical.balance_violation))

        for mod, fname, name in (
                (division, "divide", "division.divide"),
                (division, "variety_containment_witness",
                 "division.containment"),
                (division, "extend_weights", "division.extend_weights"),
                (division, "reconstruct_from_fan", "division.reconstruct"),
                (minkowski, "factor", "minkowski.factor"),
                (minkowski, "weight_cone_basis",
                 "minkowski.weight_cone_basis"),
                (minkowski, "expand_in_basis", "minkowski.expand"),
                (minkowski, "extended_weights", "minkowski.extended_weights"),
                (permutahedra, "weight_matrix", "permutahedra.weight_matrix"),
                (permutahedra, "deformation_cone_violations",
                 "permutahedra.defcone"),
                (permutahedra, "polymatroid_from_weights",
                 "permutahedra.polymatroid"),
                (coxeter, "phi_weights", "coxeter.phi_weights"),
                (coxeter, "phi_expand", "coxeter.phi_expand"),
                (coxeter, "reconstruct_phi", "coxeter.reconstruct_phi"),
                (coxeter, "phi_weight_cone_basis", "coxeter.basis")):
            orig = getattr(mod, fname)
            self._rebind(orig, span(name, orig))

        for fname in ("row_reduce", "solve_linear", "nullspace_field",
                      "integer_nullspace", "hnf_with_transform", "in_lattice"):
            orig = getattr(exact, fname)
            self._rebind(orig, span("exact.linalg", orig))

        # __radd__ and __rmul__ alias __add__ and __mul__ and follow them
        for name in ("__add__", "__sub__", "__rsub__", "__mul__",
                     "__truediv__", "__rtruediv__", "__neg__"):
            self._method(exact.QuadExt, name,
                         lambda fn: counter("quadext.ops", fn))

        for fname, name in (("load_json", "cli.parse"),
                            ("loads", "cli.parse"),
                            ("polynomial_from_json", "cli.parse"),
                            ("polytope_from_json", "cli.parse"),
                            ("weighted_fan_from_json", "cli.parse"),
                            ("dump_json", "cli.emit"),
                            ("polynomial_to_json", "cli.emit"),
                            ("polytope_to_json", "cli.emit"),
                            ("weighted_fan_to_json", "cli.emit")):
            orig = getattr(formats, fname)
            self._rebind(orig, span(name, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- output --------------------------------------------------------------

    def write_spans(self, path):
        """One tab-separated line per span; times in ns from the first span."""
        base = self.spans[0][4] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("id\tparent\trequest\tname\tstart_ns\tend_ns\n")
            for sid, parent, req, name, t0, t1 in self.spans:
                fh.write(f"{sid}\t{parent}\t{req}\t{name}\t"
                         f"{round((t0 - base) * 1e9)}\t"
                         f"{round((t1 - base) * 1e9)}\n")

    def metrics(self, time_scale=1.0):
        """Per-layer values under the benchmark's metric names.

        Self times are multiplied by time_scale, the run's speed factor.
        The runner counts CLI exit codes into counts["cli.exit.<code>"].
        """
        c, calls = self.counts, self.calls
        self_s = Counter({k: v * time_scale for k, v in self.self_s.items()})

        def ratio(a, b):
            return a / b if b else 0.0

        out = {
            "polyhedra.dd_cone.calls": calls["polyhedra.dd_cone"],
            "polyhedra.dd_cone.self_s": self_s["polyhedra.dd_cone"],
            "polyhedra.dd_cone.constraints_in": c["dd_cone.constraints_in"],
            "polyhedra.dd_cone.rays_out": c["dd_cone.rays_out"],
            "polyhedra.vrep.calls": c["vrep.calls"],
            "polyhedra.vrep.cache_hit_ratio": ratio(c["vrep.hits"],
                                                    c["vrep.calls"]),
            "polyhedra.hull.calls": c["hull.calls"],
            "polyhedra.normalize_translation.calls":
                c["normalize_translation.calls"],
            "polyhedra.minkowski_add.calls": calls["polyhedra.minkowski_add"],
            "polyhedra.minkowski_add.self_s":
                self_s["polyhedra.minkowski_add"],
            "polyhedra.minkowski_add.vertex_yield":
                ratio(c["minkowski_add.vertices"],
                      c["minkowski_add.candidates"]),
            "polyhedra.fan_cells.self_s": self_s["polyhedra.fan_cells"],
            "tropical.complex.builds": calls["tropical.complex"],
            "tropical.complex.builds_per_divide":
                ratio(calls["tropical.complex"], calls["division.divide"]),
            "tropical.complex.self_s": self_s["tropical.complex"],
            "tropical.subdivision.self_s": self_s["tropical.subdivision"],
            "tropical.covector.calls": c["covector.calls"],
            "tropical.balance.self_s": self_s["tropical.balance"],
            "division.divide.self_s": self_s["division.divide"],
            "division.containment.self_s": self_s["division.containment"],
            "division.containment.intersections":
                c["containment.intersections"],
            "division.extend_weights.self_s":
                self_s["division.extend_weights"],
            "division.reconstruct.calls": calls["division.reconstruct"],
            "division.reconstruct.self_s": self_s["division.reconstruct"],
            "minkowski.factor.self_s": self_s["minkowski.factor"],
            "minkowski.weight_cone_basis.self_s":
                self_s["minkowski.weight_cone_basis"],
            "minkowski.expand.self_s": self_s["minkowski.expand"],
            "minkowski.extended_weights.self_s":
                self_s["minkowski.extended_weights"],
            "exact.quadext.ops": c["quadext.ops"],
            "exact.linalg.calls": calls["exact.linalg"],
            "exact.linalg.self_s": self_s["exact.linalg"],
            "permutahedra.weight_matrix.self_s":
                self_s["permutahedra.weight_matrix"],
            "permutahedra.defcone.self_s": self_s["permutahedra.defcone"],
            "permutahedra.polymatroid.self_s":
                self_s["permutahedra.polymatroid"],
            "coxeter.phi_weights.self_s": self_s["coxeter.phi_weights"],
            "coxeter.phi_expand.self_s": self_s["coxeter.phi_expand"],
            "coxeter.reconstruct_phi.self_s":
                self_s["coxeter.reconstruct_phi"],
            "coxeter.basis.self_s": self_s["coxeter.basis"],
            "cli.parse.self_s": self_s["cli.parse"],
            "cli.emit.self_s": self_s["cli.emit"],
        }
        for code in (0, 1, 2):
            out[f"cli.exit.{code}"] = c[f"cli.exit.{code}"]
        return out
