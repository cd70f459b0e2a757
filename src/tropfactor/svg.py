"""Deterministic SVG rendering of planar tropical pictures.

Varieties are drawn with heavy solid strokes; when a divisor is given,
walls of the refined complex that do not carry the divisor's variety
are dotted.  Walls of weight other than one get a text label.  All
geometry is computed exactly (rays are clipped to the view box in the
coordinate field) and numbers are formatted only at serialization, so
identical inputs produce identical bytes.
"""

from fractions import Fraction
from typing import Dict, List, Optional

from .division import NotContained, extend_weights, variety_containment_witness
from .exact import CertificateError, QuadExt, TropfactorError
from .polyhedra import Fan, LatticePolytope
from .tropical import TropicalPolynomial


class UnsupportedDimension(TropfactorError):
    """Rendering is implemented for the plane only."""


def _require_planar(n: int):
    if n != 2:
        raise UnsupportedDimension(f"can only draw 2-dimensional objects, "
                                   f"got dimension {n}")


def _flt(x) -> str:
    s = f"{float(x):.4f}".rstrip("0").rstrip(".")
    return "0" if s in ("-0", "") else s


def scalar_label(x) -> str:
    """Short exact label for a weight: 3, 3/2, √2, 2√2, 1+√2."""
    if isinstance(x, QuadExt):
        if x.b == 0:
            return scalar_label(x.a)
        p, q = x.b.numerator, x.b.denominator
        head = "-" if p == -1 else ("" if p == 1 else str(p))
        root = head + "√2" + (f"/{q}" if q != 1 else "")
        if x.a == 0:
            return root
        joiner = "+" if x.b > 0 else ""
        return scalar_label(x.a) + joiner + root
    q = Fraction(x)
    return str(q.numerator) if q.denominator == 1 else str(q)


# ---------------------------------------------------------------------------
# exact view-box fitting and clipping


class _Box:
    def __init__(self, points):
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        self.xmin, self.xmax = min(xs), max(xs)
        self.ymin, self.ymax = min(ys), max(ys)
        pad = max(self.xmax - self.xmin, self.ymax - self.ymin, 2) \
            * Fraction(1, 10)
        self.xmin -= pad
        self.xmax += pad
        self.ymin -= pad
        self.ymax += pad

    @property
    def diag(self) -> float:
        return max(float(self.xmax - self.xmin),
                   float(self.ymax - self.ymin))

    def exit_scale(self, p, d):
        """Largest t with p + t d still inside the box (p inside, d != 0)."""
        t = None
        for c, lo, hi in ((0, self.xmin, self.xmax),
                          (1, self.ymin, self.ymax)):
            if d[c] == 0:
                continue
            bound = hi if d[c] > 0 else lo
            tc = (bound - p[c]) / d[c]
            t = tc if t is None or tc < t else t
        if t is None or t < 0:
            raise CertificateError(f"the ray {p} + t {d} never leaves the box")
        return t

    def clip_ray(self, p, d):
        t = self.exit_scale(p, d)
        return tuple(pc + t * dc for pc, dc in zip(p, d))


def _wall_segments(walls: Dict, box: _Box) -> Dict:
    """Wall key -> (endpoint, endpoint), rays and lines clipped to box."""
    out = {}
    for k, W in walls.items():
        verts, rays, lin = list(W.vertices), list(W.rays), list(W.lineality)
        if len(verts) == 2:
            out[k] = (verts[0], verts[1])
        elif len(verts) == 1 and len(rays) == 1:
            out[k] = (verts[0], box.clip_ray(verts[0], rays[0]))
        elif len(verts) == 1 and len(lin) == 1:
            out[k] = (box.clip_ray(verts[0], lin[0]),
                      box.clip_ray(verts[0], tuple(-x for x in lin[0])))
        else:
            raise AssertionError("planar walls are segments, rays or lines")
    return out


# ---------------------------------------------------------------------------
# element emission (y negated so the mathematical y-axis points up)


class _Canvas:
    def __init__(self, box: _Box):
        self.box = box
        self.parts: List[str] = []
        d = box.diag
        self.heavy = d / 110
        self.light = d / 220
        self.dot_r = d / 90
        self.font = d / 22

    def line(self, a, b, heavy: bool, dotted: bool):
        width = self.heavy if heavy else self.light
        dash = f' stroke-dasharray="{_flt(4 * self.light)} ' \
               f'{_flt(3 * self.light)}"' if dotted else ""
        self.parts.append(
            f'<line x1="{_flt(a[0])}" y1="{_flt(-a[1])}" '
            f'x2="{_flt(b[0])}" y2="{_flt(-b[1])}" '
            f'stroke="black" stroke-width="{_flt(width)}" '
            f'stroke-linecap="round"{dash}/>')

    def dot(self, p):
        self.parts.append(
            f'<circle cx="{_flt(p[0])}" cy="{_flt(-p[1])}" '
            f'r="{_flt(self.dot_r)}" fill="black"/>')

    def polygon(self, pts):
        path = " ".join(f"{_flt(p[0])},{_flt(-p[1])}" for p in pts)
        self.parts.append(
            f'<polygon points="{path}" fill="none" stroke="black" '
            f'stroke-width="{_flt(self.heavy)}" stroke-linejoin="round"/>')

    def label(self, p, text: str):
        off = self.box.diag / 50
        self.parts.append(
            f'<text x="{_flt(p[0] + off)}" y="{_flt(-p[1] - off)}" '
            f'font-family="sans-serif" font-size="{_flt(self.font)}">'
            f'{text}</text>')

    def document(self) -> str:
        b = self.box
        view = (f"{_flt(b.xmin)} {_flt(-b.ymax)} "
                f"{_flt(b.xmax - b.xmin)} {_flt(b.ymax - b.ymin)}")
        body = "\n".join("  " + p for p in self.parts)
        return (f'<svg xmlns="http://www.w3.org/2000/svg" '
                f'viewBox="{view}" width="480" height="480">\n'
                f"{body}\n</svg>\n")


def _draw_walls(cv: _Canvas, segments: Dict, weights: Dict,
                on_variety: Dict):
    for k in sorted(segments):
        a, b = segments[k]
        solid = on_variety.get(k, True)
        cv.line(a, b, heavy=solid, dotted=not solid)
        w = weights.get(k)
        if w is not None and w != 1 and (solid or w != 0):
            mid = tuple((xa + xb) / 2 for xa, xb in zip(a, b))
            cv.label(mid, scalar_label(w))


# ---------------------------------------------------------------------------
# renderers


def render_polynomial(f: TropicalPolynomial,
                      divisor: Optional[TropicalPolynomial] = None) -> str:
    """The variety of f; with a divisor g, cells off V(g) are dotted.

    NotContained, with a witness point, when V(g) is not inside V(f).
    """
    _require_planar(f.n)
    T = f.dual_complex()
    corners = [v for W in T.walls.values() for v in W.vertices] or [(0, 0)]
    box = _Box(corners)
    segments = _wall_segments(T.walls, box)
    on_variety = {k: True for k in T.walls}
    if divisor is not None:
        witness = variety_containment_witness(divisor, f, T)
        if witness is not None:
            raise NotContained(witness)
        wup = extend_weights(f, divisor, T)
        on_variety = {k: wup[k] > 0 for k in T.walls}
    cv = _Canvas(box)
    _draw_walls(cv, segments, T.wall_weights, on_variety)
    return cv.document()


def render_fan(fan: Fan, weights: Optional[Dict] = None) -> str:
    """A planar fan as a star of rays; zero-weight rays are dotted."""
    _require_planar(fan.n)
    box = _Box([(0, 0)])
    segments = _wall_segments(fan.walls, box)
    weights = dict(weights or {})
    on_variety = {k: weights.get(k, 1) != 0 for k in fan.walls}
    cv = _Canvas(box)
    _draw_walls(cv, segments, weights, on_variety)
    return cv.document()


def _boundary_cycle(P: LatticePolytope) -> List[tuple]:
    adj: Dict[tuple, List[tuple]] = {}
    for u, v in P.edges():
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    start = min(adj)
    cycle = [start, min(adj[start])]
    while True:
        nxt = [w for w in adj[cycle[-1]] if w != cycle[-2]]
        if len(nxt) != 1:
            raise CertificateError(f"the polygon vertex {cycle[-1]} has "
                                   f"{len(adj[cycle[-1]])} neighbors, not 2")
        if nxt[0] == start:
            return cycle
        cycle.append(nxt[0])


def render_polytope(P: LatticePolytope) -> str:
    """A point, segment or polygon with its vertices marked."""
    _require_planar(P.n)
    box = _Box(list(P.vertices))
    cv = _Canvas(box)
    if P.dim() == 0:
        cv.dot(P.vertices[0])
    elif P.dim() == 1:
        cv.line(P.vertices[0], P.vertices[-1], heavy=True, dotted=False)
        for v in P.vertices:
            cv.dot(v)
    else:
        cv.polygon(_boundary_cycle(P))
        for v in P.vertices:
            cv.dot(v)
    return cv.document()
