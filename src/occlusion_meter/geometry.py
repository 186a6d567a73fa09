"""2D polygon kernel: shoelace areas, convex clipping, visible-area computation.

Coordinates are (x, y) tuples in any consistent unit; areas come back in that
unit squared. Polygons are normalized to counter-clockwise order on
construction. There is deliberately no general polygon boolean engine here:
the one difference operation, part minus convex occluders, is exact for any
number of occluders. Each occluder is peeled off a list of disjoint pieces by
Sutherland-Hodgman half-plane splits (Sutherland & Hodgman, CACM 1974), and
the visible area is the shoelace sum of what is left. ``clip`` keeps the
inside of the same split.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Sequence

Point = tuple[float, float]
Bounds = tuple[float, float, float, float]
Piece = tuple[list[Point], Bounds | None]  # a piece's vertices, and its bounds once walked

# Vertices within this distance of a clip edge count as inside (closed
# half-plane), which makes boundary tie-breaking deterministic.
EDGE_EPS = 1e-9

# Clip outputs below this area are treated as empty.
_MIN_AREA = 1e-9

# Below 16 segments the inscribed polygon underestimates a disc too badly
# to serve as a wheel stand-in.
MIN_CIRCLE_SEGMENTS = 16


def _signed_area2(vertices: Sequence[Point]) -> float:
    # Twice the signed area; positive for counter-clockwise order. Summed from
    # edge (0, 1) on, in order: sum() would compensate on Python 3.12+.
    acc = 0.0
    for (x0, y0), (x1, y1) in zip(vertices, vertices[1:] + vertices[:1]):
        acc += x0 * y1 - x1 * y0
    return acc


def _bounds(points: Sequence[Point]) -> Bounds:
    xs, ys = zip(*points)
    return min(xs), min(ys), max(xs), max(ys)


def _apart(a: Bounds, b: Bounds) -> bool:
    # Closed boxes that share no point.
    return a[0] > b[2] or b[0] > a[2] or a[1] > b[3] or b[1] > a[3]


class Polygon:
    """Simple polygon with nonzero, finite area, stored counter-clockwise, with its bounds walked once."""

    __slots__ = ("vertices", "_area", "_box")

    def __init__(self, vertices: Iterable[Point]):
        vs = tuple([(float(x), float(y)) for x, y in vertices])
        if len(vs) < 3:
            raise ValueError(f"polygon needs at least 3 vertices, got {len(vs)}")
        self._store(vs, _bounds(vs))

    def _store(self, vs: tuple[Point, ...], box: Bounds) -> None:
        # The one construction step, from at least 3 float vertices and their bounds.
        doubled = _signed_area2(vs)
        # A NaN or infinite coordinate makes some product, and so the sum, non-finite.
        if not math.isfinite(doubled):
            raise ValueError("polygon vertices must be finite, with a finite area")
        if abs(doubled) <= 2.0 * _MIN_AREA:
            raise ValueError("degenerate polygon: zero area")
        if doubled < 0:
            vs = tuple(reversed(vs))
            # Summed in the stored order, so area() is the shoelace area of ``vertices`` bit for bit.
            doubled = _signed_area2(vs)
        self.vertices = vs
        self._area = abs(doubled) / 2.0
        self._box = box

    def area(self) -> float:
        return self._area

    def bounds(self) -> Bounds:
        return self._box

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self.vertices)} vertices, area={self.area():.6g})"


class ConvexPolygon(Polygon):
    """Polygon whose consecutive edge cross-products all share one sign."""

    __slots__ = ()

    def _store(self, vs: tuple[Point, ...], box: Bounds) -> None:
        super()._store(vs, box)
        vs = self.vertices
        for (ax, ay), (bx, by), (cx, cy) in zip(vs, vs[1:] + vs[:1], vs[2:] + vs[:2]):
            e1x, e1y = bx - ax, by - ay
            e2x, e2y = cx - bx, cy - by
            cross = e1x * e2y - e1y * e2x
            # After CCW normalization every turn must be left or collinear. The
            # bound is never positive, so only a right turn needs the edge norms.
            if cross < 0:
                norm = math.hypot(e1x, e1y) * math.hypot(e2x, e2y)
                if norm > 0 and cross < -EDGE_EPS * norm:
                    raise ValueError("polygon is not convex")


def rect_polygon(x_min: float, y_min: float, x_max: float, y_max: float) -> ConvexPolygon:
    """Axis-aligned rectangle as a convex polygon."""
    return ConvexPolygon([(x_min, y_min), (x_max, y_min), (x_max, y_max), (x_min, y_max)])


def circle_polygon(center: Point, radius: float, segments: int = 64) -> ConvexPolygon:
    """Regular polygon inscribed in a circle.

    The enclosed area is (segments / 2) * radius^2 * sin(2*pi/segments),
    which converges to pi*r^2 from below as segments grows.
    """
    if not math.isfinite(radius) or radius <= 0:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    segments = int(segments)
    if segments < MIN_CIRCLE_SEGMENTS:
        raise ValueError(f"segments must be >= {MIN_CIRCLE_SEGMENTS}, got {segments}")
    cx, cy = map(float, center)
    r = float(radius)
    unit, (ux0, uy0, ux1, uy1) = _unit_circle(segments)
    # Rounding c + r * u is monotone in u for r > 0, so the unit circle's extremes give the walked bounds exactly.
    polygon = ConvexPolygon.__new__(ConvexPolygon)
    box = (cx + r * ux0, cy + r * uy0, cx + r * ux1, cy + r * uy1)
    polygon._store(tuple([(cx + r * c, cy + r * s) for c, s in unit]), box)
    return polygon


@lru_cache(maxsize=8)
def _unit_circle(segments: int) -> tuple[tuple[Point, ...], Bounds]:
    # The vertices at angles k * 2 pi / segments, and their bounds.
    step = 2.0 * math.pi / segments
    unit = tuple((math.cos(k * step), math.sin(k * step)) for k in range(segments))
    return unit, _bounds(unit)


def _clip_half_plane(points: list[Point], a: Point, b: Point) -> list[Point]:
    # Sutherland-Hodgman step: keep the region left of the directed edge a->b.
    ax, ay = a
    ex, ey = b[0] - ax, b[1] - ay
    tol = -EDGE_EPS * math.hypot(ex, ey)
    out: list[Point] = []
    sx, sy = points[-1]
    s_side = ex * (sy - ay) - ey * (sx - ax)
    for px, py in points:
        p_side = ex * (py - ay) - ey * (px - ax)
        p_in = p_side >= tol
        s_in = s_side >= tol
        if p_in != s_in:
            t = s_side / (s_side - p_side)
            out.append((sx + t * (px - sx), sy + t * (py - sy)))
        if p_in:
            out.append((px, py))
        sx, sy, s_side = px, py, p_side
    return out


def _as_convex(polygon: Polygon) -> ConvexPolygon:
    if isinstance(polygon, ConvexPolygon):
        return polygon
    return ConvexPolygon(polygon.vertices)


def clip(subject: Polygon, window: Polygon) -> list[Polygon]:
    """Intersection of a polygon with a convex window.

    Returns a list with a single polygon covering the intersection, or an
    empty list when subject and window are disjoint. For non-convex
    subjects the result may contain degenerate bridge edges connecting
    disjoint pieces; those edges cancel in the shoelace sum, so all area
    computations on the result stay exact.
    """
    inside = _split(list(subject.vertices), subject.bounds(), _as_convex(window))[0]
    return [Polygon(inside)] if inside else []


def _piece_area(points: list[Point]) -> float:
    return _signed_area2(points) / 2.0


def _split(piece: list[Point], box: Bounds | None, convex: ConvexPolygon) -> tuple[list[Point], list[Piece]]:
    # (inside, outside pieces): peel the part of ``piece`` outside each edge
    # off as a finished piece and carry the inside on. A miss (bbox first, or
    # an inside at or below _MIN_AREA) is ([], [(piece, bounds)]), so untouched
    # areas stay bit-identical; the shortcuts never change a vertex of the
    # inside. A piece's bounds are walked when it is new or clipped, not again
    # for each occluder that misses it.
    box = box or _bounds(piece)
    if _apart(box, convex.bounds()):
        return [], [(piece, box)]
    x0, y0, x1, y1 = box
    vs = convex.vertices
    finished: list[Piece] = []
    inside = walked = piece
    for a, b in zip(vs, vs[1:] + vs[:1]):
        if a == b:
            continue
        if inside is not walked:  # a clipped inside's bounds, walked only when a later edge reads them
            x0, y0, x1, y1 = _bounds(walked := inside)
        # A carried part whose bbox lies left of the edge line (inside), by
        # far more than rounding error, needs no clip: nothing to peel.
        (ax, ay), ex, ey = a, b[0] - a[0], b[1] - a[1]
        sure = EDGE_EPS * math.hypot(ex, ey) * (1.0 + max(map(abs, (x0, y0, x1, y1, *a, *b))))
        sides = [ex * (cy - ay) - ey * (cx - ax) for cx, cy in ((x0, y0), (x1, y0), (x0, y1), (x1, y1))]
        if min(sides) > sure:
            continue
        outside = _clip_half_plane(inside, b, a)
        inside = _clip_half_plane(inside, a, b)
        if _piece_area(inside) <= _MIN_AREA:
            return [], [(piece, box)]
        if _piece_area(outside) > _MIN_AREA:
            finished.append((outside, None))
    return inside, finished


def visible_pieces(part: Polygon, occluders: Sequence[Polygon]) -> list[list[Point]]:
    """Disjoint counter-clockwise vertex lists covering ``part`` minus the occluders.

    Exact for any number of convex occluders: each is subtracted in turn from
    the pieces (starting with the part) by Sutherland-Hodgman half-plane
    splits, and pieces below ``_MIN_AREA`` are dropped. A non-convex part may
    leave zero-area bridge edges, which cancel in a shoelace sum.
    """
    pieces: list[Piece] = [(list(part.vertices), part.bounds())]
    for occ in occluders:
        occ = _as_convex(occ)
        pieces = [kept for piece, box in pieces for kept in _split(piece, box, occ)[1]]
    return [piece for piece, _ in pieces]


def pieces_area(part: Polygon, pieces: Iterable[list[Point]]) -> float:
    """The shoelace sum of ``pieces`` of ``part`` (say, its ``visible_pieces``), capped at the part's area."""
    return min(math.fsum(_piece_area(p) for p in pieces), part.area())


def visible_area(part: Polygon, occluders: Sequence[Polygon]) -> float:
    """Area of ``part`` not covered by the occluders: the ``pieces_area`` of its ``visible_pieces``."""
    return pieces_area(part, visible_pieces(part, occluders))

