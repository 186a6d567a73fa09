"""Independent point-sampling estimate of each scene part's visible fraction.

Used to check ``synthetic.ground_truth`` without the package's geometry
kernel: every shape of a part is sampled with one uniformly jittered point
per cell of a GRID x GRID lattice over its bounding box, containment is
tested against the shape itself (wheels as the same regular polygon the
scene uses), and a point is visible when no occluder rectangle holds it.
A part's fraction is the area-weighted mean of its shapes' visible shares.
"""

from __future__ import annotations

import math

import numpy as np

GRID = 256

# Allowed |ground_truth fraction - estimate|, per part. The estimate's own
# error is below 1e-3 at GRID = 256; the package's 1024^2 raster fallback is
# within 5e-4 of the exact value and an exact kernel has no error, so both
# pass with room to spare, while a wrong clip or a dropped occluder moves a
# fraction by far more.
TOLERANCE = 0.004


def _lattice(rng: np.random.Generator, x0: float, y0: float, x1: float, y1: float):
    cells = (np.arange(GRID) + rng.random((GRID, GRID))) / GRID
    rows = (np.arange(GRID)[:, None] + rng.random((GRID, GRID))) / GRID
    return x0 + cells * (x1 - x0), y0 + rows * (y1 - y0)


def _inside_regular_polygon(xs, ys, cx, cy, radius, segments):
    # Vertices at angles k * step, as circle_polygon places them.
    step = 2.0 * math.pi / segments
    dx, dy = xs - cx, ys - cy
    angle = np.mod(np.arctan2(dy, dx), 2.0 * math.pi)
    mid = (np.minimum(np.floor(angle / step), segments - 1) + 0.5) * step
    return dx * np.cos(mid) + dy * np.sin(mid) <= radius * math.cos(step / 2.0)


def _inside_triangle(xs, ys, a, b, c):
    def side(p, q):
        return (q[0] - p[0]) * (ys - p[1]) - (q[1] - p[1]) * (xs - p[0])

    s1, s2, s3 = side(a, b), side(b, c), side(c, a)
    return ((s1 >= 0) & (s2 >= 0) & (s3 >= 0)) | ((s1 <= 0) & (s2 <= 0) & (s3 <= 0))


def _shape(shape, segments):
    """(bounds, containment test, exact area) of one scene shape."""
    kind = type(shape).__name__
    if kind == "Circle":
        r = shape.radius
        area = 0.5 * segments * r * r * math.sin(2.0 * math.pi / segments)
        bounds = (shape.cx - r, shape.cy - r, shape.cx + r, shape.cy + r)
        return bounds, lambda xs, ys: _inside_regular_polygon(xs, ys, shape.cx, shape.cy, r, segments), area
    if kind == "Triangle":
        (ax, ay), (bx, by), (cx, cy) = shape.a, shape.b, shape.c
        area = abs((bx - ax) * (cy - ay) - (by - ay) * (cx - ax)) / 2.0
        bounds = (min(ax, bx, cx), min(ay, by, cy), max(ax, bx, cx), max(ay, by, cy))
        return bounds, lambda xs, ys: _inside_triangle(xs, ys, shape.a, shape.b, shape.c), area
    if kind == "RectShape":
        bounds = (shape.x_min, shape.y_min, shape.x_max, shape.y_max)
        area = (shape.x_max - shape.x_min) * (shape.y_max - shape.y_min)
        return bounds, lambda xs, ys: (xs >= shape.x_min) & (xs <= shape.x_max) & (ys >= shape.y_min) & (ys <= shape.y_max), area
    raise TypeError(f"unknown scene shape {kind}")


def visible_fractions(scene, segments: int, seed: int) -> dict[str, float]:
    """Estimated visible fraction per part slot of a synthetic scene."""
    rng = np.random.default_rng(seed)
    fractions = {}
    for inst in scene.part_instances():
        total = 0.0
        visible = 0.0
        for shape in inst.shapes:
            (x0, y0, x1, y1), contains, area = _shape(shape, segments)
            xs, ys = _lattice(rng, x0, y0, x1, y1)
            inside = contains(xs, ys)
            seen = inside.copy()
            for rx0, ry0, rx1, ry1 in scene.occluders:
                seen &= ~((xs >= rx0) & (xs <= rx1) & (ys >= ry0) & (ys <= ry1))
            total += area
            visible += area * float(seen.sum()) / float(inside.sum())
        fractions[inst.slot] = visible / total
    return fractions
