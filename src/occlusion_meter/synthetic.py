"""Synthetic side-view bicycle scenes with exact ground-truth visibility.

A scene places a parametric bicycle silhouette (two circular wheels, a frame
of two triangles, a small side-on handlebar rectangle) on a 640x640 canvas
and drops axis-aligned rectangular occluders over it. Because every shape is
an explicit polygon, per-part visible fractions can be computed exactly with
the clipping kernel, giving an independent ground truth to hold the
detection-based estimator against.

An idealized detector turns a scene back into a DetectionFrame: each part
whose visible fraction clears the detectability floor emits a detection
whose bbox hugs the visible region, with confidence mapped linearly from the
visible fraction into [0.5, 1.0] so default filtering never drops it. That
isolates estimator error from detector error.

Scene generation is a pure function of the seed; batches are reproducible
bit for bit.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import InitVar, asdict, dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .classifier import classify_bicycle, classify_frame
from .geometry import ConvexPolygon, _apart, _bounds, circle_polygon, pieces_area, rect_polygon, visible_pieces
from .model import (
    DEFAULT_CONFIG,
    BoundingBox,
    ClassifierConfig,
    DetectionFrame,
    OcclusionBand,
    PartClass,
    PartDetection,
    SurfaceAreaModel,
    VisibilityReport,
    ordered_sum,
)

CANVAS_SIZE = 640
WHEEL_SEGMENTS = 128

_PLACEMENT_MARGIN = 10.0
_MAX_SAMPLING_ATTEMPTS = 1000
_COVERAGE_TOLERANCE = 0.02

Rect = tuple[float, float, float, float]
PointM = tuple[float, float]
TriangleM = tuple[PointM, PointM, PointM]


@dataclass(frozen=True)
class Circle:
    cx: float
    cy: float
    radius: float

    @cached_property
    def polygon(self) -> ConvexPolygon:
        return circle_polygon((self.cx, self.cy), self.radius, WHEEL_SEGMENTS)


@dataclass(frozen=True)
class Triangle:
    a: PointM
    b: PointM
    c: PointM

    @cached_property
    def polygon(self) -> ConvexPolygon:
        return ConvexPolygon([self.a, self.b, self.c])


@dataclass(frozen=True)
class RectShape:
    x_min: float
    y_min: float
    x_max: float
    y_max: float

    @cached_property
    def polygon(self) -> ConvexPolygon:
        return rect_polygon(self.x_min, self.y_min, self.x_max, self.y_max)


Shape = Circle | Triangle | RectShape


def _enclosing(rects: Iterable[Rect]) -> Rect:
    x0s, y0s, x1s, y1s = zip(*rects)
    return min(x0s), min(y0s), max(x1s), max(y1s)


def _float(value) -> float:
    # NaN unless an int or a float (ingest._finite's rule: a str or a bool is not a number), which json.dumps can write.
    try:
        return float(value) if isinstance(value, (int, float)) and not isinstance(value, bool) else math.nan
    except OverflowError:  # an int past the float range
        return math.nan


def _finite_floats(values: Iterable[float], count: int, name: str) -> tuple[float, ...]:
    numbers = tuple(map(_float, values if hasattr(values, "__iter__") else ()))
    if len(numbers) != count or not all(map(math.isfinite, numbers)):
        raise ValueError(f"{name} must be {count} finite numbers, got {values!r}")
    return numbers


@dataclass(frozen=True)
class PartInstance:
    """One bicycle part placed in a scene: a slot name, its class, its shapes."""

    slot: str
    part: PartClass
    shapes: tuple[Shape, ...]

    @property
    def polygons(self) -> tuple[ConvexPolygon, ...]:
        # Each shape builds its polygon once; WHEEL_SEGMENTS % 4 == 0, so a wheel's bounds are its circle's, exactly.
        return tuple(s.polygon for s in self.shapes)

    def area(self) -> float:
        return ordered_sum(p.area() for p in self.polygons)

    @cached_property
    def _bounds(self) -> Rect:
        return _enclosing(p.bounds() for p in self.polygons)

    def bounds(self) -> Rect:
        # Enclosed once per placed part from its polygons' stored bounds, though a scene reads it several times.
        return self._bounds


# Default silhouette, in meters with the ground at y = 0 and the rear axle
# at x = wheel_radius. Chosen so the filled part areas track the surface
# area model's proportions within the sanity tolerance below.
_DEFAULT_FRAME_TRIANGLES: tuple[TriangleM, TriangleM] = (
    ((0.35, 0.35), (0.75, 0.75), (0.82, 0.35)),
    ((0.82, 0.35), (0.75, 0.75), (1.28, 0.72)),
)
_DEFAULT_HANDLEBAR_RECT: Rect = (1.22, 0.90, 1.35, 1.00)

# Allowed relative deviation between the template's filled-area proportions
# and the surface-area model's physical proportions.
_PROPORTION_TOLERANCE = 0.25

_TOTAL_LENGTH_RANGE = (1.5, 1.8)
_HANDLEBAR_TOP_RANGE = (0.75, 1.10)


@dataclass(frozen=True)
class BicycleTemplate:
    """Parametric side-view bicycle silhouette, in meters, ground at y = 0."""

    wheel_radius: float = 0.35
    wheelbase: float = 1.05
    frame_triangles: tuple[TriangleM, TriangleM] = _DEFAULT_FRAME_TRIANGLES
    handlebar_rect: Rect = _DEFAULT_HANDLEBAR_RECT

    def __post_init__(self) -> None:
        for name in ("wheel_radius", "wheelbase"):
            if not 0 < _float(value := getattr(self, name)) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        try:
            triangles = [[_finite_floats(p, 2, f"frame_triangles[{i}][{j}]") for j, p in enumerate(triangle)]
                         for i, triangle in enumerate(self.frame_triangles)]
        except TypeError:  # frame_triangles or one of its triangles is not iterable
            triangles = []
        if len(triangles) != 2 or any(len(triangle) != 3 for triangle in triangles):
            raise ValueError(f"frame_triangles must be 2 triangles of 3 points each, got {self.frame_triangles!r}")
        length = self.total_length()
        if not _TOTAL_LENGTH_RANGE[0] <= length <= _TOTAL_LENGTH_RANGE[1]:
            raise ValueError(
                f"total length {length:.3f} m outside {_TOTAL_LENGTH_RANGE}"
            )
        x_min, y_min, x_max, y_max = _finite_floats(self.handlebar_rect, 4, "handlebar_rect")
        if x_min >= x_max or y_min >= y_max:
            raise ValueError(f"handlebar_rect must have x_min < x_max and y_min < y_max, got {self.handlebar_rect}")
        if not _HANDLEBAR_TOP_RANGE[0] <= y_max <= _HANDLEBAR_TOP_RANGE[1]:
            raise ValueError(f"handlebar top height {y_max:.3f} m outside {_HANDLEBAR_TOP_RANGE}")
        # generate_scene places the bicycle by the box [0, total_length()] x [0, max_height()]: a point outside it
        # could put the silhouette off the canvas, which Scene refuses.
        named = [("handlebar_rect", [(x_min, y_min), (x_max, y_max)], self.handlebar_rect)]
        for i, triangle in enumerate(triangles):
            try:
                ConvexPolygon(triangle)
            except ValueError as exc:
                raise ValueError(f"frame_triangles[{i}]: {exc}") from None
            named.append((f"frame_triangles[{i}]", triangle, tuple(triangle)))
        for name, points, value in named:
            if not all(0.0 <= x <= length and y >= 0.0 for x, y in points):
                raise ValueError(f"{name} must lie in 0 <= x <= {length!r} (total length) and y >= 0, got {value!r}")
        parts = self.place(1.0, (0.0, 0.0))
        # The silhouette's bounds at unit scale and origin, y down; kept out of the fields, so to_json() ignores them.
        object.__setattr__(self, "_extent", _enclosing(inst.bounds() for inst in parts))
        total, m = ordered_sum(inst.area() for inst in parts), SurfaceAreaModel
        # The paper's reference area of each slot, in place()'s slot order.
        for inst, cm2 in zip(parts, (m.WHEEL_AREA_CM2, m.WHEEL_AREA_CM2, m.FRAME_AREA_CM2, m.HANDLEBAR_AREA_CM2)):
            share, expected = inst.area() / total, cm2 / m.TOTAL_AREA_CM2
            deviation = abs(share / expected - 1.0)
            if deviation > _PROPORTION_TOLERANCE:
                raise ValueError(
                    f"{inst.slot} fills {share:.1%} of the silhouette but the area model "
                    f"expects {expected:.1%} (off by {deviation:.0%})"
                )

    def total_length(self) -> float:
        return self.wheelbase + 2.0 * self.wheel_radius

    def max_height(self) -> float:
        tops = [self.handlebar_rect[3], 2.0 * self.wheel_radius]
        tops.extend(p[1] for tri in self.frame_triangles for p in tri)
        return max(tops)

    def place(self, scale: float, origin: PointM) -> tuple[PartInstance, ...]:
        """The four part slots in pixels, y down: template point (x, y) goes to (ox + x * scale, oy - y * scale)."""
        ox, oy = origin
        r, (x_min, y_min, x_max, y_max) = self.wheel_radius, self.handlebar_rect
        # The two hubs, the handlebar's corners, then the frame triangles' vertices, each through the one map.
        points = [(r, r), (r + self.wheelbase, r), (x_min, y_min), (x_max, y_max)]
        points += [p for tri in self.frame_triangles for p in tri]
        rear, front, (left, bottom), (right, top), *frame = [(ox + x * scale, oy - y * scale) for x, y in points]
        return (
            PartInstance("rear_wheel", PartClass.WHEEL, (Circle(*rear, r * scale),)),
            PartInstance("front_wheel", PartClass.WHEEL, (Circle(*front, r * scale),)),
            PartInstance("frame", PartClass.FRAME, (Triangle(*frame[:3]), Triangle(*frame[3:]))),
            PartInstance("handlebar", PartClass.HANDLEBAR, (RectShape(left, top, right, bottom),)),
        )


# Validated once; generate_scene uses it when no template is given.
_DEFAULT_TEMPLATE = BicycleTemplate()


@dataclass(frozen=True)
class Scene:
    """A placed bicycle plus occluder rectangles in pixels, on the one CANVAS_SIZE square canvas. ``to_json()`` is its
    fingerprint; there is no reader: ``generate_scene(seed, occluder_count, coverage_target, template)`` rebuilds it."""

    template: BicycleTemplate
    scale: float
    origin: PointM
    occluders: tuple[Rect, ...]
    seed: int

    def __post_init__(self) -> None:
        # Read as floats and checked here, so a value the oracle cannot place or clip is named by its field.
        occluders = tuple(_finite_floats(r, 4, f"occluders[{i}]") for i, r in enumerate(self.occluders))
        for i, (x_min, y_min, x_max, y_max) in enumerate(occluders):
            if x_min >= x_max or y_min >= y_max:
                raise ValueError(f"occluders[{i}] must be a rect with x_min < x_max, y_min < y_max, got {occluders[i]}")
        object.__setattr__(self, "occluders", occluders)
        object.__setattr__(self, "origin", _finite_floats(self.origin, 2, "origin"))
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        # The template's unit extent through place()'s map: the placed parts' bounds, up to rounding.
        (ox, oy), (x0, y0, x1, y1), s = self.origin, self.template._extent, self.scale
        if not (0.0 <= min(ox + x0 * s, oy + y0 * s) and max(ox + x1 * s, oy + y1 * s) <= CANVAS_SIZE):
            raise ValueError(f"origin and scale must put the bicycle on the canvas, got {self.origin} and {s}")

    @cached_property
    def _parts(self) -> tuple[PartInstance, ...]:
        # Placed once per scene (in __dict__, not a field), so the parts' polygons are built once.
        return self.template.place(self.scale, self.origin)

    def part_instances(self) -> list[PartInstance]:
        return list(self._parts)

    def occluder_polygons(self) -> list[ConvexPolygon]:
        return [rect_polygon(*rect) for rect in self.occluders]

    def bicycle_bounds(self) -> Rect:
        return _enclosing(inst.bounds() for inst in self.part_instances())

    def to_dict(self) -> dict:
        return {**asdict(self), "canvas": (CANVAS_SIZE, CANVAS_SIZE)}

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_dict(), sort_keys=True)


def _linspace(a: float, b: float, n: int) -> list[float]:
    # n >= 2 evenly spaced points from a to b: i * step + a, and b itself last.
    step = (b - a) / (n - 1)
    return [i * step + a for i in range(n - 1)] + [b]


# A part's probe grid is _GRID x _GRID points, bit i * _GRID + j for (xs[j], ys[i]). _COLUMNS[k]
# holds the bits of grid columns 0..k-1 in every row, _ROWS[k] every bit of rows 0..k-1.
_GRID = 24
_COLUMNS = [((1 << k) - 1) * sum(1 << (_GRID * i) for i in range(_GRID)) for k in range(_GRID + 1)]
_ROWS = [(1 << (_GRID * k)) - 1 for k in range(_GRID + 1)]
# A wheel is one circle, and its grid spans its bounds, the circle's (WHEEL_SEGMENTS % 4 == 0): (j, i) is (cx, cy) +
# r / m * (2j - m, 2i - m), m = _GRID - 1, up to rounding. So it lies inside iff (2j - m)² + (2i - m)² <= m².
# For odd m no point is on the circle: a sum of two odd squares is 2 mod 8 and m² is 1 mod 8. Each point
# clears it by r² / m² or more in squared distance (about 10 px² at r = 74 px), far above the rounding of
# the grid and of the closed test (x - cx)² + (y - cy)² <= r², below 1e-9 px². So these are every wheel's points.
_DISC = sum(
    1 << (_GRID * i + j)
    for i in range(_GRID)
    for j in range(_GRID)
    if (2 * j - _GRID + 1) ** 2 + (2 * i - _GRID + 1) ** 2 <= (_GRID - 1) ** 2
)
# A handlebar is one rect, and its grid spans its bounds, the rect's: _linspace puts a first, b last and i * step + a
# between, below b by about a step, far more than its roundings. So the closed rect holds every grid point.
_PART_POINTS = {PartClass.WHEEL: _DISC, PartClass.HANDLEBAR: _ROWS[_GRID]}


def _inside_bits(polygons: Iterable[ConvexPolygon], xs: Sequence[float], ys: Sequence[float]) -> int:
    """Bit i * len(xs) + j set when (xs[j], ys[i]) lies in one of the convex polygons (closed), for ascending xs."""
    n, bits = len(xs), 0
    for poly in polygons:
        # A row meets it in one run [lo, hi) of the xs: left of each counter-clockwise edge a->b, left >= right, and
        # right, rounded too, rises along the xs when by >= ay (a prefix holds) and falls otherwise (a suffix): bisect.
        los, his = [0] * len(ys), [n] * len(ys)
        vs = poly.vertices
        for (ax, ay), (bx, by) in zip(vs, vs[1:] + vs[:1]):
            rights, lefts = [(by - ay) * (x - ax) for x in xs], [(bx - ax) * (y - ay) for y in ys]
            if by - ay >= 0:
                his = [min(hi, bisect_right(rights, left)) for hi, left in zip(his, lefts)]
            else:
                rights.reverse()
                los = [max(lo, n - bisect_right(rights, left)) for lo, left in zip(los, lefts)]
        bits |= sum(((1 << hi) - (1 << lo)) << (n * i) for i, (lo, hi) in enumerate(zip(los, his)) if lo < hi)
    return bits


class _CoverageProbe:
    """Cheap coverage estimator from fixed sample points inside each part.

    Each part with points keeps its own grid axes (xs, ys, ascending), the
    bitset of its grid points inside it (a wheel's and a handlebar's are
    constants, a frame's come from its polygons), their count and its area.
    A rect covers the columns and rows its closed sides bracket on a part's
    axes: four bisects and a few int ops per part, none for a rect outside
    the grid's extent. A part no rect hits adds nothing, exactly as 0.0 would.
    """

    def __init__(self, instances: Sequence[PartInstance]):
        self.parts: list[tuple[list[float], list[float], int, int, float]] = []  # parts with points
        self.total_area = 0.0
        for inst in instances:
            x0, y0, x1, y1 = inst.bounds()
            xs, ys = _linspace(x0, x1, _GRID), _linspace(y0, y1, _GRID)
            inside = _PART_POINTS.get(inst.part) or _inside_bits(inst.polygons, xs, ys)
            area = inst.area()
            if inside:
                self.parts.append((xs, ys, inside, inside.bit_count(), area))
            self.total_area += area

    def coverage(self, rects: Sequence[Rect]) -> float:
        covered = 0.0
        for xs, ys, points, count, area in self.parts:
            hit = 0
            for x0, y0, x1, y1 in rects:
                if x1 < xs[0] or x0 > xs[-1] or y1 < ys[0] or y0 > ys[-1]:
                    continue
                in_x = _COLUMNS[bisect_right(xs, x1)] & ~_COLUMNS[bisect_left(xs, x0)]
                hit |= in_x & _ROWS[bisect_right(ys, y1)] & ~_ROWS[bisect_left(ys, y0)]
            if hit:
                covered += area * (float((hit & points).bit_count()) / count)
        return covered / self.total_area


def _sample_rects(rng: random.Random, bike: Rect, coverage_target: float, count: int) -> list[Rect]:
    # Occluders model roadside obstacles (vehicles, walls, poles): blocks standing on the ground that hide the bicycle
    # from one side, at least as tall as the bicycle. They do reach the estimator's blind spot, occlusion that keeps a
    # wheel's bbox ratio: in run_batch(1000, 42), 95 of 1567 detected wheels score in full while under 85 % visible,
    # overcounting visibility by 1.84 points a scene.
    # Each uniform(a, b) draw is Random.uniform's own a + (b - a) * random().
    bx0, by0, bx1, by1 = bike
    bw, bh = bx1 - bx0, by1 - by0
    width, root = bw * (0.10 + 0.95 * coverage_target), math.sqrt(max(count, 1))
    left, right, draw = bx0 - 0.15 * bw, bx1 + 0.15 * bw, rng.random
    rects = []
    for _ in range(count):
        w = width * (0.5 + (1.4 - 0.5) * draw()) / root
        cx = left + (right - left) * draw()
        top = by1 - bh * (0.9 + (1.35 - 0.9) * draw())
        x0 = min(max(cx - w / 2.0, 0.0), CANVAS_SIZE - 1.0)
        x1 = min(max(cx + w / 2.0, x0 + 1.0), float(CANVAS_SIZE))
        rects.append((x0, min(max(top, 0.0), CANVAS_SIZE - 1.0), x1, float(CANVAS_SIZE)))
    return rects


def generate_scene(
    seed: int,
    occluder_count: int,
    coverage_target: float,
    template: BicycleTemplate | None = None,
) -> Scene:
    """Deterministically generate a scene approaching a coverage target.

    Occluder sets are rejection-sampled (up to 1000 attempts) and the set
    whose estimated covered fraction of the bicycle area is closest to
    ``coverage_target`` is kept; sampling stops early once within 0.02.
    The same seed and parameters always produce the identical scene.
    """
    if occluder_count < 0:
        raise ValueError("occluder_count must be non-negative")
    if not 0.0 <= coverage_target <= 1.0:
        raise ValueError(f"coverage_target must be in [0, 1], got {coverage_target}")
    template = template or _DEFAULT_TEMPLATE
    rng = random.Random(seed)

    length = template.total_length()
    height = template.max_height()
    usable = CANVAS_SIZE - 2.0 * _PLACEMENT_MARGIN
    scale_cap = min(usable / length, usable / height)
    scale = rng.uniform(0.6, 0.95) * scale_cap
    ox = rng.uniform(_PLACEMENT_MARGIN, CANVAS_SIZE - _PLACEMENT_MARGIN - length * scale)
    oy = rng.uniform(height * scale + _PLACEMENT_MARGIN, CANVAS_SIZE - _PLACEMENT_MARGIN)

    base = Scene(template=template, scale=scale, origin=(ox, oy), occluders=(), seed=seed)
    if occluder_count == 0:
        return base

    probe = _CoverageProbe(base.part_instances())
    bike = base.bicycle_bounds()
    best_rects: list[Rect] | None = None
    best_gap = math.inf
    for _ in range(_MAX_SAMPLING_ATTEMPTS):
        rects = _sample_rects(rng, bike, coverage_target, occluder_count)
        gap = abs(probe.coverage(rects) - coverage_target)
        if gap < best_gap:
            best_gap, best_rects = gap, rects
        if best_gap <= _COVERAGE_TOLERANCE:
            break
    assert best_rects is not None
    scene = Scene(template=template, scale=scale, origin=(ox, oy), occluders=tuple(best_rects), seed=seed)
    object.__setattr__(scene, "_parts", base._parts)  # same template, scale and origin: the same placement
    return scene


@dataclass(frozen=True)
class GroundTruth(VisibilityReport):
    """The report of a scene's exact part contributions, with each part slot's visible fraction and bbox (None when
    hidden) that the idealized detector reads."""

    __hash__ = None  # as the report's: this @dataclass would generate a hash over the dict fields again
    fractions: Mapping[str, float]
    bboxes: Mapping[str, BoundingBox | None] = field(repr=False)


def _visible_part(inst: PartInstance, occluders: Sequence[ConvexPolygon]) -> tuple[float, BoundingBox | None]:
    # The visible area and the bounds of the exact visible region, enclosing the pieces' bounds (min and max are
    # exact), from one visible_pieces pass per polygon. A polygon whose bbox is _apart from every occluder's is kept
    # whole by that pass, so its stored area and bounds are the pass's shoelace sum and points walk, bit for bit.
    visible, boxes = 0.0, []
    for poly in inst.polygons:
        box = poly.bounds()
        if all(_apart(box, occ.bounds()) for occ in occluders):
            visible += poly.area()
            boxes.append(box)
            continue
        pieces = visible_pieces(poly, occluders)
        visible += pieces_area(poly, pieces)
        boxes += [_bounds(piece) for piece in pieces]
    if not boxes:
        return visible, None
    return visible, BoundingBox(*_enclosing(boxes)).clamped(CANVAS_SIZE, CANVAS_SIZE)


def ground_truth(scene: Scene, area_model: SurfaceAreaModel | None = None) -> GroundTruth:
    """Exact visibility of every part via polygon clipping.

    Each part's exact visible fraction, weighted by its surface-area share
    (no quantization), is scored by ``VisibilityReport``, the estimate's rule.
    """
    model = area_model or DEFAULT_CONFIG.area_model
    occluders = scene.occluder_polygons()
    fractions: dict[str, float] = {}
    bboxes: dict[str, BoundingBox | None] = {}
    contributions: dict[PartClass, list[float]] = {part: [] for part in PartClass}
    for inst in scene.part_instances():
        visible, bboxes[inst.slot] = _visible_part(inst, occluders)
        fraction = min(max(visible / inst.area(), 0.0), 1.0)
        fractions[inst.slot] = fraction
        contributions[inst.part].append(model.share_pct(inst.part) * fraction)
    return GroundTruth(f"synthetic-{scene.seed}", 0, contributions, fractions, bboxes)


def simulate_detections(
    scene: Scene,
    config: ClassifierConfig | None = None,
    *,
    truth: GroundTruth | None = None,
) -> DetectionFrame:
    """Idealized detector output for a scene.

    A part whose exact visible fraction reaches the detectability floor
    emits one detection: bbox of the visible region, confidence
    0.5 + 0.5 * fraction. Parts below the floor emit nothing. Both values
    are read from the ground truth; no geometry is computed here.
    """
    config = config or DEFAULT_CONFIG
    truth = truth or ground_truth(scene, config.area_model)
    detections = []
    for inst in scene.part_instances():
        fraction, bbox = truth.fractions[inst.slot], truth.bboxes[inst.slot]
        if fraction < config.detectability_floor or bbox is None or not bbox.is_valid():
            continue
        confidence = min(1.0, 0.5 + 0.5 * fraction)
        detections.append(PartDetection(part=inst.part, bbox=bbox, confidence=confidence))
    return DetectionFrame(
        image_id=f"synthetic-{scene.seed}",
        image_width=CANVAS_SIZE,
        image_height=CANVAS_SIZE,
        detections=tuple(detections),
    )


@dataclass(frozen=True)
class EstimatorError:
    """One scene's record: its exact truth, the estimator's reports in ``classify_frame`` order (one per group) and
    the report standing in as the estimate. Every number is read from them; the benchmark reads the four accessors."""

    truth: GroundTruth
    reports: tuple[VisibilityReport, ...]
    estimate: VisibilityReport

    @property
    def estimated_occlusion(self) -> float:
        return self.estimate.occlusion_pct

    @property
    def exact_occlusion(self) -> float:
        return self.truth.occlusion_pct

    @property
    def estimated_band(self) -> OcclusionBand:
        return self.estimate.band

    @property
    def exact_band(self) -> OcclusionBand:
        return self.truth.band

    @property
    def abs_error(self) -> float:
        return abs(self.estimated_occlusion - self.exact_occlusion)


def estimator_error(scene: Scene, config: ClassifierConfig | None = None) -> EstimatorError:
    """Run the detection-based estimator on a scene and compare to ground truth.

    When grouping splits the (single) bicycle, the report with the highest
    visibility stands in as the estimate; no report means the empty group's
    report (occlusion 100, band severe).
    """
    config = config or DEFAULT_CONFIG
    truth = ground_truth(scene, config.area_model)
    reports = tuple(classify_frame(simulate_detections(scene, config, truth=truth), config))
    return EstimatorError(truth, reports, reports[0] if reports else classify_bicycle((), config))


@dataclass(frozen=True)
class ExperimentStats:
    """Estimator-vs-oracle statistics over a batch of scene records, each read once as it comes and none kept."""

    records: InitVar[Iterable[EstimatorError]]
    scene_count: int = field(init=False)
    mean_abs_error: float = field(init=False)
    max_abs_error: float = field(init=False)
    band_agreement_rate: float = field(init=False)
    confusion: "evaluation.BandConfusion" = field(init=False)

    def __post_init__(self, records: Iterable[EstimatorError]) -> None:
        from . import evaluation

        # Folded as read: the running total is ordered_sum's over the errors, bit for bit.
        total, worst, pairs = 0.0, 0.0, Counter()
        for record in records:
            error = record.abs_error
            total, worst = total + error, max(worst, error)
            pairs[record.estimated_band, record.exact_band] += 1
        confusion = evaluation.BandConfusion.from_counts(pairs)
        count = confusion.total()
        if not count:
            raise ValueError("a batch needs at least one scene")
        object.__setattr__(self, "scene_count", count)
        object.__setattr__(self, "mean_abs_error", total / count)
        object.__setattr__(self, "max_abs_error", worst)
        object.__setattr__(self, "band_agreement_rate", confusion.agreement_rate())
        object.__setattr__(self, "confusion", confusion)


def run_batch(
    scene_count: int,
    base_seed: int,
    occluder_count: int = 1,
    coverage_target: float | None = None,
    config: ClassifierConfig | None = None,
    template: BicycleTemplate | None = None,
) -> ExperimentStats:
    """Generate ``scene_count`` scenes and compare estimator vs oracle.

    Scene i uses seed ``base_seed + i``. With ``coverage_target=None`` each
    scene draws its own target uniformly from [0, 0.8], seeded by
    ``base_seed``, so reruns are identical.
    """
    if scene_count <= 0:
        raise ValueError("scene_count must be positive")
    rng = random.Random(base_seed)
    targets = (rng.uniform(0.0, 0.8) if coverage_target is None else coverage_target for _ in range(scene_count))
    # Each record is made as the stats read it, so the batch's records are never held together.
    return ExperimentStats(
        estimator_error(generate_scene(base_seed + i, occluder_count, target, template), config)
        for i, target in enumerate(targets)
    )
