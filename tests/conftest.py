"""Shared fixtures and independent oracles for the test suite.

The Monte Carlo containment code here is written independently of the
package's geometry kernel on purpose: it is the oracle the clipping path is
checked against.
"""

from __future__ import annotations

import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from occlusion_meter.classifier import classify_frame
from occlusion_meter.ingest import load_detections
from occlusion_meter.model import BoundingBox, DetectionFrame, PartClass, PartDetection

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures" / "scenarios"

# Python's limit on the digits of a decoded int; 0 (or a Python before 3.10.7) has none.
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()

# Expected (visibility, occlusion) per scenario fixture.
EXPECTED_SCENARIOS = {
    "scenario_a": (87.7, 12.3),
    "scenario_b": (79.5, 20.5),
    "scenario_c": (75.4, 24.6),
    "scenario_d": (20.5, 79.5),
    "scenario_e": (100.0, 0.0),
    "scenario_f": (100.0, 0.0),
    "scenario_g": (87.7, 12.3),
    "scenario_h": (78.5, 21.5),
    "scenario_i": (42.0, 58.0),
}


@pytest.fixture(scope="session")
def scenario_frames():
    frames = [load_detections(path) for path in sorted(FIXTURE_DIR.glob("*.json"))]
    assert len(frames) == len(EXPECTED_SCENARIOS)
    return frames


@pytest.fixture(scope="session")
def scenario_reports(scenario_frames):
    reports = []
    for frame in scenario_frames:
        frame_reports = classify_frame(frame)
        assert len(frame_reports) == 1
        reports.extend(frame_reports)
    return reports


# Config documents of the wrong shape, each with the start of its error, which names the JSON path of the first bad
# value (or, for a document that is not a config object, what is wrong with it).
BAD_CONFIGS = [
    ('{"confidence_threshold": null}', "confidence_threshold: expected a number, got None"),
    ('{"confidence_threshold": "0.5"}', "confidence_threshold: expected a number, got '0.5'"),
    ('{"detectability_floor": true}', "detectability_floor: expected a number, got True"),
    ('{"grouping_distance_factor": 1e999}', "grouping_distance_factor: expected a finite number, got inf"),
    ('{"grouping_distance_factor": 1' + "0" * 400 + "}", "grouping_distance_factor: expected a finite number, got 1"),
    ('{"wheel_fractions": 5}', "wheel_fractions: expected an array"),
    ('{"wheel_fractions": [[0.85, 1.0], [0.0]]}', "wheel_fractions[1]: expected a [ratio, fraction] pair"),
    ('{"wheel_fractions": [[1.0, 1.0], [0.0, NaN]]}', "wheel_fractions[1][1]: expected a finite number, got nan"),
    # A non-finite value names its own path, not the field whose check it would fail next (last threshold, share sum).
    ('{"wheel_fractions": [[0.85, 1.0], [NaN, 0.4]]}', "wheel_fractions[1][0]: expected a finite number, got nan"),
    # The reference areas are constants, not fields: a config that names one is refused before its value is read.
    ('{"area_model": {"wheel_area_cm2": 1e999}}', "area_model.wheel_area_cm2: unknown field"),
    ('{"area_model": {"frame_share_pct": NaN}}', "area_model.frame_share_pct: expected a finite number, got nan"),
    ('{"area_model": 3}', "area_model: expected an object"),
    ('{"area_model": {"wheel_share_pct": null}}', "area_model.wheel_share_pct: expected a number, got None"),
    ('{"area_model": {"wheel_share_pct": Infinity, "frame_share_pct": -Infinity}}',
     "area_model.wheel_share_pct: expected a finite number, got inf"),
    ('{"area_model": {"bogus": 1}}', "area_model.bogus: unknown field"),
    ("[0.5]", "top level must be an object"),
    ('{"nope": 1}', "nope: unknown field"),
    ("{", "malformed JSON: Expecting property name"),
] + ([('{"confidence_threshold": 1' + "0" * INT_DIGIT_LIMIT + "}", "malformed JSON: Exceeds the limit")]
     if INT_DIGIT_LIMIT else [])
BAD_CONFIG_IDS = [document[:40] for document, _ in BAD_CONFIGS]


# ---------------------------------------------------------------------------
# Independent geometry oracles
# ---------------------------------------------------------------------------


def convex_hull(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Andrew monotone chain; output is counter-clockwise without repeats."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts

    def half(seq):
        chain: list[tuple[float, float]] = []
        for p in seq:
            while len(chain) >= 2:
                (x1, y1), (x2, y2) = chain[-2], chain[-1]
                if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) <= 0:
                    chain.pop()
                else:
                    break
            chain.append(p)
        return chain

    lower = half(pts)
    upper = half(reversed(pts))
    return lower[:-1] + upper[:-1]


def random_convex_vertices(rng: random.Random, center=(0.0, 0.0), spread=1.0, n_points=10):
    """Convex polygon as the hull of random points; retries until non-degenerate."""
    cx, cy = center
    while True:
        pts = [
            (cx + rng.uniform(-spread, spread), cy + rng.uniform(-spread, spread))
            for _ in range(n_points)
        ]
        hull = convex_hull(pts)
        if len(hull) >= 3:
            return hull


def mc_points_in_polygon(vertices, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Crossing-number containment, written independently of the package."""
    inside = np.zeros(xs.shape, dtype=bool)
    x_at = np.empty(xs.shape)
    left = np.empty(xs.shape, dtype=bool)
    n = len(vertices)
    j = n - 1
    for i in range(n):
        xi, yi = vertices[i]
        xj, yj = vertices[j]
        if yi != yj:
            crosses = (yi > ys) != (yj > ys)
            # x_at = (xj - xi) * (ys - yi) / (yj - yi) + xi, op for op, in reused buffers.
            np.subtract(ys, yi, out=x_at)
            x_at *= xj - xi
            x_at /= yj - yi
            x_at += xi
            inside ^= crosses & np.less(xs, x_at, out=left)
        j = i
    return inside


def mc_intersection_area(subject_vertices, window_vertices, samples: int, seed: int) -> float:
    """Monte Carlo estimate of area(subject intersect window)."""
    rng = np.random.default_rng(seed)
    xs_s = [p[0] for p in subject_vertices] + [p[0] for p in window_vertices]
    ys_s = [p[1] for p in subject_vertices] + [p[1] for p in window_vertices]
    x0, x1 = min(xs_s), max(xs_s)
    y0, y1 = min(ys_s), max(ys_s)
    xs = rng.uniform(x0, x1, samples)
    ys = rng.uniform(y0, y1, samples)
    hits = mc_points_in_polygon(subject_vertices, xs, ys) & mc_points_in_polygon(window_vertices, xs, ys)
    return (x1 - x0) * (y1 - y0) * float(hits.sum()) / samples


def mc_visible_area(part_vertices, occluder_vertex_lists, samples: int, seed: int) -> float:
    """Monte Carlo estimate of area(part minus union of occluders)."""
    rng = np.random.default_rng(seed)
    xs_s = [p[0] for p in part_vertices]
    ys_s = [p[1] for p in part_vertices]
    x0, x1 = min(xs_s), max(xs_s)
    y0, y1 = min(ys_s), max(ys_s)
    xs = rng.uniform(x0, x1, samples)
    ys = rng.uniform(y0, y1, samples)
    visible = mc_points_in_polygon(part_vertices, xs, ys)
    for occ in occluder_vertex_lists:
        visible &= ~mc_points_in_polygon(occ, xs, ys)
    return (x1 - x0) * (y1 - y0) * float(visible.sum()) / samples


def compressed_visible_cells(part_rects, occluder_rects) -> list[tuple[float, float, float, float]]:
    """The visible cells of a union of axis-aligned rectangles minus other rectangles.

    Coordinate compression: every rectangle edge cuts the plane into a grid
    of cells that each lie wholly inside or wholly outside every rectangle,
    so testing one cell centre decides the whole cell. ``part_rects`` must
    have disjoint interiors. Rectangles and cells are (x_min, y_min, x_max, y_max).
    """
    rects = list(part_rects) + list(occluder_rects)
    xs = sorted({r[0] for r in rects} | {r[2] for r in rects})
    ys = sorted({r[1] for r in rects} | {r[3] for r in rects})

    def hit(rect_list, x, y):
        return any(r[0] < x < r[2] and r[1] < y < r[3] for r in rect_list)

    cells = []
    for xa, xb in zip(xs, xs[1:]):
        for ya, yb in zip(ys, ys[1:]):
            cx, cy = (xa + xb) / 2.0, (ya + yb) / 2.0
            if hit(part_rects, cx, cy) and not hit(occluder_rects, cx, cy):
                cells.append((xa, ya, xb, yb))
    return cells


def compressed_visible_area(part_rects, occluder_rects) -> float:
    """Exact area of a union of axis-aligned rectangles minus other rectangles."""
    return math.fsum((xb - xa) * (yb - ya) for xa, ya, xb, yb in compressed_visible_cells(part_rects, occluder_rects))


def compressed_visible_bbox(part_rects, occluder_rects) -> tuple[float, float, float, float] | None:
    """Exact bbox of a union of axis-aligned rectangles minus other rectangles, or None."""
    cells = compressed_visible_cells(part_rects, occluder_rects)
    if not cells:
        return None
    x0s, y0s, x1s, y1s = zip(*cells)
    return min(x0s), min(y0s), max(x1s), max(y1s)


# ---------------------------------------------------------------------------
# Random detection frames
# ---------------------------------------------------------------------------


def random_detection(rng: random.Random, part: PartClass | None = None) -> PartDetection:
    part = part or rng.choice(list(PartClass))
    x0 = rng.uniform(0.0, 500.0)
    y0 = rng.uniform(0.0, 500.0)
    w = rng.uniform(2.0, 640.0 - x0)
    h = rng.uniform(2.0, 640.0 - y0)
    return PartDetection(
        part=part,
        bbox=BoundingBox(x0, y0, x0 + w, y0 + h),
        confidence=rng.uniform(0.0, 1.0),
    )


def random_frame(rng: random.Random, max_parts: int = 8, image_id: str = "random") -> DetectionFrame:
    count = rng.randint(0, max_parts)
    return DetectionFrame(
        image_id=image_id,
        image_width=640,
        image_height=640,
        detections=tuple(random_detection(rng) for _ in range(count)),
    )
