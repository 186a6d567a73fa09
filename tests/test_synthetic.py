import array
import hashlib
import json
import math
import random
import re
import weakref
from types import MappingProxyType, SimpleNamespace
from collections import Counter
from dataclasses import asdict, astuple, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import compressed_visible_bbox, mc_visible_area
from occlusion_meter import geometry, ingest, synthetic
from occlusion_meter.classifier import _prune_group
from occlusion_meter.evaluation import band_confusion
from occlusion_meter.geometry import rect_polygon
from occlusion_meter.model import (
    PART_LIMITS,
    BoundingBox,
    ClassifierConfig,
    OcclusionBand,
    PartClass,
    PartDetection,
    VisibilityReport,
    occlusion_band,
    ordered_sum,
)
from occlusion_meter.synthetic import (
    CANVAS_SIZE,
    WHEEL_SEGMENTS,
    BicycleTemplate,
    Circle,
    ExperimentStats,
    GroundTruth,
    PartInstance,
    RectShape,
    Scene,
    Triangle,
    estimator_error,
    generate_scene,
    ground_truth,
    run_batch,
    simulate_detections,
    _CoverageProbe,
    _inside_bits,
    _linspace,
    _sample_rects,
    _visible_part,
)

# Template whose rear-wheel bounding box intersects no other part: the frame
# sits above the wheel tops and the handlebar sits beyond the front wheel.
ISOLATED = BicycleTemplate(
    frame_triangles=(
        ((0.30, 0.72), (0.75, 1.05), (0.80, 0.72)),
        ((0.80, 0.72), (0.75, 1.05), (1.20, 1.00)),
    ),
    handlebar_rect=(1.22, 0.90, 1.35, 1.00),
)


# Half-integer coordinates keep every compression cell well above the
# kernel's minimum piece area.
_HALF_COORDS = st.lists(st.integers(0, 40).map(lambda v: v / 2.0), min_size=2, max_size=2, unique=True).map(sorted)
_HALF_RECTS = st.tuples(_HALF_COORDS, _HALF_COORDS).map(lambda t: (t[0][0], t[1][0], t[0][1], t[1][1]))


def isolated_scene(occluders=()):
    return Scene(template=ISOLATED, scale=300.0, origin=(50.0, 600.0), occluders=tuple(occluders), seed=0)


def np_contains(shape, xs, ys):
    """Closed containment of the points (xs, ys) in a scene shape, over numpy arrays."""
    if isinstance(shape, Circle):
        return (xs - shape.cx) ** 2 + (ys - shape.cy) ** 2 <= shape.radius**2
    if isinstance(shape, Triangle):
        inside = np.ones(xs.shape, dtype=bool)
        vs = shape.polygon.vertices  # counter-clockwise
        for (ax, ay), (bx, by) in zip(vs, vs[1:] + vs[:1]):
            inside &= (bx - ax) * (ys - ay) >= (by - ay) * (xs - ax)
        return inside
    return (xs >= shape.x_min) & (xs <= shape.x_max) & (ys >= shape.y_min) & (ys <= shape.y_max)


def expand_bits(bits, width, height):
    """A grid bitset (bit i * width + j for column j of row i) as a boolean array of shape (height, width)."""
    return np.array([[bool(bits >> (i * width + j) & 1) for j in range(width)] for i in range(height)], dtype=bool)


def pointwise_row_masks(shape, xs, ys):
    """Circle or triangle row masks point by point: bit j of row i tests (xs[j], ys[i]) on its own."""
    if isinstance(shape, Circle):
        r2 = shape.radius**2

        def inside(x, y):
            return (x - shape.cx) * (x - shape.cx) + (y - shape.cy) * (y - shape.cy) <= r2

    else:
        vs = shape.polygon.vertices  # counter-clockwise
        edges = list(zip(vs, vs[1:] + vs[:1]))

        def inside(x, y):
            return all((bx - ax) * (y - ay) >= (by - ay) * (x - ax) for (ax, ay), (bx, by) in edges)

    return [sum(1 << j for j, x in enumerate(xs) if inside(x, y)) for y in ys]


# Quarter-integer coordinates make ties (points on edges, on the circle, on vertices) common;
# signed zeros give horizontal edges whose dy is 0.0 or -0.0.
_GRID_COORD = st.integers(-24, 24).map(lambda v: v / 4.0)
_MASK_COORD = st.one_of(_GRID_COORD, st.floats(-8.0, 8.0, allow_nan=False), st.sampled_from([0.0, -0.0]))


@st.composite
def _mask_axis(draw, anchors):
    # Free coordinates, the shape's own coordinates, and repeats, ascending as _inside_bits requires.
    values = draw(st.lists(_MASK_COORD, max_size=12)) + list(anchors)
    if values:
        values += draw(st.lists(st.sampled_from(values), max_size=4))
    return sorted(values)


@st.composite
def _mask_triangles(draw):
    points = draw(st.lists(st.tuples(_MASK_COORD, _MASK_COORD), min_size=3, max_size=3))
    if draw(st.booleans()):
        # A horizontal edge; at y = 0 its ends may carry different signed zeros.
        (ax, ay), (bx, _) = points[:2]
        points[1] = (bx, draw(st.sampled_from([0.0, -0.0])) if ay == 0 else ay)
    triangle = Triangle(*draw(st.permutations(points)))  # either orientation
    try:
        triangle.polygon
    except ValueError:
        assume(False)
    return triangle



def scenes_digest(scenes):
    """SHA-256 over each scene's JSON, its ground truth (fractions, levels, bboxes) and its detector frame."""
    digest = hashlib.sha256()
    for scene in scenes:
        truth = ground_truth(scene)
        frame = simulate_detections(scene, truth=truth)
        bboxes = {slot: bbox and asdict(bbox) for slot, bbox in truth.bboxes.items()}
        record = [scene.to_json(), truth.fractions, truth.visibility_pct, truth.occlusion_pct]
        record += [bboxes, asdict(frame)]
        digest.update(json.dumps(record, sort_keys=True).encode())
    return digest.hexdigest()


def oracle_digest(seeds, occluder_counts):
    """The scenes_digest of each occluder count's scenes over the seeds, target (seed % 9) / 10."""
    return scenes_digest(generate_scene(seed, count, (seed % 9) / 10) for count in occluder_counts for seed in seeds)


def varied_templates(count, seed):
    """``count`` valid templates, wheel_radius and wheelbase drawn across BicycleTemplate's validated range."""
    rng, templates = random.Random(seed), []
    while len(templates) < count:
        radius = rng.uniform(0.33, 0.42)
        try:
            templates.append(BicycleTemplate(wheel_radius=radius, wheelbase=rng.uniform(1.5, 1.8) - 2.0 * radius))
        except ValueError:
            continue
    return templates


class TestBicycleTemplate:
    def test_default_is_valid(self):
        template = BicycleTemplate()
        assert template.total_length() == pytest.approx(1.75)
        assert 1.5 <= template.total_length() <= 1.8
        assert 0.75 <= template.handlebar_rect[3] <= 1.10

    def test_part_slots(self):
        slots = [inst.slot for inst in BicycleTemplate().place(1.0, (0.0, 0.0))]
        assert slots == ["rear_wheel", "front_wheel", "frame", "handlebar"]
        parts = [inst.part for inst in BicycleTemplate().place(1.0, (0.0, 0.0))]
        assert parts == [PartClass.WHEEL, PartClass.WHEEL, PartClass.FRAME, PartClass.HANDLEBAR]

    @pytest.mark.parametrize(
        "change",
        [
            {"wheel_radius": 0.0}, {"wheelbase": -1.05}, {"wheel_radius": math.nan}, {"wheelbase": math.inf},
            {"wheel_radius": -math.inf}, {"wheelbase": math.nan},
        ],
    )
    def test_size_not_positive_rejected(self, change):
        [(name, value)] = change.items()
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got {value}$"):
            BicycleTemplate(**change)

    @pytest.mark.parametrize("shape", ["one", "three", "quad", "none", "segment"])
    def test_frame_triangle_count_rejected(self, shape):
        a, b = BicycleTemplate().frame_triangles
        shapes = {"one": (a,), "three": (a, b, a), "quad": (a, (*b, (1.0, 0.5))), "none": (), "segment": (a, b[:2])}
        with pytest.raises(ValueError, match="^frame_triangles must be 2 triangles of 3 points each, got"):
            BicycleTemplate(frame_triangles=shapes[shape])

    def test_length_out_of_envelope_rejected(self):
        with pytest.raises(ValueError, match="total length"):
            BicycleTemplate(wheelbase=0.7)

    def test_handlebar_height_rejected(self):
        with pytest.raises(ValueError, match="handlebar top height"):
            BicycleTemplate(handlebar_rect=(1.22, 0.90, 1.35, 1.20))

    def test_area_proportions_enforced(self):
        # Tiny wheels keep the length legal but break the surface-area link.
        with pytest.raises(ValueError, match="of the silhouette"):
            BicycleTemplate(wheel_radius=0.2, wheelbase=1.2)

    def test_proportions_within_tolerance(self):
        template = BicycleTemplate()
        areas = {inst.slot: inst.area() for inst in template.place(1.0, (0.0, 0.0))}
        total = sum(areas.values())
        assert areas["rear_wheel"] / total == pytest.approx(3400 / 8364, rel=0.25)
        assert areas["frame"] / total == pytest.approx(1454 / 8364, rel=0.25)
        assert areas["handlebar"] / total == pytest.approx(110 / 8364, rel=0.25)

    @staticmethod
    def reference_place(template, scale, origin):
        # place as it was: the parts in meters (part_instances), each shape then placed by its own placed().
        ox, oy = origin
        r = template.wheel_radius
        meters = [
            ("rear_wheel", PartClass.WHEEL, (Circle(r, r, r),)),
            ("front_wheel", PartClass.WHEEL, (Circle(r + template.wheelbase, r, r),)),
            ("frame", PartClass.FRAME, tuple(Triangle(*tri) for tri in template.frame_triangles)),
            ("handlebar", PartClass.HANDLEBAR, (RectShape(*template.handlebar_rect),)),
        ]

        def placed(shape):
            if isinstance(shape, Circle):
                return Circle(ox + shape.cx * scale, oy - shape.cy * scale, shape.radius * scale)
            if isinstance(shape, Triangle):
                return Triangle(*[(ox + p[0] * scale, oy - p[1] * scale) for p in (shape.a, shape.b, shape.c)])
            return RectShape(
                ox + shape.x_min * scale, oy - shape.y_max * scale, ox + shape.x_max * scale, oy - shape.y_min * scale
            )

        return [PartInstance(slot, part, tuple(placed(shape) for shape in shapes)) for slot, part, shapes in meters]

    @staticmethod
    def bits(instances):
        # Slot, class, shape type and each coordinate's float.hex: equal only when equal bit for bit.
        def flat(value):
            return [h for v in value for h in flat(v)] if isinstance(value, tuple) else [float(value).hex()]

        return [(i.slot, i.part, [(type(s).__name__, flat(astuple(s))) for s in i.shapes]) for i in instances]

    def test_place_matches_per_shape_placement(self):
        # Every coordinate place gives is the one the per-shape placed() arithmetic gave, on the default template's
        # scenes and on templates with other wheel radii and wheelbases, in pixels and in meters (scale 1, no shift).
        cases = [(seed, None) for seed in range(500)] + [(7000 + i, t) for i, t in enumerate(varied_templates(50, 27))]
        for seed, template in cases:
            scene = generate_scene(seed, 0, 0.0, template)
            for scale, origin in ((scene.scale, scene.origin), (1.0, (0.0, 0.0))):
                expected = self.bits(self.reference_place(scene.template, scale, origin))
                assert self.bits(scene.template.place(scale, origin)) == expected
            assert self.bits(scene.part_instances()) == self.bits(scene.template.place(scene.scale, scene.origin))

    @pytest.mark.parametrize(
        ("change", "message"),
        [
            ({"handlebar_rect": (1.22, 1.00, 1.35, 0.90)}, "handlebar_rect must have x_min < x_max and y_min < y_max"),
            ({"handlebar_rect": (1.35, 0.90, 1.22, 1.00)}, "handlebar_rect must have x_min < x_max and y_min < y_max"),
            ({"handlebar_rect": (1.22, 1.00, 1.35, 1.00)}, "handlebar_rect must have x_min < x_max and y_min < y_max"),
            ({"handlebar_rect": (1.22, math.nan, 1.35, 1.00)}, "handlebar_rect must be 4 finite numbers"),
            ({"handlebar_rect": (1.22, 0.90, 1.35)}, "handlebar_rect must be 4 finite numbers"),
            ({"frame_triangles": (((0.35, 0.35), (0.75, 0.75), (1.15, 1.15)), BicycleTemplate.frame_triangles[1])},
             "frame_triangles[0]: degenerate polygon: zero area"),
            ({"frame_triangles": (BicycleTemplate.frame_triangles[0], ((0.82, 0.35), (0.75, math.nan), (1.28, 0.72)))},
             "frame_triangles[1][1] must be 2 finite numbers, got (0.75, nan)"),
            # Only an int or a float is a number, which to_json() can write: float() reads a str, a bool, a Fraction.
            ({"wheel_radius": "0.35"}, "wheel_radius must be positive and finite, got '0.35'"),
            ({"wheelbase": True}, "wheelbase must be positive and finite, got True"),
            ({"wheel_radius": Fraction(7, 20)}, "wheel_radius must be positive and finite, got Fraction(7, 20)"),
            ({"handlebar_rect": 5}, "handlebar_rect must be 4 finite numbers, got 5"),
            ({"handlebar_rect": (1.22, "0.90", 1.35, 1.00)}, "handlebar_rect must be 4 finite numbers"),
            ({"frame_triangles": (1, 2)}, "frame_triangles must be 2 triangles of 3 points each, got (1, 2)"),
            ({"frame_triangles": (BicycleTemplate.frame_triangles[0], ((0.82, 0.35), (0.75, False), (1.28, 0.72)))},
             "frame_triangles[1][1] must be 2 finite numbers, got (0.75, False)"),
            # generate_scene places the box [0, total_length()] x [0, max_height()] on the canvas: a handlebar past the
            # front wheel was once accepted here and then failed Scene's canvas check for 19 of seeds 0-199.
            ({"handlebar_rect": (1.70, 0.90, 1.83, 1.00)}, "handlebar_rect must lie in 0 <= x <= 1.75 (total length)"),
            ({"handlebar_rect": (-0.01, 0.90, 0.12, 1.00)}, "handlebar_rect must lie in 0 <= x <= 1.75 (total length)"),
            ({"frame_triangles": (((0.35, -0.05), (0.75, 0.75), (0.82, 0.35)), BicycleTemplate.frame_triangles[1])},
             "frame_triangles[0] must lie in 0 <= x <= 1.75 (total length) and y >= 0"),
            ({"frame_triangles": (BicycleTemplate.frame_triangles[0], ((0.82, 0.35), (0.75, 0.75), (1.76, 0.72)))},
             "frame_triangles[1] must lie in 0 <= x <= 1.75 (total length) and y >= 0"),
        ],
        ids=["inverted-y-handlebar", "inverted-x-handlebar", "flat-handlebar", "nan-handlebar", "3-number-handlebar",
             "flat-frame-triangle", "nan-frame-triangle", "str-radius", "bool-wheelbase", "fraction-radius",
             "int-handlebar", "str-in-handlebar", "int-triangles", "bool-in-triangle", "handlebar-past-front",
             "handlebar-behind-rear", "frame-below-ground", "frame-past-front"],
    )
    def test_bad_parts_rejected_by_field(self, change, message):
        # An inverted handlebar would put its bottom where max_height reads its top; a degenerate part is named by its
        # field, not only by the polygon's own error.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            BicycleTemplate(**change)

    @pytest.mark.parametrize(
        "change",
        [
            {"handlebar_rect": (1.62, 0.90, 1.75, 1.00)},
            {"frame_triangles": (((0.35, 0.0), (0.75, 0.75), (0.82, 0.35)), BicycleTemplate.frame_triangles[1])},
        ],
        ids=["handlebar-at-front", "frame-on-ground"],
    )
    def test_part_on_the_wheels_box_edge_places_on_canvas(self, change):
        template = BicycleTemplate(**change)
        for seed in range(200):
            generate_scene(seed, 1, 0.3, template)


class TestSceneGeneration:
    def test_zero_occluders_fully_visible(self):
        scene = generate_scene(11, 0, 0.0)
        truth = ground_truth(scene)
        assert truth.fractions == {"rear_wheel": 1.0, "front_wheel": 1.0, "frame": 1.0, "handlebar": 1.0}
        assert truth.occlusion_pct == 0.0

    def test_same_seed_identical(self):
        a = generate_scene(1234, 2, 0.4)
        b = generate_scene(1234, 2, 0.4)
        assert a == b
        assert a.to_json() == b.to_json()

    def test_different_seed_differs(self):
        assert generate_scene(1, 1, 0.4) != generate_scene(2, 1, 0.4)

    def test_wheel_bounds_are_circle_bounds(self):
        # The 128-gon's extreme vertices sit at cos/sin = +-1 exactly.
        for seed in range(2000):
            for inst in generate_scene(seed, 0, 0.0).part_instances():
                if inst.part is PartClass.WHEEL:
                    c = inst.shapes[0]
                    assert inst.bounds() == (c.cx - c.radius, c.cy - c.radius, c.cx + c.radius, c.cy + c.radius)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            generate_scene(0, -1, 0.5)
        with pytest.raises(ValueError):
            generate_scene(0, 1, 1.5)

    def test_coverage_targeting(self):
        hits = 0
        for seed in range(30):
            scene = generate_scene(seed, 1, 0.5)
            instances = scene.part_instances()
            total = sum(inst.area() for inst in instances)
            truth = ground_truth(scene)
            covered = sum((1.0 - truth.fractions[inst.slot]) * inst.area() for inst in instances) / total
            if abs(covered - 0.5) <= 0.1:
                hits += 1
        assert hits >= 27  # at least 90 percent of seeds

    def test_canvas_other_than_the_oracles_rejected(self):
        # Placement, the occluder sampler and the visible bboxes all assume CANVAS_SIZE: a scene has no other canvas,
        # and its JSON still names that one.
        s = generate_scene(77, 2, 0.3)
        assert '"canvas": [640, 640]' in s.to_json()
        for canvas in ([640, 640], [200, 200], [640, 480]):
            with pytest.raises(TypeError, match="canvas"):
                Scene(s.template, s.scale, s.origin, s.occluders, s.seed, canvas=canvas)

    @pytest.mark.parametrize(
        ("change", "field"),
        [
            ({"occluders": ((10.0, math.nan, 50.0, 640.0),)}, r"occluders\[0\]"),
            ({"occluders": ((10.0, 20.0, 50.0, 640.0), (10.0, 20.0, math.inf, 640.0))}, r"occluders\[1\]"),
            ({"occluders": ((-math.inf, 20.0, 50.0, 640.0),)}, r"occluders\[0\]"),
            ({"occluders": ((10.0, 20.0, 50.0),)}, r"occluders\[0\]"),
            ({"occluders": ((10.0, 20.0, 50.0, 640.0, 1.0),)}, r"occluders\[0\]"),
            ({"occluders": ((50.0, 20.0, 10.0, 640.0),)}, r"occluders\[0\]"),
            ({"occluders": ((10.0, 640.0, 50.0, 20.0),)}, r"occluders\[0\]"),
            ({"occluders": ((10.0, 20.0, 10.0, 640.0),)}, r"occluders\[0\]"),
            ({"occluders": ((10.0, 20.0, 50.0, 640.0), (10.0, 640.0, 50.0, 640.0))}, r"occluders\[1\]"),
            ({"scale": math.nan}, "scale"),
            ({"scale": 0.0}, "scale"),
            ({"scale": -84.7}, "scale"),
            ({"scale": math.inf}, "scale"),
            ({"origin": (math.inf, 500.0)}, "origin"),
            ({"origin": (100.0, math.nan)}, "origin"),
            ({"origin": (100.0,)}, "origin"),
        ],
        ids=["nan-occluder", "inf-second-occluder", "minus-inf-occluder", "3-number-occluder", "5-number-occluder",
             "x-inverted-occluder", "y-inverted-occluder", "zero-width-occluder", "zero-height-second-occluder",
             "nan-scale", "zero-scale", "negative-scale", "inf-scale", "inf-origin", "nan-origin", "1-number-origin"],
    )
    def test_values_the_oracle_cannot_use_rejected_by_field(self, change, field):
        # Rejected when the scene is built, naming the field, not later by the clip or the wheel polygon.
        s = generate_scene(3, 1, 0.3)
        with pytest.raises(ValueError, match=f"^{field} must be"):
            replace(s, **change)

    @pytest.mark.parametrize(
        "change",
        [{"origin": (5000.0, 5000.0)}, {"origin": (-1.0, 391.9)}, {"origin": (300.0, 391.9)}, {"origin": (116.9, 100.0)},
         {"origin": (116.9, 640.5)}, {"scale": 400.0}],
        ids=["far-off", "left", "right", "top", "bottom", "too-large"],
    )
    def test_bicycle_off_the_canvas_rejected(self, change):
        # Off the canvas every visible bbox clamps to nothing: the truth would read 0 % occlusion and the estimate 100 %.
        s = generate_scene(3, 1, 0.3)
        with pytest.raises(ValueError, match=r"^origin and scale must put the bicycle on the canvas, got \("):
            replace(s, **change)

    def test_bicycle_touching_the_canvas_edges_accepted(self):
        # The wheels' bottom and the rear wheel's left edge map exactly, so a bicycle in the corner is on the canvas.
        x0, y0, x1, y1 = replace(generate_scene(3, 1, 0.3), origin=(0.0, 640.0)).bicycle_bounds()
        assert (x0, y1) == (0.0, 640.0) and 0 < y0 and x1 < 640

    def test_scene_values_read_as_floats(self):
        s = generate_scene(3, 1, 0.3)
        scene = replace(s, origin=[100, 500], occluders=[[10, 20, 50, 640]])
        assert scene.origin == (100.0, 500.0) and type(scene.origin[0]) is float
        assert scene.occluders == ((10.0, 20.0, 50.0, 640.0),) and type(scene.occluders[0][0]) is float

    def test_parts_stay_on_canvas(self):
        for seed in (0, 5, 9):
            scene = generate_scene(seed, 0, 0.0)
            x0, y0, x1, y1 = scene.bicycle_bounds()
            assert 0 <= x0 < x1 <= 640
            assert 0 <= y0 < y1 <= 640

    def test_oracle_bytes_pinned(self):
        # Recorded before the oracle's performance work: a speed-up must leave every byte here as it was.
        assert oracle_digest(range(50), (0, 1, 3, 6)) == (
            "145bb32de466423651faad3caf0bce84521aefc9fdc61359fce0060936f4f3d6"
        )

    def test_held_out_oracle_bytes_pinned(self):
        # Recorded before the wheel lattice and the untouched-polygon shortcuts: held-out seeds with 1-6
        # occluders, then templates whose wheels have other radii, each probed on its own grid.
        scenes = [generate_scene(5000 + i, 1 + i % 6, (i % 9) / 10) for i in range(300)]
        templates = varied_templates(50, 27)
        assert len({(t.wheel_radius, t.wheelbase) for t in templates}) == 50
        scenes += [generate_scene(7000 + i, 1 + i % 6, (i % 9) / 10, t) for i, t in enumerate(templates)]
        assert scenes_digest(scenes) == "6b6a70e1556f744fcb960e9fa4d6a768fbcaf7092046f66ebc63c6b0366e6e97"


class TestGroundTruth:
    def test_full_rear_wheel_occluder_is_one_wheel_share(self):
        scene = isolated_scene([(48.0, 388.0, 262.0, 602.0)])
        truth = ground_truth(scene)
        assert truth.fractions["rear_wheel"] == 0.0
        assert truth.fractions["front_wheel"] == 1.0
        assert truth.fractions["frame"] == 1.0
        assert truth.fractions["handlebar"] == 1.0
        assert truth.occlusion_pct == 41.0

    def test_fractions_match_monte_carlo(self):
        scene = generate_scene(21, 2, 0.45)
        occluders = [poly.vertices for poly in scene.occluder_polygons()]
        truth = ground_truth(scene)
        for index, inst in enumerate(scene.part_instances()):
            area = inst.area()
            visible = sum(
                mc_visible_area(shape.polygon.vertices, occluders, 200_000, seed=index)
                for shape in inst.shapes
            )
            assert truth.fractions[inst.slot] == pytest.approx(visible / area, abs=0.02)

    def test_many_occluders_match_monte_carlo(self):
        rng = random.Random(4)
        scene = generate_scene(13, 0, 0.0)
        bike = scene.bicycle_bounds()
        rects = tuple(_sample_rects(rng, bike, 0.3, 5))
        crowded = replace(scene, occluders=rects)
        occluders = [poly.vertices for poly in crowded.occluder_polygons()]
        truth = ground_truth(crowded)
        for fraction in truth.fractions.values():
            assert 0.0 <= fraction <= 1.0
        assert 0.0 <= truth.occlusion_pct <= 100.0
        for index, inst in enumerate(crowded.part_instances()):
            visible = sum(
                mc_visible_area(shape.polygon.vertices, occluders, 200_000, seed=index)
                for shape in inst.shapes
            )
            assert truth.fractions[inst.slot] == pytest.approx(visible / inst.area(), abs=0.02)

    def test_bboxes_are_the_emitted_detection_bboxes(self):
        floor = ClassifierConfig().detectability_floor
        scenes = [isolated_scene([(48.0, 388.0, 262.0, 602.0)]), isolated_scene([(0.0, 0.0, 640.0, 640.0)])]
        # A 0.002 px strip: the rear wheel and the frame show far less than 1 px² but are not hidden.
        scenes.append(isolated_scene([(0.0, 0.0, 154.999, 640.0), (155.001, 0.0, 640.0, 640.0)]))
        scenes += [generate_scene(seed, 1 + seed % 6, (seed % 9) / 10.0) for seed in range(60)]
        hidden = 0
        for scene in scenes:
            truth = ground_truth(scene)
            assert set(truth.bboxes) == set(truth.fractions)
            for slot, bbox in truth.bboxes.items():
                assert (bbox is None) == (truth.fractions[slot] == 0.0)
                hidden += bbox is None
            detected = [truth.bboxes[i.slot] for i in scene.part_instances() if truth.fractions[i.slot] >= floor]
            assert [d.bbox for d in simulate_detections(scene, truth=truth).detections] == detected
        assert hidden >= 5

    def test_bboxes_are_required(self):
        with pytest.raises(TypeError, match="bboxes"):
            GroundTruth("s", 0, {}, fractions={})

    def test_occlusion_monotone_as_occluders_added(self):
        rng = random.Random(17)
        for case in range(25):
            scene = generate_scene(400 + case, 0, 0.0)
            bike = scene.bicycle_bounds()
            rects = [_sample_rects(rng, bike, rng.uniform(0.1, 0.5), 1)[0] for _ in range(3)]
            previous = ground_truth(scene).occlusion_pct
            for k in range(1, 4):
                current = ground_truth(replace(scene, occluders=tuple(rects[:k]))).occlusion_pct
                assert current >= previous - 1e-9
                previous = current


class TestSimulateDetections:
    def test_unoccluded_parts_detected_with_full_confidence(self):
        scene = generate_scene(3, 0, 0.0)
        frame = simulate_detections(scene)
        assert len(frame.detections) == 4
        for det in frame.detections:
            assert det.confidence == 1.0
        wheels = [d for d in frame.detections if d.part is PartClass.WHEEL]
        for wheel in wheels:
            assert wheel.bbox.aspect_ratio() >= 0.98

    def test_half_occluded_wheel_ratio_near_half(self):
        # vertical strip over the left half of the front wheel
        scene = Scene(template=BicycleTemplate(), scale=300.0, origin=(50.0, 600.0), occluders=((360.0, 385.0, 470.0, 605.0),), seed=0)
        frame = simulate_detections(scene)
        front = [
            d
            for d in frame.detections
            if d.part is PartClass.WHEEL and d.bbox.x_min > 300
        ]
        assert len(front) == 1
        assert front[0].bbox.aspect_ratio() == pytest.approx(0.5, abs=0.03)

    def test_part_below_floor_not_emitted(self):
        scene = isolated_scene([(135.0, 280.0, 395.0, 389.0)])
        truth = ground_truth(scene)
        assert 0.0 < truth.fractions["frame"] < 0.10
        frame = simulate_detections(scene)
        assert all(d.part is not PartClass.FRAME for d in frame.detections)
        assert len(frame.detections) == 3

    def test_confidence_linear_in_fraction(self):
        scene = generate_scene(29, 1, 0.4)
        truth = ground_truth(scene)
        frame = simulate_detections(scene)
        by_part = {}
        for inst in scene.part_instances():
            by_part.setdefault(inst.part, []).append(truth.fractions[inst.slot])
        for det in frame.detections:
            expected = [min(1.0, 0.5 + 0.5 * f) for f in by_part[det.part]]
            assert any(det.confidence == pytest.approx(e, abs=1e-12) for e in expected)
            assert det.confidence >= 0.55 - 1e-12

    def test_sub_cell_sliver_widens_wheel_bbox(self):
        # A 0.5 px strip of the rear wheel (x in [50, 260]) shows between two
        # occluders at its centre line. A 256-cell raster over the wheel has
        # centres 0.82 px apart at 154.59 and 155.41 and would miss it.
        scene = isolated_scene([(0.0, 0.0, 154.75, 640.0), (155.25, 0.0, 200.0, 640.0)])
        detections = simulate_detections(scene).detections
        rear = [d.bbox for d in detections if d.part is PartClass.WHEEL and d.bbox.x_min < 300]
        assert len(rear) == 1
        assert rear[0].x_min == pytest.approx(154.75, abs=1e-9)
        assert (rear[0].y_min, rear[0].x_max, rear[0].y_max) == pytest.approx((390.0, 260.0, 600.0), abs=1e-9)

    @given(st.lists(_HALF_RECTS, min_size=1, max_size=3), st.lists(_HALF_RECTS, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_rect_part_bbox_matches_coordinate_compression(self, part_rects, occluder_rects):
        # Keep part rects with disjoint interiors, as the compression oracle requires.
        disjoint = []
        for a in part_rects:
            if all(a[2] <= b[0] or b[2] <= a[0] or a[3] <= b[1] or b[3] <= a[1] for b in disjoint):
                disjoint.append(a)
        inst = PartInstance("handlebar", PartClass.HANDLEBAR, tuple(RectShape(*r) for r in disjoint))
        got = _visible_part(inst, [rect_polygon(*r) for r in occluder_rects])[1]
        expected = compressed_visible_bbox(disjoint, occluder_rects)
        if expected is None:
            assert got is None
        else:
            # Part vertices come through exactly; a cut point may be off by one rounding.
            assert (got.x_min, got.y_min, got.x_max, got.y_max) == pytest.approx(expected, rel=0, abs=1e-12)

    def test_floor_respected_in_custom_config(self):
        scene = isolated_scene([(48.0, 388.0, 262.0, 602.0)])
        config = ClassifierConfig(detectability_floor=0.10)
        frame = simulate_detections(scene, config)
        assert len(frame.detections) == 3  # rear wheel fully hidden


class TestEstimatorError:
    def test_no_occluders_perfect_agreement(self):
        result = estimator_error(generate_scene(7, 0, 0.0))
        assert result.estimated_occlusion == 0.0
        assert result.exact_occlusion == 0.0
        assert result.estimated_band == result.exact_band

    def test_full_wheel_share_agreement(self):
        result = estimator_error(isolated_scene([(48.0, 388.0, 262.0, 602.0)]))
        assert result.estimated_occlusion == pytest.approx(41.0, abs=1e-9)
        assert result.exact_occlusion == pytest.approx(41.0, abs=1e-9)
        assert result.estimated_band == result.exact_band == OcclusionBand.HEAVY.value

    @staticmethod
    def count_geometry_calls(monkeypatch) -> Counter:
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        # A part's visible pass is _visible_part, which skips visible_pieces for a polygon no occluder's bbox meets.
        monkeypatch.setattr(synthetic, "_visible_part", counted("visible pass", synthetic._visible_part))
        monkeypatch.setattr(synthetic, "visible_pieces", counted("visible_pieces", synthetic.visible_pieces))
        monkeypatch.setattr(synthetic, "circle_polygon", counted("circle_polygon", synthetic.circle_polygon))
        return calls

    def test_one_geometry_pass_per_scene(self, monkeypatch):
        # The scene keeps the parts placed for generate_scene's coverage probe, so
        # ground_truth clips the same polygons, each once; simulate_detections only
        # reads the results.
        calls = self.count_geometry_calls(monkeypatch)
        scene = generate_scene(21, 2, 0.45)
        estimator_error(scene)
        shapes = [shape for inst in scene.part_instances() for shape in inst.shapes]
        assert len(shapes) == 5
        assert 1 <= calls.pop("visible_pieces") <= len(shapes)
        assert calls == {"visible pass": 4, "circle_polygon": 2}

    @pytest.mark.parametrize("k", [0, 1, 2, 6])
    def test_each_polygon_built_once_per_scene(self, monkeypatch, k):
        # Five part polygons (two wheels, two frame triangles, the handlebar),
        # shared by the coverage probe and ground_truth, plus one per occluder.
        # Every polygon, the wheels included, is built and checked convex by ConvexPolygon._store.
        calls = Counter()
        store = geometry.ConvexPolygon._store

        def counted(self, vertices, box):
            calls[type(self).__name__] += 1
            store(self, vertices, box)

        monkeypatch.setattr(geometry.ConvexPolygon, "_store", counted)
        estimator_error(generate_scene(21, k, 0.45))
        assert calls == {"ConvexPolygon": 5 + k}

    @pytest.mark.parametrize("k", [1, 3])
    def test_part_bounds_walked_once_per_scene(self, monkeypatch, k):
        # The coverage probe and the bike rect both read each part's bounds; the
        # five part polygons' vertices are walked once between them.
        calls = Counter()
        bounds = geometry.Polygon.bounds
        monkeypatch.setattr(geometry.Polygon, "bounds", lambda self: calls.update(["bounds"]) or bounds(self))
        scene = generate_scene(21, k, 0.45)
        assert calls == {"bounds": 5}
        scene.bicycle_bounds()
        assert calls == {"bounds": 5}

    def test_scene_built_in_code_builds_its_polygons_once(self, monkeypatch):
        # Unlike generate_scene's, this scene does not share a placement already built: it places its parts once.
        s = generate_scene(21, 2, 0.45)
        scene = Scene(s.template, s.scale, s.origin, s.occluders, s.seed)
        calls = self.count_geometry_calls(monkeypatch)
        estimator_error(scene)
        assert 1 <= calls.pop("visible_pieces") <= 5
        assert calls == {"visible pass": 4, "circle_polygon": 2}

    def test_records_cannot_be_hashed_and_say_so(self):
        # A report's contributions are a dict: hashing fails at once, naming the record, not 'dict'.
        record = estimator_error(generate_scene(3, 1, 0.3))
        named = [(record.estimate, "VisibilityReport"), (record.truth, "GroundTruth"), (record, "GroundTruth")]
        for value, name in named:
            with pytest.raises(TypeError, match=f"^unhashable type: '{name}'$"):
                hash(value)
        assert record == estimator_error(generate_scene(3, 1, 0.3))
        # A batch keeps only its numbers, so it hashes, and by value.
        assert hash(run_batch(2, 1)) == hash(run_batch(2, 1))

    def test_everything_hidden_both_full_occlusion(self):
        scene = isolated_scene([(0.0, 0.0, 640.0, 640.0)])
        result = estimator_error(scene)
        assert result.estimated_occlusion == 100.0
        assert result.exact_occlusion == 100.0
        assert result.estimated_band == result.exact_band

    def test_estimated_drop_bounded_by_wheel_step(self):
        # Adding an occluder can only lower the estimate by at most one
        # wheel quantization step on this seeded batch.
        rng = random.Random(7)
        worst_drop = 0.0
        for i in range(120):
            target = rng.uniform(0.1, 0.7)
            scene = generate_scene(3000 + i, 1, target)
            extra = _sample_rects(random.Random(9000 + i), scene.bicycle_bounds(), rng.uniform(0.1, 0.6), 1)[0]
            bigger = replace(scene, occluders=scene.occluders + (extra,))
            before = estimator_error(scene)
            after = estimator_error(bigger)
            assert after.exact_occlusion >= before.exact_occlusion - 1e-9
            worst_drop = max(worst_drop, before.estimated_occlusion - after.estimated_occlusion)
        assert worst_drop <= 41.0 * 0.3 + 1e-9

    @pytest.mark.parametrize("k", [0, 1, 3, 6])
    def test_record_equals_itself_on_repeat(self, k):
        # A repeat must compare equal: the benchmark counts an unequal repeat as a wrong result.
        for seed in range(20):
            scene = generate_scene(seed, k, (seed % 9) / 10.0)
            assert estimator_error(scene) == estimator_error(scene)

    def test_split_scene_keeps_every_report(self):
        # Seed 169 is the first of the pinned batch's 15 split scenes: run_batch(1000, 42) draws its target 128th.
        draw = random.Random(42).uniform
        target = [draw(0.0, 0.8) for _ in range(128)][-1]
        result = estimator_error(generate_scene(169, 1, target))
        assert len(result.reports) == 2
        assert result.estimate is result.reports[0]
        assert result.reports[0].visibility_pct >= result.reports[1].visibility_pct

    def test_no_report_stands_in_empty_group(self):
        result = estimator_error(isolated_scene([(0, 0, 640, 640)]))
        assert result.reports == ()
        assert result.estimate.occlusion_pct == 100.0
        assert result.estimate.band is OcclusionBand.SEVERE

    @pytest.mark.parametrize("k", [0, 2, 6])
    def test_truth_is_the_scene_ground_truth(self, k):
        scene = generate_scene(21, k, 0.45)
        result = estimator_error(scene)
        assert result.exact_band is result.truth.band
        assert result.truth == ground_truth(scene)
        assert result.exact_occlusion == result.truth.occlusion_pct


class TestRunBatch:
    def test_deterministic(self):
        assert run_batch(20, 5) == run_batch(20, 5)

    def test_fixed_coverage_propagates(self):
        stats = run_batch(5, 1, occluder_count=0, coverage_target=0.0)
        assert stats.mean_abs_error == 0.0
        assert stats.band_agreement_rate == 1.0

    @staticmethod
    def records(scene_count, base_seed):
        # run_batch's records, made apart from it: scene i has seed base_seed + i and the i-th target drawn.
        draw = random.Random(base_seed).uniform
        return [estimator_error(generate_scene(base_seed + i, 1, draw(0.0, 0.8))) for i in range(scene_count)]

    def test_confusion_marginals_match_results(self):
        stats, records = run_batch(40, 11), self.records(40, 11)
        assert stats.confusion.total() == stats.scene_count == len(records)
        agree = sum(1 for r in records if r.estimated_band == r.exact_band)
        assert stats.band_agreement_rate == pytest.approx(agree / stats.scene_count)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            run_batch(0, 1)

    def test_stats_derived_from_records(self):
        stats, records = run_batch(40, 11), self.records(40, 11)
        assert ExperimentStats(records) == ExperimentStats(iter(records)) == stats
        # The stats as read from the batch's rows at once, each field bit for bit.
        errors, estimated, exact = zip(*[(r.abs_error, r.estimated_band, r.exact_band) for r in records])
        assert (stats.mean_abs_error, stats.max_abs_error) == (ordered_sum(errors) / len(errors), max(errors))
        assert stats.confusion == band_confusion(estimated, exact)

    @pytest.mark.parametrize("occluder_count", [0, 3, 6])
    def test_stats_fold_the_batch_as_its_rows_read_at_once(self, occluder_count):
        draw = random.Random(23).uniform
        records = [estimator_error(generate_scene(23 + i, occluder_count, draw(0.0, 0.8))) for i in range(30)]
        stats = run_batch(30, 23, occluder_count=occluder_count)
        errors, estimated, exact = zip(*[(r.abs_error, r.estimated_band, r.exact_band) for r in records])
        assert stats.scene_count == 30
        assert (stats.mean_abs_error, stats.max_abs_error) == (ordered_sum(errors) / 30, max(errors))
        assert stats.confusion == band_confusion(estimated, exact)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.tuples(st.floats(0.0, 100.0), st.sampled_from(list(OcclusionBand)), st.sampled_from(list(OcclusionBand))),
        min_size=1, max_size=40,
    ))
    def test_running_total_is_the_ordered_sum(self, rows):
        # The stats read only these three fields of a record.
        records = [
            SimpleNamespace(abs_error=error, estimated_band=est, exact_band=ref) for error, est, ref in rows
        ]
        stats = ExperimentStats(iter(records))
        errors, estimated, exact = zip(*rows)
        assert (stats.scene_count, stats.max_abs_error) == (len(rows), max(errors))
        assert repr(stats.mean_abs_error) == repr(ordered_sum(errors) / len(rows))
        assert stats.confusion == band_confusion(estimated, exact)
        assert stats.band_agreement_rate == stats.confusion.agreement_rate()

    def test_batch_holds_no_records(self, monkeypatch):
        # Each record is read as it is made: when the next is made, at most the one just read is still alive.
        made, alive = [], []

        def counted(*args):
            alive.append(sum(ref() is not None for ref in made))
            record = estimator_error(*args)
            made.append(weakref.ref(record))
            return record

        monkeypatch.setattr(synthetic, "estimator_error", counted)
        stats = run_batch(30, 11)
        assert len(made) == 30 and max(alive) <= 1 and all(ref() is None for ref in made)
        assert list(vars(stats)) == ["scene_count", "mean_abs_error", "max_abs_error", "band_agreement_rate", "confusion"]

    def test_stats_reject_empty_batch(self):
        with pytest.raises(ValueError, match="at least one scene"):
            ExperimentStats(())


class TestLoopReferences:
    """The oracle's sampling helpers against independent numpy and plain-loop references, bit for bit."""

    @staticmethod
    def reference_rect(rng, bike, coverage_target, count):
        bx0, by0, bx1, by1 = bike
        bw = bx1 - bx0
        bh = by1 - by0
        w = bw * (0.10 + 0.95 * coverage_target) * rng.uniform(0.5, 1.4) / math.sqrt(max(count, 1))
        cx = rng.uniform(bx0 - 0.15 * bw, bx1 + 0.15 * bw)
        top = by1 - bh * rng.uniform(0.9, 1.35)
        x0 = min(max(cx - w / 2.0, 0.0), CANVAS_SIZE - 1.0)
        x1 = min(max(cx + w / 2.0, x0 + 1.0), float(CANVAS_SIZE))
        y0 = min(max(top, 0.0), CANVAS_SIZE - 1.0)
        return (x0, y0, x1, float(CANVAS_SIZE))

    @staticmethod
    def reference_samples(inst):
        x0, y0, x1, y1 = inst.bounds()
        grid_x, grid_y = np.meshgrid(np.linspace(x0, x1, 24), np.linspace(y0, y1, 24))
        grid_x = grid_x.ravel()
        grid_y = grid_y.ravel()
        mask = np.zeros(grid_x.shape, dtype=bool)
        for shape in inst.shapes:
            mask |= np_contains(shape, grid_x, grid_y)
        return grid_x[mask], grid_y[mask]

    def reference_coverage(self, instances, rects):
        covered = 0.0
        for inst in instances:
            xs, ys = self.reference_samples(inst)
            if xs.size == 0:
                continue
            hit = np.zeros(xs.shape, dtype=bool)
            for x0, y0, x1, y1 in rects:
                hit |= (xs >= x0) & (xs <= x1) & (ys >= y0) & (ys <= y1)
            covered += inst.area() * (float(hit.sum()) / xs.size)
        return covered / sum(inst.area() for inst in instances)

    @staticmethod
    def reference_visible_bbox(inst, occluders, cells=256):
        x0, y0, x1, y1 = inst.bounds()
        dx = (x1 - x0) / cells
        dy = (y1 - y0) / cells
        grid_x, grid_y = np.meshgrid(x0 + (np.arange(cells) + 0.5) * dx, y0 + (np.arange(cells) + 0.5) * dy)
        grid_x = grid_x.ravel()
        grid_y = grid_y.ravel()
        mask = np.zeros(grid_x.shape, dtype=bool)
        for shape in inst.shapes:
            mask |= np_contains(shape, grid_x, grid_y)
        for rx0, ry0, rx1, ry1 in occluders:
            mask &= ~((grid_x >= rx0) & (grid_x <= rx1) & (grid_y >= ry0) & (grid_y <= ry1))
        if not mask.any():
            return None
        bbox = BoundingBox(
            float(grid_x[mask].min()) - dx / 2.0,
            float(grid_y[mask].min()) - dy / 2.0,
            float(grid_x[mask].max()) + dx / 2.0,
            float(grid_y[mask].max()) + dy / 2.0,
        )
        return bbox.clamped(CANVAS_SIZE, CANVAS_SIZE)

    def test_sample_rects_draws_like_one_rect_at_a_time(self):
        for seed in range(40):
            bike = generate_scene(seed, 0, 0.0).bicycle_bounds()
            target, count = 0.02 * seed, 1 + seed % 8
            rng = random.Random(seed)
            expected = [self.reference_rect(rng, bike, target, count) for _ in range(3 * count)]
            sampler = random.Random(seed)
            assert [r for _ in range(3) for r in _sample_rects(sampler, bike, target, count)] == expected

    @pytest.mark.parametrize("count", range(1, 7))
    def test_sample_rects_draws_like_uniform(self, count):
        # Draw for draw: the same rects, and the generator left in the same state.
        for seed in range(60):
            bike = generate_scene(seed, 0, 0.0).bicycle_bounds()
            target = (seed % 11) / 10
            rng, sampler = random.Random(seed), random.Random(seed)
            for _ in range(5):
                expected = [self.reference_rect(rng, bike, target, count) for _ in range(count)]
                assert _sample_rects(sampler, bike, target, count) == expected
                assert sampler.getstate() == rng.getstate()

    def test_linspace_matches_numpy(self):
        rng = random.Random(10)
        cases = [(0.0, 1.0, 24), (-3.5, 2.25, 2), (5.0, 5.0, 24), (640.0, 0.1, 7)]
        cases += [(rng.uniform(-700, 700), rng.uniform(-700, 700), rng.randint(2, 60)) for _ in range(500)]
        for a, b, n in cases:
            assert _linspace(a, b, n) == np.linspace(a, b, n).tolist()

    def test_inside_bits_match_numpy_containment(self):
        rng = random.Random(14)
        for seed, template in enumerate([None] * 30 + varied_templates(30, 14)):
            for inst in generate_scene(seed, 0, 0.0, template).part_instances():
                x0, y0, x1, y1 = inst.bounds()
                if inst.part is PartClass.WHEEL:
                    # A wheel's probe points are the lattice disc, on its own grid only.
                    grid_x, grid_y = np.meshgrid(np.array(_linspace(x0, x1, 24)), np.array(_linspace(y0, y1, 24)))
                    got = expand_bits(synthetic._DISC, 24, 24)
                    assert np.array_equal(got, np_contains(inst.shapes[0], grid_x, grid_y))
                    continue
                # The probe's grid, then one through shape vertices, where ties decide.
                grids = [(_linspace(x0, x1, 24), _linspace(y0, y1, 24))]
                corners = [p for shape in inst.shapes for p in shape.polygon.vertices]
                xs = sorted({p[0] for p in corners} | {rng.uniform(x0, x1) for _ in range(20)})
                ys = sorted({p[1] for p in corners} | {rng.uniform(y0, y1) for _ in range(20)})
                grids.append((xs, ys))
                for xs, ys in grids:
                    grid_x, grid_y = np.meshgrid(np.array(xs), np.array(ys))
                    union = np.zeros(grid_x.shape, dtype=bool)
                    for shape in inst.shapes:
                        got = expand_bits(_inside_bits([shape.polygon], xs, ys), len(xs), len(ys))
                        assert np.array_equal(got, np_contains(shape, grid_x, grid_y))
                        union |= got
                    assert np.array_equal(expand_bits(_inside_bits(inst.polygons, xs, ys), len(xs), len(ys)), union)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), triangle=_mask_triangles())
    def test_triangle_inside_bits_match_pointwise(self, data, triangle):
        xs = data.draw(_mask_axis([p[0] for p in (triangle.a, triangle.b, triangle.c)]))
        ys = data.draw(_mask_axis([p[1] for p in (triangle.a, triangle.b, triangle.c)]))
        rows = pointwise_row_masks(triangle, xs, ys)
        assert _inside_bits([triangle.polygon], xs, ys) == sum(row << (len(xs) * i) for i, row in enumerate(rows))

    def test_handlebar_probe_points_are_the_whole_grid(self):
        # Each grid point tested on its own against the closed rect, on the handlebar's own grid.
        whole = (1 << (24 * 24)) - 1
        templates = [None] * 1000 + [t for t in varied_templates(50, 27) for _ in range(40)]
        for seed, template in enumerate(templates):
            inst = generate_scene(seed, 0, 0.0, template).part_instances()[3]
            assert inst.part is PartClass.HANDLEBAR
            x0, y0, x1, y1 = inst.bounds()
            xs, ys = _linspace(x0, x1, 24), _linspace(y0, y1, 24)
            grid_x, grid_y = np.meshgrid(np.array(xs), np.array(ys))
            assert np_contains(inst.shapes[0], grid_x, grid_y).all()
            assert _inside_bits(inst.polygons, xs, ys) == whole
            assert _CoverageProbe([inst]).parts[0][2] == whole

    # Ends anywhere in the float range, and ends on the canvas's scale.
    _LINSPACE_ENDS = st.one_of(st.floats(-1e300, 1e300), st.floats(-1e4, 1e4))

    @settings(max_examples=500, deadline=None)
    @given(a=_LINSPACE_ENDS, b=_LINSPACE_ENDS)
    def test_linspace_ascends_inside_its_ends(self, a, b):
        # The rounding argument needs a normal step (b - a) / 23; a bounds or rect side in pixels is far wider.
        a, b = sorted((a, b))
        assume(a == b or b - a >= 1e-290)
        points = _linspace(a, b, 24)
        assert points[0] == a and points[-1] == b
        assert all(p <= q for p, q in zip(points, points[1:]))
        assert all(a <= p <= b for p in points)

    # Wheel radii in pixels over valid templates and placements: wheel_radius 0.33-0.42 m (varied_templates'
    # draw) times generate_scene's scale, 0.6-0.95 of 620 px over a total length of 1.5-1.8 m.
    _WHEEL_RADII = st.floats(0.6 * 0.33 * 620 / 1.8, 0.95 * 0.42 * 620 / 1.5)

    @settings(max_examples=300, deadline=None)
    @given(cx=st.floats(0.0, 640.0), cy=st.floats(0.0, 640.0), radius=st.one_of(_WHEEL_RADII, st.floats(1e-2, 1e4)))
    def test_wheel_probe_points_are_the_lattice_disc(self, cx, cy, radius):
        # Each of the probe's grid points tested on its own against the circle, on the wheel part's own grid.
        inst = PartInstance("rear_wheel", PartClass.WHEEL, (Circle(cx, cy, radius),))
        x0, y0, x1, y1 = inst.bounds()
        assert (x0, y0, x1, y1) == (cx - radius, cy - radius, cx + radius, cy + radius)
        rows = pointwise_row_masks(inst.shapes[0], _linspace(x0, x1, 24), _linspace(y0, y1, 24))
        assert sum(row << (24 * i) for i, row in enumerate(rows)) == synthetic._DISC
        assert _CoverageProbe([inst]).parts[0][2] == synthetic._DISC

    @pytest.mark.parametrize("grid", [synthetic._GRID, 2, 8, 100])
    def test_no_lattice_point_on_the_circle(self, grid):
        # On an even grid m = grid - 1 is odd: each (2j - m)² + (2i - m)² is 2 mod 8, and m² is 1 mod 8.
        m = grid - 1
        sums = {(2 * j - m) ** 2 + (2 * i - m) ** 2 for i in range(grid) for j in range(grid)}
        assert {total % 8 for total in sums} == {2}
        assert m * m % 8 == 1
        assert m * m not in sums

    def test_probe_coverage_matches_point_loop(self):
        rng = random.Random(11)
        for seed in range(30):
            instances = generate_scene(seed, 0, 0.0).part_instances()
            probe = _CoverageProbe(instances)
            # Rect edges on sample coordinates check that points on an edge count.
            xs = np.concatenate([self.reference_samples(inst)[0] for inst in instances]).tolist()
            ys = np.concatenate([self.reference_samples(inst)[1] for inst in instances]).tolist()
            # Each part's whole grid axes, and the midpoints between them: a side on one part's grid
            # coordinate mostly falls between the grid coordinates of a part overlapping it.
            grid_xs, grid_ys = [], []
            for inst in instances:
                x0, y0, x1, y1 = inst.bounds()
                for axis, lo, hi in ((grid_xs, x0, x1), (grid_ys, y0, y1)):
                    points = _linspace(lo, hi, 24)
                    axis += points + [(a + b) / 2.0 for a, b in zip(points, points[1:])]
            bike = generate_scene(seed, 0, 0.0).bicycle_bounds()
            nothing, everything = (bike[2] + 1.0, 0.0, 640.0, 640.0), bike
            for trial in range(40):
                pool_x, pool_y = (xs, ys) if trial % 2 else (grid_xs, grid_ys)
                rects = []
                for _ in range(rng.randint(1, 6)):
                    (x0, x1), (y0, y1) = sorted(rng.sample(pool_x, 2)), sorted(rng.sample(pool_y, 2))
                    rects.append((x0, y0, x1, y1))
                assert probe.coverage(rects) == self.reference_coverage(instances, rects)
                assert probe.coverage(rects + [nothing]) == probe.coverage(rects)
                assert probe.coverage(rects[:5] + [everything]) == 1.0
            assert self.reference_coverage(instances, [everything]) == 1.0
            assert probe.coverage([nothing]) == self.reference_coverage(instances, [nothing]) == 0.0

    @staticmethod
    def reference_visible_part(inst, occluders):
        # _visible_part as it was: every polygon through visible_pieces, every piece's points walked at once.
        visible, points = 0.0, []
        for poly in inst.polygons:
            pieces = geometry.visible_pieces(poly, occluders)
            visible += geometry.pieces_area(poly, pieces)
            points += [p for piece in pieces for p in piece]
        if not points:
            return visible, None
        return visible, BoundingBox(*geometry._bounds(points)).clamped(CANVAS_SIZE, CANVAS_SIZE)

    def test_visible_part_matches_clipping_every_polygon(self):
        # A polygon no occluder's bbox meets keeps its stored area and bounds: equal to its clipped pass, bit for bit.
        rng = random.Random(15)
        for seed in range(150):
            scene = generate_scene(seed, 1 + seed % 6, rng.uniform(0.0, 0.8))
            for inst in scene.part_instances():
                x0, y0, x1, y1 = inst.polygons[-1].bounds()
                # Rects that touch the last polygon's bbox at its right edge or top, and that miss it by one ulp.
                edges = [(x1, y0, x1 + 5.0, y1), (x0, y0 - 5.0, x1, y0)]
                edges += [(math.nextafter(x1, math.inf), y0, x1 + 5.0, y1), (x0, y0 - 5.0, x1, math.nextafter(y0, 0.0))]
                for rects in [scene.occluders, *([rect] for rect in edges), list(scene.occluders) + edges[:1]]:
                    occluders = [rect_polygon(*rect) for rect in rects]
                    assert _visible_part(inst, occluders) == self.reference_visible_part(inst, occluders)

    def test_visible_bbox_holds_every_raster_centre(self):
        # The raster samples the true circle and the exact bbox its inscribed
        # 128-gon, so a wheel's visible centre may lie up to the sagitta out.
        rng = random.Random(12)
        for seed in range(30):
            scene = generate_scene(seed, 1 + seed % 6, rng.uniform(0.0, 0.8))
            for inst in scene.part_instances():
                x0, y0, x1, y1 = inst.bounds()
                dx = (x1 - x0) / 256
                dy = (y1 - y0) / 256
                # Occluders with edges on cell centres: the raster counts such centres as covered.
                cx, cy = x0 + (rng.randrange(256) + 0.5) * dx, y0 + (rng.randrange(256) + 0.5) * dy
                tol = 1e-9
                if inst.part is PartClass.WHEEL:
                    tol += inst.shapes[0].radius * (1.0 - math.cos(math.pi / WHEEL_SEGMENTS))
                for occluders in (scene.occluders, ((cx, cy, x1, y1),), ((x0, y0, cx, cy),)):
                    raster = self.reference_visible_bbox(inst, occluders)
                    if raster is None:
                        continue
                    exact = _visible_part(inst, [rect_polygon(*r) for r in occluders])[1]
                    assert exact is not None
                    # Undo the raster's half-cell padding to get its outermost visible centres.
                    assert exact.x_min - tol <= raster.x_min + dx / 2.0
                    assert exact.y_min - tol <= raster.y_min + dy / 2.0
                    assert raster.x_max - dx / 2.0 <= exact.x_max + tol
                    assert raster.y_max - dy / 2.0 <= exact.y_max + tol


def _reference_number(mapping, key: str, path: str, point: int | None = None) -> float:
    # ingest._number before its exact-type dispatch.
    if not isinstance(mapping, dict) or key not in mapping:
        raise ingest._absent(mapping, key, ingest._point_path(path, point))
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ingest.ParseError(f"expected a number, got {value!r}", f"{ingest._point_path(path, point)}.{key}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ingest.ParseError(f"expected a finite number, got {value!r}", f"{ingest._point_path(path, point)}.{key}")
    return number


def _reference_prune(members):
    # classifier._prune_group before it sorted only a class over its limit.
    kept = []
    for part in PartClass:
        candidates = [(i, d) for i, d in members if d.part is part]
        candidates.sort(key=lambda item: (-item[1].confidence, -item[1].bbox.area(), item[0]))
        kept.extend(candidates[: PART_LIMITS[part]])
    kept.sort(key=lambda item: item[0])
    return tuple(d for _, d in kept)


def _reference_report_fields(contributions):
    # VisibilityReport.__post_init__'s normalising and sum before tuple(map(float, ...)) and chain.
    normalised = {part: tuple(float(v) for v in contributions.get(part, ())) for part in PartClass}
    visibility = min(max(ordered_sum(v for values in normalised.values() for v in values), 0.0), 100.0)
    return normalised, visibility, 100.0 - visibility, occlusion_band(100.0 - visibility)


def _outcome(call):
    # What a call gives, told apart to the bit: a float's hex and type, or an error's type, text and path.
    try:
        value = call()
    except Exception as exc:  # noqa: BLE001 - the type is part of the outcome
        return type(exc), str(exc), getattr(exc, "path", None)
    return type(value), value.hex() if isinstance(value, float) else repr(value)


_JSON_VALUES = st.one_of(
    st.integers(),
    st.integers(min_value=10**308, max_value=10**330),
    st.integers(min_value=-(10**330), max_value=-(10**308)),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.text(max_size=5),
    st.none(),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)


@st.composite
def _prune_members(draw):
    """Members of one cluster in index order, often over a class's limit, with ties in confidence and area."""
    # Boxes of equal area in different places, so only the index can break a tie between them.
    boxes = [BoundingBox(0, 0, 10, 20), BoundingBox(5, 5, 25, 15), BoundingBox(1, 2, 41, 7), BoundingBox(0, 0, 30, 30)]
    indices = sorted(draw(st.sets(st.integers(0, 60), max_size=9)))
    return [
        (i, PartDetection(draw(st.sampled_from(list(PartClass))), draw(st.sampled_from(boxes)),
                          draw(st.sampled_from([0.5, 0.75, 0.75, 0.9, 1.0]))))
        for i in indices
    ]


class TestDetectionLoopReferences:
    """The detection path's fast paths against the code they replaced, result for result."""

    NUMBERS = [
        0, 1, -7, 2**53 + 1, 10**308, 10**309, -(10**400),
        0.0, -0.0, 1.5, -2.25, 1e308, 5e-324, math.nan, math.inf, -math.inf,
        True, False, "1.5", "", None, [1.0], {"x": 1.0},
    ]

    @pytest.mark.parametrize("point", [None, 3])
    @pytest.mark.parametrize("value", NUMBERS, ids=lambda v: repr(v)[:12])
    def test_number_matches_isinstance_reference(self, value, point):
        for mapping in ({"x": value}, {"y": value}, [value], value):
            got = _outcome(lambda: ingest._number(mapping, "x", "predictions[2]", point))
            assert got == _outcome(lambda: _reference_number(mapping, "x", "predictions[2]", point))

    @settings(max_examples=300, deadline=None)
    @given(value=_JSON_VALUES)
    def test_number_matches_isinstance_reference_on_any_json_value(self, value):
        mapping = {"x": value}
        assert _outcome(lambda: ingest._number(mapping, "x", "image")) == _outcome(
            lambda: _reference_number(mapping, "x", "image")
        )

    def test_number_sees_the_types_the_decoder_makes(self):
        decoded = json.loads('[0, -0, 12, 1e400, -0.0, 0.5, 1' + "0" * 400 + ', true, null, "3"]')
        for value in decoded:
            mapping = {"x": value}
            assert _outcome(lambda: ingest._number(mapping, "x", "")) == _outcome(
                lambda: _reference_number(mapping, "x", "")
            )

    @settings(max_examples=200, deadline=None)
    @given(members=_prune_members())
    def test_prune_matches_sort_reference(self, members):
        got = _prune_group(members)
        expected = _reference_prune(members)
        assert len(got) == len(expected) and all(a is b for a, b in zip(got, expected))

    def test_prune_reference_cases_drop_and_tie(self):
        # The strategy above must reach classes over their limit, and ties that only the index breaks.
        wheel = PartDetection(PartClass.WHEEL, BoundingBox(0, 0, 10, 20), 0.75)
        twin = PartDetection(PartClass.WHEEL, BoundingBox(5, 5, 25, 15), 0.75)
        members = [(3, wheel), (8, twin), (9, wheel), (12, PartDetection(PartClass.FRAME, wheel.bbox, 0.9))]
        assert _prune_group(members) == _reference_prune(members) == (wheel, twin, members[3][1])
        assert _prune_group(members[1:]) == _reference_prune(members[1:]) == (twin, wheel, members[3][1])

    @pytest.mark.parametrize(
        "container",
        [list, tuple, iter, lambda v: (x for x in v), lambda v: map(float, v), lambda v: array.array("d", v)],
        ids=["list", "tuple", "iterator", "generator", "map", "array"],
    )
    def test_report_fields_match_reference_from_any_iterable(self, container):
        rng = random.Random(19)
        for _ in range(300):
            values = {
                part: [rng.choice((0, 1, 17, 41)) if rng.random() < 0.2 else rng.uniform(-5.0, 60.0)
                       for _ in range(rng.randint(0, PART_LIMITS[part]))]
                for part in PartClass if rng.random() < 0.9
            }
            report = VisibilityReport("img", 0, {part: container(v) for part, v in values.items()})
            parts, visibility, occlusion, band = _reference_report_fields({part: list(v) for part, v in values.items()})
            assert report.part_contributions == parts
            assert list(report.part_contributions) == list(PartClass)
            assert all(type(v) is float for vs in report.part_contributions.values() for v in vs)
            assert (report.visibility_pct.hex(), report.occlusion_pct.hex(), report.band) == (
                visibility.hex(), occlusion.hex(), band
            )

    def test_report_from_a_read_only_mapping(self):
        given = {PartClass.WHEEL: (41, 28.7), PartClass.HANDLEBAR: [1.0]}
        report = VisibilityReport("img", 0, MappingProxyType(given))
        assert report == VisibilityReport("img", 0, given)
        assert report.part_contributions == _reference_report_fields(given)[0]
