import bisect
import builtins
import dataclasses
import itertools
import json
import math
import operator
import random
from functools import reduce

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import EXPECTED_SCENARIOS, random_frame
from occlusion_meter import classifier
from occlusion_meter.classifier import (
    CalibrationError,
    _prune_group,
    calibrate_thresholds,
    classify_bicycle,
    classify_frame,
    group_parts,
    occlusion_band,
    part_visibility,
    wheel_visibility_fraction,
)
from occlusion_meter.ingest import parse_detections
from occlusion_meter.model import (
    BoundingBox,
    ClassifierConfig,
    DetectionFrame,
    FrameValidationError,
    OcclusionBand,
    PartClass,
    PartDetection,
)
from occlusion_meter.synthetic import BicycleTemplate, estimator_error, generate_scene, run_batch

CONFIG = ClassifierConfig()
S = 2.0**996


def det(part, x0, y0, w, h, conf=0.9):
    return PartDetection(part, BoundingBox(x0, y0, x0 + w, y0 + h), conf)


def frame_of(*detections, image_id="img"):
    return DetectionFrame(image_id, 640, 640, tuple(detections))


class TestWheelVisibilityFraction:
    @pytest.mark.parametrize(
        "w,h,fraction",
        [
            (160, 160, 1.0),  # square
            (100, 50, 0.5),
            (100, 70, 0.7),
            (150, 60, 0.4),
            (100, 85, 1.0),  # exactly at the top threshold
            (100, 84, 0.7),  # just below it
            (100, 60, 0.7),  # exactly at the second threshold
            (100, 59, 0.5),
            (100, 45, 0.5),  # exactly at the third threshold
            (100, 44, 0.4),
            (100, 1, 0.4),  # extreme sliver still classified
        ],
    )
    def test_quantization(self, w, h, fraction):
        assert wheel_visibility_fraction(BoundingBox(0, 0, w, h), CONFIG) == fraction

    def test_orientation_free(self):
        assert wheel_visibility_fraction(BoundingBox(0, 0, 50, 100), CONFIG) == 0.5

    def test_custom_fraction_table(self):
        config = ClassifierConfig(wheel_fractions=((0.9, 1.0), (0.0, 0.25)))
        assert wheel_visibility_fraction(BoundingBox(0, 0, 100, 95), config) == 1.0
        assert wheel_visibility_fraction(BoundingBox(0, 0, 100, 89), config) == 0.25


class TestPartVisibility:
    def test_frame_gets_flat_share(self):
        assert part_visibility(det(PartClass.FRAME, 0, 0, 100, 50), CONFIG) == 17.0

    def test_handlebar_gets_flat_share(self):
        assert part_visibility(det(PartClass.HANDLEBAR, 0, 0, 80, 40), CONFIG) == 1.0

    def test_wheel_scaled_by_fraction(self):
        assert part_visibility(det(PartClass.WHEEL, 0, 0, 100, 100), CONFIG) == 41.0
        assert part_visibility(det(PartClass.WHEEL, 0, 0, 100, 50), CONFIG) == pytest.approx(20.5)
        assert part_visibility(det(PartClass.WHEEL, 0, 0, 150, 60), CONFIG) == pytest.approx(16.4)


def reference_group_parts(frame, config):
    """``group_parts`` as the all-pairs loop it replaced: every pair of boxes goes through ``gap_to``."""
    detections = list(frame.detections)
    if not detections:
        return []
    wheel_diagonals = [d.bbox.diagonal() for d in detections if d.part is PartClass.WHEEL]
    reference = max(wheel_diagonals) if wheel_diagonals else max(d.bbox.diagonal() for d in detections)
    limit = config.grouping_distance_factor * reference
    parent = list(range(len(detections)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(len(detections)):
        for j in range(i + 1, len(detections)):
            if detections[i].bbox.gap_to(detections[j].bbox) <= limit:
                parent[find(i)] = find(j)
    clusters = {}
    for i, d in enumerate(detections):
        clusters.setdefault(find(i), []).append((i, d))
    return [_prune_group(members) for members in sorted(clusters.values(), key=lambda m: m[0][0])]


@st.composite
def sweep_frames(draw):
    """Frames on a coarse grid, so boxes touch, share x_min and sit exactly the limit apart; some near 1e300."""
    scale = draw(st.sampled_from([1.0, 0.5, 0.1, 1e300 / 64, 2.0**-30]))
    cell = st.integers(0, 40)
    detections = []
    for _ in range(draw(st.integers(0, 14))):
        x0, y0 = draw(cell), draw(cell)
        w, h = draw(st.integers(0, 12)), draw(st.integers(0, 12))
        part = draw(st.sampled_from(list(PartClass)))
        conf = draw(st.sampled_from([0.5, 0.7, 0.9]))
        bbox = BoundingBox(x0 * scale, y0 * scale, (x0 + w) * scale, (y0 + h) * scale)
        detections.append(PartDetection(part, bbox, conf))
    return DetectionFrame("sweep", 640, 640, tuple(detections))


class TestGroupParts:
    def test_single_bicycle(self):
        frame = frame_of(
            det(PartClass.WHEEL, 90, 340, 160, 160),
            det(PartClass.WHEEL, 375, 360, 150, 105),
            det(PartClass.FRAME, 180, 240, 260, 180),
            det(PartClass.HANDLEBAR, 390, 210, 80, 40),
        )
        groups = group_parts(frame, CONFIG)
        assert len(groups) == 1
        assert len(groups[0]) == 4

    def test_two_separate_bicycles(self):
        # Wheel diagonal is 100*sqrt(2) ~ 141, so the link limit is ~212.
        # The two pairs sit 400 px apart; within each pair the gap is 50.
        left = [det(PartClass.WHEEL, 0, 500, 100, 100), det(PartClass.WHEEL, 150, 500, 100, 100)]
        right = [det(PartClass.WHEEL, 0 + 500, 100, 100, 100), det(PartClass.WHEEL, 150 + 490, 100, 100, 100)]
        frame = frame_of(*(left + right))
        limit = CONFIG.grouping_distance_factor * math.hypot(100, 100)
        # sanity-check the fixture by exhaustive pairwise gaps
        for a, b in itertools.product(left, right):
            assert a.bbox.gap_to(b.bbox) > limit
        for pair in (left, right):
            assert pair[0].bbox.gap_to(pair[1].bbox) <= limit
        groups = group_parts(frame, CONFIG)
        assert len(groups) == 2
        assert all(len(g) == 2 for g in groups)

    def test_prunes_to_two_best_wheels(self):
        frame = frame_of(
            det(PartClass.WHEEL, 0, 0, 100, 100, conf=0.9),
            det(PartClass.WHEEL, 50, 0, 100, 100, conf=0.8),
            det(PartClass.WHEEL, 100, 0, 100, 100, conf=0.7),
        )
        (group,) = group_parts(frame, CONFIG)
        assert [d.confidence for d in group] == [0.9, 0.8]

    def test_prune_tie_broken_by_area_then_index(self):
        frame = frame_of(
            det(PartClass.FRAME, 0, 0, 50, 50, conf=0.8),
            det(PartClass.FRAME, 10, 10, 100, 100, conf=0.8),
        )
        (group,) = group_parts(frame, CONFIG)
        assert group[0].bbox.area() == 10000
        frame = frame_of(
            det(PartClass.FRAME, 0, 0, 50, 50, conf=0.8),
            det(PartClass.FRAME, 10, 10, 50, 50, conf=0.8),
        )
        (group,) = group_parts(frame, CONFIG)
        assert group[0].bbox.x_min == 0

    def test_no_wheels_falls_back_to_largest_part(self):
        frame = frame_of(
            det(PartClass.FRAME, 0, 0, 200, 100),
            det(PartClass.HANDLEBAR, 250, 0, 40, 20),
        )
        groups = group_parts(frame, CONFIG)
        assert len(groups) == 1

    def test_empty_frame(self):
        assert group_parts(frame_of(), CONFIG) == []

    @pytest.mark.parametrize(
        "boxes, factor, expected",
        [
            # 3-4-5 wheels: diagonal 5, so with factor 1 the limit is exactly 5.
            ([(0, 0, 3, 4), (8, 0, 11, 4)], 1.0, 1),  # x gap 5 == limit joins
            ([(0, 0, 3, 4), (6, 8, 9, 12)], 1.0, 1),  # hypot(3, 4) == limit joins
            ([(0, 0, 3, 4), (8.000000000000002, 0, 11, 4)], 1.0, 2),  # one ulp past the limit
            ([(0, 0, 3, 4), (3, 0, 6, 4), (6, 0, 9, 4)], 0.0001, 1),  # touching chain
            ([(5, 0, 8, 4), (5, 100, 8, 104), (5, 50, 8, 54)], 1.0, 3),  # equal x_min, apart in y
            # Near 1e300: S = 2**996 keeps the 3-4-5 arithmetic exact.
            ([(S, 0, 4 * S, 4 * S), (9 * S, 0, 12 * S, 4 * S)], 1.0, 1),  # x gap 5S == limit
            ([(S, 0, 4 * S, 4 * S), (9.5 * S, 0, 12 * S, 4 * S)], 1.0, 2),
        ],
    )
    def test_sweep_edge_cases(self, boxes, factor, expected):
        frame = frame_of(*(PartDetection(PartClass.WHEEL, BoundingBox(*b), 0.9) for b in boxes))
        config = ClassifierConfig(grouping_distance_factor=factor)
        groups = group_parts(frame, config)
        assert len(groups) == expected
        assert groups == reference_group_parts(frame, config)

    def test_sweep_tests_only_boxes_within_reach(self, monkeypatch):
        # Ten 3x4 wheels in a row, 3 px apart; the limit (5) reaches only the next box.
        calls = []
        gap_to = BoundingBox.gap_to
        monkeypatch.setattr(BoundingBox, "gap_to", lambda a, b: calls.append(1) or gap_to(a, b))
        frame = frame_of(*(det(PartClass.WHEEL, 6 * i, 0, 3, 4) for i in reversed(range(10))))
        (group,) = group_parts(frame, ClassifierConfig(grouping_distance_factor=1.0))  # one chain
        assert len(calls) == 9  # of 45 pairs

    @given(sweep_frames(), st.sampled_from([0.25, 1.0, 1.5, 3.0]))
    @settings(max_examples=300, deadline=None)
    def test_sweep_matches_all_pairs(self, frame, factor):
        config = ClassifierConfig(grouping_distance_factor=factor)
        assert group_parts(frame, config) == reference_group_parts(frame, config)


class TestClassifyBicycle:
    def test_fully_visible(self):
        report = classify_bicycle(
            [
                det(PartClass.WHEEL, 90, 340, 160, 160),
                det(PartClass.WHEEL, 375, 345, 150, 150),
                det(PartClass.FRAME, 180, 240, 260, 180),
                det(PartClass.HANDLEBAR, 390, 210, 80, 40),
            ],
            CONFIG,
        )
        assert report.visibility_pct == 100.0
        assert report.occlusion_pct == 0.0
        assert report.band is OcclusionBand.LOW_OR_NONE

    def test_lone_half_wheel(self):
        report = classify_bicycle([det(PartClass.WHEEL, 0, 0, 150, 75)], CONFIG)
        assert report.visibility_pct == pytest.approx(20.5)
        assert report.occlusion_pct == pytest.approx(79.5)
        assert report.band is OcclusionBand.HEAVY

    def test_missing_handlebar(self):
        report = classify_bicycle(
            [
                det(PartClass.WHEEL, 0, 0, 160, 160),
                det(PartClass.WHEEL, 200, 0, 150, 75),
                det(PartClass.FRAME, 100, 0, 260, 180),
            ],
            CONFIG,
        )
        assert report.visibility_pct == pytest.approx(78.5)
        assert report.occlusion_pct == pytest.approx(21.5)

    def test_empty_group_fully_occluded(self):
        report = classify_bicycle([], CONFIG)
        assert report.visibility_pct == 0.0
        assert report.occlusion_pct == 100.0
        assert report.band is OcclusionBand.SEVERE


class TestOcclusionBand:
    @pytest.mark.parametrize(
        "value,band",
        [
            (0.0, OcclusionBand.LOW_OR_NONE),
            (9.999, OcclusionBand.LOW_OR_NONE),
            (10.0, OcclusionBand.PARTIAL),
            (24.6, OcclusionBand.PARTIAL),
            (39.999, OcclusionBand.PARTIAL),
            (40.0, OcclusionBand.HEAVY),
            (79.5, OcclusionBand.HEAVY),
            (80.0, OcclusionBand.HEAVY),
            (80.001, OcclusionBand.SEVERE),
            (100.0, OcclusionBand.SEVERE),
        ],
    )
    def test_boundaries(self, value, band):
        assert occlusion_band(value) is band

    @pytest.mark.parametrize("value", [-0.001, 100.001, math.nan])
    def test_out_of_range_rejected(self, value):
        with pytest.raises(ValueError):
            occlusion_band(value)

    @given(st.floats(min_value=0, max_value=100))
    @settings(max_examples=300)
    def test_total_on_domain(self, value):
        assert occlusion_band(value) in OcclusionBand


class TestClassifyFrame:
    def test_reference_scenario(self):
        frame = frame_of(
            det(PartClass.WHEEL, 90, 340, 160, 160, conf=0.92),
            det(PartClass.WHEEL, 375, 367.5, 150, 105, conf=0.88),
            det(PartClass.FRAME, 180, 240, 260, 180, conf=0.81),
            det(PartClass.HANDLEBAR, 390, 210, 80, 40, conf=0.76),
            image_id="scenario_a",
        )
        (report,) = classify_frame(frame)
        assert report.visibility_pct == pytest.approx(87.7, abs=0.05)
        assert report.occlusion_pct == pytest.approx(12.3, abs=0.05)
        assert report.band is OcclusionBand.PARTIAL

    def test_all_below_threshold(self):
        frame = frame_of(
            det(PartClass.WHEEL, 0, 0, 100, 100, conf=0.4),
            det(PartClass.FRAME, 50, 0, 100, 100, conf=0.49),
        )
        assert classify_frame(frame) == []

    def test_confidence_threshold_inclusive(self):
        frame = frame_of(det(PartClass.WHEEL, 0, 0, 100, 100, conf=0.5))
        assert len(classify_frame(frame)) == 1

    def test_two_bicycles_reported_by_visibility(self):
        bike1 = [
            det(PartClass.WHEEL, 0, 500, 100, 100),
            det(PartClass.WHEEL, 140, 500, 100, 100),
            det(PartClass.FRAME, 60, 450, 140, 100),
        ]
        bike2 = [det(PartClass.WHEEL, 520, 0, 100, 50)]
        reports = classify_frame(frame_of(*(bike1 + bike2)))
        assert len(reports) == 2
        assert reports[0].visibility_pct == pytest.approx(99.0)
        assert reports[1].visibility_pct == pytest.approx(20.5)
        assert reports[0].visibility_pct >= reports[1].visibility_pct

    @pytest.mark.parametrize(
        "bbox, message",
        [
            (BoundingBox(math.nan, 10, 100, 100), "non-finite bbox coordinate at index 1"),
            (BoundingBox(50, 10, 50, 100), "zero-width bbox at index 1"),
            (BoundingBox(700, 10, 800, 100), "zero-width bbox at index 1"),  # off canvas: clamps to zero width
        ],
        ids=["nan", "zero_width", "off_canvas"],
    )
    def test_unvalidated_frames_are_checked(self, bbox, message):
        good = det(PartClass.WHEEL, 0, 0, 100, 100)
        bad = PartDetection(PartClass.WHEEL, bbox, 0.9)
        document = json.dumps({
            "image": {"id": "img", "width": 640, "height": 640},
            "predictions": [{"class": "wheel", "confidence": 0.9, "x_min": 0, "y_min": 0, "x_max": 100, "y_max": 100}],
        })
        parsed = parse_detections(document)
        assert parsed.validated
        for frame in (frame_of(good, bad), dataclasses.replace(parsed, detections=(good, bad))):
            assert not frame.validated
            with pytest.raises(FrameValidationError) as info:
                classify_frame(frame)
            assert info.value.errors == [message]

    def test_reports_carry_image_id(self, scenario_frames):
        for frame in scenario_frames:
            for report in classify_frame(frame):
                assert report.image_id == frame.image_id
                expected = EXPECTED_SCENARIOS[frame.image_id]
                assert report.visibility_pct == pytest.approx(expected[0], abs=0.05)


# Strategy for structurally valid detections on a 640x640 canvas.
@st.composite
def detection_strategy(draw):
    part = draw(st.sampled_from(list(PartClass)))
    x0 = draw(st.floats(min_value=0, max_value=600))
    y0 = draw(st.floats(min_value=0, max_value=600))
    w = draw(st.floats(min_value=1, max_value=640 - x0))
    h = draw(st.floats(min_value=1, max_value=640 - y0))
    conf = draw(st.floats(min_value=0, max_value=1))
    return PartDetection(part, BoundingBox(x0, y0, x0 + w, y0 + h), conf)


@st.composite
def frame_strategy(draw):
    detections = draw(st.lists(detection_strategy(), max_size=8))
    return DetectionFrame("prop", 640, 640, tuple(detections))


class TestClassifierProperties:
    @given(frame_strategy())
    @settings(max_examples=300, deadline=None)
    def test_conservation_and_bounds(self, frame):
        for report in classify_frame(frame):
            assert abs(report.visibility_pct + report.occlusion_pct - 100.0) <= 1e-9
            assert 0.0 <= report.visibility_pct <= 100.0

    @given(frame_strategy())
    @settings(max_examples=300, deadline=None)
    def test_contributions_quantized(self, frame):
        wheel_values = {41.0 * f for _, f in CONFIG.wheel_fractions}
        for report in classify_frame(frame):
            for value in report.part_contributions[PartClass.WHEEL]:
                assert value in wheel_values
            for value in report.part_contributions[PartClass.FRAME]:
                assert value == 17.0
            for value in report.part_contributions[PartClass.HANDLEBAR]:
                assert value == 1.0

    @given(frame_strategy(), st.sampled_from([0.25, 0.5, 2.0, 4.0, 8.0]))
    @settings(max_examples=200, deadline=None)
    def test_scale_invariance(self, frame, scale):
        # Power-of-two scales keep the ratio arithmetic exact in floats.
        scaled = DetectionFrame(
            frame.image_id,
            int(640 * max(scale, 1.0)),
            int(640 * max(scale, 1.0)),
            tuple(
                PartDetection(
                    d.part,
                    BoundingBox(
                        d.bbox.x_min * scale,
                        d.bbox.y_min * scale,
                        d.bbox.x_max * scale,
                        d.bbox.y_max * scale,
                    ),
                    d.confidence,
                )
                for d in frame.detections
            ),
        )
        original = [(r.visibility_pct, r.occlusion_pct) for r in classify_frame(frame)]
        rescaled = [(r.visibility_pct, r.occlusion_pct) for r in classify_frame(scaled)]
        assert original == rescaled

    def test_group_deletion_monotonicity(self):
        rng = random.Random(99)
        for i in range(300):
            frame = random_frame(rng, image_id=f"mono-{i}")
            config = CONFIG
            for report_index, group in enumerate(group_parts(frame, config)):
                base = classify_bicycle(group, config).visibility_pct
                for drop in range(len(group)):
                    reduced = group[:drop] + group[drop + 1 :]
                    assert classify_bicycle(reduced, config).visibility_pct <= base + 1e-12

    def test_full_visibility_requires_full_part_set(self):
        rng = random.Random(41)
        seen_full = 0
        full_group = [
            det(PartClass.WHEEL, 0, 0, 100, 100),
            det(PartClass.WHEEL, 150, 0, 120, 120),
            det(PartClass.FRAME, 50, 0, 120, 60),
            det(PartClass.HANDLEBAR, 200, 0, 100, 40),
        ]
        for trial in range(500):
            if trial % 50 == 0:
                group = list(full_group)
            else:
                count = rng.randint(0, 4)
                group = []
                for _ in range(count):
                    part = rng.choice(list(PartClass))
                    w = rng.choice([100, 120])
                    h = rng.choice([40, 60, 90, 100, 120])
                    group.append(det(part, 0, 0, w, h))
            # apply the group limits the classifier guarantees
            pruned = []
            per_class = {p: 0 for p in PartClass}
            limits = {PartClass.WHEEL: 2, PartClass.FRAME: 1, PartClass.HANDLEBAR: 1}
            for d in group:
                if per_class[d.part] < limits[d.part]:
                    pruned.append(d)
                    per_class[d.part] += 1
            report = classify_bicycle(pruned, CONFIG)
            wheels = [d for d in pruned if d.part is PartClass.WHEEL]
            full_set = (
                len(wheels) == 2
                and all(wheel_visibility_fraction(d.bbox, CONFIG) == 1.0 for d in wheels)
                and per_class[PartClass.FRAME] == 1
                and per_class[PartClass.HANDLEBAR] == 1
            )
            assert (report.visibility_pct == 100.0) == full_set
            seen_full += full_set
        assert seen_full > 0


def _ratio_bbox(ratio_percent: int) -> BoundingBox:
    # integer width/height give an exactly representable ratio i/100
    return BoundingBox(0, 0, 100, ratio_percent)


def _default_fraction(ratio: float) -> float:
    for threshold, fraction in CONFIG.wheel_fractions:
        if ratio >= threshold:
            return fraction
    raise AssertionError


def _exhaustive_thresholds(labeled, grid_step):
    # Reference search over every grid triple t1 > t2 > t3: the most correct
    # labels, then the largest margin, then the smallest triple.
    ratios = [bbox.aspect_ratio() for bbox, _ in labeled]
    grid = [round(i * grid_step, 12) for i in range(1, int(round(1.0 / grid_step)) + 1)]
    best_key, best = None, None
    for t3, t2, t1 in itertools.combinations(grid, 3):
        correct = sum(
            (1.0 if r >= t1 else 0.7 if r >= t2 else 0.5 if r >= t3 else 0.4) == fraction
            for r, (_, fraction) in zip(ratios, labeled)
        )
        # Left to right, as calibrate_thresholds sums: sum() compensates on Python 3.12+.
        margin = reduce(operator.add, (min(abs(r - t1), abs(r - t2), abs(r - t3)) for r in ratios), 0.0)
        key = (correct, margin)
        if best_key is None or key > best_key or (key == best_key and (t1, t2, t3) < best):
            best_key, best = key, (t1, t2, t3)
    return best


def _loop_thresholds(labeled, grid_step):
    # calibrate_thresholds before its bisect and max rewrite: per-grid-value label scans and a
    # nested-loop tie-break, with its margin sum made left to right (what sum() does before 3.12).
    fractions = (1.0, 0.7, 0.5, 0.4)
    ratios = [bbox.aspect_ratio() for bbox, _ in labeled]
    expected = [fraction for _, fraction in labeled]
    count = int(round(1.0 / grid_step))
    grid = [round(i * grid_step, 12) for i in range(1, count + 1) if round(i * grid_step, 12) <= 1.0]
    n = len(grid)
    f1, f2, f3, f4 = fractions

    def below(fraction, t):
        return sum(1 for r, e in zip(ratios, expected) if e == fraction and r < t)

    def at_or_above(fraction, t):
        return sum(1 for r, e in zip(ratios, expected) if e == fraction and r >= t)

    a = [at_or_above(f1, t) + below(f2, t) for t in grid]
    b = [below(f3, t) - below(f2, t) for t in grid]
    c = [below(f4, t) - below(f3, t) for t in grid]
    c_best = list(itertools.accumulate(c, max))
    best_correct = max(a[i1] + b[i2] + c_best[i2 - 1] for i1 in range(2, n) for i2 in range(1, i1))

    def margin(t1, t2, t3):
        total = 0.0
        for r in ratios:
            total += min(abs(r - t1), abs(r - t2), abs(r - t3))
        return total

    best, best_margin = None, -1.0
    for i1 in range(2, n):
        for i2 in range(1, i1):
            partial = a[i1] + b[i2]
            for i3 in range(i2):
                if partial + c[i3] != best_correct:
                    continue
                triple = (grid[i1], grid[i2], grid[i3])
                m = margin(*triple)
                if m > best_margin:
                    best, best_margin = triple, m
    return best


def _max_thresholds(labeled, grid_step):
    # calibrate_thresholds before it skipped (t1, t2) pairs by their bound: every tied triple's
    # margin, and max, which keeps the first of equal margins in ascending triple order.
    fractions = (1.0, 0.7, 0.5, 0.4)
    ratios = [bbox.aspect_ratio() for bbox, _ in labeled]
    count = int(round(1.0 / grid_step))
    grid = [round(i * grid_step, 12) for i in range(1, count + 1) if round(i * grid_step, 12) <= 1.0]
    n = len(grid)
    r1, r2, r3, r4 = (sorted(bbox.aspect_ratio() for bbox, f in labeled if f == fraction) for fraction in fractions)
    a = [len(r1) - bisect.bisect_left(r1, t) + bisect.bisect_left(r2, t) for t in grid]
    b = [bisect.bisect_left(r3, t) - bisect.bisect_left(r2, t) for t in grid]
    c = [bisect.bisect_left(r4, t) - bisect.bisect_left(r3, t) for t in grid]
    c_best = list(itertools.accumulate(c, max))
    best_correct = max(a[i1] + b[i2] + c_best[i2 - 1] for i1 in range(2, n) for i2 in range(1, i1))

    def margin(triple):
        t1, t2, t3 = triple
        return reduce(operator.add, (min(abs(r - t1), abs(r - t2), abs(r - t3)) for r in ratios), 0.0)

    tied = (
        (grid[i1], grid[i2], grid[i3])
        for i1 in range(2, n)
        for i2 in range(1, i1)
        if a[i1] + b[i2] + c_best[i2 - 1] == best_correct
        for i3 in range(i2)
        if a[i1] + b[i2] + c[i3] == best_correct
    )
    return max(tied, key=margin)


@st.composite
def calibration_labels(draw):
    """Labels with ratios on and off the percent grid, repeats and few labels, where most triples tie."""
    heights = draw(st.lists(st.one_of(st.integers(1, 100), st.floats(1.0, 200.0)), min_size=1, max_size=12))
    labeled = [(BoundingBox(0, 0, 100, h), draw(st.sampled_from((1.0, 0.7, 0.5, 0.4)))) for h in heights]
    return labeled + draw(st.lists(st.sampled_from(labeled), max_size=3))


_builtin_sum = builtins.sum


def _compensated_sum(iterable, start=0):
    # CPython 3.12's sum(): ints exactly, floats with Neumaier compensation.
    items = list(iterable)
    if all(type(v) is int for v in items):
        return _builtin_sum(items, start)
    total, compensation = float(start), 0.0
    for x in items:
        t = total + x
        compensation += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + compensation if compensation and math.isfinite(compensation) else total


def _int_only_sum(iterable, start=0):
    items = list(iterable)
    if any(type(v) is not int for v in [start, *items]):
        raise AssertionError(f"sum() over a float term: {items}")
    return _builtin_sum(items, start)


def test_report_and_batch_sums_independent_of_sum(monkeypatch):
    # Both sums are float-noise apart under Python 3.12's compensated sum(); they must stay in-order sums.
    record = estimator_error(generate_scene(21, 3, 0.4))
    config = ClassifierConfig(wheel_fractions=((0.85, 1.0), (0.6, 0.28), (0.0, 0.08)))
    frame = frame_of(
        det(PartClass.WHEEL, 0, 100, 100, 70),
        det(PartClass.WHEEL, 200, 100, 100, 30),
        det(PartClass.FRAME, 50, 50, 200, 80),
        det(PartClass.HANDLEBAR, 230, 30, 30, 15),
    )
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    assert [r.visibility_pct for r in classify_frame(frame, config)] == [32.760000000000005]
    assert run_batch(50, 42).mean_abs_error == 8.76900207546171
    # The oracle's part areas and the template's area total are in-order sums too: no float reaches sum().
    monkeypatch.setattr(builtins, "sum", _int_only_sum)
    BicycleTemplate()
    assert estimator_error(generate_scene(21, 3, 0.4)) == record


class TestCalibration:
    @pytest.mark.parametrize("grid_step", [0.1, 0.05])
    def test_matches_exhaustive_search_on_random_labels(self, grid_step):
        rng = random.Random(int(grid_step * 100))
        for _ in range(30):
            # Heights on the percent grid put ratios exactly on thresholds;
            # the others fall between grid values.
            heights = rng.sample(range(1, 101), rng.randint(1, 12))
            heights += [rng.uniform(1, 100) for _ in range(rng.randint(0, 12))]
            labeled = [(BoundingBox(0, 0, 100, h), rng.choice((1.0, 0.7, 0.5, 0.4))) for h in heights]
            config = calibrate_thresholds(labeled, grid_step=grid_step)
            assert tuple(t for t, _ in config.wheel_fractions[:3]) == _exhaustive_thresholds(labeled, grid_step)

    def test_matches_loop_reference_on_random_labels(self):
        rng = random.Random(16)
        decimal_steps = (0.02, 0.025, 0.04, 0.05, 0.1, 0.125, 0.2, 0.25, 0.3)
        for _ in range(400):
            step = rng.choice(decimal_steps) if rng.random() < 0.5 else rng.uniform(0.02, 0.3)
            # Percent heights put ratios on the grid, heights over 100 give ratios 100 / h, and
            # repeated labels count twice.
            heights = rng.sample(range(1, 101), rng.randint(1, 15))
            heights += [rng.uniform(1, 200) for _ in range(rng.randint(0, 10))]
            labeled = [(BoundingBox(0, 0, 100, h), rng.choice((1.0, 0.7, 0.5, 0.4))) for h in heights]
            labeled += rng.choices(labeled, k=rng.randint(0, 5))
            config = calibrate_thresholds(labeled, grid_step=step)
            assert tuple(t for t, _ in config.wheel_fractions[:3]) == _loop_thresholds(labeled, step)

    @settings(max_examples=120, deadline=None)
    @given(
        labeled=calibration_labels(),
        step=st.one_of(st.sampled_from((0.02, 0.025, 0.05, 0.1, 0.125, 0.25)), st.floats(0.02, 0.3)),
    )
    def test_matches_every_tied_margin_reference(self, labeled, step):
        # One ratio with two fractions is a CalibrationError, so such label sets are left out.
        ratios = {}
        assume(all(ratios.setdefault(bbox.aspect_ratio(), f) == f for bbox, f in labeled))
        config = calibrate_thresholds(labeled, grid_step=step)
        assert tuple(t for t, _ in config.wheel_fractions[:3]) == _max_thresholds(labeled, step)

    def test_single_label_at_finest_step_matches_every_tied_margin(self):
        # Every triple that splits the label right ties on the count: the case the pair bound is for.
        labeled = [(BoundingBox(0, 0, 100, 70), 0.7)]
        config = calibrate_thresholds(labeled, grid_step=0.005)
        assert tuple(t for t, _ in config.wheel_fractions[:3]) == _max_thresholds(labeled, 0.005)

    def test_margin_tie_break_independent_of_sum(self, monkeypatch):
        # A float-noise margin tie: Python 3.12's compensated sum() would pick (1.0, 0.6, 0.55).
        labeled = [(BoundingBox(0, 0, 100, h), f) for h, f in ((62, 0.7), (81, 0.7), (6, 0.4), (82, 0.7))]
        expected = calibrate_thresholds(labeled, grid_step=0.05).wheel_fractions
        monkeypatch.setattr(classifier, "sum", _compensated_sum, raising=False)
        assert calibrate_thresholds(labeled, grid_step=0.05).wheel_fractions == expected
        assert [t for t, _ in expected] == [1.0, 0.25, 0.2, 0.0]

    def test_recovers_defaults_from_dense_labels(self):
        labeled = [(_ratio_bbox(i), _default_fraction(i / 100)) for i in range(1, 101)]
        config = calibrate_thresholds(labeled, grid_step=0.01)
        assert [t for t, _ in config.wheel_fractions] == [0.85, 0.6, 0.45, 0.0]

    def test_recovers_defaults_from_boundary_labels(self):
        ratios = [85, 84, 60, 59, 45, 44]
        labeled = [(_ratio_bbox(i), _default_fraction(i / 100)) for i in ratios]
        config = calibrate_thresholds(labeled, grid_step=0.01)
        assert [t for t, _ in config.wheel_fractions] == [0.85, 0.6, 0.45, 0.0]

    def test_conflicting_labels_rejected(self):
        labeled = [(_ratio_bbox(70), 1.0), (_ratio_bbox(70), 0.5)]
        with pytest.raises(CalibrationError, match="conflicting labels"):
            calibrate_thresholds(labeled)

    def test_bbox_without_aspect_ratio_rejected(self):
        # Both sides overflow to inf, so the ratio is NaN.
        labeled = [(BoundingBox(-1e308, -1e308, 1e308, 1e308), 1.0), (_ratio_bbox(50), 0.5)]
        with pytest.raises(CalibrationError, match="no aspect ratio"):
            calibrate_thresholds(labeled, grid_step=0.1)

    @pytest.mark.parametrize("grid_step", [1e-9, 0.0049, 0.0])
    def test_grid_step_below_limit_rejected(self, grid_step):
        # Checked before the grid of round(1 / grid_step) values is built.
        with pytest.raises(ValueError, match=r"^grid_step must be in \[0\.005, 0\.5\), got "):
            calibrate_thresholds([(_ratio_bbox(70), 0.7)], grid_step=grid_step)

    def test_grid_of_two_values_rejected(self):
        # 0.49 is inside the step limit, but its grid holds only 0.49 and 0.98: three thresholds need three values.
        with pytest.raises(ValueError, match="^grid_step too coarse: fewer than 3 candidate thresholds$"):
            calibrate_thresholds([(_ratio_bbox(70), 0.7)], grid_step=0.49)

    def test_grid_step_at_limit_accepted(self):
        labeled = [(_ratio_bbox(i), _default_fraction(i / 100)) for i in range(1, 101)]
        config = calibrate_thresholds(labeled, grid_step=0.005)
        assert all(wheel_visibility_fraction(bbox, config) == fraction for bbox, fraction in labeled)

    def test_unknown_fraction_rejected(self):
        with pytest.raises(CalibrationError, match="not one of the configured fractions"):
            calibrate_thresholds([(_ratio_bbox(70), 0.6)])

    def test_single_example_matches_brute_force(self):
        labeled = [(_ratio_bbox(90), 1.0)]
        config = calibrate_thresholds(labeled, grid_step=0.05)
        ratios = [bbox.aspect_ratio() for bbox, _ in labeled]
        expected = [f for _, f in labeled]

        # independent brute force over the same grid and objective
        grid = [round(i * 0.05, 12) for i in range(1, 21)]
        best = None
        for t1 in grid:
            for t2 in grid:
                for t3 in grid:
                    if not t1 > t2 > t3:
                        continue
                    wrong = 0
                    for r, e in zip(ratios, expected):
                        got = 1.0 if r >= t1 else 0.7 if r >= t2 else 0.5 if r >= t3 else 0.4
                        wrong += got != e
                    margin = sum(min(abs(r - t1), abs(r - t2), abs(r - t3)) for r in ratios)
                    key = (-wrong, margin, tuple(-t for t in (t1, t2, t3)))
                    if best is None or key > best[0]:
                        best = (key, (t1, t2, t3))
        thresholds = tuple(t for t, _ in config.wheel_fractions)[:3]
        assert best is not None
        assert thresholds == best[1]
        assert best[0][0] == 0  # zero misclassifications

    def test_held_out_grid_classifies_identically(self):
        labeled = [(_ratio_bbox(i), _default_fraction(i / 100)) for i in range(1, 101)]
        config = calibrate_thresholds(labeled, grid_step=0.01)
        rng = random.Random(3)
        for _ in range(1000):
            ratio = rng.uniform(0.001, 1.0)
            bbox = BoundingBox(0, 0, 1000, 1000 * ratio)
            assert wheel_visibility_fraction(bbox, config) == wheel_visibility_fraction(bbox, CONFIG)
