"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import json
import math
import random
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    EXPECTED_SCENARIOS,
    FIXTURE_DIR,
    mc_points_in_polygon,
    random_convex_vertices,
    random_frame,
)
from occlusion_meter.classifier import (
    calibrate_thresholds,
    classify_bicycle,
    classify_frame,
    group_parts,
    occlusion_band,
    wheel_visibility_fraction,
)
from occlusion_meter.geometry import ConvexPolygon, Polygon, circle_polygon, clip, visible_area
from occlusion_meter.ingest import load_detections
from occlusion_meter.model import (
    BoundingBox,
    ClassifierConfig,
    DetectionFrame,
    OcclusionBand,
    PartClass,
    PartDetection,
    validate_frame,
)
from occlusion_meter.synthetic import _sample_rects, generate_scene, ground_truth, run_batch

CONFIG = ClassifierConfig()
REGRESSION_FIXTURE = Path(__file__).resolve().parent / "fixtures" / "synth_regression.json"


def test_criterion_1_reference_scenarios_reproduced():
    """Nine canned detection fixtures classify to the expected value pairs."""
    started = time.perf_counter()
    seen = {}
    for path in sorted(FIXTURE_DIR.glob("*.json")):
        frame = load_detections(path)
        reports = classify_frame(frame)
        assert len(reports) == 1
        seen[frame.image_id] = reports[0]
    elapsed = time.perf_counter() - started

    assert set(seen) == set(EXPECTED_SCENARIOS)
    for image_id, (visibility, occlusion) in EXPECTED_SCENARIOS.items():
        report = seen[image_id]
        assert report.visibility_pct == pytest.approx(visibility, abs=0.05), image_id
        assert report.occlusion_pct == pytest.approx(occlusion, abs=0.05), image_id
    assert elapsed < 1.0, f"classification took {elapsed:.3f}s"
    print(f"\nACCEPTANCE 1 reference-scenarios: PASS ({elapsed * 1000:.0f} ms)")


def test_criterion_2_summary_statistics(scenario_reports):
    """Summary over the nine reports: extremes and mean."""
    from occlusion_meter.evaluation import summarize

    summary = summarize(scenario_reports)
    assert summary.visibility_min == 20.5
    assert summary.visibility_max == 100.0
    assert summary.visibility_mean == pytest.approx(74.59, abs=0.01)
    assert summary.occlusion_min == 0.0
    assert summary.occlusion_max == 79.5
    print(f"\nACCEPTANCE 2 summary-statistics: PASS (mean={summary.visibility_mean:.4f})")


def test_criterion_3_conservation_over_randomized_frames():
    """10 000 randomized frames: conservation, bounds, quantized contributions."""
    rng = random.Random(20240808)
    wheel_values = {41.0 * fraction for _, fraction in CONFIG.wheel_fractions}
    reports_checked = 0
    for i in range(10_000):
        frame = random_frame(rng, image_id=f"prop-{i}")
        for report in classify_frame(frame):
            reports_checked += 1
            assert abs(report.visibility_pct + report.occlusion_pct - 100.0) <= 1e-9
            assert 0.0 <= report.visibility_pct <= 100.0
            for value in report.part_contributions[PartClass.WHEEL]:
                assert value in wheel_values
            for value in report.part_contributions[PartClass.FRAME]:
                assert value == 17.0
            for value in report.part_contributions[PartClass.HANDLEBAR]:
                assert value == 1.0
    assert reports_checked > 5_000  # plenty of non-empty frames exercised
    print(f"\nACCEPTANCE 3 conservation-suite: PASS ({reports_checked} reports)")


def test_criterion_4_monotonicity():
    """Deleting detections never raises visibility; occluders never lower occlusion."""
    rng = random.Random(515)

    # Group-level: dropping any member of a classified group lowers (or
    # keeps) that group's visibility.
    deletions = 0
    for i in range(700):
        frame = validate_frame(random_frame(rng, image_id=f"mono-{i}"))
        kept = tuple(d for d in frame.detections if d.confidence >= CONFIG.confidence_threshold)
        for group in group_parts(replace(frame, detections=kept), CONFIG):
            base = classify_bicycle(group, CONFIG).visibility_pct
            for drop in range(len(group)):
                reduced = group[:drop] + group[drop + 1 :]
                assert classify_bicycle(reduced, CONFIG).visibility_pct <= base + 1e-12
                deletions += 1

    # Frame-level: with at most 2 wheels + 1 frame + 1 handlebar in the
    # frame (so pruning never discards anything), deleting any single
    # detection never increases the total visibility across reports.
    frames_checked = 0
    for i in range(300):
        parts = [PartClass.WHEEL, PartClass.WHEEL, PartClass.FRAME, PartClass.HANDLEBAR]
        rng.shuffle(parts)
        detections = []
        for part in parts[: rng.randint(1, 4)]:
            x0 = rng.uniform(0, 500)
            y0 = rng.uniform(0, 500)
            detections.append(
                PartDetection(
                    part,
                    BoundingBox(x0, y0, x0 + rng.uniform(2, 140), y0 + rng.uniform(2, 140)),
                    rng.uniform(0.5, 1.0),
                )
            )
        frame = DetectionFrame(f"flat-{i}", 640, 640, tuple(detections))
        total = sum(r.visibility_pct for r in classify_frame(frame))
        for drop in range(len(detections)):
            remaining = detections[:drop] + detections[drop + 1 :]
            reduced = DetectionFrame(f"flat-{i}", 640, 640, tuple(remaining))
            reduced_total = sum(r.visibility_pct for r in classify_frame(reduced))
            assert reduced_total <= total + 1e-9
        frames_checked += 1
    assert frames_checked == 300

    # Oracle side: adding an occluder never decreases exact occlusion.
    additions = 0
    for case in range(60):
        scene = generate_scene(7000 + case, 0, 0.0)
        bike = scene.bicycle_bounds()
        rects = [_sample_rects(rng, bike, rng.uniform(0.1, 0.6), 1)[0] for _ in range(3)]
        previous = ground_truth(scene).occlusion_pct
        for k in range(1, 4):
            current = ground_truth(replace(scene, occluders=tuple(rects[:k]))).occlusion_pct
            assert current >= previous - 1e-9
            previous = current
            additions += 1
    print(f"\nACCEPTANCE 4 monotonicity-suite: PASS ({deletions} deletions, {additions} occluder additions)")


def test_criterion_5_geometry_oracle_equivalence():
    """Clipping agrees with a 10^6-sample Monte Carlo test on 200 convex pairs."""
    rng = random.Random(31415)
    checked = 0
    worst = 0.0
    while checked < 200:
        subject = ConvexPolygon(random_convex_vertices(rng, spread=3.0))
        window = ConvexPolygon(
            random_convex_vertices(
                rng, center=(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8)), spread=3.0
            )
        )
        x0, y0, x1, y1 = subject.bounds()
        bbox_area = (x1 - x0) * (y1 - y0)
        exact_intersection = sum(p.area() for p in clip(subject, window))
        exact_visible = visible_area(subject, [window])
        assert exact_visible == pytest.approx(subject.area() - exact_intersection, abs=1e-9)
        # keep hit fractions high enough for 1% Monte Carlo resolution
        if exact_intersection < 0.12 * bbox_area or exact_visible < 0.12 * bbox_area:
            continue

        sampler = np.random.default_rng(checked)
        xs = sampler.uniform(x0, x1, 1_000_000)
        ys = sampler.uniform(y0, y1, 1_000_000)
        in_subject = mc_points_in_polygon(subject.vertices, xs, ys)
        in_window = mc_points_in_polygon(window.vertices, xs, ys)
        mc_intersection = bbox_area * float((in_subject & in_window).sum()) / 1_000_000
        mc_visible = bbox_area * float((in_subject & ~in_window).sum()) / 1_000_000

        for exact, estimate in ((exact_intersection, mc_intersection), (exact_visible, mc_visible)):
            deviation = abs(estimate - exact) / exact
            worst = max(worst, deviation)
            assert deviation <= 0.01
        checked += 1

    # Shoelace vs closed forms at 1e-12 relative.
    for size in (0.5, 1.0, 3.7, 120.0):
        square = Polygon([(0, 0), (size, 0), (size, size), (0, size)])
        assert square.area() == pytest.approx(size * size, rel=1e-12)
        theta = 0.7
        c, s = math.cos(theta), math.sin(theta)
        rotated = Polygon([(x * c - y * s, x * s + y * c) for x, y in square.vertices])
        assert rotated.area() == pytest.approx(size * size, rel=1e-12)
    for base, height in ((1.0, 2.0), (3.0, 5.0), (0.2, 0.9)):
        triangle = Polygon([(0, 0), (base, 0), (0, height)])
        assert triangle.area() == pytest.approx(base * height / 2, rel=1e-12)
    for segments in (16, 32, 64, 128, 360):
        for radius in (0.35, 1.0, 12.0):
            gon = circle_polygon((1.0, -2.0), radius, segments)
            closed_form = (segments / 2) * radius * radius * math.sin(2 * math.pi / segments)
            assert gon.area() == pytest.approx(closed_form, rel=1e-12)
    print(f"\nACCEPTANCE 5 geometry-oracle: PASS (200 configs, worst MC deviation {worst:.4%})")


def test_criterion_6_band_boundaries():
    """Band mapping at the boundary probes."""
    probes = {
        9.999: OcclusionBand.LOW_OR_NONE,
        10.0: OcclusionBand.PARTIAL,
        39.999: OcclusionBand.PARTIAL,
        40.0: OcclusionBand.HEAVY,
        80.0: OcclusionBand.HEAVY,
        80.001: OcclusionBand.SEVERE,
    }
    for value, band in probes.items():
        assert occlusion_band(value) is band, value
    print("\nACCEPTANCE 6 band-boundaries: PASS")


def test_criterion_7_end_to_end_oracle_experiment():
    """1000 seeded single-rectangle scenes: error bounded, stats pinned."""
    stats = run_batch(1000, 42, occluder_count=1)
    assert stats.mean_abs_error <= 41.0 * 0.3  # one wheel quantization step

    pinned = json.loads(REGRESSION_FIXTURE.read_text())
    assert stats.scene_count == pinned["scene_count"]
    assert stats.mean_abs_error == pytest.approx(pinned["mean_abs_error"], abs=1e-9)
    assert stats.max_abs_error == pytest.approx(pinned["max_abs_error"], abs=1e-9)
    assert stats.band_agreement_rate == pytest.approx(pinned["band_agreement_rate"], abs=1e-12)
    assert [list(row) for row in stats.confusion.matrix] == pinned["confusion"]

    # same-seed rerun determinism on a slice
    assert run_batch(50, 42, occluder_count=1) == run_batch(50, 42, occluder_count=1)
    print(
        f"\nACCEPTANCE 7 oracle-experiment: PASS "
        f"(mae={stats.mean_abs_error:.2f} <= 12.3, band agreement {stats.band_agreement_rate:.1%})"
    )


def test_criterion_8_calibration_recovery():
    """Calibration on labels from the default config matches it on held-out ratios."""

    def default_fraction(ratio):
        for threshold, fraction in CONFIG.wheel_fractions:
            if ratio >= threshold:
                return fraction
        raise AssertionError

    labeled = [
        (BoundingBox(0, 0, 100, i), default_fraction(i / 100)) for i in range(1, 101)
    ]
    recovered = calibrate_thresholds(labeled, grid_step=0.01)

    rng = random.Random(65537)
    held_out = [i / 1000 for i in range(1, 1001)]
    held_out.extend(rng.uniform(0.0005, 1.0) for _ in range(2000))
    mismatches = 0
    for ratio in held_out:
        bbox = BoundingBox(0, 0, 1000, 1000 * ratio)
        if wheel_visibility_fraction(bbox, recovered) != wheel_visibility_fraction(bbox, CONFIG):
            mismatches += 1
    assert mismatches == 0
    print(f"\nACCEPTANCE 8 calibration-recovery: PASS ({len(held_out)} held-out ratios identical)")
