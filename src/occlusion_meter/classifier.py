"""Bicycle visibility classification from part detections.

Pipeline: filter detections by confidence, cluster parts into bicycle
instances, score each part against the surface-area shares (wheels get an
aspect-ratio-dependent fraction of their share), and hand the contributions
to ``model.VisibilityReport``, which derives the visibility and occlusion
percentages and the categorical band from them.

Everything here is a pure, deterministic function of (frame, config);
frames can be classified concurrently with no shared state.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import replace
from typing import Sequence

from .model import (
    PART_LIMITS,
    PARTS,
    DEFAULT_CONFIG,
    BoundingBox,
    ClassifierConfig,
    DetectionFrame,
    OcclusionMeterError,
    PartClass,
    PartDetection,
    VisibilityReport,
    occlusion_band,  # perfbench/worker.py calls classifier.occlusion_band
    ordered_sum,
    validate_frame,
)

PartGroup = tuple[PartDetection, ...]


class CalibrationError(OcclusionMeterError):
    """Threshold calibration is infeasible for the given labels."""


def wheel_visibility_fraction(bbox: BoundingBox, config: ClassifierConfig) -> float:
    """Quantized visibility fraction for a wheel from its bbox aspect ratio.

    A fully visible, squarely viewed wheel has a near-square bbox (ratio
    close to 1); occlusion or an oblique view shrinks one bbox dimension and
    lowers the ratio. The ratio is matched against the configured descending
    thresholds; the first threshold at or below the ratio decides the
    fraction. The config invariant (last threshold 0.0) makes this total.
    """
    ratio = bbox.aspect_ratio()
    for threshold, fraction in config.wheel_fractions:
        if ratio >= threshold:
            return fraction
    raise AssertionError("unreachable: wheel_fractions ends with threshold 0.0")


def part_visibility(detection: PartDetection, config: ClassifierConfig) -> float:
    """Visibility contribution of one detected part, in percent of the bicycle.

    Frames and handlebars contribute their full share whenever detected;
    wheels contribute their share scaled by the aspect-ratio fraction.
    """
    share = config.area_model.share_pct(detection.part)
    if detection.part is PartClass.WHEEL:
        return share * wheel_visibility_fraction(detection.bbox, config)
    return share


def _prune_group(members: list[tuple[int, PartDetection]]) -> PartGroup:
    # Keep the per-class limits, preferring higher confidence, then larger
    # bbox area, then lower detection index. ``members`` come in index order
    # and so does the output; only a class over its limit is sorted.
    dropped: set[int] = set()
    for part in PARTS:
        candidates = [(i, d) for i, d in members if d.part is part]
        limit = PART_LIMITS[part]
        if len(candidates) > limit:
            candidates.sort(key=lambda item: (-item[1].confidence, -item[1].bbox.area(), item[0]))
            dropped.update(i for i, _ in candidates[limit:])
    return tuple(d for i, d in members if i not in dropped)


def group_parts(frame: DetectionFrame, config: ClassifierConfig) -> list[PartGroup]:
    """Cluster part detections into bicycle instances.

    ``frame`` must be validated (``validate_frame``), so every coordinate is
    finite; ``classify_frame`` validates it first.

    Single-link clustering: two parts join when the gap between their boxes
    is at most ``grouping_distance_factor`` times the largest wheel bbox
    diagonal in the frame (largest diagonal of any part when no wheel was
    detected). Each cluster is then pruned to ``model.PART_LIMITS`` detections
    per class. Groups are ordered by their first detection index.

    The pairs are found by a sweep over the boxes sorted by ``x_min``: each
    box is tested with ``gap_to`` against the later boxes only until one
    starts more than the limit to the right of its ``x_max``. Every box
    after that one starts at least as far right, and a gap is at least its
    x separation, so no skipped pair could join; for finite boxes (as
    ``validate_frame`` makes them) the groups are the all-pairs ones.

    This assignment step is a heuristic for multi-bicycle frames; the
    visibility scoring itself is independent of it.
    """
    detections = list(frame.detections)
    if not detections:
        return []
    wheel_diagonals = [d.bbox.diagonal() for d in detections if d.part is PartClass.WHEEL]
    reference = max(wheel_diagonals) if wheel_diagonals else max(d.bbox.diagonal() for d in detections)
    limit = config.grouping_distance_factor * reference

    parent = list(range(len(detections)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    boxes = [d.bbox for d in detections]
    order = sorted(range(len(boxes)), key=lambda i: boxes[i].x_min)
    for k, i in enumerate(order):
        bi = boxes[i]
        for j in order[k + 1 :]:
            bj = boxes[j]
            if bj.x_min - bi.x_max > limit:
                break
            if bi.gap_to(bj) <= limit:
                parent[find(i)] = find(j)

    clusters: dict[int, list[tuple[int, PartDetection]]] = {}
    for i, det in enumerate(detections):
        clusters.setdefault(find(i), []).append((i, det))

    ordered = sorted(clusters.values(), key=lambda members: members[0][0])
    return [_prune_group(members) for members in ordered]


def classify_bicycle(
    parts: Sequence[PartDetection],
    config: ClassifierConfig,
    *,
    image_id: str = "",
    bicycle_index: int = 0,
) -> VisibilityReport:
    """Visibility report for one pruned part group.

    The report derives visibility from the group's part contributions;
    missing parts count as fully occluded, so an empty group yields
    visibility 0 / occlusion 100.
    """
    contributions: dict[PartClass, list[float]] = {part: [] for part in PARTS}
    for det in parts:
        contributions[det.part].append(part_visibility(det, config))
    return VisibilityReport(image_id, bicycle_index, contributions)


def classify_frame(frame: DetectionFrame, config: ClassifierConfig | None = None) -> list[VisibilityReport]:
    """Classify every bicycle instance in a detection frame.

    A frame that ``validate_frame`` or ``ingest.parse_detections`` returned
    is already normalized and is used as it is; any other frame is
    validated and normalized first. Detections below the confidence
    threshold are dropped, survivors are grouped into bicycle instances,
    and each group is classified. Reports come back ordered by descending
    visibility, ties broken by bicycle index.

    Without ``config`` the defaults apply (``model.DEFAULT_CONFIG``); no
    detection is copied on the way to the groups.
    """
    config = config or DEFAULT_CONFIG
    if not frame.validated:
        frame = validate_frame(frame)
    threshold = config.confidence_threshold
    surviving = tuple(d for d in frame.detections if d.confidence >= threshold)
    groups = group_parts(DetectionFrame(frame.image_id, frame.image_width, frame.image_height, surviving), config)
    reports = [
        classify_bicycle(group, config, image_id=frame.image_id, bicycle_index=index)
        for index, group in enumerate(groups)
    ]
    reports.sort(key=lambda r: (-r.visibility_pct, r.bicycle_index))
    return reports


def calibrate_thresholds(
    labeled: Sequence[tuple[BoundingBox, float]],
    grid_step: float = 0.01,
) -> ClassifierConfig:
    """Recover wheel ratio thresholds from labeled bounding boxes.

    Each label pairs a bbox with the visibility fraction it should receive,
    drawn from the fixed fraction set {1.0, 0.7, 0.5, 0.4}. The three free
    thresholds (the fourth is pinned at 0.0) are grid-searched at
    ``grid_step`` resolution, minimizing the number of misclassified labels;
    ties are broken by the largest margin (summed distance from each label's
    ratio to its nearest threshold), then by the lexicographically smallest
    threshold triple. Cost grows cubically in 1/grid_step, so steps below
    0.005 are rejected.

    Raises:
        CalibrationError: when a ratio carries two different expected
            fractions, an expected fraction is outside the fraction set, or
            a bbox has no aspect ratio.
    """
    fractions = tuple(f for _, f in DEFAULT_CONFIG.wheel_fractions)
    if not 0.005 <= grid_step < 0.5:
        raise ValueError(f"grid_step must be in [0.005, 0.5), got {grid_step}")
    if not labeled:
        raise CalibrationError("no labeled examples provided")

    ratios: list[float] = []
    by_class: dict[float, list[float]] = {f: [] for f in fractions}
    by_ratio: dict[float, float] = {}
    conflicts: list[str] = []
    for bbox, fraction in labeled:
        if fraction not in fractions:
            raise CalibrationError(f"expected fraction {fraction} is not one of the configured fractions {fractions}")
        ratio = bbox.aspect_ratio()
        if not ratio >= 0.0:  # NaN, say from two sides that overflow to inf, would corrupt the sorted ratios
            raise CalibrationError(f"bbox {bbox} has no aspect ratio")
        if ratio in by_ratio and by_ratio[ratio] != fraction:
            conflicts.append(f"ratio {ratio:.6g} labeled both {by_ratio[ratio]} and {fraction}")
            continue
        by_ratio[ratio] = fraction
        ratios.append(ratio)
        by_class[fraction].append(ratio)
    if conflicts:
        raise CalibrationError("conflicting labels: " + "; ".join(conflicts))

    # Candidate threshold values; rounding snaps i*grid_step onto the
    # canonical double for the decimal value so exact-ratio labels land on
    # the grid.
    count = int(round(1.0 / grid_step))
    grid = [round(i * grid_step, 12) for i in range(1, count + 1) if round(i * grid_step, 12) <= 1.0]
    n = len(grid)
    if n < 3:
        raise ValueError("grid_step too coarse: fewer than 3 candidate thresholds")

    # The misclassification count decomposes per threshold. With label
    # classes f1 > f2 > f3 > f4 and prefix counts F_k(t) = #{class-k labels
    # with ratio < t}, bisects on each class's sorted ratios, the number of
    # correct labels is a(t1) + b(t2) + c(t3), where a(t) = #{f1: ratio >= t}
    # + F2(t), b(t) = F3(t) - F2(t), c(t) = F4(t) - F3(t).
    r1, r2, r3, r4 = (sorted(by_class[f]) for f in fractions)
    a = [len(r1) - bisect_left(r1, t) + bisect_left(r2, t) for t in grid]
    b = [bisect_left(r3, t) - bisect_left(r2, t) for t in grid]
    c = [bisect_left(r4, t) - bisect_left(r3, t) for t in grid]

    # c_best[i] = max(c[:i + 1]) pairs each t2 with its best t3 < t2.
    c_best = list(itertools.accumulate(c, max))
    best_correct = max(a[i1] + b[i2] + c_best[i2 - 1] for i1 in range(2, n) for i2 in range(1, i1))

    # The tied triples are scanned in ascending order, t3 only under (t1, t2) pairs that reach
    # best_correct, and only a strictly larger margin replaces the best: the first of equal margins
    # wins. A margin is summed in order, as in geometry._signed_area2: sum() compensates on Python
    # 3.12+, which would move float-noise ties. A third threshold brings no label's nearest threshold
    # farther, and an in-order float sum of terms no larger is no larger, so a pair whose own margin
    # is at most the best so far holds no triple that beats it, and its t3 scan is skipped.
    best, best_margin = None, -1.0
    for i1 in range(2, n):
        for i2 in range(1, i1):
            if a[i1] + b[i2] + c_best[i2 - 1] != best_correct:
                continue
            t1, t2 = grid[i1], grid[i2]
            nearest = [min(abs(r - t1), abs(r - t2)) for r in ratios]
            if ordered_sum(nearest) <= best_margin:
                continue
            for i3 in range(i2):
                if a[i1] + b[i2] + c[i3] == best_correct:
                    t3 = grid[i3]
                    margin = ordered_sum(min(d, abs(r - t3)) for d, r in zip(nearest, ratios))
                    if margin > best_margin:
                        best, best_margin = (t1, t2, t3), margin
    return replace(DEFAULT_CONFIG, wheel_fractions=tuple(zip((*best, 0.0), fractions)))
