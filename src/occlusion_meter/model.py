"""Domain types for parts-based bicycle visibility estimation.

This module holds the data model shared by the rest of the package:
detected bicycle parts and their bounding boxes, the reference surface-area
allocation that turns detected parts into visibility percentages, the
per-bicycle visibility report, and the classifier configuration.

Detector output arrives from the outside world, so the detection-side types
(``BoundingBox``, ``PartDetection``, ``DetectionFrame``) are passive records:
they do not raise on construction. ``validate_detection`` is the single
check of one detection. ``validate_frame`` runs it on each detection of a
frame and reports *every* problem with the index of the offending
detection, which is far more useful for batch pipelines than failing on
the first bad field; ``ingest.parse_detections`` runs it once per
prediction, and both mark the frame they return (``DetectionFrame.validated``).
Configuration types (``SurfaceAreaModel``, ``ClassifierConfig``) are built by
humans, so they validate eagerly; ``DEFAULT_CONFIG`` is the one default.

This module holds types and their invariants and reads no JSON: ``ingest``
reads config documents, and raises a constructor's ``ValueError``
as a ``ParseError`` at the path of the object it was building.

All types are immutable after construction and safe to share across workers.
No raster data is ever stored here.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from enum import Enum
from itertools import chain
from typing import ClassVar, Mapping, Sequence

Point = tuple[float, float]

# Maximum per-coordinate disagreement between a detection's polygon extent
# and its bounding box.
POLYGON_BBOX_TOLERANCE = 0.5


class OcclusionMeterError(Exception):
    """Base class for all errors raised by this package."""


class UnknownPartLabelError(OcclusionMeterError):
    """A detection label does not name one of the known bicycle parts."""


class FrameValidationError(OcclusionMeterError):
    """One or more detections in a frame violate the frame invariants.

    Attributes:
        errors: one message per violation, each naming the detection index
            it refers to where applicable.
    """

    def __init__(self, errors: Sequence[str]):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


class PartClass(str, Enum):
    """The three detectable semantic bicycle parts.

    The enumeration is closed: labels outside this set are rejected at
    ingestion rather than silently mapped to a nearby class.
    """

    WHEEL = "wheel"
    FRAME = "frame"
    HANDLEBAR = "handlebar"

    @classmethod
    def from_label(cls, label: str) -> "PartClass":
        """Map a raw detector label (any casing, padded) to a part class."""
        part = _PART_BY_LABEL.get(str(label).strip().lower())
        if part is None:
            raise UnknownPartLabelError(f"unknown part label: {label}")
        return part


# The parts in PartClass order, as a tuple: iterating the Enum class runs a Python generator each time.
PARTS = tuple(PartClass)
_PART_BY_LABEL = {part.value: part for part in PARTS}


class OcclusionBand(str, Enum):
    """Categorical occlusion bucket derived from the occlusion percentage."""

    LOW_OR_NONE = "low_or_none"
    PARTIAL = "partial"
    HEAVY = "heavy"
    SEVERE = "severe"


def occlusion_band(occlusion_pct: float) -> OcclusionBand:
    """Categorical occlusion bucket for an occlusion percentage.

    Boundaries: [0, 10) low/none, [10, 40) partial, [40, 80] heavy,
    (80, 100] severe.
    """
    if not 0.0 <= occlusion_pct <= 100.0:
        raise ValueError(f"occlusion percentage out of [0, 100]: {occlusion_pct}")
    if occlusion_pct < 10.0:
        return OcclusionBand.LOW_OR_NONE
    if occlusion_pct < 40.0:
        return OcclusionBand.PARTIAL
    if occlusion_pct <= 80.0:
        return OcclusionBand.HEAVY
    return OcclusionBand.SEVERE


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box in image pixel coordinates, corner based.

    Center-based detector outputs are converted via :meth:`from_center` at
    ingestion. Validity (strictly positive width and height) is established
    by ``validate_detection`` so malformed detector output can be reported with
    per-detection indices instead of failing construction.
    """

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    @classmethod
    def from_center(cls, x: float, y: float, width: float, height: float) -> "BoundingBox":
        """Build a corner-based box from a center point and extents."""
        half_w = width / 2.0
        half_h = height / 2.0
        return cls(x - half_w, y - half_h, x + half_w, y + half_h)

    def width(self) -> float:
        return self.x_max - self.x_min

    def height(self) -> float:
        return self.y_max - self.y_min

    def is_valid(self) -> bool:
        return self.width() > 0 and self.height() > 0

    def area(self) -> float:
        return max(self.width(), 0.0) * max(self.height(), 0.0)

    def diagonal(self) -> float:
        return math.hypot(self.width(), self.height())

    def aspect_ratio(self) -> float:
        """Ratio of the shorter to the longer side, in (0, 1]."""
        w = self.width()
        h = self.height()
        if w <= 0 or h <= 0:
            raise ValueError("aspect ratio is undefined for a degenerate box")
        return min(w, h) / max(w, h)

    def gap_to(self, other: "BoundingBox") -> float:
        """Euclidean separation between two boxes; 0.0 when they touch or overlap.

        ``max`` starts from ``0.0`` and never takes a NaN after it, so the
        result is never NaN and does not depend on the argument order.
        """
        dx = max(0.0, other.x_min - self.x_max, self.x_min - other.x_max)
        dy = max(0.0, other.y_min - self.y_max, self.y_min - other.y_max)
        return math.hypot(dx, dy)

    def clamped(self, image_width: float, image_height: float) -> "BoundingBox":
        """Clamp all coordinates into [0, image_width] x [0, image_height].

        Returns ``self`` when every coordinate is already inside: clamping
        keeps such a value as it is (an int stays an int, ``-0.0`` stays
        ``-0.0``), so a copy would hold the same values.
        """
        if (
            0.0 <= self.x_min <= image_width
            and 0.0 <= self.y_min <= image_height
            and 0.0 <= self.x_max <= image_width
            and 0.0 <= self.y_max <= image_height
        ):
            return self
        return BoundingBox(
            min(max(self.x_min, 0.0), float(image_width)),
            min(max(self.y_min, 0.0), float(image_height)),
            min(max(self.x_max, 0.0), float(image_width)),
            min(max(self.y_max, 0.0), float(image_height)),
        )


@dataclass(frozen=True)
class PartDetection:
    """One detected semantic bicycle part.

    Attributes:
        part: which semantic part was detected.
        bbox: pixel bounding box of the detection.
        confidence: detector confidence in [0, 1].
        polygon: optional instance-segmentation outline in pixels. When
            present it must have at least 3 vertices and its extent must
            agree with ``bbox`` within ``POLYGON_BBOX_TOLERANCE`` per
            coordinate (checked by ``validate_detection``).
    """

    part: PartClass
    bbox: BoundingBox
    confidence: float
    polygon: tuple[Point, ...] | None = None


@dataclass(frozen=True)
class DetectionFrame:
    """All part detections for one image, plus the image geometry."""

    image_id: str
    image_width: int
    image_height: int
    detections: tuple[PartDetection, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "detections", tuple(self.detections))

    @property
    def validated(self) -> bool:
        """Whether ``validate_frame`` or ``ingest.parse_detections`` returned this frame.

        Kept in the instance dict, not in a field, so ``==``, ``repr`` and
        ``asdict`` ignore it and ``dataclasses.replace`` builds a frame
        without it.
        """
        return self.__dict__.get("_validated", False)


@dataclass(frozen=True)
class SurfaceAreaModel:
    """Percentage share of the bicycle's surface per part instance.

    The paper's reference areas (cm^2, class constants) say where the shares
    come from; the rounded shares are what the classifier uses, because only
    they make the contributions of a fully visible bicycle (2 wheels + frame
    + handlebar) sum to exactly 100.
    """

    WHEEL_AREA_CM2: ClassVar[float] = 3400.0
    FRAME_AREA_CM2: ClassVar[float] = 1454.0
    HANDLEBAR_AREA_CM2: ClassVar[float] = 110.0
    TOTAL_AREA_CM2: ClassVar[float] = 2 * WHEEL_AREA_CM2 + FRAME_AREA_CM2 + HANDLEBAR_AREA_CM2
    wheel_share_pct: float = 41.0
    frame_share_pct: float = 17.0
    handlebar_share_pct: float = 1.0

    def __post_init__(self) -> None:
        # Written so that a non-finite share (inf - inf is NaN) fails too.
        share_sum = 2 * self.wheel_share_pct + self.frame_share_pct + self.handlebar_share_pct
        if not abs(share_sum - 100.0) <= 1e-9:
            raise ValueError(f"part shares must sum to 100.0, got {share_sum}")

    def share_pct(self, part: PartClass) -> float:
        """Percentage of total bicycle surface attributed to one part instance."""
        if part is PartClass.WHEEL:
            return self.wheel_share_pct
        if part is PartClass.FRAME:
            return self.frame_share_pct
        return self.handlebar_share_pct


@dataclass(frozen=True)
class ClassifierConfig:
    """Tunable parameters of the visibility classifier.

    Attributes:
        confidence_threshold: detections below this confidence are ignored.
        wheel_fractions: descending (ratio_threshold, fraction) pairs; a
            wheel whose bbox aspect ratio is >= a threshold gets that
            threshold's fraction of the wheel share. Thresholds and
            fractions must both be strictly decreasing, the last threshold
            must be 0.0, and the first fraction must be 1.0.
        detectability_floor: minimum visible fraction below which the
            synthetic-oracle detector emits nothing (oracle only).
        grouping_distance_factor: multiple of the largest wheel bbox
            diagonal used as the linking distance when clustering parts
            into bicycle instances.
        area_model: the surface-area shares used for contributions.
    """

    confidence_threshold: float = 0.5
    wheel_fractions: tuple[tuple[float, float], ...] = ((0.85, 1.0), (0.60, 0.7), (0.45, 0.5), (0.0, 0.4))
    detectability_floor: float = 0.10
    grouping_distance_factor: float = 1.5
    area_model: SurfaceAreaModel = field(default_factory=SurfaceAreaModel)

    def __post_init__(self) -> None:
        pairs = tuple((float(t), float(f)) for t, f in self.wheel_fractions)
        object.__setattr__(self, "wheel_fractions", pairs)
        if not 0.0 <= self.confidence_threshold <= 1.0:
            raise ValueError(f"confidence_threshold must be in [0, 1], got {self.confidence_threshold}")
        if not 0.0 <= self.detectability_floor <= 1.0:
            raise ValueError(f"detectability_floor must be in [0, 1], got {self.detectability_floor}")
        if not pairs:
            raise ValueError("wheel_fractions must not be empty")
        thresholds, fractions = map(list, zip(*pairs))
        if any(b >= a for a, b in zip(thresholds, thresholds[1:])):
            raise ValueError(f"wheel_fractions: ratio thresholds must be strictly decreasing, got {thresholds}")
        if any(b >= a for a, b in zip(fractions, fractions[1:])):
            raise ValueError(f"wheel_fractions: fractions must be strictly decreasing, got {fractions}")
        if thresholds[-1] != 0.0:
            raise ValueError("wheel_fractions: last ratio threshold must be 0.0 so the rule is total")
        if fractions[0] != 1.0:
            raise ValueError("wheel_fractions: first fraction must be 1.0")
        if any(not 0.0 < f <= 1.0 for f in fractions):
            raise ValueError("wheel_fractions: all fractions must be in (0, 1]")
        if any(not 0.0 <= t <= 1.0 for t in thresholds):
            raise ValueError("wheel_fractions: all ratio thresholds must be in [0, 1]")
        if not 0 < self.grouping_distance_factor < math.inf:
            raise ValueError("grouping_distance_factor must be positive and finite")

    def to_dict(self) -> dict:
        return asdict(self)


# The default config, built and validated once; frozen, so every default use shares it.
DEFAULT_CONFIG = ClassifierConfig()


# How many detections of each class one bicycle instance may hold.
PART_LIMITS = {PartClass.WHEEL: 2, PartClass.FRAME: 1, PartClass.HANDLEBAR: 1}


def ordered_sum(values) -> float:
    """The values added in the order given, as in geometry._signed_area2: sum() compensates on Python 3.12+."""
    total = 0.0
    for value in values:
        total += value
    return total


@dataclass(frozen=True)
class VisibilityReport:
    """Per-bicycle visibility result, derived from its part contributions.

    ``part_contributions`` may give each part any iterable of numbers, or
    leave a part out; the report keeps a dict with every part, in
    ``PartClass`` order, mapped to a tuple of floats. ``visibility_pct`` is
    those floats added one at a time in that part order, then in the order
    given within each part, clamped to [0, 100]; ``occlusion_pct`` is 100
    minus it and ``band`` its band. The rule lives only here. ``image_id``
    must be a ``str`` and ``bicycle_index`` a non-negative ``int`` (not a
    bool), so ``ingest.reports_to_json`` writes every report as ``to_dict()``
    would be dumped. Reports compare by value but are unhashable.
    """

    __hash__ = None
    image_id: str
    bicycle_index: int
    part_contributions: Mapping[PartClass, Sequence[float]]
    visibility_pct: float = field(init=False)
    occlusion_pct: float = field(init=False)
    band: OcclusionBand = field(init=False)

    def __post_init__(self) -> None:
        # A str id and an exact int index (a bool is not one): the only scalars the JSON writer takes there.
        if not isinstance(self.image_id, str):
            raise ValueError(f"report field image_id: expected a string, got {self.image_id!r}")
        if type(self.bicycle_index) is not int:
            raise ValueError(f"report field bicycle_index: expected an integer, got {self.bicycle_index!r}")
        given = self.part_contributions
        contributions = {part: tuple(map(float, given.get(part, ()))) for part in PARTS}
        if self.bicycle_index < 0:
            raise ValueError("bicycle_index must be non-negative")
        for part, values in contributions.items():
            if len(values) > PART_LIMITS[part]:
                raise ValueError(f"too many {part.value} contributions: {len(values)} (max {PART_LIMITS[part]})")
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{part.value} contributions must be finite, got {values}")
        visibility = min(max(ordered_sum(chain.from_iterable(contributions.values())), 0.0), 100.0)
        object.__setattr__(self, "part_contributions", contributions)
        object.__setattr__(self, "visibility_pct", visibility)
        object.__setattr__(self, "occlusion_pct", 100.0 - visibility)
        object.__setattr__(self, "band", occlusion_band(100.0 - visibility))

    def to_dict(self) -> dict:
        return {
            "image_id": self.image_id,
            "bicycle_index": self.bicycle_index,
            "part_contributions": {
                part.value: list(values) for part, values in self.part_contributions.items()
            },
            "visibility_pct": self.visibility_pct,
            "occlusion_pct": self.occlusion_pct,
            "band": self.band.value,
        }


def _polygon_normalized(polygon, width: float, height: float) -> bool:
    # Whether ``polygon`` is already what ``validate_detection`` makes of it:
    # a tuple of (float, float) vertices inside the image.
    if type(polygon) is not tuple:
        return False
    for vertex in polygon:
        if type(vertex) is not tuple or len(vertex) != 2:
            return False
        x, y = vertex
        if type(x) is not float or type(y) is not float or not (0.0 <= x <= width and 0.0 <= y <= height):
            return False
    return True


def validate_detection(det: PartDetection, index: int, image_width: float, image_height: float) -> PartDetection:
    """Check one detection and normalize it to the image bounds.

    Returns the detection with its part resolved to a ``PartClass`` and its
    bbox (and polygon, when present) clamped into the image rectangle, as
    float vertices. Returns ``det`` itself when nothing needs normalizing,
    as for every detection ``ingest.parse_detections`` builds inside the image.

    Raises:
        FrameValidationError: with one message naming ``index``.
    """
    part = det.part
    if not isinstance(part, PartClass):
        try:
            part = PartClass.from_label(part)
        except UnknownPartLabelError as exc:
            raise FrameValidationError([str(exc)]) from None

    bbox = det.bbox
    if not all(map(math.isfinite, (bbox.x_min, bbox.y_min, bbox.x_max, bbox.y_max))):
        raise FrameValidationError([f"non-finite bbox coordinate at index {index}"])
    bbox = bbox.clamped(image_width, image_height)
    if bbox.width() <= 0:
        raise FrameValidationError([f"zero-width bbox at index {index}"])
    if bbox.height() <= 0:
        raise FrameValidationError([f"zero-height bbox at index {index}"])

    # NaN fails both comparisons, so a non-finite confidence lands here too.
    if not 0.0 <= det.confidence <= 1.0:
        raise FrameValidationError([f"confidence out of range at index {index}: {det.confidence}"])

    polygon = det.polygon
    if polygon is not None:
        if len(polygon) < 3:
            raise FrameValidationError([f"polygon with fewer than 3 vertices at index {index}"])
        w, h = float(image_width), float(image_height)
        if not _polygon_normalized(polygon, w, h):  # such a polygon is finite too
            if not all(math.isfinite(c) for vertex in polygon for c in vertex):
                raise FrameValidationError([f"non-finite polygon vertex at index {index}"])
            polygon = tuple((min(max(float(x), 0.0), w), min(max(float(y), 0.0), h)) for x, y in polygon)
        extent = (*map(min, zip(*polygon)), *map(max, zip(*polygon)))
        deviation = max(abs(a - b) for a, b in zip(extent, (bbox.x_min, bbox.y_min, bbox.x_max, bbox.y_max)))
        if deviation > POLYGON_BBOX_TOLERANCE:
            raise FrameValidationError(
                [f"polygon extent disagrees with bbox at index {index} (off by {deviation:.2f} px)"]
            )

    if part is det.part and bbox is det.bbox and polygon is det.polygon:
        return det
    return PartDetection(part, bbox, det.confidence, polygon)


def validate_frame(frame: DetectionFrame) -> DetectionFrame:
    """Validate a detection frame and normalize it to image bounds.

    Returns a new frame with every detection normalized by
    ``validate_detection``. Collects *all* violations before failing so a
    bad batch reports every problem at once.

    Raises:
        FrameValidationError: listing one message per violation, each naming
            the index of the offending detection.
    """
    width, height = frame.image_width, frame.image_height
    if not (math.isfinite(width) and math.isfinite(height)):
        raise FrameValidationError([f"non-finite image dimensions: {width}x{height}"])
    if width <= 0 or height <= 0:
        raise FrameValidationError([f"non-positive image dimensions: {width}x{height}"])

    errors: list[str] = []
    normalized: list[PartDetection] = []
    for index, det in enumerate(frame.detections):
        try:
            normalized.append(validate_detection(det, index, width, height))
        except FrameValidationError as exc:
            errors.extend(exc.errors)
    if errors:
        raise FrameValidationError(errors)
    return mark_validated(replace(frame, detections=tuple(normalized)))


def mark_validated(frame: DetectionFrame) -> DetectionFrame:
    """Record on ``frame`` that every detection is ``validate_detection``'s output for its image size.

    Only for the frames ``validate_frame`` and ``ingest.parse_detections``
    return: the classifier scores a marked frame without checking it.
    """
    object.__setattr__(frame, "_validated", True)
    return frame
