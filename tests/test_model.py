import dataclasses
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import BAD_CONFIG_IDS, BAD_CONFIGS

from occlusion_meter import ingest
from occlusion_meter.ingest import ParseError, _parse_config, reports_to_json
from occlusion_meter.model import (
    POLYGON_BBOX_TOLERANCE,
    BoundingBox,
    ClassifierConfig,
    DetectionFrame,
    FrameValidationError,
    OcclusionBand,
    PartClass,
    PartDetection,
    SurfaceAreaModel,
    UnknownPartLabelError,
    VisibilityReport,
    validate_detection,
    validate_frame,
)


class TestPartClass:
    def test_from_label_case_folds(self):
        assert PartClass.from_label("Wheel") is PartClass.WHEEL
        assert PartClass.from_label("  FRAME ") is PartClass.FRAME
        assert PartClass.from_label("handlebar") is PartClass.HANDLEBAR

    def test_unknown_label_rejected_with_name(self):
        with pytest.raises(UnknownPartLabelError, match="unknown part label: pedal"):
            PartClass.from_label("pedal")

    def test_exactly_three_classes(self):
        assert {p.value for p in PartClass} == {"wheel", "frame", "handlebar"}


class TestBoundingBox:
    def test_from_center(self):
        bbox = BoundingBox.from_center(320, 320, 100, 100)
        assert (bbox.x_min, bbox.y_min, bbox.x_max, bbox.y_max) == (270, 270, 370, 370)

    def test_extent_methods(self):
        bbox = BoundingBox(10, 20, 110, 60)
        assert bbox.width() == 100
        assert bbox.height() == 40
        assert bbox.area() == 4000
        assert bbox.diagonal() == pytest.approx(math.hypot(100, 40))

    def test_aspect_ratio_short_over_long(self):
        assert BoundingBox(0, 0, 100, 70).aspect_ratio() == pytest.approx(0.7)
        assert BoundingBox(0, 0, 70, 100).aspect_ratio() == pytest.approx(0.7)
        assert BoundingBox(0, 0, 50, 50).aspect_ratio() == 1.0

    def test_aspect_ratio_rejects_degenerate(self):
        with pytest.raises(ValueError):
            BoundingBox(10, 10, 10, 20).aspect_ratio()

    def test_gap_overlapping_is_zero(self):
        a = BoundingBox(0, 0, 10, 10)
        b = BoundingBox(5, 5, 15, 15)
        assert a.gap_to(b) == 0.0

    def test_gap_diagonal_separation(self):
        a = BoundingBox(0, 0, 10, 10)
        b = BoundingBox(13, 14, 20, 20)
        assert a.gap_to(b) == pytest.approx(5.0)
        assert b.gap_to(a) == pytest.approx(5.0)

    @given(st.lists(st.floats() | st.sampled_from([math.nan, math.inf, -math.inf]), min_size=8, max_size=8))
    @example([0, 0, 10, 10, math.nan, 0, 5, 10])
    def test_gap_is_symmetric_and_never_nan(self, coords):
        a, b = BoundingBox(*coords[:4]), BoundingBox(*coords[4:])
        assert a.gap_to(b) == b.gap_to(a)

    def test_clamped(self):
        bbox = BoundingBox(-10, 5, 700, 100).clamped(640, 640)
        assert (bbox.x_min, bbox.y_min, bbox.x_max, bbox.y_max) == (0, 5, 640, 100)

    def test_clamped_keeps_a_box_already_inside(self):
        bbox = BoundingBox(-0.0, 5, 640.0, 640)
        assert bbox.clamped(640, 640) is bbox
        assert repr(bbox.clamped(640, 480)) == "BoundingBox(x_min=-0.0, y_min=5, x_max=640.0, y_max=480.0)"


class TestSurfaceAreaModel:
    def test_default_identities(self):
        # The paper's reference areas are constants, not fields: the config sets the three shares and nothing else.
        model = SurfaceAreaModel()
        names = [f.name for f in dataclasses.fields(model)]
        assert names == ["wheel_share_pct", "frame_share_pct", "handlebar_share_pct"]
        total = 2 * model.WHEEL_AREA_CM2 + model.FRAME_AREA_CM2 + model.HANDLEBAR_AREA_CM2
        assert total == model.TOTAL_AREA_CM2 == 8364
        assert 2 * model.wheel_share_pct + model.frame_share_pct + model.handlebar_share_pct == 100.0

    def test_share_lookup(self):
        model = SurfaceAreaModel()
        assert model.share_pct(PartClass.WHEEL) == 41.0
        assert model.share_pct(PartClass.FRAME) == 17.0
        assert model.share_pct(PartClass.HANDLEBAR) == 1.0

    def test_inconsistent_total_rejected(self):
        # The total is computed from the part areas, so no total can disagree with them: none can be given.
        with pytest.raises(TypeError, match="total_area_cm2"):
            SurfaceAreaModel(total_area_cm2=9000.0)
        with pytest.raises(ParseError) as info:
            _parse_config(json.dumps({"area_model": {"total_area_cm2": 8364.0}}))
        assert str(info.value) == "area_model.total_area_cm2: unknown field"

    def test_inconsistent_shares_rejected(self):
        with pytest.raises(ValueError, match="sum to 100"):
            SurfaceAreaModel(wheel_share_pct=40.0)

    def test_invariant_is_an_error_at_the_object_path(self):
        with pytest.raises(ParseError) as info:
            _parse_config(json.dumps({"area_model": {"wheel_share_pct": 40.0}}))
        message = "part shares must sum to 100.0, got 98.0"
        assert (info.value.path, str(info.value)) == ("area_model", f"area_model: {message}")


class TestClassifierConfig:
    def test_defaults_valid(self):
        config = ClassifierConfig()
        assert config.confidence_threshold == 0.5
        assert config.wheel_fractions[0] == (0.85, 1.0)
        assert config.wheel_fractions[-1] == (0.0, 0.4)

    def test_thresholds_must_decrease(self):
        with pytest.raises(ValueError, match="strictly decreasing"):
            ClassifierConfig(wheel_fractions=((0.85, 1.0), (0.85, 0.7), (0.45, 0.5), (0.0, 0.4)))

    def test_fractions_must_decrease(self):
        with pytest.raises(ValueError, match="strictly decreasing"):
            ClassifierConfig(wheel_fractions=((0.85, 1.0), (0.6, 0.7), (0.45, 0.7), (0.0, 0.4)))

    def test_last_threshold_must_be_zero(self):
        with pytest.raises(ValueError, match="must be 0.0"):
            ClassifierConfig(wheel_fractions=((0.85, 1.0), (0.6, 0.7), (0.45, 0.5), (0.1, 0.4)))

    def test_wheel_fractions_must_not_be_empty(self):
        with pytest.raises(ValueError, match="^wheel_fractions must not be empty$"):
            ClassifierConfig(wheel_fractions=())

    def test_first_fraction_must_be_one(self):
        with pytest.raises(ValueError, match="first fraction"):
            ClassifierConfig(wheel_fractions=((0.85, 0.9), (0.6, 0.7), (0.45, 0.5), (0.0, 0.4)))

    def test_fractions_must_be_positive(self):
        # Decreasing, first 1.0, last threshold 0.0: only the range check is left to fail.
        with pytest.raises(ValueError, match=r"all fractions must be in \(0, 1\]"):
            ClassifierConfig(wheel_fractions=((0.85, 1.0), (0.6, 0.7), (0.45, 0.5), (0.0, -0.1)))

    def test_ratio_thresholds_must_be_at_most_one(self):
        with pytest.raises(ValueError, match=r"all ratio thresholds must be in \[0, 1\]"):
            ClassifierConfig(wheel_fractions=((1.5, 1.0), (0.6, 0.7), (0.45, 0.5), (0.0, 0.4)))

    def test_confidence_threshold_range(self):
        with pytest.raises(ValueError, match="confidence_threshold"):
            ClassifierConfig(confidence_threshold=1.5)

    @pytest.mark.parametrize("floor, message", [
        (-1.0, "detectability_floor must be in [0, 1], got -1.0"),
        (5.0, "detectability_floor must be in [0, 1], got 5.0"),
        (math.nan, "detectability_floor: expected a finite number, got nan"),
    ])
    def test_detectability_floor_range(self, floor, message):
        with pytest.raises(ValueError, match="detectability_floor must be in"):
            ClassifierConfig(detectability_floor=floor)
        with pytest.raises(ParseError) as info:
            _parse_config(json.dumps({"detectability_floor": floor}))
        assert str(info.value) == message

    @pytest.mark.parametrize("config", [
        ClassifierConfig(),
        ClassifierConfig(confidence_threshold=0.25),
        ClassifierConfig(
            confidence_threshold=0,
            wheel_fractions=((0.9, 1.0), (0.5, 0.6), (0.0, 0.25)),
            detectability_floor=1,
            grouping_distance_factor=2.75,
            area_model=SurfaceAreaModel(wheel_share_pct=37.5, frame_share_pct=23.0, handlebar_share_pct=2.0),
        ),
    ], ids=["default", "threshold", "every-field"])
    def test_roundtrip(self, config):
        # What calibrate prints (json.dumps of to_dict) reads back equal through the config reader.
        assert _parse_config(json.dumps(config.to_dict(), indent=2)) == config
        assert _parse_config(json.dumps(config.to_dict())).to_dict() == config.to_dict()

    def test_unknown_field_rejected(self):
        with pytest.raises(ParseError) as info:
            _parse_config('{"confidence": 0.5}')
        assert (info.value.path, str(info.value)) == ("confidence", "confidence: unknown field")

    def test_a_reader_bug_is_not_an_input_error(self, monkeypatch):
        def broken(*args):
            raise TypeError("bug in the reader")

        monkeypatch.setattr(ingest, "_object", broken)
        with pytest.raises(TypeError, match="^bug in the reader$"):
            _parse_config('{"confidence_threshold": 0.3}')

    @pytest.mark.parametrize("document, message", BAD_CONFIGS, ids=BAD_CONFIG_IDS)
    def test_wrong_types_and_non_finite_values_name_field(self, document, message):
        with pytest.raises(ParseError) as info:
            _parse_config(document)
        assert str(info.value).startswith(message)


class TestVisibilityReport:
    def _report(self, **overrides):
        kwargs = dict(
            image_id="img",
            bicycle_index=0,
            part_contributions={
                PartClass.WHEEL: (41.0, 28.699999999999996),
                PartClass.FRAME: (17.0,),
                PartClass.HANDLEBAR: (1.0,),
            },
        )
        kwargs.update(overrides)
        return VisibilityReport(**kwargs)

    def test_part_sums(self):
        # The CSV's part columns: each part's contributions added in order, to one decimal.
        assert ingest.reports_to_csv([self._report()]).splitlines()[1] == "img,0,69.7,17.0,1.0,87.7,12.3,partial"

    def test_derives_visibility_occlusion_and_band(self):
        full = self._report(
            part_contributions={PartClass.WHEEL: (41, 41), PartClass.FRAME: (17,), PartClass.HANDLEBAR: (1,)}
        )
        assert (full.visibility_pct, full.occlusion_pct, full.band) == (100.0, 0.0, OcclusionBand.LOW_OR_NONE)
        overflow = self._report(part_contributions={PartClass.WHEEL: (1e308, 1e308)})
        assert (overflow.visibility_pct, overflow.occlusion_pct) == (100.0, 0.0)
        negative = self._report(part_contributions={PartClass.FRAME: (-5.0,)})
        assert (negative.visibility_pct, negative.occlusion_pct, negative.band) == (0.0, 100.0, OcclusionBand.SEVERE)
        assert repr(self._report(part_contributions={}).visibility_pct) == "0.0"

    def test_derived_fields_are_not_arguments(self):
        with pytest.raises(TypeError):
            self._report(visibility_pct=50.0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_contribution_rejected(self, value):
        with pytest.raises(ValueError, match="^frame contributions must be finite"):
            self._report(part_contributions={PartClass.FRAME: (value,)})

    @pytest.mark.parametrize("field, value, message", [
        ("image_id", 5, "image_id: expected a string, got 5"),
        ("image_id", None, "image_id: expected a string, got None"),
        ("image_id", b"img", "image_id: expected a string, got b'img'"),
        ("bicycle_index", True, "bicycle_index: expected an integer, got True"),
        ("bicycle_index", False, "bicycle_index: expected an integer, got False"),
        ("bicycle_index", 1.5, "bicycle_index: expected an integer, got 1.5"),
        ("bicycle_index", 0.0, "bicycle_index: expected an integer, got 0.0"),
        ("bicycle_index", "0", "bicycle_index: expected an integer, got '0'"),
    ])
    def test_identity_types_the_writer_takes(self, field, value, message):
        # The JSON writer writes a str id and an int index only, so every report built is one it writes.
        with pytest.raises(ValueError) as info:
            self._report(**{field: value})
        assert str(info.value) == f"report field {message}"

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="^bicycle_index must be non-negative$"):
            self._report(bicycle_index=-1)

    def test_wheel_list_capped_at_two(self):
        with pytest.raises(ValueError, match="too many wheel"):
            self._report(part_contributions={PartClass.WHEEL: (41.0, 41.0, 41.0)})

    @pytest.mark.parametrize("part, limit", [(PartClass.FRAME, 1), (PartClass.HANDLEBAR, 1)])
    def test_each_part_capped_at_its_limit(self, part, limit):
        assert self._report(part_contributions={part: (1.0,) * limit}).part_contributions[part] == (1.0,) * limit
        with pytest.raises(ValueError) as info:
            self._report(part_contributions={part: (1.0,) * (limit + 1)})
        assert str(info.value) == f"too many {part.value} contributions: {limit + 1} (max {limit})"

    @pytest.mark.parametrize("visibility, band", [
        (100.0, OcclusionBand.LOW_OR_NONE),
        (90.00000000000001, OcclusionBand.LOW_OR_NONE),
        (90.0, OcclusionBand.PARTIAL),
        (60.00000000000001, OcclusionBand.PARTIAL),
        (60.0, OcclusionBand.HEAVY),
        (20.0, OcclusionBand.HEAVY),
        (19.99, OcclusionBand.SEVERE),
        (0.0, OcclusionBand.SEVERE),
    ])
    def test_band_is_the_band_of_the_derived_occlusion(self, visibility, band):
        # Each side of the 10 %, 40 % and 80 % occlusion boundaries, read from the stored occlusion_pct.
        report = self._report(part_contributions={PartClass.FRAME: (visibility,)})
        assert (report.visibility_pct, report.occlusion_pct) == (visibility, 100.0 - visibility)
        assert report.band is band

    @pytest.mark.parametrize("contributions, visibility", [
        ({PartClass.WHEEL: (60.0, 60.0)}, 100.0),
        ({PartClass.FRAME: (-0.5,), PartClass.HANDLEBAR: (0.25,)}, 0.0),
        ({PartClass.WHEEL: (0.1, 0.2), PartClass.FRAME: (0.3,)}, 0.6000000000000001),
        ({PartClass.HANDLEBAR: (0.3,), PartClass.WHEEL: (0.1, 0.2)}, 0.6000000000000001),
        ({PartClass.WHEEL: (1e16, 1.0), PartClass.FRAME: (-1e16,)}, 0.0),
    ], ids=["clamped_high", "clamped_low", "in_order", "part_order_not_key_order", "not_compensated"])
    def test_visibility_is_the_clamped_ordered_sum(self, contributions, visibility):
        # Added one at a time in PartClass order, not fsum and not the mapping's key order.
        report = self._report(part_contributions=contributions)
        assert repr(report.visibility_pct) == repr(visibility)
        assert list(report.part_contributions) == list(PartClass)

    def test_int_contributions_are_stored_as_floats(self):
        report = self._report(part_contributions={PartClass.WHEEL: [41, 41], PartClass.HANDLEBAR: iter([1])})
        expected = {PartClass.WHEEL: (41.0, 41.0), PartClass.FRAME: (), PartClass.HANDLEBAR: (1.0,)}
        assert report.part_contributions == expected
        assert all(type(v) is float for values in report.part_contributions.values() for v in values)
        assert (type(report.visibility_pct), report.visibility_pct, report.band) == (float, 83.0, OcclusionBand.PARTIAL)

    def test_json_reads_back_as_its_dict(self):
        report = self._report()
        assert json.loads(reports_to_json([report])) == [report.to_dict()]


def _frame(detections, width=640, height=640):
    return DetectionFrame("img", width, height, tuple(detections))


class TestValidateFrame:
    def test_valid_frame_unchanged(self):
        frame = _frame(
            [
                PartDetection(PartClass.WHEEL, BoundingBox(10, 10, 50, 50), 0.9),
                PartDetection(PartClass.FRAME, BoundingBox(40, 5, 120, 60), 0.8),
                PartDetection(PartClass.HANDLEBAR, BoundingBox(100, 0, 130, 20), 0.7),
            ]
        )
        assert validate_frame(frame) == frame

    def test_unknown_part_label(self):
        frame = _frame([PartDetection("pedal", BoundingBox(0, 0, 10, 10), 0.9)])
        with pytest.raises(FrameValidationError, match="unknown part label: pedal"):
            validate_frame(frame)

    def test_zero_width_bbox_names_index(self):
        frame = _frame([PartDetection(PartClass.WHEEL, BoundingBox(10, 10, 10, 20), 0.9)])
        with pytest.raises(FrameValidationError, match="zero-width bbox at index 0"):
            validate_frame(frame)

    def test_confidence_out_of_range_names_index(self):
        frame = _frame(
            [
                PartDetection(PartClass.WHEEL, BoundingBox(0, 0, 10, 10), 0.9),
                PartDetection(PartClass.FRAME, BoundingBox(0, 0, 10, 10), 1.2),
            ]
        )
        with pytest.raises(FrameValidationError, match="confidence out of range at index 1"):
            validate_frame(frame)

    def test_bbox_clamped_to_image(self):
        frame = _frame([PartDetection(PartClass.WHEEL, BoundingBox(-20, 600, 100, 700), 0.9)])
        out = validate_frame(frame)
        bbox = out.detections[0].bbox
        assert (bbox.x_min, bbox.y_min, bbox.x_max, bbox.y_max) == (0, 600, 100, 640)

    def test_bbox_fully_outside_becomes_error(self):
        frame = _frame([PartDetection(PartClass.WHEEL, BoundingBox(700, 10, 800, 50), 0.9)])
        with pytest.raises(FrameValidationError, match="zero-width bbox at index 0"):
            validate_frame(frame)

    def test_polygon_needs_three_vertices(self):
        frame = _frame(
            [PartDetection(PartClass.WHEEL, BoundingBox(0, 0, 10, 10), 0.9, polygon=((0, 0), (10, 10)))]
        )
        with pytest.raises(FrameValidationError, match="fewer than 3 vertices at index 0"):
            validate_frame(frame)

    def test_polygon_must_match_bbox(self):
        frame = _frame(
            [
                PartDetection(
                    PartClass.WHEEL,
                    BoundingBox(0, 0, 10, 10),
                    0.9,
                    polygon=((0, 0), (30, 0), (30, 30), (0, 30)),
                )
            ]
        )
        with pytest.raises(FrameValidationError, match="polygon extent disagrees with bbox at index 0"):
            validate_frame(frame)

    def test_polygon_within_half_pixel_accepted(self):
        frame = _frame(
            [
                PartDetection(
                    PartClass.WHEEL,
                    BoundingBox(0, 0, 10, 10),
                    0.9,
                    polygon=((0.4, 0.0), (10.0, 0.3), (9.6, 10.0), (0.0, 9.9)),
                )
            ]
        )
        validate_frame(frame)

    def test_all_errors_collected(self):
        frame = _frame(
            [
                PartDetection("pedal", BoundingBox(0, 0, 10, 10), 0.9),
                PartDetection(PartClass.WHEEL, BoundingBox(5, 5, 5, 9), 0.9),
            ]
        )
        with pytest.raises(FrameValidationError) as excinfo:
            validate_frame(frame)
        assert len(excinfo.value.errors) == 2

    def test_non_positive_image_dimensions(self):
        with pytest.raises(FrameValidationError, match="non-positive image dimensions"):
            validate_frame(DetectionFrame("img", 0, 640, ()))

    @pytest.mark.parametrize("width, height", [(math.nan, 640), (640, math.inf)])
    def test_non_finite_image_dimensions(self, width, height):
        with pytest.raises(FrameValidationError, match="non-finite image dimensions"):
            validate_frame(DetectionFrame("img", width, height, ()))

    @pytest.mark.parametrize(
        "bbox, confidence, polygon, message",
        [
            (BoundingBox(math.nan, 10, 100, 100), 0.9, None, "non-finite bbox coordinate at index 1"),
            (BoundingBox(10, 10, math.inf, 100), 0.9, None, "non-finite bbox coordinate at index 1"),
            (BoundingBox(10, 10, 100, 100), math.nan, None, "confidence out of range at index 1: nan"),
            (BoundingBox(10, 10, 100, 100), 0.9, ((10, 10), (100, math.nan), (100, 100)), "non-finite polygon vertex at index 1"),
            (BoundingBox(10, 10, 640, 100), 0.9, ((10, 10), (math.inf, 10), (640, 100)), "non-finite polygon vertex at index 1"),
        ],
    )
    def test_non_finite_numbers_name_index(self, bbox, confidence, polygon, message):
        frame = _frame(
            [
                PartDetection(PartClass.FRAME, BoundingBox(0, 0, 10, 10), 0.9),
                PartDetection(PartClass.WHEEL, bbox, confidence, polygon=polygon),
            ]
        )
        with pytest.raises(FrameValidationError) as info:
            validate_frame(frame)
        assert info.value.errors == [message]


def reference_clamped(bbox, image_width, image_height):
    """``BoundingBox.clamped`` as it was before it kept a box already inside: always a new box."""
    return BoundingBox(
        min(max(bbox.x_min, 0.0), float(image_width)),
        min(max(bbox.y_min, 0.0), float(image_height)),
        min(max(bbox.x_max, 0.0), float(image_width)),
        min(max(bbox.y_max, 0.0), float(image_height)),
    )


def reference_validate_detection(det, index, image_width, image_height):
    """``validate_detection`` as it was before it kept a detection needing no change: always a new detection."""
    part = det.part
    if not isinstance(part, PartClass):
        try:
            part = PartClass.from_label(part)
        except UnknownPartLabelError as exc:
            raise FrameValidationError([str(exc)]) from None

    bbox = det.bbox
    if not all(map(math.isfinite, (bbox.x_min, bbox.y_min, bbox.x_max, bbox.y_max))):
        raise FrameValidationError([f"non-finite bbox coordinate at index {index}"])
    bbox = reference_clamped(bbox, image_width, image_height)
    if bbox.width() <= 0:
        raise FrameValidationError([f"zero-width bbox at index {index}"])
    if bbox.height() <= 0:
        raise FrameValidationError([f"zero-height bbox at index {index}"])

    if not 0.0 <= det.confidence <= 1.0:
        raise FrameValidationError([f"confidence out of range at index {index}: {det.confidence}"])

    polygon = det.polygon
    if polygon is not None:
        if len(polygon) < 3:
            raise FrameValidationError([f"polygon with fewer than 3 vertices at index {index}"])
        if not all(math.isfinite(c) for vertex in polygon for c in vertex):
            raise FrameValidationError([f"non-finite polygon vertex at index {index}"])
        w, h = float(image_width), float(image_height)
        polygon = tuple((min(max(float(x), 0.0), w), min(max(float(y), 0.0), h)) for x, y in polygon)
        extent = (*map(min, zip(*polygon)), *map(max, zip(*polygon)))
        deviation = max(abs(a - b) for a, b in zip(extent, (bbox.x_min, bbox.y_min, bbox.x_max, bbox.y_max)))
        if deviation > POLYGON_BBOX_TOLERANCE:
            raise FrameValidationError(
                [f"polygon extent disagrees with bbox at index {index} (off by {deviation:.2f} px)"]
            )

    return PartDetection(part, bbox, det.confidence, polygon)


@st.composite
def detections_to_validate(draw):
    """A detection and its image size: int, float, -0.0, edge, overhanging and non-finite coordinates."""
    width, height = draw(st.integers(1, 800)), draw(st.integers(1, 800))

    def coordinate(limit):
        return draw(
            st.integers(0, limit)
            | st.floats(0, limit)
            | st.floats(-20, limit + 20)
            | st.sampled_from([0, 0.0, -0.0, limit, float(limit), -1.5, limit + 0.25, math.nan, math.inf])
        )

    # Ordered (NaN first), so most boxes have a positive width and height.
    x0, x1 = sorted((coordinate(width), coordinate(width)), key=lambda c: -math.inf if c != c else c)
    y0, y1 = sorted((coordinate(height), coordinate(height)), key=lambda c: -math.inf if c != c else c)
    part = draw(st.sampled_from(list(PartClass)) | st.sampled_from(["wheel", " Frame ", "HANDLEBAR", "pedal"]))
    confidence = draw(st.floats(0, 1) | st.sampled_from([0, 1, 1.5, math.nan]))
    corners = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    inside = [(min(max(float(x), 0.0), width), min(max(float(y), 0.0), height)) for x, y in corners]
    as_int = lambda c: int(c) if math.isfinite(c) else c  # noqa: E731
    polygon = draw(
        st.sampled_from(
            [
                None,
                tuple(inside),  # already normalized
                tuple(corners),  # the box's own values, ints and all
                tuple((as_int(x), as_int(y)) for x, y in inside),
                tuple((x + 0.25, y + 0.25) for x, y in inside),  # overhangs within the tolerance
                tuple((x - 0.25, y - 0.25) for x, y in inside),
                tuple((x + 3.0, y) for x, y in inside),  # overhangs or disagrees with the box
                tuple(inside[:2]),
                list(inside),
                tuple(list(vertex) for vertex in inside),
            ]
        )
    )
    return PartDetection(part, BoundingBox(x0, y0, x1, y1), confidence, polygon), width, height


def _outcome(validate, det, width, height):
    try:
        return repr(validate(det, 3, width, height))
    except Exception as exc:  # noqa: BLE001
        return f"{type(exc).__name__}: {exc}"


class TestValidateDetectionReuse:
    @given(detections_to_validate())
    @settings(max_examples=600)
    @example((PartDetection(PartClass.WHEEL, BoundingBox(-0.0, 0, 640, 480.0), 0.9), 640, 480))
    def test_matches_always_copying_reference(self, case):
        det, width, height = case
        outcome = _outcome(validate_detection, det, width, height)
        assert outcome == _outcome(reference_validate_detection, det, width, height)
        if outcome.startswith("PartDetection("):
            # What validate_detection returns needs no more normalizing, so it comes back as itself.
            normalized = validate_detection(det, 3, width, height)
            assert validate_detection(normalized, 3, width, height) is normalized

    @pytest.mark.parametrize(
        "bbox, polygon",
        [  # each polygon leaves the 640 x 480 image over one edge, by less than POLYGON_BBOX_TOLERANCE
            ((0.0, 0.0, 10.0, 10.0), ((-0.25, 0.0), (10.0, 0.0), (10.0, 10.0), (-0.25, 10.0))),
            ((630.0, 0.0, 640.0, 10.0), ((630.0, 0.0), (640.25, 0.0), (640.25, 10.0), (630.0, 10.0))),
            ((0.0, 0.0, 10.0, 10.0), ((0.0, -0.25), (10.0, -0.25), (10.0, 10.0), (0.0, 10.0))),
            ((0.0, 470.0, 10.0, 480.0), ((0.0, 470.0), (10.0, 470.0), (10.0, 480.25), (0.0, 480.25))),
        ],
    )
    def test_polygon_over_one_edge_is_clamped(self, bbox, polygon):
        det = PartDetection(PartClass.FRAME, BoundingBox(*bbox), 0.9, polygon)
        out = validate_detection(det, 0, 640, 480)
        assert out is not det and out.bbox is det.bbox
        assert repr(out) == repr(reference_validate_detection(det, 0, 640, 480))

    def test_polygon_of_ints_or_lists_is_copied_as_floats(self):
        det = PartDetection(PartClass.WHEEL, BoundingBox(0.0, 0.0, 10.0, 10.0), 0.9, [[0, 0], [10, 0], [10, 10]])
        out = validate_detection(det, 0, 640, 640)
        assert out is not det and out.bbox is det.bbox
        assert repr(out.polygon) == "((0.0, 0.0), (10.0, 0.0), (10.0, 10.0))"
