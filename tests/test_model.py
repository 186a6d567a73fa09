import json
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import BAD_CONFIG_IDS, BAD_CONFIGS

from occlusion_meter.model import (
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


class TestSurfaceAreaModel:
    def test_default_identities(self):
        model = SurfaceAreaModel()
        assert 2 * model.wheel_area_cm2 + model.frame_area_cm2 + model.handlebar_area_cm2 == 8364
        assert 2 * model.wheel_share_pct + model.frame_share_pct + model.handlebar_share_pct == 100.0

    def test_share_lookup(self):
        model = SurfaceAreaModel()
        assert model.share_pct(PartClass.WHEEL) == 41.0
        assert model.share_pct(PartClass.FRAME) == 17.0
        assert model.share_pct(PartClass.HANDLEBAR) == 1.0

    def test_inconsistent_total_rejected(self):
        with pytest.raises(ValueError, match="total_area_cm2"):
            SurfaceAreaModel(total_area_cm2=9000.0)

    def test_inconsistent_shares_rejected(self):
        with pytest.raises(ValueError, match="sum to 100"):
            SurfaceAreaModel(wheel_share_pct=40.0)

    def test_roundtrip(self):
        model = SurfaceAreaModel()
        assert SurfaceAreaModel.from_dict(model.to_dict()) == model


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

    def test_first_fraction_must_be_one(self):
        with pytest.raises(ValueError, match="first fraction"):
            ClassifierConfig(wheel_fractions=((0.85, 0.9), (0.6, 0.7), (0.45, 0.5), (0.0, 0.4)))

    def test_confidence_threshold_range(self):
        with pytest.raises(ValueError, match="confidence_threshold"):
            ClassifierConfig(confidence_threshold=1.5)

    @pytest.mark.parametrize("floor", [-1.0, 5.0, math.nan])
    def test_detectability_floor_range(self, floor):
        with pytest.raises(ValueError, match="detectability_floor must be in"):
            ClassifierConfig(detectability_floor=floor)
        with pytest.raises(ValueError, match="detectability_floor must be in"):
            ClassifierConfig.from_dict({"detectability_floor": floor})

    def test_roundtrip(self):
        config = ClassifierConfig(confidence_threshold=0.25)
        assert ClassifierConfig.from_dict(config.to_dict()) == config

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown config fields"):
            ClassifierConfig.from_dict({"confidence": 0.5})

    @pytest.mark.parametrize("document, field", BAD_CONFIGS, ids=BAD_CONFIG_IDS)
    def test_wrong_types_and_non_finite_values_name_field(self, document, field):
        with pytest.raises(ValueError, match=field):
            ClassifierConfig.from_dict(json.loads(document))


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
            visibility_pct=87.7,
            occlusion_pct=100.0 - 87.7,
            band=OcclusionBand.PARTIAL,
        )
        kwargs.update(overrides)
        return VisibilityReport(**kwargs)

    def test_part_sums(self):
        report = self._report()
        assert report.wheel_pct == pytest.approx(69.7)
        assert report.frame_pct == 17.0
        assert report.handlebar_pct == 1.0

    def test_conservation_enforced(self):
        with pytest.raises(ValueError, match="must equal 100"):
            self._report(occlusion_pct=20.0)

    def test_wheel_list_capped_at_two(self):
        with pytest.raises(ValueError, match="too many wheel"):
            self._report(part_contributions={PartClass.WHEEL: (41.0, 41.0, 41.0)})

    def test_roundtrip(self):
        report = self._report()
        assert VisibilityReport.from_dict(report.to_dict()) == report


class TestOcclusionBand:
    def test_from_label(self):
        assert OcclusionBand.from_label("Partial") is OcclusionBand.PARTIAL
        with pytest.raises(ValueError, match="unknown occlusion band"):
            OcclusionBand.from_label("total")


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
