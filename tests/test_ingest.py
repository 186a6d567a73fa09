import csv
import dataclasses
import hashlib
import io
import json
import logging
import math
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EXPECTED_SCENARIOS, INT_DIGIT_LIMIT, random_frame
from occlusion_meter import cli
from occlusion_meter.classifier import classify_frame
from occlusion_meter.evaluation import summarize
from occlusion_meter.ingest import (
    CSV_HEADER,
    ParseError,
    _parse_config,
    parse_detections,
    reports_to_csv,
    reports_to_json,
    write_reports,
)
from occlusion_meter import ingest, model
from occlusion_meter.model import PartClass, validate_frame


class _Collect(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def doc(predictions, image_id="img", width=640, height=640):
    return json.dumps({"image": {"id": image_id, "width": width, "height": height}, "predictions": predictions})


WHEEL = {"class": "wheel", "confidence": 0.9, "x": 320, "y": 320, "width": 100, "height": 100}


class TestParseDetections:
    def test_center_converted_to_corners(self):
        frame = parse_detections(doc([WHEEL]))
        bbox = frame.detections[0].bbox
        assert (bbox.x_min, bbox.y_min, bbox.x_max, bbox.y_max) == (270, 270, 370, 370)

    def test_accepts_bytes(self):
        frame = parse_detections(doc([WHEEL]).encode("utf-8"))
        assert len(frame.detections) == 1

    def test_corner_based_variant(self):
        pred = {"class": "frame", "confidence": 0.8, "x_min": 10, "y_min": 20, "x_max": 110, "y_max": 90}
        frame = parse_detections(doc([pred]))
        bbox = frame.detections[0].bbox
        assert (bbox.x_min, bbox.y_min, bbox.x_max, bbox.y_max) == (10, 20, 110, 90)

    def test_labels_case_folded(self):
        pred = dict(WHEEL, **{"class": "Wheel"})
        frame = parse_detections(doc([pred]))
        assert frame.detections[0].part is PartClass.WHEEL

    def test_confidence_out_of_range(self):
        pred = dict(WHEEL, confidence=1.2)
        with pytest.raises(ParseError, match="confidence out of range"):
            parse_detections(doc([pred]))

    def test_unknown_label_strict(self):
        pred = dict(WHEEL, **{"class": "pedal"})
        with pytest.raises(ParseError, match="unknown part label: pedal"):
            parse_detections(doc([pred]))

    def test_unknown_label_permissive_drops_and_logs(self, caplog):
        preds = [dict(WHEEL, **{"class": "pedal"}), WHEEL]
        with caplog.at_level(logging.WARNING, logger="occlusion_meter.ingest"):
            frame = parse_detections(doc(preds), permissive=True)
        assert len(frame.detections) == 1
        assert any("unknown part label: pedal" in rec.getMessage() for rec in caplog.records)

    def test_never_invents_detections(self):
        preds = [WHEEL, dict(WHEEL, **{"class": "pedal"})]
        frame = parse_detections(doc(preds), permissive=True)
        assert len(frame.detections) <= len(preds)

    def test_malformed_json(self):
        with pytest.raises(ParseError, match="malformed JSON"):
            parse_detections(b"{not json")

    def test_missing_image_field(self):
        with pytest.raises(ParseError, match="missing required field: image"):
            parse_detections(json.dumps({"predictions": []}))

    def test_missing_dimension_named(self):
        with pytest.raises(ParseError, match="missing required field: image.width"):
            parse_detections(json.dumps({"image": {"id": "x", "height": 640}, "predictions": []}))

    def test_missing_bbox_field_named(self):
        pred = {"class": "wheel", "confidence": 0.9, "x": 1, "y": 2, "width": 10}
        with pytest.raises(ParseError, match="predictions\\[0\\].height"):
            parse_detections(doc([pred]))

    def test_non_numeric_coordinate(self):
        pred = dict(WHEEL, x="left")
        with pytest.raises(ParseError, match="expected a number"):
            parse_detections(doc([pred]))

    def test_bbox_clamped_to_image(self):
        pred = dict(WHEEL, x=630, width=40)
        frame = parse_detections(doc([pred]))
        assert frame.detections[0].bbox.x_max == 640

    def test_degenerate_after_clamp_strict(self):
        pred = dict(WHEEL, x=900)
        with pytest.raises(ParseError, match="zero-width bbox at index 0"):
            parse_detections(doc([pred]))

    def test_degenerate_after_clamp_permissive(self, caplog):
        preds = [dict(WHEEL, x=900), WHEEL]
        with caplog.at_level(logging.WARNING, logger="occlusion_meter.ingest"):
            frame = parse_detections(doc(preds), permissive=True)
        assert len(frame.detections) == 1

    def test_permissive_drop_log_names_prediction_index(self, caplog):
        preds = [dict(WHEEL, **{"class": "pedal"}), WHEEL, dict(WHEEL, **{"class": "frame", "x": 900})]
        with caplog.at_level(logging.WARNING, logger="occlusion_meter.ingest"):
            frame = parse_detections(doc(preds), permissive=True)
        assert [d.part for d in frame.detections] == [PartClass.WHEEL]
        messages = [rec.getMessage() for rec in caplog.records]
        assert messages[-1] == "dropping predictions[2]: zero-width bbox at index 2"

    def test_polygon_points_parsed(self):
        pred = dict(
            WHEEL,
            points=[{"x": 270, "y": 270}, {"x": 370, "y": 270}, {"x": 370, "y": 370}, {"x": 270, "y": 370}],
        )
        frame = parse_detections(doc([pred]))
        assert frame.detections[0].polygon == ((270, 270), (370, 270), (370, 370), (270, 370))

    def test_polygon_bbox_mismatch_rejected(self):
        pred = dict(WHEEL, points=[{"x": 0, "y": 0}, {"x": 50, "y": 0}, {"x": 50, "y": 50}])
        with pytest.raises(ParseError, match="polygon extent disagrees"):
            parse_detections(doc([pred]))

    @given(st.integers(0, 2**32 - 1), st.lists(st.sampled_from(["keep", "zero_width", "right_of", "above"]), min_size=1))
    @settings(max_examples=200, deadline=None)
    def test_strict_names_exactly_what_permissive_drops(self, seed, kinds):
        frame = random_frame(random.Random(seed))
        preds = []
        for i, det in enumerate(frame.detections):
            x0, y0, x1, y1 = det.bbox.x_min, det.bbox.y_min, det.bbox.x_max, det.bbox.y_max
            kind = kinds[i % len(kinds)]
            if kind == "zero_width":
                x1 = x0
            elif kind == "right_of":  # clamped to zero width
                x0, x1 = x0 + 700.0, x1 + 700.0
            elif kind == "above":  # clamped to zero height
                y0, y1 = y0 - 700.0, y1 - 700.0
            preds.append({"class": det.part.value, "confidence": det.confidence,
                          "x_min": x0, "y_min": y0, "x_max": x1, "y_max": y1})
        document = doc(preds)

        logger = logging.getLogger("occlusion_meter.ingest")
        handler = _Collect()
        logger.addHandler(handler)
        try:
            permissive = parse_detections(document, permissive=True)
        finally:
            logger.removeHandler(handler)
        dropped = [re.fullmatch(r"dropping predictions\[(\d+)\]: (.*)", m).groups() for m in handler.messages]

        try:
            strict = parse_detections(document)
        except ParseError as exc:
            assert dropped
            assert exc.path == "predictions"
            assert str(exc) == "predictions: " + "; ".join(reason for _, reason in dropped)
            assert all(reason.endswith(f"at index {i}") for i, reason in dropped)
        else:
            assert not dropped
            assert strict == permissive

    @pytest.mark.parametrize("permissive", [False, True])
    @pytest.mark.parametrize(
        "field, value",
        [("x", math.nan), ("width", math.inf), ("confidence", math.nan), ("y", -math.inf)],
    )
    def test_non_finite_prediction_number_rejected(self, field, value, permissive):
        pred = dict(WHEEL, **{field: value})
        with pytest.raises(ParseError, match="expected a finite number") as info:
            parse_detections(doc([WHEEL, pred]), permissive=permissive)
        assert info.value.path == f"predictions[1].{field}"

    @pytest.mark.parametrize("permissive", [False, True])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_image_width_rejected(self, value, permissive):
        with pytest.raises(ParseError, match="expected a finite number") as info:
            parse_detections(doc([WHEEL], width=value), permissive=permissive)
        assert info.value.path == "image.width"

    def test_fixture_documents_classify_to_expected_values(self, scenario_frames):
        for frame in scenario_frames:
            (report,) = classify_frame(frame)
            visibility, occlusion = EXPECTED_SCENARIOS[frame.image_id]
            assert report.visibility_pct == pytest.approx(visibility, abs=0.05)
            assert report.occlusion_pct == pytest.approx(occlusion, abs=0.05)


FRAME_CORNERS = {"class": "frame", "confidence": 0.8, "x_min": 10, "y_min": 20, "x_max": 110, "y_max": 90}
OUTLINED = dict(FRAME_CORNERS, points=[{"x": 10, "y": 20}, {"x": 110, "y": 20}, {"x": 110, "y": 90}, {"x": 10, "y": 90}])

# Each bad number as json.dumps writes it, and the message it must give.
BAD_NUMBERS = [
    ("left", "expected a number, got 'left'"),
    (True, "expected a number, got True"),
    (None, "expected a number, got None"),
    ([1], "expected a number, got [1]"),
    (math.nan, "expected a finite number, got nan"),
    (math.inf, "expected a finite number, got inf"),
    (-math.inf, "expected a finite number, got -inf"),
    (10**400, f"expected a finite number, got {10**400}"),
    (-(10**400), f"expected a finite number, got {-(10**400)}"),
]
BAD_NUMBER_IDS = ["str", "true", "null", "array", "nan", "inf", "-inf", "big", "-big"]


class TestErrorPaths:
    """The exact text and ``path`` of every field error, recorded before the parser formatted paths lazily."""

    def raised(self, preds, permissive, **image):
        with pytest.raises(ParseError) as info:
            parse_detections(doc(preds, **image), permissive=permissive)
        return str(info.value), info.value.path

    @pytest.mark.parametrize("permissive", [False, True])
    @pytest.mark.parametrize("value, message", BAD_NUMBERS, ids=BAD_NUMBER_IDS)
    @pytest.mark.parametrize("key", ["x_min", "y_min", "x_max", "y_max", "confidence"])
    def test_corner_prediction_number(self, key, value, message, permissive):
        path = f"predictions[1].{key}"
        assert self.raised([FRAME_CORNERS, dict(FRAME_CORNERS, **{key: value})], permissive) == (f"{path}: {message}", path)

    @pytest.mark.parametrize("permissive", [False, True])
    @pytest.mark.parametrize("value, message", BAD_NUMBERS, ids=BAD_NUMBER_IDS)
    @pytest.mark.parametrize("key", ["x", "y", "width", "height"])
    def test_center_prediction_number(self, key, value, message, permissive):
        path = f"predictions[1].{key}"
        assert self.raised([WHEEL, dict(WHEEL, **{key: value})], permissive) == (f"{path}: {message}", path)

    @pytest.mark.parametrize("permissive", [False, True])
    @pytest.mark.parametrize("value, message", BAD_NUMBERS, ids=BAD_NUMBER_IDS)
    @pytest.mark.parametrize("key", ["x", "y"])
    def test_point_coordinate(self, key, value, message, permissive):
        points = [dict(point) for point in OUTLINED["points"]]
        points[2][key] = value
        path = f"predictions[1].points[2].{key}"
        assert self.raised([OUTLINED, dict(OUTLINED, points=points)], permissive) == (f"{path}: {message}", path)

    @pytest.mark.parametrize("permissive", [False, True])
    @pytest.mark.parametrize("value, message", BAD_NUMBERS, ids=BAD_NUMBER_IDS)
    @pytest.mark.parametrize("key", ["width", "height"])
    def test_image_dimension(self, key, value, message, permissive):
        assert self.raised([WHEEL], permissive, **{key: value}) == (f"image.{key}: {message}", f"image.{key}")

    @pytest.mark.parametrize("permissive", [False, True])
    @pytest.mark.parametrize("value", [0, -5, 640.5])
    @pytest.mark.parametrize("key", ["width", "height"])
    def test_image_dimension_not_a_positive_integer(self, key, value, permissive):
        # A finite number, so it passes the number reader; the image's own check names the image.
        message = "image: image dimensions must be positive integers"
        assert self.raised([WHEEL], permissive, **{key: value}) == (message, "image")

    @pytest.mark.parametrize("permissive", [False, True])
    @pytest.mark.parametrize(
        "missing, center",
        [(["x_min"], {}), (["y_min"], {}), (["x_max"], {}), (["y_max"], {}), (["y_min", "x_max"], {}),
         (["x_max", "y_max"], {"x": 60, "y": 55, "width": 100})],
        ids=["x_min", "y_min", "x_max", "y_max", "y_min-x_max", "x_max-y_max-part_center"],
    )
    def test_missing_corner_is_named(self, missing, center, permissive):
        # Some corner keys and no whole center form: the box was written as corners, so the first corner key it lacks
        # (in x_min, y_min, x_max, y_max order) is named, not the center form's x.
        pred = {k: v for k, v in FRAME_CORNERS.items() if k not in missing} | center
        expected = (f"missing required field: predictions[1].{missing[0]}", "")
        assert self.raised([FRAME_CORNERS, pred], permissive) == expected

    def test_partial_corners_with_a_whole_center_form_read_as_center(self):
        pred = dict(WHEEL, x_min=0, y_max=5)
        bbox = parse_detections(doc([pred])).detections[0].bbox
        assert (bbox.x_min, bbox.y_min, bbox.x_max, bbox.y_max) == (270, 270, 370, 370)

    @pytest.mark.parametrize("permissive", [False, True])
    @pytest.mark.parametrize("key", ["class", "confidence", "x", "y", "width", "height"])
    def test_missing_prediction_key(self, key, permissive):
        pred = {k: v for k, v in WHEEL.items() if k != key}
        assert self.raised([WHEEL, pred], permissive) == (f"missing required field: predictions[1].{key}", "")

    @pytest.mark.parametrize("permissive", [False, True])
    @pytest.mark.parametrize("key", ["x", "y"])
    def test_missing_point_coordinate(self, key, permissive):
        points = [dict(point) for point in OUTLINED["points"]]
        del points[2][key]
        expected = (f"missing required field: predictions[1].points[2].{key}", "")
        assert self.raised([OUTLINED, dict(OUTLINED, points=points)], permissive) == expected

    @pytest.mark.parametrize("permissive", [False, True])
    @pytest.mark.parametrize("point", ["p", 3, None, True, [10, 90]], ids=["str", "int", "null", "true", "array"])
    def test_point_not_an_object(self, point, permissive):
        points = OUTLINED["points"][:2] + [point] + OUTLINED["points"][3:]
        path = "predictions[1].points[2]"
        assert self.raised([OUTLINED, dict(OUTLINED, points=points)], permissive) == (f"{path}: expected an object", path)

    @pytest.mark.parametrize("permissive", [False, True])
    @pytest.mark.parametrize("pred", ["wheel", 7, None, [WHEEL]], ids=["str", "int", "null", "array"])
    def test_prediction_not_an_object(self, pred, permissive):
        assert self.raised([WHEEL, pred], permissive) == ("predictions[1]: expected an object", "predictions[1]")

    @pytest.mark.parametrize("permissive", [False, True])
    def test_points_not_an_array(self, permissive):
        path = "predictions[1].points"
        assert self.raised([OUTLINED, dict(OUTLINED, points="none")], permissive) == (f"{path}: expected an array of points", path)

    @pytest.mark.parametrize("permissive", [False, True])
    def test_confidence_out_of_range(self, permissive):
        path = "predictions[1].confidence"
        assert self.raised([WHEEL, dict(WHEEL, confidence=-0.5)], permissive) == (f"{path}: confidence out of range", path)


# How a prediction of random_document is written, and how it is spoiled.
_KEPT_KINDS = ("corners", "corners", "corners", "center", "polygon", "upper_case", "overhang")
_SPOILED_KINDS = ("unknown_label", "zero_width", "off_canvas", "bad_polygon", "bad_confidence")


def random_document(rng: random.Random, index: int) -> str:
    """A ``random_frame`` written as a detector document, its boxes shrunk about their centres, some spoiled."""
    frame = random_frame(rng, max_parts=16, image_id=f"doc-{index}")
    shrink = rng.choice((1.0, 0.3, 0.1))  # smaller boxes link less, so frames hold more bicycles
    spoil = rng.choice((0.0, 0.0, 0.05, 0.2))
    preds = []
    for det in frame.detections:
        x0, y0, x1, y1 = det.bbox.x_min, det.bbox.y_min, det.bbox.x_max, det.bbox.y_max
        dx, dy = (x1 - x0) * (1.0 - shrink) / 2, (y1 - y0) * (1.0 - shrink) / 2
        x0, y0, x1, y1 = x0 + dx, y0 + dy, x1 - dx, y1 - dy
        pred = {"class": det.part.value, "confidence": det.confidence}
        kind = rng.choice(_SPOILED_KINDS if rng.random() < spoil else _KEPT_KINDS)
        if kind == "center":
            pred.update(x=(x0 + x1) / 2, y=(y0 + y1) / 2, width=x1 - x0, height=y1 - y0)
            preds.append(pred)
            continue
        if kind == "upper_case":
            pred["class"] = f" {det.part.value.upper()} "
        elif kind == "overhang":  # clamped to the canvas
            x1 += 150.0
        elif kind == "unknown_label":
            pred["class"] = "saddle"
        elif kind == "zero_width":
            x1 = x0
        elif kind == "off_canvas":  # clamped to zero width
            x0, x1 = x0 + 700.0, x1 + 700.0
        elif kind == "bad_confidence":
            pred["confidence"] = 1.0 + det.confidence
        elif kind in ("polygon", "bad_polygon"):
            off = 0.4 if kind == "polygon" else 3.0
            pred["points"] = [{"x": x0 + off, "y": y0}, {"x": x1, "y": y0 + off}, {"x": x1 - off, "y": y1}, {"x": x0, "y": y1}]
        pred.update(x_min=x0, y_min=y0, x_max=x1, y_max=y1)
        preds.append(pred)
    return doc(preds, image_id=frame.image_id)


def detection_digest(seed: int, count: int) -> tuple[str, Counter]:
    """SHA-256 of parse -> classify_frame -> write_reports over ``count`` random documents, and what they hit."""
    rng = random.Random(seed)
    digest = hashlib.sha256()
    seen = Counter()
    for index in range(count):
        document = random_document(rng, index)
        for permissive in (False, True):
            try:
                frame = parse_detections(document, permissive=permissive)
            except ParseError as exc:
                seen["rejected", permissive] += 1
                digest.update(f"error: {exc}\n".encode())
                continue
            reports = classify_frame(frame)
            seen["bicycles", len(reports)] += 1
            for fmt in ("csv", "json"):
                digest.update(write_reports(reports, fmt).encode() + b"\0")
    return digest.hexdigest(), seen


def corner_predictions(frame) -> list[dict]:
    return [{"class": d.part.value, "confidence": d.confidence, "x_min": d.bbox.x_min, "y_min": d.bbox.y_min,
             "x_max": d.bbox.x_max, "y_max": d.bbox.y_max} for d in frame.detections]


class TestDetectionPath:
    def test_detection_bytes_pinned(self):
        # Recorded before the detection path's performance work: a speed-up must leave every byte here as it was.
        digest, seen = detection_digest(20261018, 300)
        assert seen["rejected", False] > seen["rejected", True] > 0
        assert all(seen["bicycles", n] for n in range(5))
        assert digest == "11fe0c6786cc641ff26b76c0abbfb986ea1a9ec3b9d4f9a2780011093bb25ef7"

    def test_parsed_predictions_are_validated_once(self, monkeypatch):
        calls = []
        validate_detection = model.validate_detection
        counted = lambda det, index, width, height: calls.append(index) or validate_detection(det, index, width, height)
        monkeypatch.setattr(model, "validate_detection", counted)
        monkeypatch.setattr("occlusion_meter.ingest.validate_detection", counted)
        kept = 0
        rng = random.Random(5)
        for index in range(50):
            frame = random_frame(rng, image_id=f"once-{index}")
            preds = corner_predictions(frame) + [{"class": "saddle"}]  # dropped before validation
            classify_frame(parse_detections(doc(preds), permissive=True))
            kept += len(frame.detections)
        assert len(calls) == kept
        # A frame built in code is still checked, once per detection.
        frame = random_frame(random.Random(6), image_id="code")
        calls.clear()
        classify_frame(frame)
        assert len(calls) == len(frame.detections)

    def test_parsed_detections_are_kept_as_they_are(self):
        rng = random.Random(8)
        kept = 0
        for index in range(100):
            try:
                parsed = parse_detections(random_document(rng, index), permissive=True)
            except ParseError:
                continue
            checked = validate_frame(parsed)
            assert all(a is b for a, b in zip(checked.detections, parsed.detections, strict=True))
            kept += len(parsed.detections)
        assert kept > 500

    def test_validated_mark_is_not_part_of_the_value(self):
        frame = random_frame(random.Random(7), image_id="mark")
        checked = validate_frame(frame)
        parsed = parse_detections(doc(corner_predictions(frame), image_id="mark"))
        assert parsed.validated and checked.validated and not frame.validated
        assert parsed == checked == frame
        assert repr(parsed) == repr(frame)
        assert dataclasses.asdict(parsed) == dataclasses.asdict(frame)
        assert not dataclasses.replace(parsed).validated


@pytest.mark.parametrize("reader", [parse_detections, _parse_config])
class TestUndecodable:
    """Every JSON reader shares one decoder, so each decode failure is a ParseError."""

    def test_bad_utf8(self, reader):
        with pytest.raises(ParseError, match="^malformed JSON: 'utf-8' codec can't decode byte 0xff"):
            reader(b"\xff[]")

    @pytest.mark.skipif(not INT_DIGIT_LIMIT, reason="no int digit limit on this Python")
    def test_int_past_digit_limit(self, reader):
        with pytest.raises(ParseError, match=r"^malformed JSON: Exceeds the limit \("):
            reader("[1" + "0" * INT_DIGIT_LIMIT + "]")

    def test_nested_too_deeply(self, reader):
        with pytest.raises(ParseError, match="^JSON nested too deeply$"):
            reader("[" * 100_000 + "]" * 100_000)


class TestWriteReports:
    def test_csv_row_for_reference_scenario(self, scenario_reports):
        report = next(r for r in scenario_reports if r.image_id == "scenario_a")
        text = reports_to_csv([report])
        lines = text.splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert lines[1] == "scenario_a,0,69.7,17.0,1.0,87.7,12.3,partial"

    def test_fully_visible_row(self, scenario_reports):
        report = next(r for r in scenario_reports if r.image_id == "scenario_e")
        line = reports_to_csv([report]).splitlines()[1]
        assert line == "scenario_e,0,82.0,17.0,1.0,100.0,0.0,low_or_none"

    def test_empty_reports_header_only(self):
        text = reports_to_csv([])
        assert text.splitlines() == [",".join(CSV_HEADER)]

    @pytest.mark.parametrize(
        "image_id", ["a,b", 'say "hi"', "two\nlines", " padded ", ""], ids=["comma", "quote", "newline", "spaces", "empty"]
    )
    def test_csv_reads_back_as_the_id_and_one_decimal_percentages(self, image_id):
        report = model.VisibilityReport(image_id, 2, {PartClass.WHEEL: (41.0, 20.04), PartClass.FRAME: (17.0,)})
        rows = list(csv.reader(io.StringIO(reports_to_csv([report]), newline="")))
        assert rows == [CSV_HEADER, [image_id, "2", "61.0", "17.0", "0.0", "78.0", "22.0", "partial"]]

    def test_write_reports_dispatch(self, scenario_reports):
        assert write_reports(scenario_reports, "csv") == reports_to_csv(scenario_reports)
        assert write_reports(scenario_reports, "json") == reports_to_json(scenario_reports)
        with pytest.raises(ValueError, match="unknown report format"):
            write_reports(scenario_reports, "yaml")

    def test_json_reads_back_as_the_reports_dicts(self, scenario_reports):
        assert json.loads(reports_to_json(scenario_reports)) == [r.to_dict() for r in scenario_reports]

    def test_json_keeps_full_precision(self, scenario_reports):
        report = next(r for r in scenario_reports if r.image_id == "scenario_a")
        data = json.loads(reports_to_json([report]))
        assert data[0]["visibility_pct"] == report.visibility_pct

    def test_every_constructed_report_is_written_in_full(self):
        # Any report the constructor accepts, extreme contributions included, reads back as its exact values.
        rng = random.Random(1717)
        extremes = (1e308, -1e308, 0.0, -0.0, 5e-324, -5e-324, 41.0, 100.0)

        def contribution():
            roll = rng.random()
            if roll < 0.3:
                return rng.choice(extremes)
            if roll < 0.7:
                return rng.uniform(-150.0, 150.0)
            return math.ldexp(rng.uniform(-1, 1), rng.randint(-1074, 1023))

        def contributions():
            return {part: [contribution() for _ in range(rng.randint(0, n))] for part, n in model.PART_LIMITS.items()}

        reports = [model.VisibilityReport(f"r{i}", rng.randint(0, 3), contributions()) for i in range(2500)]
        assert {r.band for r in reports} == set(model.OcclusionBand)
        assert json.loads(reports_to_json(reports)) == [r.to_dict() for r in reports]

    def test_every_classified_report_is_written_in_full(self):
        rng = random.Random(17)
        reports = [r for i in range(300) for r in classify_frame(random_frame(rng, image_id=f"r{i}"))]
        assert json.loads(reports_to_json(reports)) == [r.to_dict() for r in reports]


def _reference_reports_to_json(reports):
    # ingest.reports_to_json before the fixed-shape writer.
    return json.dumps([report.to_dict() for report in reports], indent=2)


def _reference_batch_json(reports):
    # cli batch --format json before it nested the report writer's text.
    payload = {
        "reports": [r.to_dict() for r in reports],
        "summary": summarize(reports).to_dict() if reports else None,
    }
    return json.dumps(payload, indent=2) + "\n"


# Ids json must escape (quotes, backslashes, control and separator characters, a lone surrogate), non-ASCII and
# astral ids it writes as \u escapes or surrogate pairs, the empty id, and any other text.
_IMAGE_IDS = st.one_of(
    st.sampled_from(["", '"', "\\", 'a"b\\c', "\x00\x1f\x7f", "\n\r\t\b\f", "\u2028\u2029", "\ud800",
                     "caf\u00e9", "\u81ea\u884c\u8f66", "\U0001f6b2", "\U0010ffff"]),
    st.text(max_size=8),
)
_CONTRIBUTIONS = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1 + 0.2, 41.0, 100.0]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(10**6), 10**6),
)
_REPORTS = st.builds(
    model.VisibilityReport,
    _IMAGE_IDS,
    st.integers(0, 2**64),
    st.fixed_dictionaries({part: st.lists(_CONTRIBUTIONS, max_size=n) for part, n in model.PART_LIMITS.items()}),
)


class TestReportWriterReference:
    """The fixed-shape JSON writer against the json.dumps(indent=2) it replaced, byte for byte."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(_REPORTS, max_size=4))
    def test_reports_to_json_matches_json_dumps(self, reports):
        text = reports_to_json(reports)
        assert text == _reference_reports_to_json(reports)
        assert json.loads(text) == [r.to_dict() for r in reports]

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_REPORTS, max_size=4))
    def test_batch_payload_matches_json_dumps(self, reports):
        assert cli._batch_json(reports) == _reference_batch_json(reports)

    def test_empty(self):
        assert reports_to_json([]) == _reference_reports_to_json([]) == "[]"
        assert cli._batch_json([]) == _reference_batch_json([]) == '{\n  "reports": [],\n  "summary": null\n}\n'

    def test_every_part_count_and_extreme_value(self):
        values = [-0.0, 5e-324, 1e308, 0.1 + 0.2]
        reports = [
            model.VisibilityReport(f"r{w}{f}{h}", w + f + h, {
                PartClass.WHEEL: values[:w], PartClass.FRAME: values[2:2 + f], PartClass.HANDLEBAR: values[3:3 + h],
            })
            for w in range(3) for f in range(2) for h in range(2)
        ]
        assert reports_to_json(reports) == _reference_reports_to_json(reports)
        assert cli._batch_json(reports) == _reference_batch_json(reports)
