"""The package's JSON reader (detector output, configs) and its report writers.

The canonical input document mirrors the common detection-workflow export:

    {
      "image": {"id": "frame-001", "width": 640, "height": 640},
      "predictions": [
        {"class": "wheel", "confidence": 0.93,
         "x": 320, "y": 320, "width": 100, "height": 100,
         "points": [{"x": 270, "y": 270}, ...]}          # optional outline
      ]
    }

Prediction boxes are center-based (x, y, width, height). A corner-based
variant with x_min/y_min/x_max/y_max keys is accepted as well. Coordinates
are clamped to the image bounds, labels are case-folded and checked against
the closed part set, and each prediction goes through
``model.validate_detection`` once; parsing never invents or silently mangles
detections, and the returned frame is marked validated. The path of a field
(``predictions[2].points[1].x``) is formatted only for the error naming it.

Report output comes in two shapes: a CSV table with one-decimal percentages
for human eyes, and a JSON array with full-precision numbers, each written
by ``float.__repr__``, the shortest text that reads back as the same float.

Every JSON document the package reads (detector output, a config) goes
through ``_decode``, so each decode failure is a ``ParseError``, and every
file through ``_read``, so that error names the file first. Every number
goes through ``_finite``, the one definition of a JSON number here, and
every other bad value is a ``ParseError`` naming its JSON path
(``area_model.wheel_share_pct``, ``wheel_fractions[1][0]``). A config
reads as its type's constructor builds it; an invariant the constructor
checks (``model.py``, in its own words) is a ``ParseError`` at the path of
that object.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
from functools import partial
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Sequence, TypeVar

from .model import (
    PARTS,
    BoundingBox,
    ClassifierConfig,
    DetectionFrame,
    FrameValidationError,
    OcclusionMeterError,
    PartClass,
    PartDetection,
    SurfaceAreaModel,
    UnknownPartLabelError,
    VisibilityReport,
    mark_validated,
    ordered_sum,
    validate_detection,
)

# One column a part, in PARTS order: the order of every report's part_contributions.
CSV_HEADER = [
    "image_id", "bicycle_index", *(f"{part.value}_pct" for part in PARTS), "visibility_pct", "occlusion_pct", "band"
]

_CORNER_KEYS = frozenset(("x_min", "y_min", "x_max", "y_max"))
_CENTER_KEYS = frozenset(("x", "y", "width", "height"))

_T = TypeVar("_T")

# A str.format template of one report as json.dumps(indent=2) lays out its to_dict() in the array; every report
# holds every part, in PARTS order.
_REPORT_JSON = "\n".join((
    "  {{",
    '    "image_id": {},',
    '    "bicycle_index": {},',
    '    "part_contributions": {{',
    ",\n".join(f"      {encode_basestring_ascii(part.value)}: {{}}" for part in PARTS),
    "    }},",
    '    "visibility_pct": {},',
    '    "occlusion_pct": {},',
    '    "band": {}',
    "  }}",
))


class ParseError(OcclusionMeterError):
    """A JSON document could not be read.

    Attributes:
        path: location of the offending value inside the document, e.g.
            ``predictions[2].confidence``.
    """

    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


def _decode(document: bytes | str):
    # Bytes must be UTF-8: the decoder would take UTF-16 and UTF-32 bytes too. Every ValueError
    # (JSONDecodeError, UnicodeDecodeError, an int past the digit limit) is malformed JSON.
    try:
        return json.loads(document.decode("utf-8") if isinstance(document, bytes) else document)
    except ValueError as exc:
        raise ParseError(f"malformed JSON: {exc}") from None
    except RecursionError:
        raise ParseError("JSON nested too deeply") from None


def _read(path: str | Path, parse: Callable[[bytes], _T]) -> _T:
    """``parse`` of the bytes in the file at ``path``; a ParseError names the file first."""
    try:
        return parse(Path(path).read_bytes())
    except ParseError as exc:
        raise ParseError(str(exc), path=str(path)) from None


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _absent(mapping, key: str, path: str) -> ParseError:
    # The error for ``mapping[key]`` when ``mapping`` is not an object or lacks ``key``.
    if not isinstance(mapping, dict):  # the decoder makes every object a dict
        return ParseError("expected an object", path)
    return ParseError(f"missing required field: {_join(path, key)}")


def _require(mapping, key: str, path: str):
    if isinstance(mapping, dict) and key in mapping:
        return mapping[key]
    raise _absent(mapping, key, path)


def _point_path(path: str, point: int | None) -> str:
    return path if point is None else f"{path}.points[{point}]"


def _finite(value, path: str) -> float:
    """``value`` as a finite float: the one definition of a JSON number here.

    The decoder makes every JSON number an exact ``int`` or ``float``, so the
    exact type decides: anything else, a bool included, is not a number, and
    an int past the float range reads as inf. ``path`` names the value in the
    ParseError.
    """
    kind = type(value)
    if kind is float:
        number = value
    elif kind is int:
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
    else:
        raise ParseError(f"expected a number, got {value!r}", path)
    if not math.isfinite(number):
        raise ParseError(f"expected a finite number, got {value!r}", path)
    return number


def _number(mapping, key: str, path: str, point: int | None = None) -> float:
    """``mapping[key]`` as ``_finite`` reads it, after checking that ``mapping`` is an object holding ``key``.

    ``path`` locates ``mapping`` (``point`` adds ``.points[point]``). A finite
    float, as the decoder makes nearly every detection number, is returned
    inline, so it costs no call and builds no path string.
    """
    if not isinstance(mapping, dict) or key not in mapping:
        raise _absent(mapping, key, _point_path(path, point))
    value = mapping[key]
    if type(value) is float and math.isfinite(value):
        return value
    return _finite(value, f"{_point_path(path, point)}.{key}")


def _drop(path: str, reason) -> None:
    # A permissive drop's warning on this module's logger; logging is imported only when a document drops something.
    import logging

    logging.getLogger(__name__).warning("dropping %s: %s", path, reason)


def _parse_prediction(pred, index: int, permissive: bool) -> PartDetection | None:
    path = f"predictions[{index}]"
    label = _require(pred, "class", path)
    try:
        part = PartClass.from_label(label)
    except UnknownPartLabelError as exc:
        if permissive:
            _drop(path, exc)
            return None
        raise ParseError(str(exc), f"{path}.class") from None

    confidence = _number(pred, "confidence", path)
    if not 0.0 <= confidence <= 1.0:
        raise ParseError("confidence out of range", f"{path}.confidence")

    # Arguments are evaluated left to right, so the first bad field is the one named. A box with a corner key reads as
    # corners unless only its center form is whole, so a missing corner key is named, not the center form's x.
    keys = pred.keys()
    if not keys.isdisjoint(_CORNER_KEYS) and (keys >= _CORNER_KEYS or not keys >= _CENTER_KEYS):
        bbox = BoundingBox(
            _number(pred, "x_min", path), _number(pred, "y_min", path),
            _number(pred, "x_max", path), _number(pred, "y_max", path),
        )
    else:
        bbox = BoundingBox.from_center(
            _number(pred, "x", path), _number(pred, "y", path),
            _number(pred, "width", path), _number(pred, "height", path),
        )

    polygon = None
    points = pred.get("points")
    if points is not None:
        if not isinstance(points, list):
            raise ParseError("expected an array of points", f"{path}.points")
        polygon = tuple((_number(pt, "x", path, i), _number(pt, "y", path, i)) for i, pt in enumerate(points))

    return PartDetection(part=part, bbox=bbox, confidence=confidence, polygon=polygon)


def parse_detections(document: bytes | str, *, permissive: bool = False) -> DetectionFrame:
    """Parse one detector-output document into a validated DetectionFrame.

    With ``permissive=True``, predictions with unknown labels or invalid
    geometry are dropped with a logged warning instead of failing the whole
    document; without it, one ParseError at ``predictions`` names every
    invalid prediction. Structural problems (malformed JSON, missing fields,
    numbers out of range) always raise at the first one.

    Raises:
        ParseError: naming the offending path inside the document.
    """
    data = _decode(document)
    if not isinstance(data, dict):
        raise ParseError("top level must be an object")

    image = _require(data, "image", "")
    image_id = _require(image, "id", "image")
    if not isinstance(image_id, str):
        raise ParseError("image id must be a string", "image.id")
    width = _number(image, "width", "image")
    height = _number(image, "height", "image")
    if width <= 0 or height <= 0 or width != int(width) or height != int(height):
        raise ParseError("image dimensions must be positive integers", "image")

    predictions = _require(data, "predictions", "")
    if not isinstance(predictions, list):
        raise ParseError("expected an array", "predictions")

    width, height = int(width), int(height)
    detections, errors = [], []
    for index, pred in enumerate(predictions):
        det = _parse_prediction(pred, index, permissive)
        if det is None:
            continue
        try:
            detections.append(validate_detection(det, index, width, height))
        except FrameValidationError as exc:
            if permissive:
                _drop(f"predictions[{index}]", "; ".join(exc.errors))
            else:
                errors += exc.errors
    if errors:
        raise ParseError("; ".join(errors), "predictions")
    return mark_validated(DetectionFrame(image_id, width, height, tuple(detections)))


def load_detections(path: str | Path, *, permissive: bool = False) -> DetectionFrame:
    """Read and parse a detector-output JSON file; a ParseError names the file first."""
    return _read(path, partial(parse_detections, permissive=permissive))


def _built(cls: Callable[..., _T], path: str, *args, **kwargs) -> _T:
    # ``cls(*args, **kwargs)``; an invariant its constructor checks is a ParseError at ``path``.
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        raise ParseError(str(exc), path) from None


def _object(value, path: str, names) -> dict:
    # ``value`` as a JSON object whose every key is in ``names``; the first other key is named.
    if not isinstance(value, dict):
        raise ParseError("expected an object", path)
    for key in value:
        if key not in names:
            raise ParseError("unknown field", _join(path, key))
    return value


def _array(value, path: str, read: Callable[[object, str], _T] = _finite) -> tuple[_T, ...]:
    # ``value`` as a JSON array, each item through ``read`` at its own path.
    if not isinstance(value, list):
        raise ParseError("expected an array", path)
    return tuple(read(item, f"{path}[{index}]") for index, item in enumerate(value))


def _pair(value, path: str) -> tuple[float, ...]:
    if not isinstance(value, list) or len(value) != 2:
        raise ParseError("expected a [ratio, fraction] pair", path)
    return _array(value, path)


def _fields(cls: Callable[..., _T], value, path: str, read: dict) -> _T:
    # ``cls`` from the JSON object ``value`` at ``path``; each field through its ``read`` entry or ``_finite``, and a
    # missing field keeps its default.
    names = {f.name for f in dataclasses.fields(cls)}
    values = {key: read.get(key, _finite)(item, _join(path, key)) for key, item in _object(value, path, names).items()}
    return _built(cls, path, **values)


_CONFIG_READERS = {
    "wheel_fractions": partial(_array, read=_pair),
    "area_model": partial(_fields, SurfaceAreaModel, read={}),
}


def _parse_config(document: bytes | str) -> ClassifierConfig:
    data = _decode(document)
    if not isinstance(data, dict):
        raise ParseError("top level must be an object")
    return _fields(ClassifierConfig, data, "", _CONFIG_READERS)


def load_config(path: str | Path) -> ClassifierConfig:
    """Read a classifier config JSON file; any error in it is a ParseError naming the file first."""
    return _read(path, _parse_config)


def reports_to_csv(reports: Sequence[VisibilityReport]) -> str:
    """Render reports as a CSV table with one-decimal percentages."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(CSV_HEADER)
    # A part's column is its contributions added in order.
    writer.writerows(
        [
            r.image_id, r.bicycle_index, *[f"{ordered_sum(values):.1f}" for values in r.part_contributions.values()],
            f"{r.visibility_pct:.1f}", f"{r.occlusion_pct:.1f}", r.band.value,
        ]
        for r in reports
    )
    return buffer.getvalue()


def _json_floats(values: Sequence[float]) -> str:
    # One contribution array at the depth it has in a report.
    return "[\n        " + ",\n        ".join(map(float.__repr__, values)) + "\n      ]" if values else "[]"


def _json_report(report: VisibilityReport) -> str:
    return _REPORT_JSON.format(
        encode_basestring_ascii(report.image_id), int.__repr__(report.bicycle_index),
        *map(_json_floats, report.part_contributions.values()),
        float.__repr__(report.visibility_pct), float.__repr__(report.occlusion_pct),
        encode_basestring_ascii(report.band.value),
    )


def reports_to_json(reports: Sequence[VisibilityReport]) -> str:
    """Render reports as a JSON array with full-precision numbers.

    The text is ``json.dumps([r.to_dict() for r in reports], indent=2)`` byte for byte, but ``indent`` always
    runs json's pure-Python encoder; here each report is one block of its fixed shape, each scalar through
    the encoder json uses for it (``encode_basestring_ascii``, ``float.__repr__``, ``int.__repr__``). The
    constructor leaves no other scalar: finite contributions, a ``str`` id and an ``int`` index.
    """
    body = ",\n".join(map(_json_report, reports))
    return f"[\n{body}\n]" if body else "[]"


def write_reports(reports: Sequence[VisibilityReport], format: str = "csv") -> str:
    """Serialize reports to the requested output document format."""
    if format == "csv":
        return reports_to_csv(reports)
    if format == "json":
        return reports_to_json(reports)
    raise ValueError(f"unknown report format: {format!r} (expected 'csv' or 'json')")
