"""Parts-based bicycle visibility and occlusion-level estimation.

Converts wheel / frame / handlebar detections into a continuous bicycle
visibility percentage and a categorical occlusion band, and ships a
synthetic geometric oracle to verify the estimator end to end.

Every public name below resolves on first use (PEP 562 ``__getattr__``),
and ``import occlusion_meter`` runs none of the submodules. So the CLI's
detection subcommands (``classify``, ``batch``, ``calibrate``) never load
the geometric oracle (``synthetic``, ``geometry``). A name is looked up on
its submodule at every access and not cached here, so the package always
sees what the submodule holds now.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "classifier": (
        "CalibrationError",
        "calibrate_thresholds",
        "classify_bicycle",
        "classify_frame",
        "group_parts",
        "occlusion_band",
        "part_visibility",
        "wheel_visibility_fraction",
    ),
    "evaluation": (
        "BandConfusion",
        "ReportSummary",
        "band_confusion",
        "summarize",
    ),
    "geometry": ("ConvexPolygon", "Polygon", "circle_polygon", "clip", "rect_polygon", "visible_area"),
    "ingest": (
        "ParseError",
        "load_detections",
        "parse_detections",
        "reports_to_csv",
        "reports_to_json",
        "write_reports",
    ),
    "model": (
        "BoundingBox",
        "ClassifierConfig",
        "DetectionFrame",
        "FrameValidationError",
        "OcclusionBand",
        "OcclusionMeterError",
        "PartClass",
        "PartDetection",
        "SurfaceAreaModel",
        "UnknownPartLabelError",
        "VisibilityReport",
        "validate_frame",
    ),
    "synthetic": (
        "BicycleTemplate",
        "EstimatorError",
        "ExperimentStats",
        "GroundTruth",
        "Scene",
        "estimator_error",
        "generate_scene",
        "ground_truth",
        "run_batch",
        "simulate_detections",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:
        # Importing a submodule binds it in this namespace.
        return import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
