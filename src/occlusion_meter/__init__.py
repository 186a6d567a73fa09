"""Parts-based bicycle visibility and occlusion-level estimation.

Converts wheel / frame / handlebar detections into a continuous bicycle
visibility percentage and a categorical occlusion band, and ships a
synthetic geometric oracle to verify the estimator end to end.
"""

from .classifier import (
    CalibrationError,
    calibrate_thresholds,
    classify_bicycle,
    classify_frame,
    group_parts,
    occlusion_band,
    part_visibility,
    wheel_visibility_fraction,
)
from .evaluation import (
    BandConfusion,
    ReportSummary,
    band_confusion,
    band_histogram,
    render_visibility_table,
    summarize,
)
from .geometry import ConvexPolygon, Polygon, circle_polygon, clip, rect_polygon, visible_area
from .ingest import (
    ParseError,
    load_detections,
    parse_detections,
    reports_from_json,
    reports_to_csv,
    reports_to_json,
    write_reports,
)
from .model import (
    BoundingBox,
    ClassifierConfig,
    DetectionFrame,
    FrameValidationError,
    OcclusionBand,
    OcclusionMeterError,
    PartClass,
    PartDetection,
    SurfaceAreaModel,
    UnknownPartLabelError,
    VisibilityReport,
    validate_frame,
)
from .synthetic import (
    BicycleTemplate,
    EstimatorError,
    ExperimentStats,
    GroundTruth,
    Scene,
    estimator_error,
    generate_scene,
    ground_truth,
    run_batch,
    simulate_detections,
)

__version__ = "0.1.0"

__all__ = [
    "BandConfusion",
    "BicycleTemplate",
    "BoundingBox",
    "CalibrationError",
    "ClassifierConfig",
    "ConvexPolygon",
    "DetectionFrame",
    "EstimatorError",
    "ExperimentStats",
    "FrameValidationError",
    "GroundTruth",
    "OcclusionBand",
    "OcclusionMeterError",
    "ParseError",
    "PartClass",
    "PartDetection",
    "Polygon",
    "ReportSummary",
    "Scene",
    "SurfaceAreaModel",
    "UnknownPartLabelError",
    "VisibilityReport",
    "band_confusion",
    "band_histogram",
    "calibrate_thresholds",
    "circle_polygon",
    "classify_bicycle",
    "classify_frame",
    "clip",
    "estimator_error",
    "generate_scene",
    "ground_truth",
    "group_parts",
    "load_detections",
    "occlusion_band",
    "parse_detections",
    "part_visibility",
    "rect_polygon",
    "render_visibility_table",
    "reports_from_json",
    "reports_to_csv",
    "reports_to_json",
    "run_batch",
    "simulate_detections",
    "summarize",
    "validate_frame",
    "visible_area",
    "wheel_visibility_fraction",
    "write_reports",
]
