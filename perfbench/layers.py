"""Per-layer counters recorded at traced call boundaries, and the per-layer metrics.

Self times are reported in ms per workload operation (a frame, a scene or
a CLI invocation), so they stay comparable when a run completes a
different number of operations. Counts are totals over the traced pass,
whose length is fixed by the seed, so they repeat exactly.
"""

from __future__ import annotations

import json

# Coverage targets count as met within this distance (the sampler's own
# stopping tolerance in synthetic.generate_scene).
COVERAGE_TOLERANCE = 0.02

OCCLUDER_BUCKETS = range(1, 7)

SELF_MS = (
    "ingest.parse_detections",
    "ingest.write_reports",
    "model.validate_frame",
    "classifier.group_parts",
    "classifier.classify_bicycle",
    "classifier.classify_frame",
    "synthetic.generate_scene",
    "synthetic.simulate_detections",
    "synthetic.ground_truth",
    "geometry.visible_area",
    "geometry.clip",
    "evaluation.band_confusion",
)

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    [(f"{name}.self_ms", "ms") for name in SELF_MS]
    + [
        ("ingest.parse_detections.bytes_in", "bytes"),
        ("ingest.parse_detections.rejected", "count"),
        ("ingest.parse_detections.dropped", "count"),
        ("ingest.write_reports.bytes_out", "bytes"),
        ("model.validate_frame.calls_per_frame", "calls/frame"),
        ("classifier.group_parts.pairs", "count"),
        ("synthetic.coverage_hit_ratio", "ratio"),
        ("synthetic.parts_below_floor", "count"),
        ("geometry.visible_area.calls", "count"),
    ]
    + [(f"geometry.visible_area.calls.occ_{k}", "count") for k in OCCLUDER_BUCKETS]
    + [
        ("geometry.clip.calls", "count"),
        ("cli.interpreter_ms", "ms"),
        ("cli.import_ms", "ms"),
        ("cli.numpy_loaded", "count"),
        ("trace.ops", "count"),
        ("trace.overhead_ms", "ms"),
    ]
)


def observe(tracer) -> None:
    """Register the counters each traced boundary records."""
    from occlusion_meter import ingest
    from occlusion_meter.model import ClassifierConfig

    floor = ClassifierConfig().detectability_floor
    targets: dict[int, float] = {}
    scored: set[int] = set()

    def parse(counters, args, kwargs, result, error):
        document = args[0] if args else kwargs["document"]
        counters["ingest.parse_detections.bytes_in"] += len(
            document.encode("utf-8") if isinstance(document, str) else document
        )
        if isinstance(error, ingest.ParseError):
            counters["ingest.parse_detections.rejected"] += 1
        elif error is None:
            predictions = len(json.loads(document)["predictions"])
            counters["ingest.parse_detections.dropped"] += predictions - len(result.detections)

    def write(counters, args, kwargs, result, error):
        if error is None:
            counters["ingest.write_reports.bytes_out"] += len(result.encode("utf-8"))

    def group(counters, args, kwargs, result, error):
        n = len((args[0] if args else kwargs["frame"]).detections)
        counters["classifier.group_parts.pairs"] += n * (n - 1) // 2

    def visible(counters, args, kwargs, result, error):
        occluders = args[1] if len(args) > 1 else kwargs["occluders"]
        counters[f"geometry.visible_area.calls.occ_{len(occluders)}"] += 1

    def generate(counters, args, kwargs, result, error):
        if error is None:
            targets[result.seed] = args[2] if len(args) > 2 else kwargs["coverage_target"]

    def truth(counters, args, kwargs, result, error):
        scene = args[0] if args else kwargs["scene"]
        if error is not None or scene.seed in scored or scene.seed not in targets:
            return
        scored.add(scene.seed)
        areas = {inst.slot: inst.area() for inst in scene.part_instances()}
        covered = sum(a * (1.0 - result.fractions[s]) for s, a in areas.items()) / sum(areas.values())
        counters["synthetic.scenes"] += 1
        counters["synthetic.coverage_hits"] += abs(covered - targets[scene.seed]) <= COVERAGE_TOLERANCE
        counters["synthetic.parts_below_floor"] += sum(f < floor for f in result.fractions.values())

    tracer.observers.update({
        "ingest.parse_detections": parse,
        "ingest.write_reports": write,
        "classifier.group_parts": group,
        "geometry.visible_area": visible,
        "synthetic.generate_scene": generate,
        "synthetic.ground_truth": truth,
    })


def metrics(tracer, ops: int) -> dict[str, float]:
    """Per-layer metrics of a traced pass of ``ops`` operations (cli.* and trace.* excluded)."""
    counters = tracer.counters
    self_ns = tracer.self_times_ns()
    out: dict[str, float] = {}
    for name in SELF_MS:
        out[f"{name}.self_ms"] = self_ns.get(name, 0) / ops / 1e6
    frames = counters["ingest.parse_detections.calls"] or counters["classifier.classify_frame.calls"]
    scenes = counters["synthetic.scenes"]
    out.update({
        "ingest.parse_detections.bytes_in": counters["ingest.parse_detections.bytes_in"],
        "ingest.parse_detections.rejected": counters["ingest.parse_detections.rejected"],
        "ingest.parse_detections.dropped": counters["ingest.parse_detections.dropped"],
        "ingest.write_reports.bytes_out": counters["ingest.write_reports.bytes_out"],
        "model.validate_frame.calls_per_frame": counters["model.validate_frame.calls"] / frames if frames else 0.0,
        "classifier.group_parts.pairs": counters["classifier.group_parts.pairs"],
        "synthetic.coverage_hit_ratio": counters["synthetic.coverage_hits"] / scenes if scenes else 0.0,
        "synthetic.parts_below_floor": counters["synthetic.parts_below_floor"],
        "geometry.visible_area.calls": counters["geometry.visible_area.calls"],
        "geometry.clip.calls": counters["geometry.clip.calls"],
    })
    for k in OCCLUDER_BUCKETS:
        out[f"geometry.visible_area.calls.occ_{k}"] = counters[f"geometry.visible_area.calls.occ_{k}"]
    return out
