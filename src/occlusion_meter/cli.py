"""Command-line front end: classify, batch, synth, calibrate."""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from .classifier import calibrate_thresholds, classify_frame
from .ingest import ParseError, load_config, load_detections, write_reports
from .model import DEFAULT_CONFIG, BoundingBox, ClassifierConfig, OcclusionMeterError, VisibilityReport

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2

CONFIG_ENV_VAR = "OCCLUSION_METER_CONFIG"


def _load_config(args: argparse.Namespace) -> ClassifierConfig:
    path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV_VAR)
    config = load_config(path) if path else DEFAULT_CONFIG
    threshold = getattr(args, "confidence_threshold", None)
    if threshold is not None:
        config = replace(config, confidence_threshold=threshold)
    return config


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_classify(args: argparse.Namespace) -> int:
    config = _load_config(args)
    frame = load_detections(args.input, permissive=args.permissive)
    reports = classify_frame(frame, config)
    if not reports:
        print(f"warning: no detections above the confidence threshold in {args.input}", file=sys.stderr)
    _emit(write_reports(reports, args.format), args.out)
    return EXIT_OK


def _batch_json(reports: list[VisibilityReport]) -> str:
    from .evaluation import summarize

    # json.dumps({"reports": [r.to_dict() ...], "summary": ...}, indent=2) + "\n" byte for byte: the report writer's
    # text and the summary's (null without reports) nest a level deeper by indenting every line after the first,
    # as no encoded JSON string holds a raw newline.
    summary = json.dumps(summarize(reports).to_dict(), indent=2) if reports else "null"
    fields = f'"reports": {write_reports(reports, "json")},\n"summary": {summary}'
    return "{\n  " + fields.replace("\n", "\n  ") + "\n}\n"


def _cmd_batch(args: argparse.Namespace) -> int:
    from .evaluation import render_summary, summarize

    config = _load_config(args)
    if not Path(args.dir).is_dir():
        raise ParseError("not a directory", args.dir)
    files = sorted(Path(args.dir).glob("*.json"))
    if not files:
        print(f"warning: no *.json files under {args.dir}", file=sys.stderr)
    # Parse every file before scoring any, so one run names every bad file.
    frames, errors = [], []
    for path in files:
        try:
            frames.append(load_detections(path, permissive=args.permissive))
        except (ParseError, OSError) as exc:
            errors.append(exc)
    if errors:
        print("\n".join(f"error: {exc}" for exc in errors), file=sys.stderr)
        return EXIT_INPUT
    reports = [report for frame in frames for report in classify_frame(frame, config)]
    if args.format == "json":
        _emit(_batch_json(reports), args.out)
        return EXIT_OK
    _emit(write_reports(reports, "csv"), args.out)
    if reports:
        target = sys.stdout
        target.write("\n" if not args.out else "")
        target.write(render_summary(summarize(reports)))
    return EXIT_OK


def _cmd_synth(args: argparse.Namespace) -> int:
    # Only synth runs the oracle, so only synth imports it (and geometry); only batch and synth import evaluation.
    from .evaluation import render_confusion
    from .synthetic import run_batch

    config = _load_config(args)
    stats = run_batch(
        scene_count=args.scenes,
        base_seed=args.seed,
        occluder_count=args.occluders,
        coverage_target=args.coverage,
        config=config,
    )
    coverage = "random" if args.coverage is None else f"{args.coverage:g}"
    sys.stdout.write(
        f"scenes={stats.scene_count} seed={args.seed} occluders={args.occluders} coverage={coverage}\n"
        f"mean_abs_error={stats.mean_abs_error:.4f}\n"
        f"max_abs_error={stats.max_abs_error:.4f}\n"
        f"band_agreement_rate={stats.band_agreement_rate:.4f}\n"
    )
    sys.stdout.write(render_confusion(stats.confusion))
    return EXIT_OK


def _label_number(cell: str | None, where: str) -> float:
    # One label cell as a finite float; a row shorter than the header leaves its last cells None.
    try:
        value = float(cell)
    except (TypeError, ValueError):
        value = math.nan
    if not math.isfinite(value):
        raise ParseError(f"expected a finite number, got {cell!r}", where)
    return value


def _read_label_rows(path: str) -> list[tuple[BoundingBox, float]]:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        try:
            if reader.fieldnames is None:
                raise ParseError("empty labels file", path)
            for columns in (("x_min", "y_min", "x_max", "y_max", "fraction"), ("width", "height", "fraction")):
                if set(columns) <= set(reader.fieldnames):
                    break
            else:
                raise ParseError("labels need columns width,height,fraction or x_min,y_min,x_max,y_max,fraction", path)
            labeled = []
            for row in reader:
                where = f"{path}, line {reader.line_num}"
                *box, fraction = (_label_number(row[c], f"{where}, column {c}") for c in columns)
                bbox = BoundingBox(*box) if len(box) == 4 else BoundingBox(0.0, 0.0, *box)
                if not bbox.is_valid():
                    raise ParseError("bbox must have positive width and height", where)
                labeled.append((bbox, fraction))
        except (csv.Error, UnicodeDecodeError) as exc:
            raise ParseError(str(exc), path) from None
    return labeled


def _cmd_calibrate(args: argparse.Namespace) -> int:
    labeled = _read_label_rows(args.labels)
    config = calibrate_thresholds(labeled, grid_step=args.grid_step)
    sys.stdout.write(json.dumps(config.to_dict(), indent=2) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="occlusion-meter",
        description="Estimate bicycle visibility and occlusion level from part detections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help=f"classifier config JSON (or ${CONFIG_ENV_VAR})")
        p.add_argument("--confidence-threshold", type=float, dest="confidence_threshold")
        p.add_argument("--out", help="write output to this path instead of stdout")

    p_classify = sub.add_parser("classify", help="classify one detection JSON file")
    p_classify.add_argument("input")
    p_classify.add_argument("--format", choices=("csv", "json"), default="csv")
    p_classify.add_argument("--permissive", action="store_true", help="drop bad predictions instead of failing")
    add_common(p_classify)
    p_classify.set_defaults(func=_cmd_classify)

    p_batch = sub.add_parser("batch", help="classify every *.json in a directory")
    p_batch.add_argument("dir")
    p_batch.add_argument("--format", choices=("csv", "json"), default="csv")
    p_batch.add_argument("--permissive", action="store_true")
    add_common(p_batch)
    p_batch.set_defaults(func=_cmd_batch)

    p_synth = sub.add_parser("synth", help="run the synthetic-oracle experiment")
    p_synth.add_argument("--scenes", type=int, required=True)
    p_synth.add_argument("--seed", type=int, required=True)
    p_synth.add_argument("--occluders", type=int, default=1)
    p_synth.add_argument("--coverage", type=float, default=None)
    p_synth.add_argument("--config", help=f"classifier config JSON (or ${CONFIG_ENV_VAR})")
    p_synth.set_defaults(func=_cmd_synth)

    p_calibrate = sub.add_parser("calibrate", help="recover wheel ratio thresholds from labels")
    p_calibrate.add_argument("labels")
    p_calibrate.add_argument("--grid-step", type=float, default=0.01, dest="grid_step")
    p_calibrate.set_defaults(func=_cmd_calibrate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OcclusionMeterError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # noqa: BLE001
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
