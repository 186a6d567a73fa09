"""Seeded benchmark inputs, with expected results computed independently.

Nothing here imports occlusion_meter. The expected visibility of every
generated bicycle comes from the method's published rules: the 41/17/1
part shares, the wheel aspect-ratio thresholds (0.85 / 0.60 / 0.45 giving
1.0 / 0.7 / 0.5 / 0.4 of the wheel share), the confidence filter (>= 0.5)
and the per-bicycle limits (2 wheels, 1 frame, 1 handlebar; higher
confidence, then larger box, then earlier detection wins).
"""

from __future__ import annotations

import json
import math
import random

SHARES = {"wheel": 41.0, "frame": 17.0, "handlebar": 1.0}
LIMITS = {"wheel": 2, "frame": 1, "handlebar": 1}
CONFIDENCE_THRESHOLD = 0.5

# (fraction, lowest ratio drawn, highest ratio drawn). Each range keeps at
# least 0.02 from the thresholds so rounding to 0.01 px cannot change the
# bucket.
WHEEL_BUCKETS = ((1.0, 0.87, 1.0), (0.7, 0.62, 0.83), (0.5, 0.47, 0.58), (0.4, 0.20, 0.43))

# Bicycles sit on a grid of PITCH-pixel cells. One bicycle spans at most
# ~190 px, so neighbours are >= 260 px apart, while the grouping limit is
# 1.5 x the largest wheel diagonal (<= 1.5 x 85 px). Within a bicycle every
# part lies well inside that limit of another part.
PITCH = 450

# Must-reject document kinds. The last three carry non-finite numbers,
# which plain json accepts.
REJECT_KINDS = ("missing_field", "wrong_type", "confidence_range", "nan_x", "inf_width", "nan_confidence")

# The traffic mix is an assumption. The repository holds no real detector
# output to derive it from, so every share below is chosen, not measured:
# small frames dominate, and each path of the input contract (low
# confidence, outlines, permissive drops, rejects, missing and duplicate
# parts) still comes up often enough to be timed and checked. Derive the
# shares from real detector output once the repository has some.
MAX_BIKES = 16
# Weight of n + 1 bicycles in a frame over n: a geometric mix truncated to
# 1..MAX_BIKES, so ~21 % of frames hold one bicycle, ~4 % hold 13-16 and
# ~0.7 % hold 16. Crowded frames, where group_parts' pair loop dominates,
# are the tail.
BIKE_RATIO = 0.8
REJECT_SHARE = 0.05  # documents the ingest contract must reject
PERMISSIVE_SHARE = 0.15  # documents parsed with permissive=True
LOW_CONFIDENCE_SHARE = 0.12  # predictions below the confidence threshold
POINTS_SHARE = 0.2  # predictions that carry a `points` outline
MISSING_PART_SHARE = 0.06  # each wheel, the frame and the handlebar is absent this often
EXTRA_WHEEL_SHARE = 0.08  # a third wheel overlapping the rear one
EXTRA_FRAME_SHARE = 0.05  # a second frame detection
CLI_BATCH_FILES = 10
CLI_SINGLE_FILES = 8


def band(occlusion: float) -> str:
    """Occlusion band: [0,10) low/none, [10,40) partial, [40,80] heavy, (80,100] severe."""
    if occlusion < 10.0:
        return "low_or_none"
    if occlusion < 40.0:
        return "partial"
    if occlusion <= 80.0:
        return "heavy"
    return "severe"


def _box(rng: random.Random, part: str, cx: float, cy: float, w: float, h: float, conf: float) -> dict:
    """One prediction in center or corner form, sometimes with an outline."""
    cx, cy, w, h = round(cx, 2), round(cy, 2), round(w, 2), round(h, 2)
    pred: dict = {"class": part, "confidence": round(conf, 3)}
    if rng.random() < 0.5:
        pred.update(x=cx, y=cy, width=w, height=h)
        x0, y0, x1, y1 = cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2
    else:
        x0, y0, x1, y1 = round(cx - w / 2, 2), round(cy - h / 2, 2), round(cx + w / 2, 2), round(cy + h / 2, 2)
        pred.update(x_min=x0, y_min=y0, x_max=x1, y_max=y1)
    if rng.random() < POINTS_SHARE:
        mx, my = (x0 + x1) / 2, (y0 + y1) / 2
        ring = [(x0, y0), (mx, y0), (x1, y0), (x1, my), (x1, y1), (mx, y1), (x0, y1), (x0, my)]
        pred["points"] = [{"x": round(x, 2), "y": round(y, 2)} for x, y in ring]
    return pred


def _confidence(rng: random.Random) -> float:
    return rng.uniform(0.05, 0.45) if rng.random() < LOW_CONFIDENCE_SHARE else rng.uniform(0.55, 0.99)


def _bicycle(rng: random.Random, ox: float, oy: float) -> list[tuple[dict, float]]:
    """Predictions of one bicycle, each paired with its visibility share.

    The share is the part's contribution if the detection is kept: the
    wheel share times the fraction of the drawn ratio bucket, or the full
    frame/handlebar share.
    """
    size = rng.uniform(40.0, 60.0)
    gap = rng.uniform(0.0, 10.0)
    hub_y = oy + 100.0
    rear_x = ox + 60.0
    front_x = rear_x + size + gap
    out: list[tuple[dict, float]] = []

    def wheel(cx: float) -> tuple[dict, float]:
        fraction, lo, hi = rng.choice(WHEEL_BUCKETS)
        ratio = rng.uniform(lo, hi)
        w, h = (size, size * ratio) if rng.random() < 0.5 else (size * ratio, size)
        return _box(rng, "wheel", cx, hub_y, w, h, _confidence(rng)), SHARES["wheel"] * fraction

    if rng.random() > MISSING_PART_SHARE:
        out.append(wheel(rear_x))
    if rng.random() > MISSING_PART_SHARE:
        out.append(wheel(front_x))
    if rng.random() < EXTRA_WHEEL_SHARE:
        out.append(wheel(rear_x + rng.uniform(-5.0, 5.0)))
    frame_box = ((rear_x + front_x) / 2, hub_y - 0.5 * size, front_x - rear_x, 0.8 * size)
    for _ in range(2 if rng.random() < EXTRA_FRAME_SHARE else (0 if rng.random() < MISSING_PART_SHARE else 1)):
        out.append((_box(rng, "frame", *frame_box, _confidence(rng)), SHARES["frame"]))
    if rng.random() > MISSING_PART_SHARE:
        bar = (front_x - 0.05 * size, hub_y - 0.975 * size + rng.uniform(0.0, 4.0), 0.35 * size, 0.15 * size)
        out.append((_box(rng, "handlebar", *bar, _confidence(rng)), SHARES["handlebar"]))
    return out


def _extent(pred: dict) -> tuple[float, float]:
    if "x_min" in pred:
        return pred["x_max"] - pred["x_min"], pred["y_max"] - pred["y_min"]
    x, y, w, h = pred["x"], pred["y"], pred["width"], pred["height"]
    return (x + w / 2) - (x - w / 2), (y + h / 2) - (y - h / 2)


def expected_visibility(bikes: list[list[tuple[int, dict, float]]]) -> list[float]:
    """Visibility of every bicycle that keeps a detection, highest first."""
    result = []
    for parts in bikes:
        kept = 0.0
        any_kept = False
        for part, limit in LIMITS.items():
            cands = [
                (-p["confidence"], -(_extent(p)[0] * _extent(p)[1]), index, share)
                for index, p, share in parts
                if p["class"] == part and p["confidence"] >= CONFIDENCE_THRESHOLD
            ]
            cands.sort()
            for cand in cands[:limit]:
                kept += cand[3]
                any_kept = True
        if any_kept:
            result.append(min(max(kept, 0.0), 100.0))
    return sorted(result, reverse=True)


def _corrupt(rng: random.Random, pred: dict, kind: str) -> None:
    center = "x" in pred
    if kind == "missing_field":
        del pred["confidence"]
    elif kind == "wrong_type":
        key = "x" if center else "x_min"
        pred[key] = str(pred[key])
    elif kind == "confidence_range":
        pred["confidence"] = rng.choice((1.5, -0.25))
    elif kind == "nan_x":
        pred["x" if center else "x_min"] = math.nan
    elif kind == "inf_width":
        if center:
            pred["width"] = math.inf
        else:
            pred["x_max"] = math.inf
    elif kind == "nan_confidence":
        pred["confidence"] = math.nan


def detection_document(rng: random.Random, index: int, n_bikes: int, *, allow_reject: bool = True,
                       permissive: bool | None = None) -> dict:
    """One detector document and what a correct pipeline must do with it.

    Returns a dict with ``doc`` (the JSON text), ``permissive``, ``reject``
    (the must-reject kind, or None) and ``expected`` (visibilities, highest
    first).
    """
    cols = math.ceil(math.sqrt(n_bikes))
    rows = math.ceil(n_bikes / cols)
    bikes: list[list[tuple[dict, float]]] = []
    for b in range(n_bikes):
        bikes.append(_bicycle(rng, (b % cols) * PITCH, (b // cols) * PITCH))
    if permissive is None:
        permissive = rng.random() < PERMISSIVE_SHARE
    reject = rng.choice(REJECT_KINDS) if allow_reject and rng.random() < REJECT_SHARE else None

    flat: list[tuple[int, dict, float]] = [(b, p, s) for b, parts in enumerate(bikes) for p, s in parts]
    extras: list[dict] = []
    if permissive:
        # Dropped by --permissive: unknown labels always, sometimes a
        # zero-width box, which sends parsing down its per-detection path.
        for _ in range(rng.randint(1, 2)):
            b = rng.randrange(n_bikes)
            extras.append(_box(rng, rng.choice(("saddle", "pedal")), (b % cols) * PITCH + 80.0,
                               (b // cols) * PITCH + 90.0, 20.0, 10.0, 0.9))
        if rng.random() < 0.5:
            b = rng.randrange(n_bikes)
            x = (b % cols) * PITCH + 70.0
            y = (b // cols) * PITCH + 60.0
            extras.append({"class": "frame", "confidence": 0.9, "x_min": x, "y_min": y, "x_max": x, "y_max": y + 30.0})
    order = list(range(len(flat) + len(extras)))
    rng.shuffle(order)
    predictions: list[dict] = []
    by_bike: list[list[tuple[int, dict, float]]] = [[] for _ in bikes]
    for position, k in enumerate(order):
        if k < len(flat):
            b, pred, share = flat[k]
            by_bike[b].append((position, pred, share))
            predictions.append(pred)
        else:
            predictions.append(extras[k - len(flat)])
    if reject is not None:
        if not flat:
            reject = None
        else:
            wheels = [p for p in predictions if p["class"] == "wheel" and "x" in p]
            target = rng.choice(wheels or [flat[0][1]])
            _corrupt(rng, target, reject)
    document = {
        "image": {"id": f"doc-{index}", "width": cols * PITCH, "height": rows * PITCH},
        "predictions": predictions,
    }
    return {
        "doc": json.dumps(document),
        "permissive": permissive,
        "reject": reject,
        "expected": [] if reject else expected_visibility(by_bike),
    }


def bike_counts(rng: random.Random, size: int) -> list[int]:
    """Bicycle counts of ``size`` documents, in seeded order.

    Count n has weight BIKE_RATIO ** (n - 1). The counts are the mix's
    quantiles at (i + 0.5) / size, so every seed has the same size mix and
    only the order changes.
    """
    weights = [BIKE_RATIO ** n for n in range(MAX_BIKES)]
    counts = []
    for i in range(size):
        u = (i + 0.5) / size * sum(weights)
        n = 1
        while u > sum(weights[:n]):
            n += 1
        counts.append(n)
    rng.shuffle(counts)
    return counts


def detection_pool(seed: int, size: int) -> list[dict]:
    """The ``detect_frames`` pool: documents alternate csv and json output."""
    rng = random.Random(f"detect_frames:{seed}")
    pool = []
    for i, n_bikes in enumerate(bike_counts(rng, size)):
        item = detection_document(rng, i, n_bikes)
        item["format"] = "csv" if i % 2 == 0 else "json"
        pool.append(item)
    return pool


OCCLUDER_COUNTS = {"oracle_sparse": (1, 2, 3), "oracle_crowded": (4, 5, 6)}


def oracle_pool(seed: int, size: int, name: str) -> list[dict]:
    """Scene specs: a scene seed, an occluder count and a coverage target in [0, 0.8].

    Occluder counts cycle and targets are stratified over [0, 0.8], so every
    seed has the same mix of scene difficulty.
    """
    rng = random.Random(f"{name}:{seed}")
    counts = OCCLUDER_COUNTS[name]
    return [
        {"scene_seed": rng.randrange(2**31), "k": counts[i % len(counts)],
         "target": 0.8 * (i + rng.random()) / size}
        for i in range(size)
    ]


def cli_inputs(seed: int, directory) -> list[dict]:
    """Write CLI input files under ``directory`` and return the command pool.

    The batch directory holds only valid, non-permissive documents, since a
    single bad file fails a whole ``batch``. Single files are mixed, some
    parsed with ``--permissive``.
    """
    rng = random.Random(f"cli_cold:{seed}")
    batch_dir = directory / "batch"
    batch_dir.mkdir(parents=True, exist_ok=True)
    batch_expected: list[float] = []
    for i, n_bikes in enumerate(bike_counts(rng, CLI_BATCH_FILES)):
        item = detection_document(rng, i, n_bikes, allow_reject=False, permissive=False)
        (batch_dir / f"frame_{i:03d}.json").write_text(item["doc"], encoding="utf-8")
        batch_expected.extend(item["expected"])
    commands = []
    for i, n_bikes in enumerate(bike_counts(rng, CLI_SINGLE_FILES)):
        item = detection_document(rng, 100 + i, n_bikes, allow_reject=False)
        path = directory / f"single_{i:03d}.json"
        path.write_text(item["doc"], encoding="utf-8")
        argv = ["classify", str(path), "--format", "csv" if i % 2 == 0 else "json"]
        if item["permissive"]:
            argv.append("--permissive")
        commands.append({"argv": argv, "expected": item["expected"]})
    for fmt in ("csv", "json", "csv", "json"):
        commands.append({"argv": ["batch", str(batch_dir), "--format", fmt],
                         "expected": sorted(batch_expected, reverse=True)})
    rng.shuffle(commands)
    return commands

