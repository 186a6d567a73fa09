"""Aggregate statistics and table rendering for visibility reports."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import asdict, dataclass
from typing import Sequence

from .model import OcclusionBand, VisibilityReport

BAND_ORDER: tuple[OcclusionBand, ...] = tuple(OcclusionBand)


@dataclass(frozen=True)
class ReportSummary:
    count: int
    visibility_min: float
    visibility_max: float
    visibility_mean: float
    occlusion_min: float
    occlusion_max: float

    def to_dict(self) -> dict:
        return asdict(self)


def summarize(reports: Sequence[VisibilityReport]) -> ReportSummary:
    """Extremes and mean over a non-empty report collection.

    Raises ValueError on an empty input rather than fabricating zeros.
    """
    if not reports:
        raise ValueError("cannot summarize an empty report list")
    visibilities = [r.visibility_pct for r in reports]
    occlusions = [r.occlusion_pct for r in reports]
    return ReportSummary(
        count=len(reports),
        visibility_min=min(visibilities),
        visibility_max=max(visibilities),
        visibility_mean=math.fsum(visibilities) / len(visibilities),
        occlusion_min=min(occlusions),
        occlusion_max=max(occlusions),
    )


def band_histogram(reports: Sequence[VisibilityReport]) -> dict[OcclusionBand, int]:
    """Report count per occlusion band; all four bands are always present."""
    counts = {band: 0 for band in BAND_ORDER}
    for report in reports:
        counts[report.band] += 1
    return counts


@dataclass(frozen=True)
class BandConfusion:
    """Band agreement matrix: rows are exact bands, columns estimated."""

    matrix: tuple[tuple[int, ...], ...]

    def total(self) -> int:
        return sum(sum(row) for row in self.matrix)

    def agreement_rate(self) -> float:
        total = self.total()
        if total == 0:
            return 1.0
        diagonal = sum(self.matrix[i][i] for i in range(len(BAND_ORDER)))
        return diagonal / total


def band_confusion(
    estimated: Sequence[OcclusionBand], exact: Sequence[OcclusionBand]
) -> BandConfusion:
    """Confusion matrix between estimated and exact bands, paired by index."""
    if len(estimated) != len(exact):
        raise ValueError(
            f"estimated and exact lists differ in length: {len(estimated)} vs {len(exact)}"
        )
    index = {band: i for i, band in enumerate(BAND_ORDER)}
    counts = [[0] * len(BAND_ORDER) for _ in BAND_ORDER]
    for est, ref in zip(estimated, exact):
        counts[index[ref]][index[est]] += 1
    return BandConfusion(matrix=tuple(tuple(row) for row in counts))


_TABLE_COLUMNS = (
    "Scenario",
    "Wheel (%)",
    "Frame (%)",
    "Handlebar (%)",
    "Bicycle Visibility (%)",
    "Bicycle Occlusion (%)",
)


def _table_rows(reports: Sequence[VisibilityReport]) -> list[list[str]]:
    rows = []
    for r in reports:
        scenario = f"{r.image_id}#{r.bicycle_index}" if r.bicycle_index > 0 else r.image_id
        pcts = (r.wheel_pct, r.frame_pct, r.handlebar_pct, r.visibility_pct, r.occlusion_pct)
        rows.append([scenario, *(f"{v:.1f}" for v in pcts)])
    return rows


def render_visibility_table(reports: Sequence[VisibilityReport], format: str = "markdown") -> str:
    """Per-bicycle visibility table, as markdown or CSV."""
    rows = _table_rows(reports)
    if format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(_TABLE_COLUMNS)
        writer.writerows(rows)
        return buffer.getvalue()
    if format == "markdown":
        header = "| " + " | ".join(_TABLE_COLUMNS) + " |"
        divider = "|" + "|".join(" --- " for _ in _TABLE_COLUMNS) + "|"
        lines = [header, divider]
        lines.extend("| " + " | ".join(row) + " |" for row in rows)
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown table format: {format!r} (expected 'markdown' or 'csv')")


def render_summary(summary: ReportSummary) -> str:
    """Stable plain-text rendering of a report summary."""
    return (
        f"count={summary.count}\n"
        f"visibility_min={summary.visibility_min:.2f}\n"
        f"visibility_max={summary.visibility_max:.2f}\n"
        f"visibility_mean={summary.visibility_mean:.2f}\n"
        f"occlusion_min={summary.occlusion_min:.2f}\n"
        f"occlusion_max={summary.occlusion_max:.2f}\n"
    )


def render_confusion(confusion: BandConfusion) -> str:
    """Stable plain-text rendering of a band confusion matrix."""
    labels = [band.value for band in BAND_ORDER]
    col = max(len(label) for label in labels)
    head = "exact \\ estimated"
    left = max(len(head), col) + 2
    lines = [head.ljust(left) + "  ".join(label.rjust(col) for label in labels)]
    for label, row in zip(labels, confusion.matrix):
        lines.append(label.ljust(left) + "  ".join(str(v).rjust(col) for v in row))
    return "\n".join(lines) + "\n"
