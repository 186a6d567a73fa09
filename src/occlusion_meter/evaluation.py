"""Aggregate statistics over visibility reports and band pairs, and their plain-text renderings."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

from .model import OcclusionBand, VisibilityReport

BAND_ORDER: tuple[OcclusionBand, ...] = tuple(OcclusionBand)
_INDEX = {band: i for i, band in enumerate(BAND_ORDER)}


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


@dataclass(frozen=True)
class BandConfusion:
    """Band agreement matrix: rows are exact bands, columns estimated."""

    matrix: tuple[tuple[int, ...], ...]

    @classmethod
    def from_counts(cls, pairs: Mapping[tuple[OcclusionBand, OcclusionBand], int]) -> BandConfusion:
        """The matrix of counts per (estimated, exact) band pair; a pair left out counts 0."""
        counts = [[0] * len(BAND_ORDER) for _ in BAND_ORDER]
        for (est, ref), count in pairs.items():
            counts[_INDEX[ref]][_INDEX[est]] += count
        return cls(tuple(map(tuple, counts)))

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
    return BandConfusion.from_counts(Counter(zip(estimated, exact)))


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
