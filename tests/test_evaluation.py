import csv
import io
import math
import random

import pytest

from occlusion_meter.classifier import occlusion_band
from occlusion_meter.evaluation import (
    BAND_ORDER,
    BandConfusion,
    band_confusion,
    band_histogram,
    render_confusion,
    render_summary,
    render_visibility_table,
    summarize,
)
from occlusion_meter.model import OcclusionBand, PartClass, VisibilityReport


def report(visibility, image_id="img", index=0):
    return VisibilityReport(image_id=image_id, bicycle_index=index, part_contributions={PartClass.FRAME: (visibility,)})


class TestSummarize:
    def test_reference_collection(self, scenario_reports):
        summary = summarize(scenario_reports)
        assert summary.count == 9
        assert summary.visibility_min == 20.5
        assert summary.visibility_max == 100.0
        assert summary.visibility_mean == pytest.approx(74.59, abs=0.005)
        assert summary.occlusion_min == 0.0
        assert summary.occlusion_max == 79.5

    def test_single_report(self):
        summary = summarize([report(50.0)])
        assert summary.visibility_min == summary.visibility_max == summary.visibility_mean == 50.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            summarize([])

    def test_mean_matches_independent_summation(self):
        rng = random.Random(8)
        reports = [report(rng.uniform(0, 100)) for _ in range(100)]
        summary = summarize(reports)
        # independent oracle: exact fsum in sorted order
        oracle = math.fsum(sorted(r.visibility_pct for r in reports)) / len(reports)
        assert summary.visibility_mean == pytest.approx(oracle, abs=1e-9)

    def test_mean_within_extremes(self):
        rng = random.Random(9)
        reports = [report(rng.uniform(0, 100)) for _ in range(37)]
        summary = summarize(reports)
        assert summary.visibility_min <= summary.visibility_mean <= summary.visibility_max

    def test_order_independent(self):
        rng = random.Random(10)
        reports = [report(rng.uniform(0, 100)) for _ in range(64)]
        shuffled = list(reports)
        rng.shuffle(shuffled)
        assert summarize(reports) == summarize(shuffled)

    def test_mean_is_fsum_over_count(self):
        rng = random.Random(11)
        values = [rng.uniform(0, 100) for _ in range(999)]
        assert summarize([report(v) for v in values]).visibility_mean == math.fsum(values) / len(values)


class TestBandHistogram:
    def test_reference_collection(self, scenario_reports):
        # expectation derived by applying the band mapping to the nine
        # published occlusion values
        occlusions = [12.3, 20.5, 24.6, 79.5, 0.0, 0.0, 12.3, 21.5, 58.0]
        expected = {band: 0 for band in BAND_ORDER}
        for value in occlusions:
            expected[occlusion_band(value)] += 1
        assert expected == {
            OcclusionBand.LOW_OR_NONE: 2,
            OcclusionBand.PARTIAL: 5,
            OcclusionBand.HEAVY: 2,
            OcclusionBand.SEVERE: 0,
        }
        assert band_histogram(scenario_reports) == expected

    def test_empty_all_zeros(self):
        assert band_histogram([]) == {band: 0 for band in BAND_ORDER}

    def test_identical_inputs_single_bucket(self):
        reports = [report(50.0) for _ in range(7)]
        histogram = band_histogram(reports)
        assert histogram[OcclusionBand.HEAVY] == 7
        assert sum(histogram.values()) == 7

    def test_counts_sum_to_report_count(self, scenario_reports):
        assert sum(band_histogram(scenario_reports).values()) == len(scenario_reports)


class TestBandConfusion:
    def test_identical_lists_diagonal(self):
        bands = [OcclusionBand.LOW_OR_NONE, OcclusionBand.HEAVY, OcclusionBand.HEAVY, OcclusionBand.SEVERE]
        confusion = band_confusion(bands, bands)
        assert confusion.agreement_rate() == 1.0
        for i, row in enumerate(confusion.matrix):
            for j, value in enumerate(row):
                assert (value > 0) <= (i == j)

    def test_rows_are_exact_marginals(self):
        rng = random.Random(14)
        exact = [rng.choice(list(OcclusionBand)) for _ in range(200)]
        estimated = [rng.choice(list(OcclusionBand)) for _ in range(200)]
        confusion = band_confusion(estimated, exact)
        direct = {band: exact.count(band) for band in BAND_ORDER}
        assert tuple(sum(row) for row in confusion.matrix) == tuple(direct[band] for band in BAND_ORDER)
        direct_est = {band: estimated.count(band) for band in BAND_ORDER}
        assert tuple(map(sum, zip(*confusion.matrix))) == tuple(direct_est[band] for band in BAND_ORDER)
        assert confusion.total() == 200

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="differ in length"):
            band_confusion([OcclusionBand.HEAVY], [])

    def test_no_pairs_agree_fully(self):
        confusion = BandConfusion(tuple((0,) * len(BAND_ORDER) for _ in BAND_ORDER))
        assert confusion.total() == 0
        assert confusion.agreement_rate() == 1.0

    def test_agreement_rate_is_trace_over_total(self):
        estimated = [OcclusionBand.HEAVY, OcclusionBand.PARTIAL, OcclusionBand.HEAVY]
        exact = [OcclusionBand.HEAVY, OcclusionBand.HEAVY, OcclusionBand.HEAVY]
        confusion = band_confusion(estimated, exact)
        assert confusion.agreement_rate() == pytest.approx(2 / 3)


class TestRenderers:
    def test_markdown_layout(self, scenario_reports):
        text = render_visibility_table(scenario_reports, "markdown")
        lines = text.splitlines()
        assert lines[0].startswith("| Scenario | Wheel (%) | Frame (%) | Handlebar (%)")
        assert "| scenario_a | 69.7 | 17.0 | 1.0 | 87.7 | 12.3 |" in lines

    def test_csv_layout(self, scenario_reports):
        text = render_visibility_table(scenario_reports, "csv")
        lines = text.splitlines()
        assert lines[0] == "Scenario,Wheel (%),Frame (%),Handlebar (%),Bicycle Visibility (%),Bicycle Occlusion (%)"
        assert "scenario_e,82.0,17.0,1.0,100.0,0.0" in lines

    def test_csv_quotes_ids_with_commas_and_quotes(self):
        # An image id is any string from detector JSON.
        reports = [report(62.5, image_id='cam 3, frame "7"'), report(40.0, image_id="a,b", index=1)]
        rows = list(csv.reader(io.StringIO(render_visibility_table(reports, "csv"))))
        assert all(len(row) == 6 for row in rows)
        assert [row[0] for row in rows[1:]] == ['cam 3, frame "7"', "a,b#1"]
        assert rows[1][4] == "62.5"

    def test_unknown_format_rejected(self, scenario_reports):
        with pytest.raises(ValueError, match="unknown table format"):
            render_visibility_table(scenario_reports, "html")

    def test_summary_rendering_stable(self, scenario_reports):
        text = render_summary(summarize(scenario_reports))
        assert "visibility_mean=74.59" in text
        assert "visibility_min=20.50" in text

    def test_confusion_rendering(self):
        confusion = band_confusion([OcclusionBand.HEAVY], [OcclusionBand.HEAVY])
        text = render_confusion(confusion)
        assert "low_or_none" in text and "severe" in text
