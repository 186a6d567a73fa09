import math
import random
from collections import Counter

import pytest

from occlusion_meter.evaluation import (
    BAND_ORDER,
    BandConfusion,
    band_confusion,
    render_confusion,
    render_summary,
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

    def test_is_the_matrix_of_the_pair_counts(self):
        rng = random.Random(15)
        estimated = [rng.choice(BAND_ORDER) for _ in range(300)]
        exact = [rng.choice(BAND_ORDER) for _ in range(300)]
        pairs = Counter(zip(estimated, exact))
        confusion = band_confusion(estimated, exact)
        assert confusion == BandConfusion.from_counts(pairs) == BandConfusion.from_counts(dict(pairs))
        assert confusion.matrix == tuple(tuple(pairs[est, ref] for est in BAND_ORDER) for ref in BAND_ORDER)
        assert BandConfusion.from_counts({}).total() == 0

    @pytest.mark.parametrize("est", BAND_ORDER, ids=lambda band: f"est_{band.value}")
    @pytest.mark.parametrize("ref", BAND_ORDER, ids=lambda band: f"exact_{band.value}")
    def test_one_pair_is_counted_at_its_exact_row_and_estimated_column(self, est, ref):
        confusion = band_confusion([est, est, est], [ref, ref, ref])
        cells = {(i, j): v for i, row in enumerate(confusion.matrix) for j, v in enumerate(row) if v}
        assert cells == {(BAND_ORDER.index(ref), BAND_ORDER.index(est)): 3}
        assert confusion == BandConfusion.from_counts({(est, ref): 3})
        assert confusion.agreement_rate() == (1.0 if est is ref else 0.0)

    def test_from_counts_adds_zero_counts_as_nothing(self):
        heavy, severe = OcclusionBand.HEAVY, OcclusionBand.SEVERE
        confusion = BandConfusion.from_counts({(heavy, severe): 0, (severe, heavy): 2, (heavy, heavy): 0})
        assert confusion == band_confusion([severe, severe], [heavy, heavy])
        assert confusion.total() == 2

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
    def test_summary_rendering_stable(self, scenario_reports):
        text = render_summary(summarize(scenario_reports))
        assert "visibility_mean=74.59" in text
        assert "visibility_min=20.50" in text

    def test_confusion_rendering(self):
        confusion = band_confusion([OcclusionBand.HEAVY], [OcclusionBand.HEAVY])
        text = render_confusion(confusion)
        assert "low_or_none" in text and "severe" in text
