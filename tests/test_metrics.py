"""Unit tests for latency stats, memory timelines, summaries, export."""

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.metrics.export import normalize_series, render_table, to_json
from repro.metrics.latency import LatencyStats, percentile
from repro.metrics.memory import MemoryTimeline
from repro.metrics.summary import RunSummary, SystemComparison, density_improvement


class TestPercentile:
    def test_median(self):
        assert percentile([1, 2, 3], 50) == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 95)

    def test_out_of_range_q_rejected(self):
        with pytest.raises(ValueError):
            percentile([1], 101)

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=100))
    def test_bounded_by_min_max(self, samples):
        for q in (0, 50, 95, 100):
            value = percentile(samples, q)
            assert min(samples) <= value <= max(samples)

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=2, max_size=100))
    def test_monotone_in_q(self, samples):
        assert percentile(samples, 50) <= percentile(samples, 95) <= percentile(samples, 99)


class TestLatencyStats:
    def test_record_and_summary(self):
        stats = LatencyStats()
        stats.extend([0.1, 0.2, 0.3])
        assert stats.count == 3
        assert stats.mean == pytest.approx(0.2)
        assert stats.p50 == pytest.approx(0.2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LatencyStats().record(-0.1)

    def test_empty_mean_rejected(self):
        with pytest.raises(ValueError):
            _ = LatencyStats().mean

    def test_one_call_percentiles_equal_separate_calls(self):
        """``percentiles()`` is bitwise the three ``p(q)`` calls, over
        random sample sets of 1-600 with ties."""
        rng = np.random.default_rng(20)
        for _ in range(2000):
            n = int(rng.integers(1, 601))
            samples = rng.lognormal(-2.0, 1.0, n)
            if rng.random() < 0.5:
                samples = np.round(samples, int(rng.integers(0, 3)))
            stats = LatencyStats(samples=samples.tolist())
            one_call = [value.hex() for value in stats.percentiles()]
            assert one_call == [stats.p(q).hex() for q in (50, 95, 99)]

    def test_percentiles_of_nothing_rejected(self):
        with pytest.raises(ValueError):
            LatencyStats().percentiles()

    def test_summary_keys(self):
        stats = LatencyStats(samples=[0.1] * 10)
        assert set(stats.summary()) == {"count", "mean", "p50", "p95", "p99"}


class TestMemoryTimeline:
    def _timeline(self):
        return MemoryTimeline(
            points=[(0.0, 0.0), (1.0, 256.0), (3.0, 512.0)],
            average_pages=256.0,
            peak_pages=512.0,
        )

    def test_mib_conversions(self):
        timeline = self._timeline()
        assert timeline.average_mib == pytest.approx(1.0)
        assert timeline.peak_mib == pytest.approx(2.0)

    def test_resample_holds_values(self):
        samples = self._timeline().resample(step=1.0)
        assert samples == [(0.0, 0.0), (1.0, 256.0), (2.0, 256.0), (3.0, 512.0)]

    def test_resample_invalid_step(self):
        with pytest.raises(ValueError):
            self._timeline().resample(step=0.0)

    def test_resample_empty(self):
        empty = MemoryTimeline(points=[], average_pages=0, peak_pages=0)
        assert empty.resample(1.0) == []


def _summary(system="x", mem=100.0, p95=0.2):
    return RunSummary(
        system=system,
        benchmark="b",
        trace="t",
        requests=10,
        cold_starts=2,
        latency_mean=0.1,
        latency_p50=0.1,
        latency_p95=p95,
        latency_p99=0.3,
        memory=MemoryTimeline(points=[], average_pages=mem * 256, peak_pages=mem * 256),
    )


class TestSummary:
    def test_cold_start_ratio(self):
        assert _summary().cold_start_ratio == 0.2

    def test_row_keys(self):
        row = _summary().row()
        assert row["system"] == "x"
        assert "p95_s" in row and "avg_mem_mib" in row

    def test_comparison_ratios(self):
        comparison = SystemComparison(
            baseline=_summary(mem=100, p95=0.2),
            candidate=_summary(system="y", mem=30, p95=0.22),
        )
        assert comparison.memory_ratio == pytest.approx(0.3)
        assert comparison.memory_saving == pytest.approx(0.7)
        assert comparison.p95_ratio == pytest.approx(1.1)
        assert comparison.p95_increase == pytest.approx(0.1)

    def test_comparison_zero_baseline_rejected(self):
        comparison = SystemComparison(
            baseline=_summary(mem=0), candidate=_summary(mem=10)
        )
        with pytest.raises(ValueError):
            _ = comparison.memory_ratio

    def test_density_improvement(self):
        assert density_improvement(128, 28) == pytest.approx(1.28)

    def test_density_capped(self):
        # Cannot shrink the quota below 5 %.
        assert density_improvement(100, 99) == pytest.approx(100 / 5)

    def test_density_invalid_quota(self):
        with pytest.raises(ValueError):
            density_improvement(0, 10)


class TestExport:
    def test_render_table_alignment(self):
        text = render_table([{"a": 1, "bb": "x"}, {"a": 22, "bb": "yy"}])
        lines = text.splitlines()
        assert lines[0].startswith("a ")
        assert "22" in lines[3]

    def test_render_table_empty(self):
        assert "(no rows)" in render_table([])

    def test_render_table_title_and_missing_keys(self):
        text = render_table([{"a": 1}], columns=["a", "missing"], title="T")
        assert text.startswith("T\n")

    def test_to_json_roundtrip(self, tmp_path):
        path = tmp_path / "out.json"
        to_json({"x": [1, 2]}, str(path))
        assert json.loads(path.read_text()) == {"x": [1, 2]}

    def test_to_json_uses_row_method(self):
        text = to_json({"summary": _summary()})
        assert "avg_mem_mib" in text

    def test_normalize_series(self):
        assert normalize_series([2, 4], 2) == [1.0, 2.0]
        with pytest.raises(ValueError):
            normalize_series([1], 0)
