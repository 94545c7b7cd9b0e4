"""Unit tests for trace generation and analysis."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TraceError
from repro.sim.randomness import RandomStreams
from repro.traces.analysis import (
    cdf,
    classify_load,
    percentile_or,
    replay_keepalive,
    requests_per_container,
    reused_intervals,
)
from repro.traces.azure import (
    AzureTraceConfig,
    generate_azure_like,
    sample_function_trace,
)
from repro.traces.model import FunctionTrace, TraceSet
from repro.traces.patterns import (
    bursty_arrivals,
    diurnal_arrivals,
    periodic_arrivals,
    poisson_arrivals,
    surge_arrivals,
)


@pytest.fixture
def rng():
    return RandomStreams(seed=3).get("traces")


class TestPatterns:
    def test_poisson_rate(self, rng):
        arrivals = poisson_arrivals(rng, 1.0, 10000.0)
        assert len(arrivals) == pytest.approx(10000, rel=0.05)
        assert arrivals == sorted(arrivals)

    def test_poisson_zero_rate(self, rng):
        assert poisson_arrivals(rng, 0.0, 100.0) == []

    def test_poisson_invalid(self, rng):
        with pytest.raises(TraceError):
            poisson_arrivals(rng, 1.0, 0.0)
        with pytest.raises(TraceError):
            poisson_arrivals(rng, -1.0, 10.0)

    def test_periodic_interval(self, rng):
        arrivals = periodic_arrivals(rng, 10.0, 100.0, jitter_s=0.0)
        gaps = np.diff(arrivals)
        assert np.allclose(gaps, 10.0)

    def test_periodic_with_phase(self, rng):
        arrivals = periodic_arrivals(rng, 10.0, 100.0, phase=3.0)
        assert arrivals[0] == pytest.approx(3.0)

    def test_periodic_invalid_interval(self, rng):
        with pytest.raises(TraceError):
            periodic_arrivals(rng, 0.0, 100.0)

    def test_bursty_clusters(self, rng):
        arrivals = bursty_arrivals(
            rng, 36000.0, burst_rate_per_s=1.0, mean_burst_s=30.0, mean_gap_s=600.0
        )
        assert arrivals == sorted(arrivals)
        gaps = np.diff(arrivals)
        # Bimodal: many tiny intra-burst gaps, some large inter-burst gaps.
        assert (gaps < 10).mean() > 0.5
        assert gaps.max() > 100

    def test_bursty_min_gap_respected(self, rng):
        arrivals = bursty_arrivals(
            rng,
            36000.0,
            burst_rate_per_s=2.0,
            mean_burst_s=20.0,
            mean_gap_s=900.0,
            min_gap_s=700.0,
        )
        gaps = np.diff(arrivals)
        large = gaps[gaps > 100]
        assert large.min() >= 600  # inter-burst gaps stay above the floor

    def test_bursty_invalid_min_gap(self, rng):
        with pytest.raises(TraceError):
            bursty_arrivals(rng, 100.0, 1.0, mean_gap_s=100.0, min_gap_s=200.0)

    def test_diurnal_mean_rate(self, rng):
        arrivals = diurnal_arrivals(rng, 0.1, 86400.0)
        assert len(arrivals) == pytest.approx(8640, rel=0.15)

    def test_diurnal_invalid_depth(self, rng):
        with pytest.raises(TraceError):
            diurnal_arrivals(rng, 0.1, 100.0, depth=1.5)

    def test_surge_concentration(self, rng):
        arrivals = surge_arrivals(
            rng, 3600.0, 0.01, surge_at=1000.0, surge_len_s=30.0, surge_rate_per_s=5.0
        )
        in_surge = [t for t in arrivals if 1000 <= t <= 1030]
        assert len(in_surge) > 100

    def test_surge_invalid_position(self, rng):
        with pytest.raises(TraceError):
            surge_arrivals(rng, 100.0, 0.1, surge_at=200.0, surge_len_s=10, surge_rate_per_s=1)


class TestFunctionTrace:
    def test_validates_sorted(self):
        with pytest.raises(TraceError):
            FunctionTrace("f", [5.0, 1.0], duration=10.0)

    def test_validates_bounds(self):
        with pytest.raises(TraceError):
            FunctionTrace("f", [11.0], duration=10.0)

    def test_first_offender_named_unsorted_first(self):
        # The unsorted pair comes before the out-of-range value.
        with pytest.raises(TraceError, match="not sorted"):
            FunctionTrace("f", [5.0, 1.0, 20.0], duration=10.0)

    def test_first_offender_named_out_of_range_first(self):
        with pytest.raises(TraceError, match=r"timestamp 20\.0 outside \[0, 10\.0\]"):
            FunctionTrace("f", [2.0, 20.0, 5.0], duration=10.0)

    def test_negative_rejected(self):
        with pytest.raises(TraceError, match=r"timestamp -1\.0 outside"):
            FunctionTrace("f", [-1.0, 2.0], duration=10.0)

    def test_nan_rejected(self):
        with pytest.raises(TraceError, match="timestamp nan outside"):
            FunctionTrace("f", [1.0, float("nan"), 3.0], duration=10.0)

    def test_timestamp_at_duration_accepted(self):
        trace = FunctionTrace("f", [0.0, 10.0], duration=10.0)
        assert trace.count == 2

    def test_empty_accepted(self):
        assert FunctionTrace("f", [], duration=10.0).count == 0

    def test_rate_per_day(self):
        trace = FunctionTrace("f", [1.0, 2.0], duration=86400.0)
        assert trace.rate_per_day == 2.0

    def test_iat_stats(self):
        trace = FunctionTrace("f", [0.0, 10.0, 20.0], duration=100.0)
        assert trace.iat_std == 0.0
        assert trace.requests_per_minute() == pytest.approx(1.8)

    def test_iat_empty(self):
        assert FunctionTrace("f", [5.0], duration=10.0).iat_std == 0.0

    def test_slice_rebases(self):
        trace = FunctionTrace("f", [1.0, 5.0, 9.0], duration=10.0)
        sliced = trace.slice(4.0, 10.0)
        assert sliced.timestamps == [1.0, 5.0]
        assert sliced.duration == 6.0

    def test_slice_invalid(self):
        trace = FunctionTrace("f", [1.0], duration=10.0)
        with pytest.raises(TraceError):
            trace.slice(5.0, 20.0)


class TestTraceSet:
    def test_add_and_merge(self):
        ts = TraceSet()
        ts.add(FunctionTrace("a", [2.0], duration=10.0))
        ts.add(FunctionTrace("b", [1.0], duration=10.0))
        assert ts.merged() == [(1.0, "b"), (2.0, "a")]
        assert ts.total_invocations == 2
        assert len(ts) == 2

    def test_duplicate_rejected(self):
        ts = TraceSet()
        ts.add(FunctionTrace("a", [], duration=10.0))
        with pytest.raises(TraceError):
            ts.add(FunctionTrace("a", [], duration=10.0))


class TestKeepAliveReplay:
    def test_single_request_single_container(self):
        replay = replay_keepalive([0.0], timeout=60.0, exec_time=1.0)
        assert len(replay.containers) == 1
        assert replay.cold_starts == 1
        assert replay.containers[0].lifetime == pytest.approx(61.0)

    def test_reuse_within_timeout(self):
        replay = replay_keepalive([0.0, 30.0], timeout=60.0, exec_time=1.0)
        assert len(replay.containers) == 1
        assert replay.cold_starts == 1
        assert replay.reused_intervals == [pytest.approx(29.0)]

    def test_expiry_causes_new_container(self):
        replay = replay_keepalive([0.0, 100.0], timeout=60.0, exec_time=1.0)
        assert len(replay.containers) == 2
        assert replay.cold_starts == 2

    def test_concurrent_requests_need_two_containers(self):
        replay = replay_keepalive([0.0, 0.5], timeout=60.0, exec_time=1.0)
        assert len(replay.containers) == 2

    def test_mru_reuse(self):
        # Two containers; the more recently idle one takes the request.
        replay = replay_keepalive([0.0, 0.5, 10.0], timeout=60.0, exec_time=1.0)
        counts = sorted(replay.requests_per_container)
        assert counts == [1, 2]

    def test_inactive_fraction_bounds(self):
        replay = replay_keepalive([0.0, 5.0], timeout=60.0, exec_time=1.0)
        assert 0.0 <= replay.memory_inactive_fraction <= 1.0

    def test_unsorted_rejected(self):
        with pytest.raises(TraceError):
            replay_keepalive([5.0, 1.0], timeout=60.0)

    def test_nan_rejected(self):
        with pytest.raises(TraceError, match="sorted"):
            replay_keepalive([1.0, float("nan"), 3.0], timeout=60.0)

    def test_generator_input_counts_requests(self):
        replay = replay_keepalive((t for t in [1.0, 2.0, 50.0]), 10.0)
        assert replay.total_requests == 3
        assert replay.cold_starts == 2
        assert replay.cold_start_ratio == pytest.approx(2 / 3)
        from_list = replay_keepalive([1.0, 2.0, 50.0], 10.0)
        assert repr(replay) == repr(from_list)

    def test_invalid_params_rejected(self):
        with pytest.raises(TraceError):
            replay_keepalive([1.0], timeout=0.0)
        with pytest.raises(TraceError):
            replay_keepalive([1.0], timeout=10.0, exec_time=0.0)

    def test_longer_timeout_fewer_cold_starts(self, rng):
        arrivals = poisson_arrivals(rng, 0.01, 36000.0)
        short = replay_keepalive(arrivals, timeout=10.0)
        long = replay_keepalive(arrivals, timeout=600.0)
        assert long.cold_starts <= short.cold_starts

    def test_longer_timeout_more_idle_share(self, rng):
        arrivals = poisson_arrivals(rng, 0.01, 36000.0)
        short = replay_keepalive(arrivals, timeout=10.0)
        long = replay_keepalive(arrivals, timeout=600.0)
        assert long.memory_inactive_fraction >= short.memory_inactive_fraction

    @given(st.lists(st.floats(min_value=0, max_value=1e5), min_size=1, max_size=80))
    @settings(max_examples=30)
    def test_request_conservation(self, raw):
        timestamps = sorted(raw)
        replay = replay_keepalive(timestamps, timeout=60.0, exec_time=1.0)
        assert sum(replay.requests_per_container) == len(timestamps)
        assert replay.cold_starts == len(replay.containers)

    def test_helpers_agree_with_replay(self):
        timestamps = [0.0, 30.0, 200.0]
        replay = replay_keepalive(timestamps, 60.0, 1.0)
        assert requests_per_container(timestamps, 60.0, 1.0) == replay.requests_per_container
        assert reused_intervals(timestamps, 60.0, 1.0) == replay.reused_intervals


class TestAnalysisHelpers:
    def test_classify_load(self):
        assert classify_load(1000) == "high"
        assert classify_load(100) == "middle"
        assert classify_load(10) == "low"

    def test_cdf(self):
        xs, fs = cdf([3.0, 1.0, 2.0])
        assert list(xs) == [1.0, 2.0, 3.0]
        assert fs[-1] == 1.0

    def test_cdf_empty(self):
        xs, fs = cdf([])
        assert xs.size == 0 and fs.size == 0

    def test_percentile_or(self):
        assert percentile_or([], 99, default=42.0) == 42.0
        assert percentile_or([1.0, 2.0], 50, default=0.0) == pytest.approx(1.5)


class TestAzurePopulation:
    @pytest.fixture(scope="class")
    def population(self):
        return generate_azure_like(
            AzureTraceConfig(n_functions=120, duration=6 * 3600.0, seed=7)
        )

    def test_population_size(self, population):
        assert len(population) == 120

    def test_deterministic(self, population):
        again = generate_azure_like(
            AzureTraceConfig(n_functions=120, duration=6 * 3600.0, seed=7)
        )
        for name, trace in population.functions.items():
            assert again.functions[name].timestamps == trace.timestamps

    def test_heavy_tail(self, population):
        rates = sorted(tr.rate_per_day for tr in population)
        top_share = sum(rates[-6:]) / max(sum(rates), 1e-9)
        assert top_share > 0.5  # a handful of functions dominate volume

    def test_all_load_classes_present(self, population):
        classes = {classify_load(tr.rate_per_day) for tr in population}
        assert classes == {"high", "middle", "low"}

    def test_invalid_config_rejected(self):
        with pytest.raises(TraceError):
            AzureTraceConfig(n_functions=0)
        with pytest.raises(TraceError):
            AzureTraceConfig(periodic_share=0.9, bursty_share=0.9)


class TestSampleFunctionTrace:
    def test_known_loads(self):
        for load in ("high", "low", "middle", "bursty", "surge"):
            trace = sample_function_trace(load, duration=1800.0, seed=1)
            assert trace.duration == 1800.0

    def test_unknown_load_rejected(self):
        with pytest.raises(TraceError):
            sample_function_trace("extreme")

    def test_high_has_more_requests_than_low(self):
        high = sample_function_trace("high", duration=3600.0, seed=1)
        low = sample_function_trace("low", duration=3600.0, seed=1)
        assert high.count > 3 * low.count

    def test_deterministic_by_seed(self):
        a = sample_function_trace("high", duration=600.0, seed=5)
        b = sample_function_trace("high", duration=600.0, seed=5)
        assert a.timestamps == b.timestamps
