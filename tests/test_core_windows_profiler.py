"""Unit tests for the descent-window tracker and function profiler."""

import pytest
from hypothesis import given, strategies as st

from repro.core.config import FaaSMemConfig
from repro.core.profiler import FunctionProfiler
from repro.core.windows import DescentWindowTracker
from repro.errors import PolicyError


class TestConfigValidation:
    def test_defaults_valid(self):
        FaaSMemConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"semiwarm_percentile": 0},
            {"semiwarm_percentile": 101},
            {"gradient_epsilon": -0.1},
            {"gradient_stable_rounds": 0},
            {"max_request_window": 0},
            {"rollback_min_interval_s": -1},
            {"semiwarm_tick_s": 0},
            {"percent_rate_per_s": 0},
            {"amount_rate_mib_per_s": -1},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(PolicyError):
            FaaSMemConfig(**kwargs)


class TestDescentWindowTracker:
    def _tracker(self, stable=2, epsilon=0.02, max_window=20):
        return DescentWindowTracker(
            FaaSMemConfig(
                gradient_stable_rounds=stable,
                gradient_epsilon=epsilon,
                max_request_window=max_window,
            )
        )

    def test_closes_when_count_stabilizes(self):
        tracker = self._tracker(stable=2)
        results = [tracker.observe(c) for c in (100, 60, 59, 59)]
        assert results == [False, False, False, True]
        assert tracker.window_size == 4

    def test_stays_open_while_descending(self):
        tracker = self._tracker(stable=2)
        for count in (100, 80, 60, 40, 20):
            assert not tracker.observe(count)

    def test_descent_resets_stability(self):
        tracker = self._tracker(stable=2)
        # stable, then a big drop, then stable again.
        observations = (100, 100, 60, 60, 60)
        results = [tracker.observe(c) for c in observations]
        assert results == [False, False, False, False, True]

    def test_max_window_forces_closure(self):
        tracker = self._tracker(stable=99, max_window=5)
        results = [tracker.observe(100 - i * 10) for i in range(5)]
        assert results[-1] is True
        assert tracker.window_size == 5

    def test_observe_after_close_is_noop(self):
        tracker = self._tracker(stable=1)
        tracker.observe(10)
        assert tracker.observe(10) is True
        assert tracker.observe(0) is False
        assert tracker.window_size == 2

    def test_zero_counts_stable(self):
        tracker = self._tracker(stable=2)
        assert [tracker.observe(0) for _ in range(3)] == [False, False, True]

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            self._tracker().observe(-1)

    @given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=50))
    def test_closes_at_most_once_and_within_max(self, counts):
        tracker = self._tracker(stable=3, max_window=20)
        closes = [tracker.observe(c) for c in counts]
        assert sum(closes) <= 1
        if tracker.closed:
            assert 1 <= tracker.window_size <= 20


class TestFunctionProfiler:
    def _profiler(self, **kwargs):
        return FunctionProfiler(FaaSMemConfig(**kwargs))

    def test_fallback_without_samples(self):
        profiler = self._profiler(semiwarm_fallback_s=42.0)
        assert profiler.semiwarm_start_timing("f") == 42.0

    def test_fallback_below_min_samples(self):
        profiler = self._profiler(semiwarm_min_samples=5, semiwarm_fallback_s=42.0)
        for _ in range(4):
            profiler.record_reuse("f", 1.0)
        assert profiler.semiwarm_start_timing("f") == 42.0

    def test_percentile_with_enough_samples(self):
        profiler = self._profiler(semiwarm_min_samples=5, semiwarm_percentile=99.0)
        for value in range(100):
            profiler.record_reuse("f", float(value))
        timing = profiler.semiwarm_start_timing("f")
        assert 95.0 <= timing <= 99.0

    def test_priors_seed_distribution(self):
        profiler = FunctionProfiler(
            FaaSMemConfig(semiwarm_min_samples=5),
            reuse_priors={"f": [10.0] * 50},
        )
        assert profiler.semiwarm_start_timing("f") == pytest.approx(10.0)

    def test_online_samples_extend_priors(self):
        profiler = FunctionProfiler(
            FaaSMemConfig(semiwarm_min_samples=1, semiwarm_percentile=100.0),
            reuse_priors={"f": [10.0]},
        )
        profiler.record_reuse("f", 500.0)
        assert profiler.semiwarm_start_timing("f") == 500.0

    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError):
            self._profiler().record_reuse("f", -1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_interval_rejected(self, bad):
        profiler = self._profiler(semiwarm_min_samples=1)
        profiler.record_reuse("f", 5.0)
        with pytest.raises(ValueError, match="'f'"):
            profiler.record_reuse("f", bad)
        assert profiler.semiwarm_start_timing("f") == 5.0

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_invalid_prior_rejected(self, bad):
        with pytest.raises(ValueError, match="'g'"):
            FunctionProfiler(FaaSMemConfig(), reuse_priors={"f": [1.0], "g": [2.0, bad]})

    def test_windows_median(self):
        profiler = self._profiler()
        assert profiler.typical_window("f") is None
        for window in (4, 8, 20):
            profiler.record_window("f", window)
        assert profiler.typical_window("f") == 8

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            self._profiler().record_window("f", 0)

    def test_functions_isolated(self):
        profiler = self._profiler(semiwarm_min_samples=1)
        profiler.record_reuse("a", 5.0)
        profiler.record_reuse("b", 500.0)
        assert profiler.semiwarm_start_timing("a") < profiler.semiwarm_start_timing("b")
