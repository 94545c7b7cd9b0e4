"""Integration tests for fault injection and recovery on the platform.

Every test runs a real seeded workload against the FaaSMem policy
with the invariant auditor online, so recovery is verified both by
explicit assertions and by the auditor's conservation, lifecycle and
breaker-legality checks.
"""

from __future__ import annotations

import pytest

from repro.context import using
from repro.core import FaaSMemPolicy
from repro.experiments.common import make_reuse_priors
from repro.faas import PlatformConfig, ServerlessPlatform
from repro.faults import (
    CONTAINER_CRASH,
    LINK_DOWN,
    FaultSchedule,
    FaultSpec,
    FaultWindow,
    PointFault,
)
from repro.traces.azure import sample_function_trace
from repro.workloads import get_profile


def _platform(faults, benchmark="web", seed=5, duration=600.0):
    trace = sample_function_trace("high", duration=duration, seed=seed)
    priors = make_reuse_priors(
        trace, benchmark, exec_time_s=get_profile(benchmark).exec_time_s
    )
    platform = ServerlessPlatform(
        FaaSMemPolicy(reuse_priors=priors),
        config=PlatformConfig(seed=seed, audit_events=True, faults=faults),
    )
    platform.register_function(benchmark, get_profile(benchmark))
    return platform, trace


def _run(platform, trace, benchmark="web"):
    platform.run_trace((t, benchmark) for t in trace.timestamps)
    assert platform.auditor is not None
    assert platform.auditor.clean, platform.auditor.report()
    return platform


class TestFaultedRunEndToEnd:
    @pytest.fixture(scope="class")
    def faulted(self):
        spec = FaultSpec(
            seed=43,
            horizon_s=600.0,
            intensity=2.0,
            link_outage_rate_per_h=12.0,
            link_outage_duration_s=30.0,
            link_degrade_rate_per_h=18.0,
            link_degrade_duration_s=90.0,
            pool_crash_rate_per_h=6.0,
            container_crash_rate_per_h=12.0,
        )
        platform, trace = _platform(spec)
        return _run(platform, trace), trace

    def test_audit_clean_under_faults(self, faulted):
        platform, _ = faulted
        assert platform.auditor.clean

    def test_every_request_served(self, faulted):
        platform, trace = faulted
        assert len(platform.records) == trace.count

    def test_recovery_machinery_exercised(self, faulted):
        platform, _ = faulted
        injector = platform.fault_injector
        assert injector.stats.page_in_retries > 0
        assert injector.stats.pages_lost > 0
        assert injector.breaker.opens > 0
        assert injector.breaker.reclosures > 0
        assert injector.stats.invocations_redispatched > 0

    def test_lost_pages_cross_check(self, faulted):
        platform, _ = faulted
        assert (
            platform.fastswap.stats.remote_lost_pages == platform.pool.lost_pages
        )
        platform.fastswap.stats.check_conservation(platform.pool.used_pages)

    def test_restart_penalty_lands_on_victim(self, faulted):
        platform, _ = faulted
        restarted = [r for r in platform.records if r.restarts > 0]
        assert restarted
        others = [r for r in platform.records if r.restarts == 0]
        # A restarted request re-queues, re-launches and re-executes,
        # so it must be slower than the median untouched request.
        median = sorted(r.latency for r in others)[len(others) // 2]
        assert all(r.latency > median for r in restarted)

    def test_link_restored_at_end(self, faulted):
        platform, _ = faulted
        assert platform.link.up
        assert platform.link.degrade_factor == 1.0


class TestLinkOutageFallback:
    def test_outage_suspends_offloads_then_recovers(self):
        schedule = FaultSchedule(
            windows=[FaultWindow(LINK_DOWN, 60.0, 120.0)]
        )
        platform, trace = _platform(schedule)
        _run(platform, trace)
        injector = platform.fault_injector
        assert injector.stats.link_outages == 1
        assert injector.breaker.opens >= 1
        assert injector.breaker.reclosures >= 1
        assert injector.breaker.state == "closed"
        assert platform.link.up

    def test_suspended_while_breaker_open(self):
        schedule = FaultSchedule(windows=[FaultWindow(LINK_DOWN, 60.0, 120.0)])
        platform, _ = _platform(schedule)
        platform.engine.run(until=90.0)
        assert not platform.link.up
        assert platform.fastswap.suspended
        # Well after the window plus breaker cooldown, probes rearm it.
        platform.engine.run(until=300.0)
        assert platform.link.up
        assert not platform.fastswap.suspended


class TestContainerCrash:
    def test_mid_request_crash_redispatches(self):
        """Crash the platform's only container mid-execution; the
        orphaned invocation must restart and still complete."""
        # Phase 1: find when the first request is executing.
        platform, trace = _platform(None, duration=300.0)
        _run(platform, trace)
        first = min(platform.records, key=lambda r: r.arrival)
        crash_at = first.arrival + first.latency * 0.9
        baseline_count = len(platform.records)

        # Phase 2: same seeded run with a crash inside that window.
        schedule = FaultSchedule(
            points=[PointFault(CONTAINER_CRASH, crash_at)]
        )
        faulted, trace = _platform(schedule, duration=300.0)
        _run(faulted, trace)
        injector = faulted.fault_injector
        assert injector.stats.containers_crashed == 1
        assert injector.stats.invocations_redispatched >= 1
        assert len(faulted.records) == baseline_count
        restarted = [r for r in faulted.records if r.restarts > 0]
        assert len(restarted) >= 1
        assert all(r.restarts == 1 for r in restarted)

    def test_crash_with_no_containers_is_noop(self):
        schedule = FaultSchedule(points=[PointFault(CONTAINER_CRASH, 1e-3)])
        platform, _ = _platform(schedule)
        platform.engine.run(until=1.0)
        assert platform.fault_injector.stats.crash_noops == 1


class TestEmptyScheduleNoOp:
    def test_empty_schedule_schedules_nothing(self):
        platform, _ = _platform(FaultSchedule())
        injector = platform.fault_injector
        assert injector is not None
        assert injector.schedule.empty
        assert platform.engine.pending == 0

    def test_no_faults_configured_means_no_injector(self):
        platform, _ = _platform(None)
        assert platform.fault_injector is None

    def test_runtime_default_reaches_internal_platforms(self):
        with using(faults=FaultSpec(intensity=0.0)):
            platform, _ = _platform(None)
        assert platform.fault_injector is not None
        assert platform.fault_injector.schedule.empty
        platform, _ = _platform(None)
        assert platform.fault_injector is None
