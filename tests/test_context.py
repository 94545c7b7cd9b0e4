"""The run context: scoping, the obs setters, and platform precedence.

A platform takes each default from an explicit ``PlatformConfig``
field first, then from the current :class:`RunContext`, then falls
back to its zero-cost default.
"""

from __future__ import annotations

import pytest

from repro import context
from repro.baselines import NoOffloadPolicy
from repro.context import DEFAULT_TRACE_CAPACITY, RunContext, current, using
from repro.faas import PlatformConfig, ServerlessPlatform
from repro.faults import FaultSchedule, FaultSpec
from repro.obs import runtime as obs
from repro.pool.tier import TierTopology
from repro.pressure import PressureConfig


def _platform(**config) -> ServerlessPlatform:
    return ServerlessPlatform(NoOffloadPolicy(), config=PlatformConfig(**config))


@pytest.fixture(autouse=True)
def _clean_context():
    before = current()
    yield
    context.install(before)
    obs.reset_sessions()


class TestScoping:
    def test_using_restores_previous_on_exit(self):
        with using(trace=True) as outer:
            assert current() is outer and outer.trace
            with using(pressure=PressureConfig()) as inner:
                assert inner.trace and inner.pressure is not None
            assert current() is outer
        assert current() == RunContext()

    def test_using_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with using(audit=True):
                raise RuntimeError("boom")
        with pytest.raises(TypeError):  # not a RunContext field
            with using(jobs=4):
                pass
        assert current() == RunContext()


class TestObsSetters:
    def test_enable_audit_implies_trace(self):
        obs.enable(trace=False, audit=True)
        assert current().trace and current().audit
        platform = _platform()
        assert platform.tracer is not None and platform.auditor is not None

    def test_disable_restores_default_ring_capacity(self):
        obs.enable(capacity=1 << 20)
        obs.disable()
        assert current() == RunContext()
        platform = _platform(trace_events=True)
        assert platform.tracer.events.maxlen == DEFAULT_TRACE_CAPACITY

    def test_ring_holds_the_larger_capacity(self):
        with using(trace=True, trace_capacity=1 << 20):
            assert _platform().tracer.events.maxlen == 1 << 20
            assert _platform(trace_capacity=1 << 21).tracer.events.maxlen == 1 << 21
            assert _platform(trace_capacity=1 << 10).tracer.events.maxlen == 1 << 20

    def test_trim_sessions_drops_only_later_sessions(self):
        with using(trace=True):
            first = _platform()
            _platform()
            _platform()
        assert len(obs.sessions()) == 3
        obs.trim_sessions(1)
        assert [s.tracer for s in obs.sessions()] == [first.tracer]


class TestPlatformPrecedence:
    def test_config_fields_win_over_context(self):
        schedule = FaultSchedule()
        pressure = PressureConfig(high_watermark_frac=0.3)
        with using(
            faults=FaultSpec.parse("seed=43,intensity=2"),
            pressure=PressureConfig(),
            tiers=TierTopology.cxl_rdma(total_capacity_mib=1024.0),
        ):
            platform = _platform(
                faults=schedule, pressure=pressure, tiers=TierTopology.flat()
            )
        assert platform.fault_injector.schedule is schedule
        assert platform.governor.config is pressure
        assert platform.pool.degenerate
