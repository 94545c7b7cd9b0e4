"""Zero-fault differential: an empty fault schedule is a provable no-op.

Installing ``FaultSpec(intensity=0)`` attaches a live injector to every
platform, yet the traced event stream must be byte-identical (same
SHA-256 digest) to a run with no injector at all: the empty schedule
schedules no events, draws no random numbers, and contributes exact
float zeros to every page-in.
"""

from __future__ import annotations

from repro.faas import PlatformConfig, ServerlessPlatform
from repro.baselines import NoOffloadPolicy
from repro.context import using
from repro.faults import FaultSpec
from repro.obs import runtime as obs


def _digest(runner, with_empty_faults: bool) -> str:
    obs.reset_sessions()
    faults = FaultSpec(intensity=0.0) if with_empty_faults else None
    try:
        with using(trace=True, faults=faults):
            runner()
        return obs.combined_digest()
    finally:
        obs.reset_sessions()


def _run_fig12():
    from repro.experiments import fig12_azure_eval

    fig12_azure_eval.run(benchmarks=["web"], loads=("high",), duration=300.0)


def _run_semiwarm():
    from repro.experiments import fig11_semiwarm_overview

    fig11_semiwarm_overview.run(history_duration=3600.0)


class TestZeroFaultDifferential:
    def test_fig12_digest_identical(self):
        assert _digest(_run_fig12, False) == _digest(_run_fig12, True)

    def test_semiwarm_digest_identical(self):
        assert _digest(_run_semiwarm, False) == _digest(_run_semiwarm, True)

    def test_differential_is_not_vacuous(self):
        """The faulted branch really does attach injectors."""
        with using(faults=FaultSpec(intensity=0.0)):
            platform = ServerlessPlatform(NoOffloadPolicy(), config=PlatformConfig())
        assert platform.fault_injector is not None
        assert platform.fault_injector.schedule.empty

    def test_nonempty_schedule_does_change_the_stream(self):
        """Sanity check on the instrument: a real schedule diverges."""

        def faulted():
            with using(faults=FaultSpec(seed=43, intensity=2.0, horizon_s=300.0,
                                        link_outage_rate_per_h=24.0)):
                _run_fig12()

        assert _digest(_run_fig12, False) != _digest(faulted, False)
