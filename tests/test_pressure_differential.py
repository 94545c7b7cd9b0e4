"""Inert-governor differential: a disabled governor is a provable no-op.

Installing a :class:`PressureConfig` with all watermark fractions at 0
attaches a live governor to every platform, yet the traced event
stream must be byte-identical (same SHA-256 digest) to a run with no
governor at all: zero watermarks mean the free-page checks can never
fire, the reclaim ticker is never started, the tier never leaves
NORMAL, and no random numbers are drawn.
"""

from __future__ import annotations

from repro.baselines import NoOffloadPolicy
from repro.context import using
from repro.faas import PlatformConfig, ServerlessPlatform
from repro.obs import runtime as obs
from repro.pressure import DegradationTier, PressureConfig

_INERT = dict(min_watermark_frac=0.0, low_watermark_frac=0.0, high_watermark_frac=0.0)


def _digest(runner, with_inert_governor: bool) -> str:
    obs.reset_sessions()
    pressure = PressureConfig(**_INERT) if with_inert_governor else None
    try:
        with using(trace=True, pressure=pressure):
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


class TestInertGovernorDifferential:
    def test_fig12_digest_identical(self):
        assert _digest(_run_fig12, False) == _digest(_run_fig12, True)

    def test_semiwarm_digest_identical(self):
        assert _digest(_run_semiwarm, False) == _digest(_run_semiwarm, True)

    def test_differential_is_not_vacuous(self):
        """The governed branch really does attach a governor."""
        with using(pressure=PressureConfig(**_INERT)):
            platform = ServerlessPlatform(NoOffloadPolicy(), config=PlatformConfig())
        assert platform.governor is not None
        assert not platform.governor.enforcing
        assert platform.governor.tier is DegradationTier.NORMAL
        assert platform.node.watermarks is not None

    def test_enforcing_governor_does_change_the_stream(self):
        """Sanity check on the instrument: real watermarks diverge.

        A 600 MiB node with two ~350 MiB warm sets forces direct
        reclaim, so the governed stream gains pressure events that the
        ungoverned one cannot have.
        """
        from repro.workloads import get_profile

        def run_tight(governed: bool):
            def runner():
                with using(pressure=PressureConfig() if governed else None):
                    platform = ServerlessPlatform(
                        NoOffloadPolicy(),
                        config=PlatformConfig(seed=7, node_capacity_mib=600.0),
                    )
                platform.register_function("web", get_profile("web"))
                platform.register_function("web-b", get_profile("web"))
                platform.run_trace([(0.0, "web"), (40.0, "web-b")])

            return runner

        assert _digest(run_tight(False), False) != _digest(run_tight(True), False)
