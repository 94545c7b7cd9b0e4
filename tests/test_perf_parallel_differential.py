"""Differential tests: parallel sweeps are byte-identical to serial.

The contract of :mod:`repro.perf.sweep` is that ``--jobs N`` is purely
an execution strategy: the merged rows, the combined trace digest and
the audit report of every grid-based experiment must be exactly what a
serial run produces. These tests run the ported experiments both ways
and compare the evidence.
"""

from __future__ import annotations

import functools
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.context import using
from repro.faults import FaultSpec
from repro.obs import runtime as obs
from repro.pool.tier import TierTopology
from repro.pressure import PressureConfig


def _audited(runner):
    """Run under trace+audit; return (combined digest, rows, violations)."""
    obs.reset_sessions()
    obs.enable(trace=True, audit=True)
    try:
        result = runner()
        return obs.combined_digest(), result.rows, obs.total_violations()
    finally:
        obs.disable()
        obs.reset_sessions()


def _assert_parallel_matches_serial(make_runner):
    serial_digest, serial_rows, serial_violations = _audited(make_runner(1))
    par_digest, par_rows, par_violations = _audited(make_runner(4))
    assert par_digest == serial_digest, "trace streams diverged across processes"
    assert par_rows == serial_rows, "merged rows diverged across processes"
    assert par_violations == serial_violations == 0


@pytest.fixture
def spawned_workers(monkeypatch):
    """Start the sweep's workers as fresh interpreters.

    A forked worker inherits the parent's module state, run context
    included, so only a spawned one (the default start method on macOS
    and Windows) shows whether the sweep itself ships the context.
    """
    from repro.perf import sweep

    spawn = multiprocessing.get_context("spawn")
    monkeypatch.setattr(
        sweep, "ProcessPoolExecutor", functools.partial(ProcessPoolExecutor, mp_context=spawn)
    )


def _fig12_runner(jobs):
    from repro.experiments import fig12_azure_eval

    return lambda: fig12_azure_eval.run(
        benchmarks=["web", "bert"],
        loads=("high",),
        duration=200.0,
        jobs=jobs,
    )


class TestParallelDifferential:
    def test_fig12_jobs4_matches_serial(self):
        _assert_parallel_matches_serial(_fig12_runner)

    def test_run_context_reaches_workers(self, spawned_workers):
        """Workers build their platforms under the parent's run context.

        The faults and the CXL+RDMA hierarchy each move the event
        stream, so a worker that missed either would diverge from the
        serial run. The governor stays quiet on a 64 GiB node; the
        next test checks that it arrives.
        """
        plain_digest, _, _ = _audited(_fig12_runner(1))
        with using(
            faults=FaultSpec.parse("seed=43,intensity=2"),
            pressure=PressureConfig(),
            tiers=TierTopology.cxl_rdma(total_capacity_mib=64 * 1024),
        ):
            serial_digest, serial_rows, serial_violations = _audited(_fig12_runner(1))
            par_digest, par_rows, par_violations = _audited(_fig12_runner(4))
        assert serial_digest != plain_digest, "the context changed nothing"
        assert par_digest == serial_digest, "workers missed the run context"
        assert par_rows == serial_rows
        assert par_violations == serial_violations == 0

    def test_workers_see_the_whole_context(self, spawned_workers):
        from repro.context import current
        from repro.perf.sweep import SweepGrid, SweepPoint

        grid = SweepGrid("context", [SweepPoint(key=(i,), fn=current) for i in range(4)])
        with using(
            audit=True,
            trace_capacity=1 << 17,
            faults=FaultSpec.parse("seed=43,intensity=2"),
            pressure=PressureConfig(),
            tiers=TierTopology.cxl_rdma(total_capacity_mib=64 * 1024),
        ) as parent:
            seen = [result.value for result in grid.run(jobs=2)]
        assert seen == [parent] * 4

    def test_fig11_jobs4_matches_serial(self):
        from repro.experiments import fig11_semiwarm_overview

        def make_runner(jobs):
            return lambda: fig11_semiwarm_overview.run(
                history_duration=3600.0, jobs=jobs
            )

        _assert_parallel_matches_serial(make_runner)

    def test_tiering_jobs4_matches_serial(self):
        from repro.experiments import tiering

        def make_runner(jobs):
            return lambda: tiering.run(
                duration=150.0, near_shares=(0.25,), jobs=jobs
            )

        _assert_parallel_matches_serial(make_runner)

    def test_overload_jobs4_matches_serial(self):
        from repro.experiments import overload

        def make_runner(jobs):
            return lambda: overload.run(
                duration=120.0, multipliers=(0.5, 2.0), jobs=jobs
            )

        _assert_parallel_matches_serial(make_runner)

    def test_chaos_jobs4_matches_serial(self):
        from repro.experiments import chaos

        def make_runner(jobs):
            return lambda: chaos.run(
                duration=240.0, intensities=(0.0, 1.0), jobs=jobs
            )

        _assert_parallel_matches_serial(make_runner)
