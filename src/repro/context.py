"""The run context: how every new platform of a run is built.

Experiment harnesses construct their
:class:`~repro.faas.platform.ServerlessPlatform` objects internally,
so per-call plumbing cannot reach them. One frozen :class:`RunContext`
value instead carries what the CLI (``--audit``, ``--faults``) or a
test asks of every platform built while it is current: tracing,
auditing, the trace ring's capacity, a fault spec, a pressure config
and a pool topology. ``ServerlessPlatform.__init__`` reads it once; an
explicit :class:`~repro.faas.platform.PlatformConfig` field wins over
it, and with every field at its default the platform takes its
zero-cost path (no tracer, injector or governor; the single-node
pool).

:mod:`repro.perf.sweep` ships the current value to each worker process
with :func:`install`; everywhere else :func:`using` sets fields for a
block and restores the previous context on exit::

    with using(audit=True, faults=FaultSpec.parse("seed=7,intensity=2")):
        run_experiment("fig12")
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterator, Optional, Union

if TYPE_CHECKING:  # the run context sits below every subsystem it configures
    from repro.faults.spec import FaultSchedule, FaultSpec
    from repro.pool.tier import TierTopology
    from repro.pressure.governor import PressureConfig

#: Events a platform's trace ring keeps when nothing asks for more.
DEFAULT_TRACE_CAPACITY = 1 << 16


@dataclass(frozen=True)
class RunContext:
    """Defaults for every platform built while this context is current.

    ``audit`` implies ``trace`` (the auditor reads the event stream).
    A platform's ring holds ``max(config.trace_capacity,
    trace_capacity)`` events.
    """

    trace: bool = False
    audit: bool = False
    trace_capacity: int = DEFAULT_TRACE_CAPACITY
    faults: Optional[Union["FaultSpec", "FaultSchedule"]] = None
    pressure: Optional["PressureConfig"] = None
    tiers: Optional["TierTopology"] = None


_CURRENT = RunContext()


def current() -> RunContext:
    """The context new platforms read."""
    return _CURRENT


def install(context: RunContext) -> None:
    """Make ``context`` current (a sweep worker's initializer)."""
    global _CURRENT
    _CURRENT = context


@contextmanager
def using(**fields) -> Iterator[RunContext]:
    """Replace ``fields`` of the current context for the block."""
    previous = _CURRENT
    install(replace(previous, **fields))
    try:
        yield _CURRENT
    finally:
        install(previous)
