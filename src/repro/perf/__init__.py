"""Performance layer: parallel sweep execution.

:mod:`repro.perf.sweep` holds the :class:`SweepGrid` parallel executor
every large experiment enumerates its independent points onto. The
repo's benchmark is ``perfbench/run.py`` (see ``perfbench/README.md``).
"""

from repro.perf.sweep import (
    JOBS_ENV,
    PointResult,
    SessionSnapshot,
    SweepGrid,
    SweepPoint,
    resolve_jobs,
)

__all__ = [
    "JOBS_ENV",
    "PointResult",
    "SessionSnapshot",
    "SweepGrid",
    "SweepPoint",
    "resolve_jobs",
]
