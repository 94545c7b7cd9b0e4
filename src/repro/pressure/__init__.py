"""Deterministic memory-pressure governor (watermarks, reclaim, OOM,
admission control).

Off by default: a platform only constructs a
:class:`MemoryPressureGovernor` when its config carries a
:class:`PressureConfig` (or the run context, :mod:`repro.context`,
carries one). With neither the platform holds
``governor is None`` and the whole subsystem costs one ``is not None``
check per hook.
"""

from repro.pressure.governor import (
    DegradationTier,
    MemoryPressureGovernor,
    PressureConfig,
    PressureStats,
    ShedReason,
    ShedRecord,
)

__all__ = [
    "DegradationTier",
    "MemoryPressureGovernor",
    "PressureConfig",
    "PressureStats",
    "ShedReason",
    "ShedRecord",
]
