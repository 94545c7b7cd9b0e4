"""FaaSMem reproduction library.

A discrete-event, page-granular simulation of serverless computing on
a memory-pool architecture, reproducing *FaaSMem: Improving Memory
Efficiency of Serverless Computing with Memory Pool Architecture*
(ASPLOS 2024).

Quickstart::

    from repro import (
        FaaSMemPolicy, NoOffloadPolicy, ServerlessPlatform, get_profile,
        sample_function_trace,
    )

    platform = ServerlessPlatform(FaaSMemPolicy())
    platform.register_function("web", get_profile("web"))
    trace = sample_function_trace("high", duration=3600, seed=1)
    platform.run_trace((t, "web") for t in trace.timestamps)
    print(platform.summarize("web", "high").row())
"""

from repro.baselines import DamonPolicy, NoOffloadPolicy, TmoPolicy
from repro.core import FaaSMemConfig, FaaSMemPolicy
from repro.faas import PlatformConfig, ServerlessPlatform
from repro.faults import FaultInjector, FaultSchedule, FaultSpec, RecoveryConfig
from repro.pool import TieredPool, TierSpec, TierTopology
from repro.pressure import (
    DegradationTier,
    MemoryPressureGovernor,
    PressureConfig,
    ShedReason,
)
from repro.traces import generate_azure_like, sample_function_trace
from repro.workloads import all_benchmarks, get_profile

__version__ = "1.0.0"

__all__ = [
    "FaaSMemPolicy",
    "FaaSMemConfig",
    "NoOffloadPolicy",
    "TmoPolicy",
    "DamonPolicy",
    "ServerlessPlatform",
    "PlatformConfig",
    "FaultSpec",
    "FaultSchedule",
    "FaultInjector",
    "RecoveryConfig",
    "PressureConfig",
    "MemoryPressureGovernor",
    "DegradationTier",
    "ShedReason",
    "TierTopology",
    "TierSpec",
    "TieredPool",
    "get_profile",
    "all_benchmarks",
    "sample_function_trace",
    "generate_azure_like",
    "__version__",
]
