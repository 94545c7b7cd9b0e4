"""The top-level simulation object experiments drive."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import context
from repro.errors import TraceError
from repro.faas.controller import Controller
from repro.faas.function import FunctionSpec
from repro.faas.keepalive import FixedKeepAlive, KeepAlivePolicy
from repro.faas.policy import OffloadPolicy
from repro.faas.request import Invocation, RequestRecord, reset_invocation_ids
from repro.mem.node import ComputeNode
from repro.mem.page import reset_region_ids
from repro.metrics.latency import LatencyStats
from repro.metrics.memory import MemoryTimeline
from repro.metrics.summary import RunSummary
from repro.metrics.timeweighted import TimeWeightedAccumulator
from repro.obs import runtime as obs_runtime
from repro.obs.audit import InvariantAuditor
from repro.obs.trace import Tracer
from repro.pool.bandwidth import BandwidthMonitor
from repro.pool.fastswap import Fastswap
from repro.pool.link import LinkConfig, LinkDirection
from repro.pool.tier import TieredPool, TierTopology
from repro.sim.engine import Engine
from repro.sim.randomness import RandomStreams
from repro.units import MINUTE
from repro.workloads.profile import WorkloadProfile


@dataclass
class PlatformConfig:
    """Cluster and policy-independent knobs (paper §8.1 defaults)."""

    node_capacity_mib: float = 64 * 1024  # 64 GB compute node
    pool_capacity_mib: float = 64 * 1024  # 64 GB memory node
    keep_alive_s: float = 10 * MINUTE
    link: LinkConfig = field(default_factory=LinkConfig)
    strict_node_capacity: bool = False
    # Scale-out hysteresis: an arrival with no idle container first
    # queues on a busy/launching container whose backlog is below this
    # bound; only when every container is saturated does the platform
    # cold-start another one (OpenWhisk-style activation handling).
    # The default of 1 lets a busy container absorb one waiter before
    # the fleet scales out.
    max_queue_per_container: int = 1
    # Keep-alive heartbeat: the action proxy answers controller health
    # pings every this many seconds while idle, touching the hot
    # runtime core (0 disables). This is why the runtime's hot core
    # never truly goes cold in a real deployment.
    heartbeat_s: float = 25.0
    # FAASM-style runtime sharing (§9 discussion): one runtime image
    # per function per node instead of one per container.
    share_runtime: bool = False
    # Memory-pressure eviction: when a cold start's quota does not fit
    # the node's free capacity, reclaim least-recently-idle containers
    # early to make room (what a real invoker does on a memory-
    # stranded node).
    evict_on_pressure: bool = False
    seed: int = 42
    # Structured event tracing (repro.obs). Off by default: with no
    # tracer attached every emission site is a single ``is not None``
    # check. ``audit_events`` additionally attaches the invariant
    # auditor to the trace stream.
    trace_events: bool = False
    audit_events: bool = False
    trace_capacity: int = context.DEFAULT_TRACE_CAPACITY
    # Deterministic fault injection (repro.faults): a FaultSpec (one
    # concrete schedule is drawn from it) or a ready FaultSchedule.
    # None falls back to the run context's ``faults`` (the CLI
    # --faults flag); with neither set, no injector is constructed at
    # all and the datapath stays on its zero-cost
    # ``injector is None`` path.
    faults: Optional[object] = None
    # Memory-pressure governor (repro.pressure): a PressureConfig.
    # None falls back to the run context's ``pressure``; with neither
    # set, no governor is constructed and every hook stays on its
    # zero-cost ``governor is None`` path.
    pressure: Optional[object] = None
    # Pool hierarchy (repro.pool.tier): a TierTopology. None falls
    # back to the run context's ``tiers``; with neither set the
    # platform builds TierTopology.flat(), the paper's single memory
    # node: one tier, one shard named mempool-0 with
    # pool_capacity_mib pages behind an unnamed link of ``link``.
    tiers: Optional[object] = None


@dataclass
class ContainerHistory:
    """Lifetime record of one (possibly reclaimed) container."""

    container_id: str
    function: str
    created_at: float
    reclaimed_at: Optional[float] = None
    requests_served: int = 0


class ServerlessPlatform:
    """Compute node + memory pool + controller + offloading policy."""

    def __init__(
        self,
        policy: OffloadPolicy,
        config: Optional[PlatformConfig] = None,
        keep_alive: Optional[KeepAlivePolicy] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.config = config or PlatformConfig()
        # Restart the process-global id sequences so repeated same-seed
        # runs assign identical region/invocation ids (and therefore
        # emit byte-identical trace streams). Only relative id order
        # matters to the simulation, so this is behaviour-preserving.
        reset_region_ids()
        reset_invocation_ids()
        self.engine = Engine()
        self.streams = RandomStreams(seed=self.config.seed)
        # Every default below comes from the run context, read once:
        # an explicit config value wins over it, and with neither the
        # platform takes its zero-cost path.
        ctx = context.current()
        # Observability: an explicit tracer, the config switch, or the
        # context's obs fields all enable tracing; auditing subscribes
        # the invariant checker to the same stream.
        want_audit = self.config.audit_events or ctx.audit
        want_trace = (
            tracer is not None or self.config.trace_events or want_audit or ctx.trace
        )
        if tracer is None and want_trace:
            tracer = Tracer(
                clock=lambda: self.engine.now,
                capacity=max(self.config.trace_capacity, ctx.trace_capacity),
            )
        self.tracer = tracer
        self.auditor: Optional[InvariantAuditor] = None
        if tracer is not None:
            self.engine.tracer = tracer
            if want_audit:
                self.auditor = InvariantAuditor().attach(tracer)
            obs_runtime.register_session(
                obs_runtime.ObsSession(
                    label=f"{policy.name}", tracer=tracer, auditor=self.auditor
                )
            )
        self.node = ComputeNode(
            clock=lambda: self.engine.now,
            capacity_mib=self.config.node_capacity_mib,
            strict=self.config.strict_node_capacity,
        )
        # Pool topology: with neither a config value nor a context
        # default, the single-node pool.
        tiers = self.config.tiers
        if tiers is None:
            tiers = ctx.tiers or TierTopology.flat()
        self.pool = TieredPool(
            clock=lambda: self.engine.now,
            topology=tiers,
            default_capacity_mib=self.config.pool_capacity_mib,
            default_link=self.config.link,
        )
        self.fastswap = Fastswap(self.engine, self.pool)
        # The representative link (nearest tier, shard 0): what the
        # bandwidth monitor throttles against and what single-link
        # call sites observe.
        self.link = self.fastswap.link
        if tracer is not None:
            for link in self.pool.links():
                link.tracer = tracer
            self.fastswap.tracer = tracer
        self.bandwidth_monitor = BandwidthMonitor(self.link)
        self.keep_alive = keep_alive or FixedKeepAlive(self.config.keep_alive_s)
        self.controller = Controller(self)
        from repro.faas.sharing import SharedRuntimeRegistry

        self.runtime_shares = SharedRuntimeRegistry(self)
        # Fault injection (lazy imports keep repro.faas loadable without
        # repro.faults and avoid an import cycle).
        self.fault_injector = None
        faults = self.config.faults
        if faults is None:
            faults = ctx.faults
        if faults is not None:
            from repro.faults import FaultInjector, FaultSchedule, FaultSpec

            if isinstance(faults, FaultSpec):
                faults = FaultSchedule.from_spec(faults)
            self.fault_injector = FaultInjector(self, faults).attach()
        # Memory pressure: same precedence as faults.
        self.governor = None
        pressure = self.config.pressure
        if pressure is None:
            pressure = ctx.pressure
        if pressure is not None:
            from repro.pressure.governor import MemoryPressureGovernor

            self.governor = MemoryPressureGovernor(self, pressure).attach()
        self.policy = policy
        self._functions: Dict[str, FunctionSpec] = {}
        self.records: List[RequestRecord] = []
        self.container_history: List[ContainerHistory] = []
        self._history_by_id: Dict[str, ContainerHistory] = {}
        self._alive_containers = TimeWeightedAccumulator(start_time=0.0, value=0.0)
        # Observers called with each Invocation just before dispatch
        # (used by prewarming and other platform add-ons).
        self.on_invocation: List = []
        policy.attach(self)

    # ------------------------------------------------------------------
    # Function management
    # ------------------------------------------------------------------

    def register_function(self, name: str, profile: WorkloadProfile) -> FunctionSpec:
        """Deploy a function under ``name`` with the given profile."""
        spec = FunctionSpec(name=name, profile=profile)
        self._functions[name] = spec
        return spec

    def function(self, name: str) -> FunctionSpec:
        try:
            return self._functions[name]
        except KeyError:
            known = ", ".join(sorted(self._functions)) or "(none)"
            raise TraceError(f"unknown function {name!r}; registered: {known}") from None

    # ------------------------------------------------------------------
    # Driving the simulation
    # ------------------------------------------------------------------

    def submit(self, function: str, at_time: float) -> None:
        """Schedule one invocation of ``function`` at ``at_time``."""
        self.function(function)  # validate early

        def fire() -> None:
            invocation = Invocation(function=function, arrival=self.engine.now)
            for observer in self.on_invocation:
                observer(invocation)
            self.controller.dispatch(invocation)

        self.engine.schedule_at(at_time, fire, name=f"invoke:{function}")

    def run_trace(self, trace, until: Optional[float] = None) -> None:
        """Submit (time, function) pairs and run to completion.

        ``trace`` is any iterable of ``(timestamp, function_name)``.
        """
        last = 0.0
        for timestamp, function in trace:
            if timestamp < last:
                raise TraceError("trace timestamps must be non-decreasing")
            last = timestamp
            self.submit(function, timestamp)
        self.run(until=until)

    def run(self, until: Optional[float] = None) -> None:
        """Run pending events (keep-alive expiries included)."""
        self.engine.run(until=until)
        self.policy.detach()
        if self.auditor is not None:
            self.auditor.finalize(self)

    # ------------------------------------------------------------------
    # Bookkeeping callbacks
    # ------------------------------------------------------------------

    def record(self, record: RequestRecord) -> None:
        self.records.append(record)
        history = self._history_by_id.get(record.container_id)
        if history is not None:
            history.requests_served += 1

    def note_container_created(self, container) -> None:
        history = ContainerHistory(
            container_id=container.container_id,
            function=container.function.name,
            created_at=self.engine.now,
        )
        self.container_history.append(history)
        self._history_by_id[container.container_id] = history
        self._alive_containers.add(self.engine.now, 1)
        if self.governor is not None:
            self.governor.on_container_created(container)

    def note_container_reclaimed(self, container) -> None:
        history = self._history_by_id.get(container.container_id)
        if history is not None:
            history.reclaimed_at = self.engine.now
        self._alive_containers.add(self.engine.now, -1)
        if self.governor is not None:
            self.governor.on_container_reclaimed(container)

    @property
    def alive_container_average(self) -> float:
        """Time-weighted mean number of live containers."""
        return self._alive_containers.average(self.engine.now)

    def alive_container_average_between(self, start: float, end: float) -> float:
        """Time-weighted mean live containers over [start, end]."""
        return self._alive_containers.average_between(start, end)

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------

    def latencies(self, function: Optional[str] = None) -> LatencyStats:
        stats = LatencyStats()
        for record in self.records:
            if function is None or record.function == function:
                stats.record(record.latency)
        return stats

    def latency_breakdown(self, function: Optional[str] = None) -> Dict[str, float]:
        """Mean per-component latency decomposition across requests."""
        records = [
            r for r in self.records if function is None or r.function == function
        ]
        if not records:
            raise TraceError("no requests recorded; nothing to decompose")
        n = len(records)
        return {
            "queue_wait_s": sum(r.queue_wait for r in records) / n,
            "fault_stall_s": sum(r.fault_stall_s for r in records) / n,
            "reclaim_stall_s": sum(r.reclaim_stall_s for r in records) / n,
            "exec_s": sum(r.exec_time for r in records) / n,
            "total_s": sum(r.latency for r in records) / n,
        }

    def summarize_by_function(
        self, trace: str = "", window: Optional[float] = None
    ) -> Dict[str, RunSummary]:
        """Per-function summaries for multi-function runs.

        Memory is node-global (containers share the node), so each
        summary carries the same timeline; latency and counters are
        per function.
        """
        summaries: Dict[str, RunSummary] = {}
        for name in sorted(self._functions):
            stats = self.latencies(name)
            if stats.count == 0:
                continue
            records = [r for r in self.records if r.function == name]
            p50, p95, p99 = stats.percentiles()
            summaries[name] = RunSummary(
                system=self.policy.name,
                benchmark=name,
                trace=trace,
                requests=stats.count,
                cold_starts=sum(1 for r in records if r.cold_start),
                latency_mean=stats.mean,
                latency_p50=p50,
                latency_p95=p95,
                latency_p99=p99,
                memory=self.memory_timeline(window),
            )
        return summaries

    def memory_timeline(self, window: Optional[float] = None) -> MemoryTimeline:
        """Node memory usage, averaged over [0, window].

        ``window`` defaults to the full run (including the keep-alive
        drain after the last request). Experiments that replay a
        fixed-length trace pass the trace duration, matching how the
        paper reports average memory over the measurement hour.
        """
        if window is None:
            average = self.node.average_pages(self.engine.now)
            peak = float(self.node.peak_pages)
        else:
            average = self.node.average_pages_between(0.0, window)
            peak = self.node.peak_pages_between(0.0, window)
        return MemoryTimeline(
            points=self.node.usage_samples(),
            average_pages=average,
            peak_pages=peak,
        )

    def summarize(
        self, benchmark: str = "", trace: str = "", window: Optional[float] = None
    ) -> RunSummary:
        """Collapse the run into a :class:`RunSummary` row."""
        stats = self.latencies()
        if stats.count == 0:
            raise TraceError("run produced no requests; nothing to summarize")
        duration = max(window if window is not None else self.engine.now, 1e-9)
        cold_starts = sum(1 for r in self.records if r.cold_start)
        p50, p95, p99 = stats.percentiles()
        return RunSummary(
            system=self.policy.name,
            benchmark=benchmark,
            trace=trace,
            requests=stats.count,
            cold_starts=cold_starts,
            latency_mean=stats.mean,
            latency_p50=p50,
            latency_p95=p95,
            latency_p99=p99,
            memory=self.memory_timeline(window),
            offloaded_mib_total=self.fastswap.stats.offloaded_mib,
            recalled_mib_total=self.fastswap.stats.recalled_mib,
            remote_peak_mib=self.pool.peak_pages * 4096 / (1024 * 1024),
            remote_avg_mib=self.pool.average_mib(self.engine.now),
            avg_offload_bandwidth_mibps=(
                sum(
                    link.bytes_moved(LinkDirection.OUT, 0.0, duration)
                    for link in self.pool.links()
                )
                / duration
                / (1024 * 1024)
            ),
        )
