"""FaaSMem as a platform offloading policy.

Wires the Pucket machinery (§4-5), the request-window tracker (§5.2),
periodic rollback (§5.3) and the semi-warm controller (§6) into the
platform's lifecycle hooks. Ablation variants (no Pucket / no
semi-warm, §8.3) come from :class:`FaaSMemConfig` switches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.config import FaaSMemConfig
from repro.core.profiler import FunctionProfiler
from repro.core.pucket import ContainerMemoryState
from repro.core.semiwarm import SemiWarmController
from repro.core.windows import DescentWindowTracker
from repro.faas.policy import OffloadPolicy


@dataclass
class ContainerReport:
    """Post-mortem of one container, kept for the evaluation figures."""

    container_id: str
    function: str
    lifetime_s: float
    semiwarm_time_s: float
    requests_served: int
    runtime_recalls: int
    init_recalls: int
    runtime_init_barrier_s: float
    init_exec_barrier_s: float
    max_rollback_s: float
    window_size: Optional[int]
    semiwarm_offloaded_pages: int


@dataclass
class _ContainerCtl:
    """Per-container policy state."""

    state: Optional[ContainerMemoryState] = None
    semiwarm: Optional[SemiWarmController] = None
    window_tracker: Optional[DescentWindowTracker] = None
    first_request_done: bool = False
    init_offloaded: bool = False
    window_size: Optional[int] = None
    requests_in_cycle: int = 0
    last_rollback_at: float = -float("inf")
    rollback_phase: str = "wait"  # 'wait' -> rollback -> 'observe' -> offload


class FaaSMemPolicy(OffloadPolicy):
    """The complete FaaSMem mechanism."""

    def __init__(
        self,
        config: Optional[FaaSMemConfig] = None,
        reuse_priors: Optional[Dict[str, Sequence[float]]] = None,
    ) -> None:
        super().__init__()
        self.config = config or FaaSMemConfig()
        self.profiler = FunctionProfiler(self.config, reuse_priors=reuse_priors)
        self._ctl: Dict[str, _ContainerCtl] = {}
        self.reports: List[ContainerReport] = []
        self.name = self._variant_name()

    def _variant_name(self) -> str:
        if self.config.enable_pucket and self.config.enable_semiwarm:
            return "faasmem"
        if self.config.enable_pucket:
            return "faasmem-no-semiwarm"
        if self.config.enable_semiwarm:
            return "faasmem-no-pucket"
        return "faasmem-disabled"

    # ------------------------------------------------------------------
    # Lifecycle hooks
    # ------------------------------------------------------------------

    def on_container_created(self, container) -> None:
        self._ctl[container.container_id] = _ContainerCtl()

    def on_runtime_loaded(self, container) -> None:
        ctl = self._ctl[container.container_id]
        if self.config.enable_pucket:
            ctl.state = ContainerMemoryState(
                container.cgroup, self.config, tracer=self.platform.tracer
            )
            ctl.state.insert_runtime_init_barrier(self.platform.engine.now)
            ctl.window_tracker = DescentWindowTracker(self.config)
        if self.config.enable_semiwarm:
            ctl.semiwarm = SemiWarmController(container, ctl.state, self.config)

    def on_init_complete(self, container) -> None:
        ctl = self._ctl[container.container_id]
        if ctl.state is not None:
            ctl.state.insert_init_exec_barrier(self.platform.engine.now)

    def on_request_start(self, container) -> None:
        interval = getattr(container, "last_reuse_interval", None)
        if interval is not None:
            self.profiler.record_reuse(container.function.name, interval)
        ctl = self._ctl[container.container_id]
        if ctl.semiwarm is not None:
            # "Once a new request arrives, the offloading procedure
            # will stop" (§6.2).
            ctl.semiwarm.cancel()

    def on_regions_touched(self, container, regions, remote_ids) -> None:
        state = self._ctl[container.container_id].state
        if state is not None:
            state.on_touched_many(regions, remote_ids)

    def on_region_touched(self, container, region, was_remote: bool = False) -> None:
        self.on_regions_touched(container, (region,), (region.region_id,) if was_remote else ())

    def on_request_complete(self, container, record) -> None:
        ctl = self._ctl[container.container_id]
        if record.cold_start and self.config.coldstart_aware_timing:
            # §8.3.2 extension: count the cold start as a censored
            # reuse interval so the semi-warm timing isn't biased low.
            self.profiler.record_cold_start(container.function.name)
        if ctl.state is None:
            return
        now = self.platform.engine.now
        if not ctl.first_request_done:
            ctl.first_request_done = True
            # §5.1: reactive offload of the Runtime Pucket after the
            # very first request completes.
            self._offload_pucket(container, ctl, ctl.state.runtime_pucket)
        if not ctl.init_offloaded:
            assert ctl.window_tracker is not None
            inactive = len(ctl.state.init_pucket.inactive_regions)
            if ctl.window_tracker.observe(inactive):
                # §5.2: descent gradient reached ~0 — offload the
                # remaining inactive init pages.
                ctl.window_size = ctl.window_tracker.window_size
                self.profiler.record_window(container.function.name, ctl.window_size)
                self._offload_pucket(container, ctl, ctl.state.init_pucket)
                ctl.init_offloaded = True
                ctl.requests_in_cycle = 0
                ctl.last_rollback_at = now
                ctl.rollback_phase = "wait"
            return
        # §5.3: periodic rollback cycle after the init offload.
        ctl.requests_in_cycle += 1
        window = ctl.window_size or 1
        if ctl.rollback_phase == "wait":
            if (
                ctl.requests_in_cycle >= window
                and now - ctl.last_rollback_at >= self.config.rollback_min_interval_s
            ):
                ctl.state.roll_back_hot_pool(now)
                ctl.last_rollback_at = now
                ctl.requests_in_cycle = 0
                ctl.rollback_phase = "observe"
        elif ctl.rollback_phase == "observe":
            if ctl.requests_in_cycle >= window:
                self._offload_pucket(container, ctl, ctl.state.runtime_pucket)
                self._offload_pucket(container, ctl, ctl.state.init_pucket)
                ctl.requests_in_cycle = 0
                ctl.rollback_phase = "wait"

    def on_container_idle(self, container) -> None:
        ctl = self._ctl[container.container_id]
        if ctl.semiwarm is not None:
            delay = self.profiler.semiwarm_start_timing(container.function.name)
            ctl.semiwarm.schedule(delay)

    def on_container_reclaimed(self, container) -> None:
        ctl = self._ctl.pop(container.container_id, None)
        if ctl is None:
            return
        now = self.platform.engine.now
        semiwarm_time = 0.0
        semiwarm_pages = 0
        if ctl.semiwarm is not None:
            ctl.semiwarm.cancel()
            semiwarm_time = ctl.semiwarm.total_semiwarm_time(now)
            semiwarm_pages = ctl.semiwarm.total_offloaded_pages()
        report = ContainerReport(
            container_id=container.container_id,
            function=container.function.name,
            lifetime_s=container.lifetime,
            semiwarm_time_s=semiwarm_time,
            requests_served=container.requests_served,
            runtime_recalls=(
                ctl.state.recall_counts["runtime"] if ctl.state is not None else 0
            ),
            init_recalls=(
                ctl.state.recall_counts["init"] if ctl.state is not None else 0
            ),
            runtime_init_barrier_s=(
                ctl.state.overhead.runtime_init_barrier_s if ctl.state else 0.0
            ),
            init_exec_barrier_s=(
                ctl.state.overhead.init_exec_barrier_s if ctl.state else 0.0
            ),
            max_rollback_s=(ctl.state.overhead.max_rollback_s if ctl.state else 0.0),
            window_size=ctl.window_size,
            semiwarm_offloaded_pages=semiwarm_pages,
        )
        self.reports.append(report)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _offload_pucket(self, container, ctl: _ContainerCtl, pucket) -> None:
        assert ctl.state is not None
        if self.platform.fastswap.suspended:
            # Local-only fallback while the link is unhealthy: leave
            # the candidates in place for a later cycle instead of
            # moving them to the offloaded ledger with no write-out.
            return
        victims = ctl.state.offload_candidates(pucket)
        if not victims:
            return
        # Tier targeting: init-pucket pages survive the descent barrier
        # untouched and are almost never recalled (Fig. 8), so on a
        # tiered pool they go straight to the far tier; runtime-pucket
        # pages let page temperature decide. The flat pool ignores the
        # hint.
        hint = "far" if pucket is ctl.state.init_pucket else None
        self.platform.fastswap.offload(container.cgroup, victims, tier_hint=hint)
        for region in victims:
            ctl.state.note_offload(region)
