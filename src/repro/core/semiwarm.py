"""The semi-warm period: gradual hot-page offload during keep-alive (§6).

When a container has idled past the function's semi-warm start timing
(the 99 %-ile of its container reused intervals), FaaSMem begins
draining its remaining local pages to the pool — coldest first — at a
bounded rate (percentile-based for large containers, amount-based for
small ones), throttled uniformly when the interconnect nears
saturation. A new request cancels the drain; whatever went remote is
faulted back on demand (a *semi-warm start*).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.config import FaaSMemConfig
from repro.core.pucket import ContainerMemoryState
from repro.mem.page import PageRegion, Segment
from repro.obs.trace import EventKind
from repro.sim.process import PeriodicTask, Timer
from repro.units import pages_from_mib


def ordered_offload_candidates(
    cgroup, state: Optional[ContainerMemoryState]
) -> List[PageRegion]:
    """Local offloadable regions of one container, coldest first.

    With Puckets enabled, still-inactive Pucket pages go before the
    hot pool (they are colder by construction); within each class,
    older last-access first. Shared by the semi-warm drain and the
    memory-pressure governor's reclaim paths so "drive offload harder"
    means scanning the same generations deeper, not a different
    victim order.
    """

    def age_key(region: PageRegion) -> Tuple[float, int]:
        last = region.last_access if region.last_access is not None else -1.0
        return (last, region.region_id)

    if state is not None:
        inactive = [
            region
            for pucket in (state.runtime_pucket, state.init_pucket)
            for region in pucket.inactive_regions
            if region.is_local and not region.freed
        ]
        hot = [
            region
            for region in state.hot_pool.regions
            if region.is_local and not region.freed
        ]
        return sorted(inactive, key=age_key) + sorted(hot, key=age_key)
    regions = [
        region
        for segment in (Segment.RUNTIME, Segment.INIT)
        for region in cgroup.local_regions(segment)
    ]
    return sorted(regions, key=age_key)


@dataclass
class SemiWarmEpisode:
    """One contiguous semi-warm span of a container."""

    start: float
    end: Optional[float] = None
    offloaded_pages: int = 0

    def duration(self, now: float) -> float:
        end = self.end if self.end is not None else now
        return max(0.0, end - self.start)


class SemiWarmController:
    """Drives the semi-warm lifecycle of one container."""

    def __init__(
        self,
        container,
        state: Optional[ContainerMemoryState],
        config: FaaSMemConfig,
    ) -> None:
        self.container = container
        self.state = state
        self.config = config
        self.platform = container.platform
        self.engine = container.engine
        self.tracer = getattr(self.platform, "tracer", None)
        self.episodes: List[SemiWarmEpisode] = []
        self._timer = Timer(
            self.engine, self._enter_semiwarm, name=f"semiwarm:{container.container_id}"
        )
        self._drain: Optional[PeriodicTask] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def schedule(self, start_delay: float) -> None:
        """Arm the semi-warm start timer for a fresh idle period."""
        self._timer.start(max(0.0, start_delay))

    def cancel(self) -> None:
        """A request arrived (or the container died): stop everything."""
        self._timer.cancel()
        if self._drain is not None:
            self._drain.stop()
            self._drain = None
        if self.episodes and self.episodes[-1].end is None:
            self.episodes[-1].end = self.engine.now
            if self.tracer is not None:
                self.tracer.emit(
                    EventKind.SEMIWARM_CANCEL,
                    self.container.container_id,
                    offloaded_pages=self.episodes[-1].offloaded_pages,
                )

    @property
    def active(self) -> bool:
        """Whether the container is currently in its semi-warm period."""
        return bool(self.episodes) and self.episodes[-1].end is None

    def _enter_semiwarm(self) -> None:
        if not self.container.warm:
            return
        self.episodes.append(SemiWarmEpisode(start=self.engine.now))
        if self.tracer is not None:
            self.tracer.emit(EventKind.SEMIWARM_ENTER, self.container.container_id)
        self._drain = PeriodicTask(
            self.engine,
            self.config.semiwarm_tick_s,
            self._drain_tick,
            name=f"semiwarm-drain:{self.container.container_id}",
            start_delay=0.0,
        )

    # ------------------------------------------------------------------
    # Gradual offload
    # ------------------------------------------------------------------

    def _drain_tick(self) -> None:
        if not self.container.warm:
            self.cancel()
            return
        if self.platform.fastswap.suspended:
            # Circuit breaker open / link down: local-only fallback.
            # Keep the episode (and the tick) alive so draining
            # resumes once the breaker re-closes.
            return
        budget = self._tick_budget_pages()
        if budget <= 0:
            return
        victims = self._pick_victims(budget)
        if not victims:
            # Fully drained: keep the episode open (still semi-warm)
            # but stop burning events.
            if self._drain is not None:
                self._drain.stop()
                self._drain = None
            return
        # Semi-warm pages are the likeliest to be recalled (the next
        # start faults them back), so a tiered pool parks them in the
        # near tier; the background demotion daemon moves whatever
        # stays cold past the barrier down to the far tier.
        self.platform.fastswap.offload(
            self.container.cgroup, victims, tier_hint="near"
        )
        moved = sum(region.pages for region in victims)
        self.episodes[-1].offloaded_pages += moved
        if self.state is not None:
            for region in victims:
                self.state.note_offload(region)
        if self.tracer is not None:
            self.tracer.emit(
                EventKind.SEMIWARM_DRAIN,
                self.container.container_id,
                pages=moved,
                regions=len(victims),
            )

    def _tick_budget_pages(self) -> int:
        """Pages to move this tick, after global bandwidth throttling."""
        throttle = self.platform.bandwidth_monitor.throttle_factor(self.engine.now)
        tick = self.config.semiwarm_tick_s
        total_mib = self.container.cgroup.total_pages * 4096 / (1024 * 1024)
        if total_mib > self.config.large_container_mib:
            # Percentile-based: e.g. 1 %/s of the container's memory.
            rate_pages = self.config.percent_rate_per_s * self.container.cgroup.total_pages
        else:
            # Amount-based: e.g. 1 MiB/s.
            rate_pages = pages_from_mib(self.config.amount_rate_mib_per_s)
        return int(rate_pages * tick * throttle)

    def _pick_victims(self, budget_pages: int) -> List[PageRegion]:
        """Coldest-first victims, splitting the last region to fit."""
        candidates = self._ordered_candidates()
        victims: List[PageRegion] = []
        remaining = budget_pages
        for region in candidates:
            if remaining <= 0:
                break
            if region.pages <= remaining:
                victims.append(region)
                remaining -= region.pages
            else:
                victims.append(self.container.cgroup.space.split(region, remaining))
                remaining = 0
        return victims

    def _ordered_candidates(self) -> List[PageRegion]:
        """Coldest-first offload candidates (shared helper)."""
        return ordered_offload_candidates(self.container.cgroup, self.state)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def total_semiwarm_time(self, now: float) -> float:
        return sum(episode.duration(now) for episode in self.episodes)

    def total_offloaded_pages(self) -> int:
        return sum(episode.offloaded_pages for episode in self.episodes)
