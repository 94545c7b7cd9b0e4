"""The memory-pressure governor: watermarks, reclaim, OOM, admission.

Models the kernel's pressure machinery at the fidelity the offloading
policies observe, plus the platform-level backpressure a real invoker
layers on top:

* **Node watermarks** (zone-watermark analogue, measured in free
  pages): crossing *low* wakes a background reclaimer — the kswapd
  analogue, an engine process — that drives Pucket/semi-warm offload
  harder (same coldest-first candidate order the semi-warm drain uses,
  but node-wide, batched and unthrottled) until *high* is restored.
  An allocation that would breach *min* stalls synchronously in
  **direct reclaim**: cold pages of other containers are written back
  through the link and the wait is charged to the faulting request
  (:attr:`repro.faas.request.RequestRecord.reclaim_stall_s`).
* **Cgroup throttling** (``memory.high``): while under pressure,
  containers over their shrunk quota pay a quadratic allocation-delay
  ramp, exactly like the kernel's overage penalty.
* **OOM containment**: when direct reclaim cannot restore the min
  watermark, the largest-footprint idle container is killed (seeded
  tie-break) through the crash/cold-restart path introduced by the
  fault layer, so every conservation invariant keeps holding and the
  orphaned invocations are re-dispatched.
* **Admission control / graceful degradation**: sustained pressure
  degrades the platform in explicit tiers that move one step at a
  time — shrink keep-alive → deny prewarm → queue new launches →
  shed with a typed :class:`ShedReason` — every transition traced and
  legality-checked by the invariant auditor.

The governor is **reactive**: it schedules no engine events until a
watermark is crossed, and with all watermark fractions at zero it is
provably inert (byte-identical trace digests; see the differential
test). Construct it only through
``PlatformConfig(pressure=PressureConfig(...))`` or the run context's
``pressure`` field (:mod:`repro.context`).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

from repro.core.semiwarm import ordered_offload_candidates
from repro.errors import PolicyError
from repro.faas.container import ContainerState
from repro.mem.node import Watermarks
from repro.obs.trace import EventKind
from repro.sim.process import PeriodicTask
from repro.units import pages_from_mib

if TYPE_CHECKING:  # pragma: no cover
    from repro.faas.container import Container
    from repro.faas.platform import ServerlessPlatform
    from repro.faas.request import Invocation
    from repro.mem.page import PageRegion


class DegradationTier(enum.IntEnum):
    """Graceful-degradation ladder; transitions move one rung at a time."""

    NORMAL = 0
    SHRINK_KEEPALIVE = 1
    DENY_PREWARM = 2
    QUEUE_LAUNCHES = 3
    SHED = 4


class ShedReason(str, enum.Enum):
    """Why an invocation was dropped instead of queued (top tier only)."""

    ADMISSION_QUEUE_FULL = "admission-queue-full"
    FUNCTION_BACKPRESSURE = "function-backpressure"


@dataclass
class ShedRecord:
    """One shed invocation: the goodput accounting unit."""

    function: str
    invocation_id: int
    arrival: float
    time: float
    reason: ShedReason


@dataclass
class PressureStats:
    """Cumulative governor counters (all monotone)."""

    background_wakeups: int = 0
    background_reclaim_pages: int = 0
    direct_reclaims: int = 0
    direct_reclaim_failures: int = 0
    direct_reclaim_pages: int = 0
    direct_reclaim_stall_s: float = 0.0
    oom_kills: int = 0
    oom_pages_freed: int = 0
    throttle_events: int = 0
    throttle_stall_s: float = 0.0
    queued: int = 0
    dequeued: int = 0
    shed: int = 0
    prewarms_denied: int = 0
    max_queue_depth: int = 0
    tier_changes: int = 0


@dataclass
class PressureConfig:
    """Governor knobs.

    Watermarks are fractions of node capacity, expressed in **free**
    pages (kernel convention): ``free < low`` wakes the background
    reclaimer, an allocation leaving ``free < min`` direct-reclaims,
    and the reclaimer rests once ``free >= high``. All three at zero
    make an attached governor provably inert.
    """

    min_watermark_frac: float = 0.04
    low_watermark_frac: float = 0.10
    high_watermark_frac: float = 0.18
    # Background reclaimer (kswapd analogue).
    reclaim_tick_s: float = 0.5
    reclaim_batch_mib: float = 64.0
    idle_ticks_before_sleep: int = 3
    # Ticks with a non-empty admission queue and no reclaim progress
    # before queued launches are force-dispatched (forward-progress
    # guarantee: the queue can never strand work forever).
    stall_ticks_before_force: int = 8
    # Direct reclaim: fixed scan cost plus per-page work, on top of
    # the synchronous write-back wire time.
    direct_reclaim_base_s: float = 1e-3
    direct_reclaim_per_page_s: float = 2e-6
    # Tier 1+: keep-alive timeouts are multiplied by this factor.
    keepalive_shrink: float = 0.25
    # Tier 1+: memory.high = quota * frac; overage pays a quadratic
    # delay ramp capped at max_delay.
    throttle_quota_frac: float = 0.9
    throttle_ramp_s: float = 0.2
    throttle_max_delay_s: float = 1.0
    oom_enabled: bool = True
    # Admission queue bounds (tier 3+).
    admission_queue_limit: int = 64
    per_function_queue_limit: int = 16
    # Minimum time at a tier before stepping back down (hysteresis).
    tier_down_dwell_s: float = 2.0
    # Distress memory (PSI analogue): direct reclaims and reclaim
    # failures keep the tier target elevated for this long even after
    # free pages bounce back — an instantaneously-restored watermark
    # must not mask that the node is living off emergency reclaim.
    distress_window_s: float = 10.0

    def validate(self) -> None:
        if not 0.0 <= self.min_watermark_frac <= self.low_watermark_frac:
            raise PolicyError(
                f"need 0 <= min <= low watermark fractions, got "
                f"{self.min_watermark_frac}, {self.low_watermark_frac}"
            )
        if not self.low_watermark_frac <= self.high_watermark_frac < 1.0:
            raise PolicyError(
                f"need low <= high < 1 watermark fractions, got "
                f"{self.low_watermark_frac}, {self.high_watermark_frac}"
            )
        if self.reclaim_tick_s <= 0:
            raise PolicyError(f"reclaim_tick_s must be positive, got {self.reclaim_tick_s}")
        if self.reclaim_batch_mib <= 0:
            raise PolicyError(f"reclaim_batch_mib must be positive, got {self.reclaim_batch_mib}")
        if self.idle_ticks_before_sleep < 1 or self.stall_ticks_before_force < 1:
            raise PolicyError("tick thresholds must be >= 1")
        if not 0.0 < self.keepalive_shrink <= 1.0:
            raise PolicyError(f"keepalive_shrink must be in (0, 1], got {self.keepalive_shrink}")
        if self.throttle_quota_frac <= 0:
            raise PolicyError(f"throttle_quota_frac must be positive, got {self.throttle_quota_frac}")
        if self.throttle_ramp_s < 0 or self.throttle_max_delay_s < 0:
            raise PolicyError("throttle delays must be non-negative")
        if self.admission_queue_limit < 1 or self.per_function_queue_limit < 1:
            raise PolicyError("admission queue limits must be >= 1")
        if self.tier_down_dwell_s < 0:
            raise PolicyError(f"tier_down_dwell_s must be non-negative, got {self.tier_down_dwell_s}")
        if self.distress_window_s < 0:
            raise PolicyError(f"distress_window_s must be non-negative, got {self.distress_window_s}")


class MemoryPressureGovernor:
    """One node's pressure governor; owned by a ServerlessPlatform."""

    # zlib-style fixed salt for the OOM tie-break stream (the fault
    # injector uses 0xFA17; this one must differ so attaching both
    # keeps their draws independent).
    _RNG_SALT = 0x9E55

    def __init__(self, platform: "ServerlessPlatform", config: PressureConfig) -> None:
        config.validate()
        self.platform = platform
        self.config = config
        self.engine = platform.engine
        self.node = platform.node
        self.tracer = platform.tracer
        self.tier = DegradationTier.NORMAL
        self.stats = PressureStats()
        self.shed_records: List[ShedRecord] = []
        self._queue: Deque["Invocation"] = deque()
        self._queued_per_function: Dict[str, int] = {}
        # Per-owner pending direct-reclaim stalls, consumed by the next
        # request that starts on that container ("" holds stalls whose
        # owner could not be attributed).
        self._pending_stall: Dict[str, float] = {}
        # Region ids with a governor-issued write-out in flight, so one
        # region is not queued on the link twice: id -> (region,
        # access_count, pages) at issue time; entries whose write-out
        # has landed or will abort are pruned each tick.
        self._issued: Dict[int, Tuple["PageRegion", int, int]] = {}
        self._ticker: Optional[PeriodicTask] = None
        self._idle_ticks = 0
        self._stalled_ticks = 0
        self._in_reclaim = False
        self._draining = False
        self._last_tier_change = float("-inf")
        # Distress memory: when the last direct reclaim (and the last
        # failed one) happened, for the PSI-style tier target.
        self._last_direct_reclaim = float("-inf")
        self._last_reclaim_failure = float("-inf")
        self._rng_obj = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attach(self) -> "MemoryPressureGovernor":
        """Install watermarks and reclaim hooks on the node."""
        capacity = self.node.capacity_pages
        self.node.set_watermarks(
            Watermarks(
                min_pages=int(capacity * self.config.min_watermark_frac),
                low_pages=int(capacity * self.config.low_watermark_frac),
                high_pages=int(capacity * self.config.high_watermark_frac),
            )
        )
        self.node.install_pressure_hooks(
            direct_reclaim=self._direct_reclaim,
            on_low_watermark=self._on_low_watermark,
        )
        return self

    @property
    def enforcing(self) -> bool:
        """Whether the min watermark (and so capacity) is enforced."""
        return self.config.min_watermark_frac > 0

    @property
    def engaged(self) -> bool:
        """Whether any pressure machinery is currently active."""
        return (
            self._ticker is not None
            or self.tier is not DegradationTier.NORMAL
            or bool(self._queue)
        )

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def _rng(self):
        if self._rng_obj is None:
            self._rng_obj = self.platform.streams.fork(self._RNG_SALT).get("pressure")
        return self._rng_obj

    # ------------------------------------------------------------------
    # Node hooks (called from ComputeNode.add_local)
    # ------------------------------------------------------------------

    def _on_low_watermark(self) -> None:
        if self._in_reclaim:
            return
        self._wake()

    def _direct_reclaim(self, needed_pages: int, owner: Optional[str]) -> int:
        """Synchronous reclaim on a min-watermark breach; returns pages freed."""
        if self._in_reclaim:
            return 0
        self._in_reclaim = True
        try:
            freed, stall = self._writeback(needed_pages, protect=owner)
            self.stats.direct_reclaims += 1
            self.stats.direct_reclaim_pages += freed
            self._last_direct_reclaim = self.engine.now
            failed = freed < needed_pages
            if failed:
                self.stats.direct_reclaim_failures += 1
                self._last_reclaim_failure = self.engine.now
            if self.tracer is not None:
                self.tracer.emit(
                    EventKind.DIRECT_RECLAIM,
                    self.node.name,
                    needed=needed_pages,
                    freed=freed,
                    failed=failed,
                    owner=owner or "",
                )
            if failed and self.config.oom_enabled:
                # Last resort: kill containers (largest-footprint idle
                # first) until the shortfall is covered or no victim
                # remains. Legal per the auditor only because the
                # failed DIRECT_RECLAIM event above precedes it.
                while freed < needed_pages:
                    killed = self._oom_kill(protect=owner, shortfall=needed_pages - freed)
                    if killed == 0:
                        break
                    freed += killed
            stall += (
                self.config.direct_reclaim_base_s
                + self.config.direct_reclaim_per_page_s * max(0, freed)
            )
            self._charge_stall(owner, stall)
            self.stats.direct_reclaim_stall_s += stall
            self._evaluate()
            self._wake()
            return freed
        finally:
            self._in_reclaim = False

    # ------------------------------------------------------------------
    # Reclaim machinery
    # ------------------------------------------------------------------

    def _wake(self) -> None:
        """Start the background reclaimer unless it is already running."""
        if self._ticker is not None:
            return
        self._idle_ticks = 0
        self._stalled_ticks = 0
        self.stats.background_wakeups += 1
        if self.tracer is not None:
            self.tracer.emit(
                EventKind.WATERMARK_LOW, self.node.name, free_pages=self.node.free_pages
            )
        self._ticker = PeriodicTask(
            self.engine,
            self.config.reclaim_tick_s,
            self._tick,
            name="pressure-reclaim",
            start_delay=0.0,
        )

    def _sleep(self) -> None:
        if self._ticker is not None:
            self._ticker.stop()
            self._ticker = None
        watermarks = self.node.watermarks
        recovered = (
            watermarks is not None and self.node.free_pages >= watermarks.high_pages
        )
        if recovered and self.tracer is not None:
            self.tracer.emit(
                EventKind.WATERMARK_RECOVERED,
                self.node.name,
                free_pages=self.node.free_pages,
            )

    def _tick(self) -> None:
        watermarks = self.node.watermarks
        moved = 0
        if watermarks is not None and self.node.free_pages < watermarks.high_pages:
            moved = self._background_reclaim()
        self._evaluate()
        force = bool(self._queue) and self._stalled_ticks >= self.config.stall_ticks_before_force
        drained = self._drain_queue(force=force)
        if moved or drained:
            self._idle_ticks = 0
            self._stalled_ticks = 0
        else:
            self._idle_ticks += 1
            if self._queue:
                self._stalled_ticks += 1
        # Self-terminating: a reclaimer that kept ticking with nothing
        # to do would keep the engine alive forever.
        if not self._queue and self._idle_ticks >= self.config.idle_ticks_before_sleep:
            self._sleep()

    def _prune_issued(self) -> None:
        stale = [
            region_id
            for region_id, (region, access_count, pages) in self._issued.items()
            if region.freed
            or region.is_remote
            or region.access_count != access_count
            or region.pages != pages
        ]
        for region_id in stale:
            del self._issued[region_id]

    def _background_reclaim(self) -> int:
        """One kswapd batch: asynchronous coldest-first offload."""
        fastswap = self.platform.fastswap
        if fastswap.suspended:
            return 0
        self._prune_issued()
        budget = pages_from_mib(self.config.reclaim_batch_mib)
        issued = 0
        for container in self._idle_containers():
            if budget <= 0:
                break
            state = self._policy_state(container)
            victims: List["PageRegion"] = []
            for region in ordered_offload_candidates(container.cgroup, state):
                if budget <= 0:
                    break
                if region.region_id in self._issued:
                    continue
                victims.append(region)
                budget -= region.pages
            if not victims:
                continue
            fastswap.offload(container.cgroup, victims)
            for region in victims:
                self._issued[region.region_id] = (region, region.access_count, region.pages)
                if state is not None:
                    # Keep the FaaSMem placement ledger consistent, as
                    # the manager does for its own issues.
                    state.note_offload(region)
            issued += sum(region.pages for region in victims)
        if issued:
            self.stats.background_reclaim_pages += issued
            if self.tracer is not None:
                self.tracer.emit(
                    EventKind.BACKGROUND_RECLAIM,
                    self.node.name,
                    pages=issued,
                    free_pages=self.node.free_pages,
                )
        return issued

    def _writeback(self, needed_pages: int, protect: Optional[str]) -> Tuple[int, float]:
        """Synchronous coldest-first write-back of ``needed_pages``.

        Returns (pages freed, stall seconds). The allocating container
        (``protect``) and containers still launching/initializing —
        whose policy ledgers are mid-construction — are never victims.
        """
        fastswap = self.platform.fastswap
        if fastswap.suspended:
            return 0, 0.0
        freed = 0
        last_completion = self.engine.now
        for container in self._writeback_order(protect):
            if freed >= needed_pages:
                break
            state = self._policy_state(container)
            victims: List["PageRegion"] = []
            remaining = needed_pages - freed
            for region in ordered_offload_candidates(container.cgroup, state):
                if remaining <= 0:
                    break
                victims.append(region)
                remaining -= region.pages
            if not victims:
                continue
            moved, completion = fastswap.writeback(container.cgroup, victims)
            last_completion = max(last_completion, completion)
            for region in moved:
                freed += region.pages
                if state is not None:
                    state.note_offload(region)
        return freed, max(0.0, last_completion - self.engine.now)

    def _idle_containers(self) -> List["Container"]:
        idle = [
            c
            for c in self.platform.controller.all_containers()
            if c.state is ContainerState.IDLE and not c.pending
        ]
        return sorted(idle, key=lambda c: (c.idle_since or 0.0, c.container_id))

    def _writeback_order(self, protect: Optional[str]) -> List["Container"]:
        idle: List["Container"] = []
        busy: List["Container"] = []
        for container in self.platform.controller.all_containers():
            if container.container_id == protect:
                continue
            if container.state is ContainerState.IDLE and not container.pending:
                idle.append(container)
            elif container.state is ContainerState.BUSY:
                busy.append(container)
        idle.sort(key=lambda c: (c.idle_since or 0.0, c.container_id))
        busy.sort(key=lambda c: (c.created_at, c.container_id))
        return idle + busy

    def _policy_state(self, container: "Container"):
        ctls = getattr(self.platform.policy, "_ctl", None)
        if not isinstance(ctls, dict):
            return None
        ctl = ctls.get(container.container_id)
        return getattr(ctl, "state", None)

    # ------------------------------------------------------------------
    # OOM containment
    # ------------------------------------------------------------------

    def _oom_kill(self, protect: Optional[str], shortfall: int) -> int:
        """Kill one container; returns the local pages it released.

        Victim: largest local footprint among idle containers (seeded
        tie-break); busy containers only when nothing idles; the
        allocating container is never the victim. Reuses the fault
        layer's crash path, so conservation invariants keep holding
        and orphaned invocations are re-dispatched (next event, so the
        faulting allocation finishes first).
        """
        candidates = [
            c
            for c in self.platform.controller.all_containers()
            if c.container_id != protect and c.cgroup.local_pages > 0
        ]
        if not candidates:
            return 0

        def state_rank(container: "Container") -> int:
            if container.state is ContainerState.IDLE and not container.pending:
                return 0
            if container.state is ContainerState.BUSY:
                return 1
            return 2

        best_rank = min(state_rank(c) for c in candidates)
        pool = [c for c in candidates if state_rank(c) == best_rank]
        largest = max(c.cgroup.local_pages for c in pool)
        tied = sorted(
            (c for c in pool if c.cgroup.local_pages == largest),
            key=lambda c: c.container_id,
        )
        if len(tied) == 1:
            victim = tied[0]
        else:
            victim = tied[int(self._rng().integers(0, len(tied)))]
        pages = victim.cgroup.local_pages
        self.stats.oom_kills += 1
        self.stats.oom_pages_freed += pages
        if self.tracer is not None:
            self.tracer.emit(
                EventKind.OOM_KILL,
                victim.container_id,
                function=victim.function.name,
                pages=pages,
                shortfall=shortfall,
                reason="min-watermark-breach",
            )
        orphans = victim.crash(reason="oom")
        self._schedule_redispatch(orphans)
        return pages

    def _schedule_redispatch(self, orphans: List["Invocation"]) -> None:
        if not orphans:
            return
        ordered = sorted(orphans, key=lambda inv: (inv.arrival, inv.invocation_id))

        def redispatch() -> None:
            for invocation in ordered:
                invocation.restarts += 1
                if self.tracer is not None:
                    self.tracer.emit(
                        EventKind.CONTAINER_RESTART,
                        invocation.function,
                        invocation=invocation.invocation_id,
                        restarts=invocation.restarts,
                    )
                self.platform.controller.dispatch(invocation)

        self.engine.schedule(0.0, redispatch, name="oom-redispatch")

    # ------------------------------------------------------------------
    # Degradation tiers
    # ------------------------------------------------------------------

    def _target_tier(self) -> DegradationTier:
        """Watermarks plus distress memory (PSI analogue).

        Direct reclaim restores the min watermark synchronously, so
        instantaneous free pages alone would never hold the upper
        tiers; a recent direct reclaim (or a failed one) keeps the
        target elevated for ``distress_window_s``.
        """
        watermarks = self.node.watermarks
        if watermarks is None:
            return DegradationTier.NORMAL
        now = self.engine.now
        window = self.config.distress_window_s
        free = self.node.free_pages
        if free < watermarks.min_pages or now - self._last_reclaim_failure <= window:
            if len(self._queue) >= self.config.admission_queue_limit:
                return DegradationTier.SHED
            return DegradationTier.QUEUE_LAUNCHES
        if free < watermarks.low_pages or now - self._last_direct_reclaim <= window:
            return DegradationTier.DENY_PREWARM
        if free < watermarks.high_pages:
            return DegradationTier.SHRINK_KEEPALIVE
        return DegradationTier.NORMAL

    def _evaluate(self) -> None:
        """Step the tier one rung toward its target (auditor-checked)."""
        target = self._target_tier()
        now = self.engine.now
        if target.value > self.tier.value:
            self._set_tier(DegradationTier(self.tier.value + 1), now)
        elif (
            target.value < self.tier.value
            and now - self._last_tier_change >= self.config.tier_down_dwell_s
        ):
            self._set_tier(DegradationTier(self.tier.value - 1), now)

    def _set_tier(self, new_tier: DegradationTier, now: float) -> None:
        old = self.tier
        self.tier = new_tier
        self._last_tier_change = now
        self.stats.tier_changes += 1
        if self.tracer is not None:
            self.tracer.emit(
                EventKind.PRESSURE_TIER,
                self.node.name,
                **{
                    "from": old.value,
                    "to": new_tier.value,
                    "free_pages": self.node.free_pages,
                },
            )
        entering_pressure = (
            old is DegradationTier.NORMAL and new_tier is not DegradationTier.NORMAL
        )
        if entering_pressure:
            self._apply_throttle()
        elif new_tier is DegradationTier.NORMAL:
            self._clear_throttle()

    def _apply_throttle(self) -> None:
        frac = self.config.throttle_quota_frac
        for container in self.platform.controller.all_containers():
            container.cgroup.memory_high_pages = int(
                pages_from_mib(container.function.quota_mib) * frac
            )

    def _clear_throttle(self) -> None:
        for container in self.platform.controller.all_containers():
            container.cgroup.memory_high_pages = None

    # ------------------------------------------------------------------
    # Platform hooks
    # ------------------------------------------------------------------

    def scale_keep_alive(self, timeout_s: float) -> float:
        """Tier 1+ shrinks keep-alive; tier 0 returns the value untouched."""
        if self.tier.value >= DegradationTier.SHRINK_KEEPALIVE.value:
            return timeout_s * self.config.keepalive_shrink
        return timeout_s

    def request_stall(self, container: "Container") -> float:
        """Pressure stall charged to the request starting on ``container``.

        Pending direct-reclaim stalls attributed to this container (or
        unattributed) plus any memory.high throttle delay.
        """
        stall = self._pending_stall.pop(container.container_id, 0.0)
        stall += self._pending_stall.pop("", 0.0)
        if self.tier.value >= DegradationTier.SHRINK_KEEPALIVE.value:
            delay = container.cgroup.throttle_delay(
                self.config.throttle_ramp_s, self.config.throttle_max_delay_s
            )
            if delay > 0:
                self.stats.throttle_events += 1
                self.stats.throttle_stall_s += delay
                if self.tracer is not None:
                    self.tracer.emit(
                        EventKind.THROTTLE,
                        container.container_id,
                        delay_s=delay,
                        local_pages=container.cgroup.local_pages,
                        memory_high_pages=container.cgroup.memory_high_pages,
                    )
                stall += delay
        return stall

    def _charge_stall(self, owner: Optional[str], stall: float) -> None:
        if stall <= 0:
            return
        key = owner or ""
        self._pending_stall[key] = self._pending_stall.get(key, 0.0) + stall

    def on_container_created(self, container: "Container") -> None:
        if self.tier.value >= DegradationTier.SHRINK_KEEPALIVE.value:
            container.cgroup.memory_high_pages = int(
                pages_from_mib(container.function.quota_mib)
                * self.config.throttle_quota_frac
            )

    def on_container_reclaimed(self, container: "Container") -> None:
        self._pending_stall.pop(container.container_id, None)
        if self._in_reclaim or self._draining:
            return
        self._evaluate()
        if self._queue and self.tier.value < DegradationTier.QUEUE_LAUNCHES.value:
            self._drain_queue()

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------

    def gate_launch(self, invocation: "Invocation") -> bool:
        """Intercept a cold-start launch; True = queued or shed.

        Tier < 3 admits everything. Tier 3 queues (bounded globally
        and per function); a full queue at tier 3 still admits — work
        is only dropped in the top tier. Tier 4 sheds what no longer
        fits, with a typed reason.
        """
        if self._draining:
            return False
        self._evaluate()
        if self.tier.value < DegradationTier.QUEUE_LAUNCHES.value:
            return False
        function = invocation.function
        fn_queued = self._queued_per_function.get(function, 0)
        fn_full = fn_queued >= self.config.per_function_queue_limit
        queue_full = len(self._queue) >= self.config.admission_queue_limit
        if queue_full or fn_full:
            if self.tier is DegradationTier.SHED:
                reason = (
                    ShedReason.FUNCTION_BACKPRESSURE
                    if fn_full and not queue_full
                    else ShedReason.ADMISSION_QUEUE_FULL
                )
                self._shed(invocation, reason)
                return True
            return False
        self._queue.append(invocation)
        self._queued_per_function[function] = fn_queued + 1
        self.stats.queued += 1
        self.stats.max_queue_depth = max(self.stats.max_queue_depth, len(self._queue))
        if self.tracer is not None:
            self.tracer.emit(
                EventKind.ADMISSION_QUEUE,
                function,
                invocation=invocation.invocation_id,
                depth=len(self._queue),
            )
        self._wake()
        return True

    def deny_prewarm(self, function: str) -> bool:
        """Tier 2+ refuses proactive launches."""
        self._evaluate()
        if self.tier.value < DegradationTier.DENY_PREWARM.value:
            return False
        self.stats.prewarms_denied += 1
        if self.tracer is not None:
            self.tracer.emit(EventKind.PREWARM_DENIED, function)
        return True

    def _shed(self, invocation: "Invocation", reason: ShedReason) -> None:
        self.shed_records.append(
            ShedRecord(
                function=invocation.function,
                invocation_id=invocation.invocation_id,
                arrival=invocation.arrival,
                time=self.engine.now,
                reason=reason,
            )
        )
        self.stats.shed += 1
        if self.tracer is not None:
            self.tracer.emit(
                EventKind.ADMISSION_SHED,
                invocation.function,
                invocation=invocation.invocation_id,
                reason=reason.value,
            )

    def _drain_queue(self, force: bool = False) -> bool:
        """Dispatch queued launches while the tier allows (FIFO)."""
        if not self._queue:
            return False
        drained = False
        self._draining = True
        try:
            while self._queue:
                if not force:
                    self._evaluate()
                    if self.tier.value >= DegradationTier.QUEUE_LAUNCHES.value:
                        break
                invocation = self._queue.popleft()
                count = self._queued_per_function.get(invocation.function, 0)
                if count <= 1:
                    self._queued_per_function.pop(invocation.function, None)
                else:
                    self._queued_per_function[invocation.function] = count - 1
                self.stats.dequeued += 1
                if self.tracer is not None:
                    self.tracer.emit(
                        EventKind.ADMISSION_DEQUEUE,
                        invocation.function,
                        invocation=invocation.invocation_id,
                        wait_s=self.engine.now - invocation.arrival,
                        depth=len(self._queue),
                    )
                self.platform.controller.dispatch(invocation)
                drained = True
        finally:
            self._draining = False
        return drained
