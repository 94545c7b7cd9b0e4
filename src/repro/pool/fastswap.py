"""Fastswap-style swap datapath between node DRAM and the memory pool.

Mirrors the two paths the paper ports onto Linux 6.1 (§7):

* **page-out** (:meth:`Fastswap.offload`) — asynchronous: the pipe is
  reserved, and the pages leave local DRAM when the write-out
  completes. A region touched while its write-out is in flight has
  its offload aborted, like the kernel skipping a re-dirtied page.
* **page-in** (:meth:`Fastswap.fault`) — synchronous: a request that
  touches remote pages stalls for the queueing + transfer time, which
  the caller adds to its service time.

The pool is a :class:`~repro.pool.tier.TieredPool`; the paper's single
memory node is its degenerate one-tier, one-shard topology. Over a
real hierarchy the datapath also does:

* **Tier selection** — offloads target the nearest tier by default;
  pages whose last access is older than the topology's
  ``far_direct_age_s`` go straight to the bottom tier (temperature),
  and policies can force a tier with ``tier_hint`` ("near"/"far").
* **Spill** — a tier whose stripe shard is full (counting in-flight
  write-outs) spills the page one tier down, emitting one
  ``tier.spill`` event per single-level step so the auditor can check
  legality.
* **Promotion** — a page-in recalls the page from whichever tier holds
  it directly into local DRAM.
* **Demotion** — a background daemon migrates pages resident in a
  non-bottom tier for longer than ``demote_after_s`` one tier down,
  a bounded batch per tick, oldest first.

On the degenerate topology no page can spill or demote, no ``tier.*``
event is emitted and the daemon never runs, so its trace is the
single-node pool's, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import MemoryError_
from repro.mem.cgroup import Cgroup
from repro.mem.page import PageRegion
from repro.obs.trace import EventKind
from repro.pool.link import LinkDirection
from repro.pool.tier import PoolShard, TieredPool
from repro.sim.engine import Engine
from repro.sim.process import PeriodicTask
from repro.units import PAGE_SIZE, MIB, pages_from_mib


@dataclass
class FastswapConfig:
    """Datapath cost knobs.

    ``fault_cpu_per_page_s`` is the kernel swap-in CPU work per page
    (pagefault, RDMA doorbell, page-table fixup). It is divided by the
    faulting container's CPU share: a 0.1-core container handles
    faults 10x slower, which is why sampling-based offloading hurts
    micro-benchmarks the most (Fig. 2).
    """

    fault_cpu_per_page_s: float = 8e-6


@dataclass
class SwapStats:
    """Cumulative datapath statistics.

    The counters satisfy a conservation identity the invariant auditor
    (:mod:`repro.obs.audit`) checks continuously::

        offloaded_pages == recalled_pages + remote_freed_pages
                           + remote_lost_pages
                           + remote-resident pages (== pool usage)

    ``remote_lost_pages`` counts pages destroyed by injected pool-node
    crashes (:mod:`repro.faults`); it stays zero in fault-free runs.
    Every counter is monotonically non-decreasing; derived balances
    (:attr:`remote_resident_pages`) must never go negative.
    """

    offloaded_pages: int = 0
    recalled_pages: int = 0
    remote_freed_pages: int = 0
    remote_lost_pages: int = 0
    aborted_offloads: int = 0
    suppressed_offloads: int = 0
    offload_ops: int = 0
    fault_ops: int = 0

    @property
    def offloaded_mib(self) -> float:
        return self.offloaded_pages * PAGE_SIZE / MIB

    @property
    def recalled_mib(self) -> float:
        return self.recalled_pages * PAGE_SIZE / MIB

    @property
    def remote_resident_pages(self) -> int:
        """Pages currently parked in the pool, by conservation."""
        return (
            self.offloaded_pages
            - self.recalled_pages
            - self.remote_freed_pages
            - self.remote_lost_pages
        )

    def check_conservation(self, pool_used_pages: int) -> None:
        """Raise if the conservation identity does not hold."""
        for name in ("offloaded_pages", "recalled_pages", "remote_freed_pages",
                     "remote_lost_pages", "aborted_offloads",
                     "suppressed_offloads", "offload_ops", "fault_ops"):
            value = getattr(self, name)
            if value < 0:
                raise MemoryError_(f"SwapStats.{name} went negative: {value}")
        if self.remote_resident_pages < 0:
            raise MemoryError_(
                f"swap conservation broken: offloaded={self.offloaded_pages} < "
                f"recalled={self.recalled_pages} + freed={self.remote_freed_pages} "
                f"+ lost={self.remote_lost_pages}"
            )
        if self.remote_resident_pages != pool_used_pages:
            raise MemoryError_(
                f"swap conservation broken: remote-resident balance "
                f"{self.remote_resident_pages} != pool usage {pool_used_pages}"
            )


@dataclass
class TierLedger:
    """Cumulative page flow through one tier (audited per level).

    The per-tier conservation identity generalises the swap law::

        placed + demoted_in == recalled + freed + lost + demoted_out
                               + resident (== shard pool usage summed)
    """

    placed: int = 0
    demoted_in: int = 0
    recalled: int = 0
    freed: int = 0
    lost: int = 0
    demoted_out: int = 0
    spills: int = 0

    @property
    def resident(self) -> int:
        return (
            self.placed
            + self.demoted_in
            - self.recalled
            - self.freed
            - self.lost
            - self.demoted_out
        )


class _Upper:
    """A region resident above the bottom tier: a demotion candidate."""

    __slots__ = ("region", "placed_at")

    def __init__(self, region: PageRegion, placed_at: float) -> None:
        self.region = region
        self.placed_at = placed_at


# Bound once: on CPython 3.11 reading an Enum member through its
# class (``LinkDirection.OUT``) takes EnumType.__getattr__'s slow path,
# about 90 ns against about 7 ns for a module global, on every transfer.
_OUT = LinkDirection.OUT
_IN = LinkDirection.IN

# A write-out's destination, chosen at issue time:
# (shard, pages reserved on the shard while in flight).
_Route = Tuple[PoolShard, int]


class Fastswap:
    """The swap datapath shared by every policy, routed over the pool."""

    def __init__(
        self,
        engine: Engine,
        pool: TieredPool,
        config: Optional[FastswapConfig] = None,
    ) -> None:
        self.engine = engine
        self.pool = pool
        # The representative link (nearest tier, shard 0): what the
        # bandwidth monitor throttles against and the breaker watches.
        self.link = pool.tiers[0].shards[0].link
        self.config = config or FastswapConfig()
        self.stats = SwapStats()
        # Optional repro.obs.Tracer; None keeps the datapath untraced.
        self.tracer = None
        # Optional repro.faults.FaultInjector; None keeps the datapath
        # fault-free (a single ``is not None`` check per operation).
        self.injector = None
        self._cgroups: List[Cgroup] = []
        # Region ids whose remote pages were destroyed by a pool-node
        # crash: their pool pages are already accounted in
        # ``remote_lost_pages``, so later frees/recalls must not
        # release or transfer them again.
        self._lost_region_ids: set = set()
        # The single-node pool has no tier.* events (its trace predates
        # the hierarchy and is pinned byte for byte).
        self._emit_tier = not pool.degenerate
        self._bottom_level = pool.tiers[-1].level
        # region_id -> its write-out's route, from issue until the
        # write-out lands or aborts.
        self._routes: Dict[int, _Route] = {}
        # region_id -> the shard holding that remote region's pages.
        self._residence: Dict[int, PoolShard] = {}
        # The residences above the bottom tier: what the demotion
        # daemon works on, kept so it never scans the whole pool. In
        # (placed_at, region_id) order once normalised: placements
        # append at the clock's current time, so only a same-time
        # placement with a smaller id than the tail breaks the order,
        # and that marks the dict for one re-sort on the next tick.
        self._upper: Dict[int, _Upper] = {}
        self._upper_unsorted = False
        self.tier_stats: Dict[int, TierLedger] = {
            tier.level: TierLedger() for tier in pool.tiers
        }
        self.demotions = 0
        self._daemon: Optional[PeriodicTask] = None

    def attach(self, cgroup: Cgroup) -> None:
        """Wire a cgroup so freeing remote regions releases pool pages."""
        cgroup.on_remote_freed.append(self._handle_remote_freed)
        self._cgroups.append(cgroup)

    def attached_cgroups(self) -> List[Cgroup]:
        """Every cgroup ever attached (pool-crash loss enumeration)."""
        return list(self._cgroups)

    def regions_on_shard(self, cgroup: Cgroup, shard: PoolShard) -> List[PageRegion]:
        """Live remote regions of ``cgroup`` resident on ``shard``."""
        residence = self._residence
        return [
            region
            for region in cgroup.remote_regions()
            if residence.get(region.region_id) is shard
        ]

    @property
    def suspended(self) -> bool:
        """Whether the offload path is in local-only fallback.

        True while the link is down or the circuit breaker refuses
        traffic. Policies consult this before picking victims; the
        datapath additionally suppresses any offload issued while
        suspended (counted in ``suppressed_offloads``).
        """
        if self.injector is None:
            return False
        return (not self.link.up) or (not self.injector.breaker.allow(self.engine.now))

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _route(self, region: PageRegion, tier_hint: Optional[str] = None) -> _Route:
        """Where a write-out of ``region`` lands, chosen once per issue."""
        region_id = region.region_id
        route = self._routes.get(region_id)
        if route is not None:
            return route
        tiers = self.pool.tiers
        bottom = len(tiers) - 1
        tier_index = 0
        if bottom:  # A one-tier pool has no tier to choose.
            if tier_hint == "far":
                tier_index = bottom
            elif tier_hint != "near":
                age_bar = self.pool.topology.far_direct_age_s
                if (
                    age_bar is not None
                    and region.last_access is not None
                    and self.engine.now - region.last_access >= age_bar
                ):
                    # Page temperature: long-cold pages skip the near tier.
                    tier_index = bottom
            while tier_index < bottom:
                tier = tiers[tier_index]
                if tier.shard_for(region_id).room_for(region.pages):
                    break
                # Tier pressure: the stripe shard is full (counting
                # in-flight write-outs), so the page spills one tier down.
                self.tier_stats[tier.level].spills += 1
                if self._emit_tier and self.tracer is not None:
                    self.tracer.emit(
                        EventKind.TIER_SPILL,
                        region.name,
                        from_tier=tier.level,
                        to_tier=tier.level + 1,
                        region=region_id,
                        pages=region.pages,
                    )
                tier_index += 1
        shard = tiers[tier_index].shard_for(region_id)
        pages = region.pages
        route = (shard, pages)
        self._routes[region_id] = route
        shard.pending_pages += pages
        return route

    def _discard_route(self, region: PageRegion) -> None:
        """An issued write-out aborted; release its in-flight reservation."""
        route = self._routes.pop(region.region_id, None)
        if route is not None:
            route[0].pending_pages -= route[1]

    def _store(self, cgroup: Cgroup, region: PageRegion, route: _Route) -> None:
        """Account a completed write-out on its routed shard."""
        shard, pending = route
        region_id = region.region_id
        pages = region.pages
        del self._routes[region_id]
        shard.pending_pages -= pending
        self.pool.store(shard, pages)
        self._residence[region_id] = shard
        self.tier_stats[shard.level].placed += pages
        if self._emit_tier and self.tracer is not None:
            self.tracer.emit(
                EventKind.TIER_PLACE,
                cgroup.name,
                tier=shard.level,
                shard=shard.index,
                region=region_id,
                pages=pages,
            )
        if shard.level < self._bottom_level:
            self._place_upper(_Upper(region, self.engine.now))
            self._kick_daemon()

    # ------------------------------------------------------------------
    # Page-out
    # ------------------------------------------------------------------

    def offload(
        self,
        cgroup: Cgroup,
        regions: Iterable[PageRegion],
        tier_hint: Optional[str] = None,
    ) -> float:
        """Asynchronously write regions out to the pool.

        Returns the completion time of the last write-out. Regions that
        get touched before their write-out completes are skipped
        (abort), matching kernel swap semantics. ``tier_hint``
        ("near"/"far") lets policies steer a hierarchy; a one-tier
        pool ignores it.
        """
        completion = self.engine.now
        if self.suspended:
            # Local-only fallback: the link is down or the breaker is
            # open. The regions simply stay local; policy ledgers
            # reconcile exactly as they do for aborted offloads.
            for region in regions:
                if region.freed or region.is_remote:
                    continue
                self.stats.suppressed_offloads += 1
                if self.tracer is not None:
                    self.tracer.emit(
                        EventKind.OFFLOAD_SUPPRESSED,
                        cgroup.name,
                        region=region.region_id,
                        pages=region.pages,
                    )
            return completion
        for region in regions:
            if region.freed or region.is_remote:
                continue
            issue_access_count = region.access_count
            issue_pages = region.pages
            shard = self._route(region, tier_hint)[0]
            _, completion = shard.link.transfer(
                self.engine.now, issue_pages, _OUT
            )
            self.engine.schedule_at(
                completion,
                lambda r=region, c=cgroup, a=issue_access_count, p=issue_pages: (
                    self._complete_offload(c, r, a, p)
                ),
                name=f"offload:{region.name}",
            )
            self.stats.offload_ops += 1
            if self.tracer is not None:
                self.tracer.emit(
                    EventKind.OFFLOAD_ISSUE,
                    cgroup.name,
                    region=region.region_id,
                    pages=issue_pages,
                )
        return completion

    def _complete_offload(
        self,
        cgroup: Cgroup,
        region: PageRegion,
        issue_access_count: int,
        issue_pages: int,
    ) -> None:
        reason = ""
        if region.freed:
            reason = "freed"
        elif region.is_remote:
            reason = "already-remote"
        elif region.access_count != issue_access_count:
            # Re-dirtied while the write-out was in flight: abort.
            reason = "re-dirtied"
        elif region.pages != issue_pages:
            # Partially cancelled: the region was split while its
            # write-out was in flight, so the written-out image no
            # longer matches the region. Abort rather than account
            # pages that were never transferred.
            reason = "resized"
        else:
            route = self._routes.get(region.region_id) or self._route(region)
            if region.pages > route[0].free_pages:
                # The pool filled up while the write-out was in flight:
                # the store bounces and the pages stay local, like a
                # swap-out failing against a full swap device.
                reason = "pool-full"
        if reason:
            self._discard_route(region)
            self.stats.aborted_offloads += 1
            if self.tracer is not None:
                self.tracer.emit(
                    EventKind.OFFLOAD_ABORT,
                    cgroup.name,
                    region=region.region_id,
                    pages=issue_pages,
                    reason=reason,
                )
            return
        self._store(cgroup, region, route)
        cgroup.mark_offloaded(region)
        self.stats.offloaded_pages += region.pages
        if self.tracer is not None:
            self.tracer.emit(
                EventKind.OFFLOAD_COMPLETE,
                cgroup.name,
                region=region.region_id,
                pages=region.pages,
            )

    def writeback(
        self,
        cgroup: Cgroup,
        regions: Iterable[PageRegion],
        tier_hint: Optional[str] = None,
    ) -> Tuple[List[PageRegion], float]:
        """Synchronously write regions out (direct-reclaim page-out).

        Unlike :meth:`offload`, the pages leave local DRAM immediately
        — the caller (the pressure governor) is stalling an allocation
        on this reclaim, so there is no in-flight window to re-dirty.
        Returns ``(regions moved, completion time of the last
        transfer)``; the caller charges ``completion - now`` to the
        faulting request. Suspended datapaths move nothing.
        """
        if self.suspended:
            return [], self.engine.now
        moved: List[PageRegion] = []
        completion = self.engine.now
        for region in regions:
            if region.freed or region.is_remote:
                continue
            route = self._route(region, tier_hint)
            shard = route[0]
            if region.pages > shard.free_pages:
                # Full pool: skip, like a swap-out bouncing off a full
                # swap device. The governor falls through to OOM.
                self._discard_route(region)
                continue
            _, completion = shard.link.transfer(
                self.engine.now, region.pages, _OUT
            )
            self.stats.offload_ops += 1
            if self.tracer is not None:
                self.tracer.emit(
                    EventKind.OFFLOAD_ISSUE,
                    cgroup.name,
                    region=region.region_id,
                    pages=region.pages,
                )
            self._store(cgroup, region, route)
            cgroup.mark_offloaded(region)
            self.stats.offloaded_pages += region.pages
            moved.append(region)
            if self.tracer is not None:
                self.tracer.emit(
                    EventKind.OFFLOAD_COMPLETE,
                    cgroup.name,
                    region=region.region_id,
                    pages=region.pages,
                )
        return moved, completion

    # ------------------------------------------------------------------
    # Page-in
    # ------------------------------------------------------------------

    def fault(
        self,
        cgroup: Cgroup,
        regions: Iterable[PageRegion],
        cpu_share: float = 1.0,
    ) -> float:
        """Synchronously fetch remote regions; return the stall time.

        All listed regions become local immediately (the caller then
        touches them); the returned latency covers queueing behind
        in-flight recalls, wire time, and per-page fault CPU work
        scaled by the container's ``cpu_share``.
        """
        if cpu_share <= 0:
            raise MemoryError_(f"cpu_share must be positive, got {cpu_share}")
        # Fault-injection retry loop: timeouts, backoff and outage
        # waits accrue before the transfer is issued. With no injector
        # attached, issue_at is exactly engine.now.
        retry_stall = 0.0
        issue_at = self.engine.now
        if self.injector is not None:
            retry_stall = self.injector.page_in_penalty(cgroup.name)
            issue_at = self.engine.now + retry_stall
        total_pages = 0
        completion = issue_at
        for region in regions:
            if region.freed:
                raise MemoryError_(f"fault on freed region {region.name!r}")
            if region.is_local:
                continue
            region_id = region.region_id
            if region_id in self._lost_region_ids:
                # The pool lost this page image in a node crash; it is
                # re-materialized locally (the disk-image re-read a
                # restarted container performs). Its pool pages are
                # already accounted in remote_lost_pages, so there is
                # no transfer and no recall to count.
                self._lost_region_ids.discard(region_id)
                cgroup.mark_fetched(region)
                continue
            # Promotion: straight from whichever tier holds the page.
            shard = self._residence.pop(region_id)
            _, completion = shard.link.transfer(
                issue_at, region.pages, _IN
            )
            self.pool.release(shard, region.pages)
            self.tier_stats[shard.level].recalled += region.pages
            if self._emit_tier and self.tracer is not None:
                self.tracer.emit(
                    EventKind.TIER_RECALL,
                    cgroup.name,
                    tier=shard.level,
                    shard=shard.index,
                    region=region_id,
                    pages=region.pages,
                )
            if self._upper:
                # Room opened below may unblock a stuck demotion.
                self._upper.pop(region_id, None)
                self._kick_daemon()
            cgroup.mark_fetched(region)
            total_pages += region.pages
            self.stats.fault_ops += 1
            if self.tracer is not None:
                self.tracer.emit(
                    EventKind.RECALL,
                    cgroup.name,
                    region=region_id,
                    pages=region.pages,
                )
        if total_pages == 0:
            return retry_stall
        self.stats.recalled_pages += total_pages
        wire_stall = max(0.0, completion - self.engine.now)
        cpu_stall = total_pages * self.config.fault_cpu_per_page_s / cpu_share
        if self.injector is not None:
            self.injector.note_page_in_success()
        return wire_stall + cpu_stall

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------

    def _handle_remote_freed(self, region: PageRegion) -> None:
        region_id = region.region_id
        if region_id in self._lost_region_ids:
            # The pool pages behind this region were destroyed by a
            # node crash and already accounted in remote_lost_pages;
            # there is nothing left to release.
            self._lost_region_ids.discard(region_id)
            return
        pages = region.pages
        shard = self._residence.pop(region_id)
        self.pool.release(shard, pages)
        self.tier_stats[shard.level].freed += pages
        if self._emit_tier and self.tracer is not None:
            self.tracer.emit(
                EventKind.TIER_FREE,
                region.name,
                tier=shard.level,
                shard=shard.index,
                region=region_id,
                pages=pages,
            )
        if self._upper:
            # Room opened below may unblock a stuck demotion.
            self._upper.pop(region_id, None)
            self._kick_daemon()
        self.stats.remote_freed_pages += pages
        if self.tracer is not None:
            self.tracer.emit(
                EventKind.REMOTE_FREED,
                region.name,
                region=region_id,
                pages=pages,
            )

    def declare_lost(self, cgroup: Cgroup, regions: Iterable[PageRegion]) -> int:
        """Mark remote regions destroyed by a pool-node crash.

        Returns the number of pages newly declared lost. The caller
        (the fault injector) drops the same count from the crashed
        shard, so conservation holds: the pages move from the
        remote-resident balance into ``remote_lost_pages``.
        """
        total = 0
        for region in regions:
            if (
                region.freed
                or region.is_local
                or region.region_id in self._lost_region_ids
            ):
                continue
            self._lost_region_ids.add(region.region_id)
            self.stats.remote_lost_pages += region.pages
            total += region.pages
            if self.tracer is not None:
                self.tracer.emit(
                    EventKind.PAGE_LOST,
                    cgroup.name,
                    region=region.region_id,
                    pages=region.pages,
                )
            shard = self._residence.pop(region.region_id, None)
            if shard is None:
                continue
            self._upper.pop(region.region_id, None)
            self.tier_stats[shard.level].lost += region.pages
            if self._emit_tier and self.tracer is not None:
                self.tracer.emit(
                    EventKind.TIER_LOST,
                    cgroup.name,
                    tier=shard.level,
                    shard=shard.index,
                    region=region.region_id,
                    pages=region.pages,
                )
        return total

    # ------------------------------------------------------------------
    # Background demotion daemon
    # ------------------------------------------------------------------

    def _place_upper(self, placement: _Upper) -> None:
        """Append ``placement`` to the demotion index, keeping its order."""
        upper = self._upper
        region_id = placement.region.region_id
        if upper and not self._upper_unsorted:
            tail_id = next(reversed(upper))
            if (placement.placed_at, region_id) < (upper[tail_id].placed_at, tail_id):
                self._upper_unsorted = True
        upper[region_id] = placement

    def _sorted_upper(self) -> Dict[int, _Upper]:
        """The demotion index, re-sorted first if an append broke its order."""
        if self._upper_unsorted:
            self._upper_unsorted = False
            self._upper = dict(
                sorted(
                    self._upper.items(),
                    key=lambda item: (item[1].placed_at, item[0]),
                )
            )
        return self._upper

    def _kick_daemon(self) -> None:
        """(Re)arm the demotion ticker if there is anything to demote.

        Re-kicked on recalls/frees too: those open room in lower tiers
        that may unblock a previously-stuck demotion.
        """
        if self._daemon is None and self._upper:
            self._daemon = PeriodicTask(
                self.engine,
                self.pool.topology.demote_tick_s,
                self._demote_tick,
                name="tier:demote",
            )

    def _stop_daemon(self) -> None:
        if self._daemon is not None:
            self._daemon.stop()
            self._daemon = None

    def _demote_tick(self) -> None:
        if not self._upper:
            self._stop_daemon()
            return
        if self.suspended:
            # Interconnect outage / open breaker: pause, keep ticking.
            return
        now = self.engine.now
        topology = self.pool.topology
        demote_after = topology.demote_after_s
        upper = self._sorted_upper()
        budget = pages_from_mib(topology.demote_batch_mib)
        moved: List[_Upper] = []
        # ``now - placed_at`` never decreases as placed_at decreases
        # (IEEE subtraction is monotone), so the ripe placements are a
        # prefix of the index: walk it oldest first and stop at the
        # first unripe one or when the batch is spent.
        for placement in upper.values():
            if budget <= 0 or now - placement.placed_at < demote_after:
                break
            region = placement.region
            pages = region.pages
            src_shard = self._residence[region.region_id]
            # Levels are 1-based, so the tier one level down sits at
            # index ``src_shard.level`` of the 0-based tier list.
            dst_tier = self.pool.tiers[src_shard.level]
            dst_shard = dst_tier.shard_for(region.region_id)
            if not dst_shard.room_for(pages):
                # Destination full: the page stays put; a later recall
                # or free below re-kicks the daemon.
                continue
            src_level = src_shard.level
            dst_shard.link.transfer(now, pages, _OUT)
            self.pool.migrate(src_shard, dst_shard, pages)
            self.tier_stats[src_level].demoted_out += pages
            self.tier_stats[dst_shard.level].demoted_in += pages
            self.demotions += 1
            if self._emit_tier and self.tracer is not None:
                self.tracer.emit(
                    EventKind.TIER_DEMOTE,
                    region.name,
                    from_tier=src_level,
                    to_tier=dst_shard.level,
                    shard=dst_shard.index,
                    region=region.region_id,
                    pages=pages,
                )
            self._residence[region.region_id] = dst_shard
            moved.append(placement)
            budget -= pages
        if not moved:
            if now - upper[next(reversed(upper))].placed_at >= demote_after:
                # Every upper-tier page is ripe but blocked on full
                # lower tiers; ticking again changes nothing. Recalls
                # and frees re-kick the daemon when room opens up.
                self._stop_daemon()
            return
        # Index updates wait until the walk is done: a page that
        # reached the bottom tier leaves the index, and one re-placed in
        # a middle tier starts its residence clock again at the tail.
        bottom = self._bottom_level
        residence = self._residence
        for placement in moved:
            region_id = placement.region.region_id
            del upper[region_id]
            if residence[region_id].level != bottom:
                placement.placed_at = now
                self._place_upper(placement)
