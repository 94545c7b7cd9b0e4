"""Fastswap-style swap datapath between node DRAM and the pool.

Mirrors the two paths the paper ports onto Linux 6.1 (§7):

* **page-out** (:meth:`Fastswap.offload`) — asynchronous: the pipe is
  reserved, and the pages leave local DRAM when the write-out
  completes. A region touched while its write-out is in flight has
  its offload aborted, like the kernel skipping a re-dirtied page.
* **page-in** (:meth:`Fastswap.fault`) — synchronous: a request that
  touches remote pages stalls for the queueing + transfer time, which
  the caller adds to its service time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import MemoryError_
from repro.mem.cgroup import Cgroup
from repro.mem.page import PageRegion
from repro.obs.trace import EventKind
from repro.pool.link import Link, LinkDirection
from repro.pool.remote_pool import RemotePool
from repro.sim.engine import Engine
from repro.units import PAGE_SIZE, MIB


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


class Fastswap:
    """The swap datapath shared by every policy in the library."""

    def __init__(
        self,
        engine: Engine,
        link: Link,
        pool: RemotePool,
        config: Optional[FastswapConfig] = None,
    ) -> None:
        self.engine = engine
        self.link = link
        self.pool = pool
        self.config = config or FastswapConfig()
        self.stats = SwapStats()
        self._per_cgroup_offloaded: Dict[str, int] = {}
        self._per_cgroup_recalled: Dict[str, int] = {}
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

    def attach(self, cgroup: Cgroup) -> None:
        """Wire a cgroup so freeing remote regions releases pool pages."""
        cgroup.on_remote_freed.append(self._handle_remote_freed)
        self._cgroups.append(cgroup)

    def attached_cgroups(self) -> List[Cgroup]:
        """Every cgroup ever attached (pool-crash loss enumeration)."""
        return list(self._cgroups)

    # ------------------------------------------------------------------
    # Routing seams
    # ------------------------------------------------------------------
    # The flat datapath has exactly one link and one pool, so every
    # seam below is a trivial constant. repro.tier.TieredFastswap
    # overrides them to route each region to a (tier, shard) pair —
    # nothing else in this class changes, which is what makes the
    # one-tier/one-shard configuration provably equivalent to the flat
    # pool.

    def links(self) -> List[Link]:
        """Every link the datapath may transfer over."""
        return [self.link]

    def _route_offload(self, region: PageRegion, tier_hint: Optional[str] = None) -> Link:
        """Pick the link a write-out of ``region`` travels over."""
        return self.link

    def _can_store(self, region: PageRegion) -> bool:
        """Whether the pool backing ``region``'s route can take it now."""
        return region.pages <= self.pool.free_pages

    def _store(self, cgroup: Cgroup, region: PageRegion) -> None:
        """Account a completed write-out in the routed pool."""
        self.pool.store(region.pages)

    def _discard_route(self, region: PageRegion, reason: str) -> None:
        """An issued write-out aborted; forget any routing state."""

    def _fault_link(self, region: PageRegion) -> Link:
        """The link a page-in of ``region`` travels over."""
        return self.link

    def _release_recalled(self, cgroup: Cgroup, region: PageRegion) -> None:
        """Account a recalled region leaving the pool."""
        self.pool.release(region.pages)

    def _release_freed(self, region: PageRegion) -> None:
        """Account a freed-while-remote region leaving the pool."""
        self.pool.release(region.pages)

    def _note_lost(self, cgroup: Cgroup, region: PageRegion) -> None:
        """A region's pool pages were destroyed by a node crash."""

    # Pool-crash domains (repro.faults): the flat pool is one crash
    # domain; the tiered pool exposes one per shard so the injector can
    # fail a single pool node.

    def crash_domains(self) -> List[object]:
        """Independent pool-node failure domains."""
        return [None]

    def regions_in_domain(self, cgroup: Cgroup, domain: object) -> List[PageRegion]:
        """Live remote regions of ``cgroup`` resident in ``domain``."""
        return cgroup.remote_regions()

    def drop_pool(self, domain: object, pages: int) -> None:
        """Destroy ``pages`` pages in the crashed domain's pool."""
        self.pool.drop(pages)

    def domain_pool_name(self, domain: object) -> str:
        """Display name of the crashed pool node."""
        return self.pool.name

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
        ("near"/"far") lets policies steer the tiered datapath; the
        flat pool ignores it.
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
            link = self._route_offload(region, tier_hint)
            _, completion = link.transfer(
                self.engine.now, issue_pages, LinkDirection.OUT
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
        elif not self._can_store(region):
            # The pool filled up while the write-out was in flight:
            # the store bounces and the pages stay local, like a
            # swap-out failing against a full swap device.
            reason = "pool-full"
        if reason:
            self._discard_route(region, reason)
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
        self._store(cgroup, region)
        cgroup.mark_offloaded(region)
        self.stats.offloaded_pages += region.pages
        self._per_cgroup_offloaded[cgroup.name] = (
            self._per_cgroup_offloaded.get(cgroup.name, 0) + region.pages
        )
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
            link = self._route_offload(region, tier_hint)
            if not self._can_store(region):
                # Full pool: skip, like a swap-out bouncing off a full
                # swap device. The governor falls through to OOM.
                self._discard_route(region, "pool-full")
                continue
            _, completion = link.transfer(
                self.engine.now, region.pages, LinkDirection.OUT
            )
            self.stats.offload_ops += 1
            if self.tracer is not None:
                self.tracer.emit(
                    EventKind.OFFLOAD_ISSUE,
                    cgroup.name,
                    region=region.region_id,
                    pages=region.pages,
                )
            self._store(cgroup, region)
            cgroup.mark_offloaded(region)
            self.stats.offloaded_pages += region.pages
            self._per_cgroup_offloaded[cgroup.name] = (
                self._per_cgroup_offloaded.get(cgroup.name, 0) + region.pages
            )
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
            if region.region_id in self._lost_region_ids:
                # The pool lost this page image in a node crash; it is
                # re-materialized locally (the disk-image re-read a
                # restarted container performs). Its pool pages are
                # already accounted in remote_lost_pages, so there is
                # no transfer and no recall to count.
                self._lost_region_ids.discard(region.region_id)
                cgroup.mark_fetched(region)
                continue
            _, completion = self._fault_link(region).transfer(
                issue_at, region.pages, LinkDirection.IN
            )
            self._release_recalled(cgroup, region)
            cgroup.mark_fetched(region)
            total_pages += region.pages
            self.stats.fault_ops += 1
            if self.tracer is not None:
                self.tracer.emit(
                    EventKind.RECALL,
                    cgroup.name,
                    region=region.region_id,
                    pages=region.pages,
                )
        if total_pages == 0:
            return retry_stall
        self.stats.recalled_pages += total_pages
        self._per_cgroup_recalled[cgroup.name] = (
            self._per_cgroup_recalled.get(cgroup.name, 0) + total_pages
        )
        wire_stall = max(0.0, completion - self.engine.now)
        cpu_stall = total_pages * self.config.fault_cpu_per_page_s / cpu_share
        if self.injector is not None:
            self.injector.note_page_in_success()
        return wire_stall + cpu_stall

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------

    def _handle_remote_freed(self, region: PageRegion) -> None:
        if region.region_id in self._lost_region_ids:
            # The pool pages behind this region were destroyed by a
            # node crash and already accounted in remote_lost_pages;
            # there is nothing left to release.
            self._lost_region_ids.discard(region.region_id)
            return
        self._release_freed(region)
        self.stats.remote_freed_pages += region.pages
        if self.tracer is not None:
            self.tracer.emit(
                EventKind.REMOTE_FREED,
                region.name,
                region=region.region_id,
                pages=region.pages,
            )

    def declare_lost(self, cgroup: Cgroup, regions: Iterable[PageRegion]) -> int:
        """Mark remote regions destroyed by a pool-node crash.

        Returns the number of pages newly declared lost. The caller
        (the fault injector) drops the same count from the pool, so
        conservation holds: the pages move from the remote-resident
        balance into ``remote_lost_pages``.
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
            self._note_lost(cgroup, region)
        return total

    def offloaded_pages_of(self, cgroup_name: str) -> int:
        return self._per_cgroup_offloaded.get(cgroup_name, 0)

    def recalled_pages_of(self, cgroup_name: str) -> int:
        return self._per_cgroup_recalled.get(cgroup_name, 0)
