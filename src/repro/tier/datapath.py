"""Tier-aware swap datapath: routing, spill, promotion and demotion.

:class:`TieredFastswap` subclasses the flat
:class:`~repro.pool.fastswap.Fastswap` and overrides only its routing
seams, so the offload/recall protocol (issue, in-flight abort,
completion, conservation accounting) is shared verbatim with the flat
pool. What the overrides add:

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

For a degenerate (one-tier/one-shard) topology every decision
collapses to the flat pool's behaviour, no ``tier.*`` events are
emitted, and no daemon runs — which is what makes the equivalence
differential test byte-exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.mem.cgroup import Cgroup
from repro.mem.page import PageRegion
from repro.obs.trace import EventKind
from repro.pool.fastswap import Fastswap, FastswapConfig
from repro.pool.link import Link, LinkDirection
from repro.pool.tier import TieredPool
from repro.sim.engine import Engine
from repro.sim.process import PeriodicTask
from repro.units import pages_from_mib


@dataclass
class TierLedger:
    """Cumulative page flow through one tier (audited per level).

    The per-tier conservation identity generalises the flat swap law::

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


class _Residence:
    """Where one remote region's pages live right now."""

    __slots__ = ("tier_index", "shard_index", "region", "placed_at")

    def __init__(
        self, tier_index: int, shard_index: int, region: PageRegion, placed_at: float
    ) -> None:
        self.tier_index = tier_index
        self.shard_index = shard_index
        self.region = region
        self.placed_at = placed_at


class TieredFastswap(Fastswap):
    """Fastswap routed over a sharded pool hierarchy."""

    def __init__(
        self,
        engine: Engine,
        hierarchy: TieredPool,
        config: Optional[FastswapConfig] = None,
    ) -> None:
        top_shard = hierarchy.tiers[0].shards[0]
        super().__init__(engine, top_shard.link, hierarchy, config)
        self.hierarchy = hierarchy
        # Degenerate topologies emit no tier.* events: the flat pool
        # has nothing equivalent, and the differential test demands
        # byte-identical streams.
        self._emit_tier = not hierarchy.degenerate
        # region_id -> (tier_index, shard_index, pending_pages) chosen
        # at issue time; moved to _residence when the write-out lands.
        self._routes: Dict[int, tuple] = {}
        self._residence: Dict[int, _Residence] = {}
        # The residences above the bottom tier: what the demotion
        # daemon works on, kept so it never scans the whole pool.
        self._upper: Dict[int, _Residence] = {}
        self.tier_stats: Dict[int, TierLedger] = {
            tier.level: TierLedger() for tier in hierarchy.tiers
        }
        self.demotions = 0
        self._daemon: Optional[PeriodicTask] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def links(self) -> List[Link]:
        return self.hierarchy.links()

    def resident_regions(self, tier_index: int, shard_index: int) -> List[PageRegion]:
        """Regions currently resident on one shard (tests/debugging)."""
        return [
            placement.region
            for placement in self._residence.values()
            if placement.tier_index == tier_index
            and placement.shard_index == shard_index
        ]

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _bottom_index(self) -> int:
        return len(self.hierarchy.tiers) - 1

    def _target_tier_index(
        self, region: PageRegion, tier_hint: Optional[str]
    ) -> int:
        if tier_hint == "far":
            return self._bottom_index()
        if tier_hint == "near":
            return 0
        age_bar = self.hierarchy.topology.far_direct_age_s
        if age_bar is not None and region.last_access is not None:
            if self.engine.now - region.last_access >= age_bar:
                # Page temperature: long-cold pages skip the near tier.
                return self._bottom_index()
        return 0

    def _route_or_assign(
        self, region: PageRegion, tier_hint: Optional[str] = None
    ) -> tuple:
        route = self._routes.get(region.region_id)
        if route is not None:
            return route
        tiers = self.hierarchy.tiers
        tier_index = self._target_tier_index(region, tier_hint)
        while tier_index < self._bottom_index():
            tier = tiers[tier_index]
            shard = tier.shards[tier.shard_for(region.region_id)]
            if shard.room_for(region.pages):
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
                    region=region.region_id,
                    pages=region.pages,
                )
            tier_index += 1
        tier = tiers[tier_index]
        shard_index = tier.shard_for(region.region_id)
        route = (tier_index, shard_index, region.pages)
        self._routes[region.region_id] = route
        tier.shards[shard_index].pending_pages += region.pages
        return route

    # ------------------------------------------------------------------
    # Fastswap seams
    # ------------------------------------------------------------------

    def _route_offload(
        self, region: PageRegion, tier_hint: Optional[str] = None
    ) -> Link:
        tier_index, shard_index, _ = self._route_or_assign(region, tier_hint)
        return self.hierarchy.shard(tier_index, shard_index).link

    def _can_store(self, region: PageRegion) -> bool:
        tier_index, shard_index, _ = self._route_or_assign(region)
        shard = self.hierarchy.shard(tier_index, shard_index)
        return region.pages <= shard.pool.free_pages

    def _store(self, cgroup: Cgroup, region: PageRegion) -> None:
        tier_index, shard_index, pending = self._routes.pop(region.region_id)
        shard = self.hierarchy.shard(tier_index, shard_index)
        shard.pending_pages = max(0, shard.pending_pages - pending)
        self.hierarchy.store_at(tier_index, shard_index, region.pages)
        placement = _Residence(tier_index, shard_index, region, self.engine.now)
        self._residence[region.region_id] = placement
        level = self.hierarchy.tiers[tier_index].level
        self.tier_stats[level].placed += region.pages
        if self._emit_tier and self.tracer is not None:
            self.tracer.emit(
                EventKind.TIER_PLACE,
                cgroup.name,
                tier=level,
                shard=shard_index,
                region=region.region_id,
                pages=region.pages,
            )
        if tier_index < self._bottom_index():
            self._upper[region.region_id] = placement
            self._kick_daemon()

    def _discard_route(self, region: PageRegion, reason: str) -> None:
        route = self._routes.pop(region.region_id, None)
        if route is not None:
            tier_index, shard_index, pending = route
            shard = self.hierarchy.shard(tier_index, shard_index)
            shard.pending_pages = max(0, shard.pending_pages - pending)

    def _fault_link(self, region: PageRegion) -> Link:
        placement = self._residence.get(region.region_id)
        if placement is None:
            return self.link
        return self.hierarchy.shard(
            placement.tier_index, placement.shard_index
        ).link

    def _release_recalled(self, cgroup: Cgroup, region: PageRegion) -> None:
        placement = self._residence.pop(region.region_id)
        self._upper.pop(region.region_id, None)
        self.hierarchy.release_at(
            placement.tier_index, placement.shard_index, region.pages
        )
        level = self.hierarchy.tiers[placement.tier_index].level
        self.tier_stats[level].recalled += region.pages
        if self._emit_tier and self.tracer is not None:
            self.tracer.emit(
                EventKind.TIER_RECALL,
                cgroup.name,
                tier=level,
                shard=placement.shard_index,
                region=region.region_id,
                pages=region.pages,
            )
        self._kick_daemon()

    def _release_freed(self, region: PageRegion) -> None:
        placement = self._residence.pop(region.region_id)
        self._upper.pop(region.region_id, None)
        self.hierarchy.release_at(
            placement.tier_index, placement.shard_index, region.pages
        )
        level = self.hierarchy.tiers[placement.tier_index].level
        self.tier_stats[level].freed += region.pages
        if self._emit_tier and self.tracer is not None:
            self.tracer.emit(
                EventKind.TIER_FREE,
                region.name,
                tier=level,
                shard=placement.shard_index,
                region=region.region_id,
                pages=region.pages,
            )
        self._kick_daemon()

    def _note_lost(self, cgroup: Cgroup, region: PageRegion) -> None:
        placement = self._residence.pop(region.region_id, None)
        if placement is None:
            return
        self._upper.pop(region.region_id, None)
        level = self.hierarchy.tiers[placement.tier_index].level
        self.tier_stats[level].lost += region.pages
        if self._emit_tier and self.tracer is not None:
            self.tracer.emit(
                EventKind.TIER_LOST,
                cgroup.name,
                tier=level,
                shard=placement.shard_index,
                region=region.region_id,
                pages=region.pages,
            )

    # ------------------------------------------------------------------
    # Pool-crash domains (repro.faults)
    # ------------------------------------------------------------------

    def crash_domains(self) -> List[object]:
        return [
            (tier_index, shard_index)
            for tier_index, tier in enumerate(self.hierarchy.tiers)
            for shard_index in range(len(tier.shards))
        ]

    def regions_in_domain(self, cgroup: Cgroup, domain: object) -> List[PageRegion]:
        tier_index, shard_index = domain
        out = []
        for region in cgroup.remote_regions():
            placement = self._residence.get(region.region_id)
            if (
                placement is not None
                and placement.tier_index == tier_index
                and placement.shard_index == shard_index
            ):
                out.append(region)
        return out

    def drop_pool(self, domain: object, pages: int) -> None:
        tier_index, shard_index = domain
        self.hierarchy.drop_at(tier_index, shard_index, pages)

    def domain_pool_name(self, domain: object) -> str:
        tier_index, shard_index = domain
        return self.hierarchy.shard(tier_index, shard_index).pool.name

    # ------------------------------------------------------------------
    # Background demotion daemon
    # ------------------------------------------------------------------

    def _kick_daemon(self) -> None:
        """(Re)arm the demotion ticker if there is anything to demote.

        Re-kicked on recalls/frees too: those open room in lower tiers
        that may unblock a previously-stuck demotion.
        """
        if self._daemon is None and self._upper:
            self._daemon = PeriodicTask(
                self.engine,
                self.hierarchy.topology.demote_tick_s,
                self._demote_tick,
                name="tier:demote",
            )

    def _stop_daemon(self) -> None:
        if self._daemon is not None:
            self._daemon.stop()
            self._daemon = None

    def _demote_tick(self) -> None:
        now = self.engine.now
        topology = self.hierarchy.topology
        bottom = self._bottom_index()
        upper = list(self._upper.values())
        if not upper:
            self._stop_daemon()
            return
        if self.suspended:
            # Interconnect outage / open breaker: pause, keep ticking.
            return
        ripe = sorted(
            (p for p in upper if now - p.placed_at >= topology.demote_after_s),
            key=lambda p: (p.placed_at, p.region.region_id),
        )
        budget = pages_from_mib(topology.demote_batch_mib)
        progressed = False
        for placement in ripe:
            if budget <= 0:
                break
            region = placement.region
            pages = region.pages
            dst_tier_index = placement.tier_index + 1
            dst_tier = self.hierarchy.tiers[dst_tier_index]
            dst_shard_index = dst_tier.shard_for(region.region_id)
            dst_shard = dst_tier.shards[dst_shard_index]
            if not dst_shard.room_for(pages):
                # Destination full: the page stays put; a later recall
                # or free below re-kicks the daemon.
                continue
            src_level = self.hierarchy.tiers[placement.tier_index].level
            dst_shard.link.transfer(now, pages, LinkDirection.OUT)
            self.hierarchy.migrate(
                (placement.tier_index, placement.shard_index),
                (dst_tier_index, dst_shard_index),
                pages,
            )
            self.tier_stats[src_level].demoted_out += pages
            self.tier_stats[dst_tier.level].demoted_in += pages
            self.demotions += 1
            if self._emit_tier and self.tracer is not None:
                self.tracer.emit(
                    EventKind.TIER_DEMOTE,
                    region.name,
                    from_tier=src_level,
                    to_tier=dst_tier.level,
                    shard=dst_shard_index,
                    region=region.region_id,
                    pages=pages,
                )
            placement.tier_index = dst_tier_index
            placement.shard_index = dst_shard_index
            if dst_tier_index == bottom:
                del self._upper[region.region_id]
            placement.placed_at = now
            budget -= pages
            progressed = True
        if not progressed and all(
            now - p.placed_at >= topology.demote_after_s for p in upper
        ):
            # Every upper-tier page is ripe but blocked on full lower
            # tiers; ticking again changes nothing. Recalls and frees
            # re-kick the daemon when room opens up.
            self._stop_daemon()
