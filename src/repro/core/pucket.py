"""Page Buckets (Puckets), time barriers and the shared hot page pool.

A Pucket segregates the pages of one lifecycle segment (§4). Pages
start on the Pucket's inactive list; a revisited page moves to the
container's shared hot page pool; the remaining inactive pages are the
safe offloading candidates. Rollback (§5.3) returns hot-pool pages to
their origin Puckets so their activity can be re-evaluated.

Puckets are built on the cgroup's MGLRU: creating a Pucket inserts a
time barrier by opening a new MGLRU generation, exactly like the
kernel implementation (§7).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Dict, Iterable, List, Optional, Tuple

from repro.core.config import FaaSMemConfig
from repro.errors import PolicyError
from repro.mem.cgroup import Cgroup
from repro.mem.page import Location, PageRegion, Segment
from repro.obs.trace import EventKind


class Pucket:
    """One Page Bucket: the inactive list plus its offloaded members."""

    def __init__(self, name: str, segment: Segment) -> None:
        self.name = name
        self.segment = segment
        self._inactive: Dict[int, PageRegion] = {}
        self._offloaded: Dict[int, PageRegion] = {}

    # -- membership ---------------------------------------------------------

    def add_inactive(self, region: PageRegion) -> None:
        self._inactive[region.region_id] = region

    def take(self, region: PageRegion) -> Optional[str]:
        """Remove ``region`` from the inactive list or the offloaded set.

        Returns which of the two held it (``"inactive"`` or
        ``"offloaded"``), or None when neither did.
        """
        region_id = region.region_id
        if self._inactive.pop(region_id, None) is not None:
            return "inactive"
        if self._offloaded.pop(region_id, None) is not None:
            return "offloaded"
        return None

    def note_offloaded(self, region: PageRegion) -> None:
        """Track a member that went remote (it stays a Pucket page)."""
        self._inactive.pop(region.region_id, None)
        self._offloaded[region.region_id] = region

    def forget(self, region: PageRegion) -> None:
        """Drop a freed region from all lists."""
        self._inactive.pop(region.region_id, None)
        self._offloaded.pop(region.region_id, None)

    # -- introspection --------------------------------------------------------

    def contains_inactive(self, region: PageRegion) -> bool:
        return region.region_id in self._inactive

    def contains_offloaded(self, region: PageRegion) -> bool:
        return region.region_id in self._offloaded

    @property
    def inactive_regions(self) -> List[PageRegion]:
        return list(self._inactive.values())

    @property
    def offloaded_regions(self) -> List[PageRegion]:
        return list(self._offloaded.values())

    @property
    def inactive_pages(self) -> int:
        return sum(region.pages for region in self._inactive.values())

    @property
    def offloaded_pages(self) -> int:
        return sum(region.pages for region in self._offloaded.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Pucket({self.name}, inactive={len(self._inactive)}, "
            f"offloaded={len(self._offloaded)})"
        )


class HotPagePool:
    """The shared pool of revisited (hot) pages of one container.

    Each entry remembers its origin Pucket so rollback can return it.
    """

    def __init__(self) -> None:
        self._entries: Dict[int, Tuple[PageRegion, Pucket]] = {}

    def add(self, region: PageRegion, origin: Pucket) -> None:
        self._entries[region.region_id] = (region, origin)

    def discard(self, region: PageRegion) -> bool:
        return self._entries.pop(region.region_id, None) is not None

    def __contains__(self, region: PageRegion) -> bool:
        return region.region_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def regions(self) -> List[PageRegion]:
        return [region for region, _ in self._entries.values()]

    @property
    def pages(self) -> int:
        return sum(region.pages for region, _ in self._entries.values())

    def entries(self) -> List[Tuple[PageRegion, Pucket]]:
        return list(self._entries.values())

    def clear(self) -> None:
        self._entries.clear()


@dataclass
class OverheadLog:
    """Measured-equivalent costs of barrier insertion and rollback (§8.5)."""

    runtime_init_barrier_s: float = 0.0
    init_exec_barrier_s: float = 0.0
    rollback_samples_s: List[float] = field(default_factory=list)

    @property
    def max_rollback_s(self) -> float:
        return max(self.rollback_samples_s) if self.rollback_samples_s else 0.0


class ContainerMemoryState:
    """Per-container Pucket machinery.

    Created when the runtime segment finishes loading; the init Pucket
    appears when initialization completes. Touches move pages into the
    hot pool through :meth:`on_touched_many`, one call per request;
    offloads move them out through :meth:`note_offload` and rollback
    returns them through :meth:`roll_back_hot_pool`.
    """

    def __init__(
        self, cgroup: Cgroup, config: FaaSMemConfig, tracer=None
    ) -> None:
        self.cgroup = cgroup
        self.config = config
        self.runtime_pucket = Pucket("runtime", Segment.RUNTIME)
        self.init_pucket = Pucket("init", Segment.INIT)
        self.hot_pool = HotPagePool()
        self.overhead = OverheadLog()
        self.recall_counts: Dict[str, int] = {"runtime": 0, "init": 0}
        self._init_barrier_inserted = False
        # Optional repro.obs.Tracer; None keeps page movements untraced.
        self.tracer = tracer

    # ------------------------------------------------------------------
    # Time barriers
    # ------------------------------------------------------------------

    def insert_runtime_init_barrier(self, now: float) -> float:
        """Seal the runtime segment into the Runtime Pucket.

        Returns the modelled (blocking) insertion cost.
        """
        for region in self.cgroup.space.regions(Segment.RUNTIME, Location.LOCAL):
            self.runtime_pucket.add_inactive(region)
        self.cgroup.mglru.new_generation(now, label="runtime-init-barrier")
        self._emit_seal(self.runtime_pucket, now)
        cost = (
            self.config.barrier_base_s
            + self.runtime_pucket.inactive_pages * self.config.barrier_per_page_s
        )
        self.overhead.runtime_init_barrier_s = cost
        return cost

    def insert_init_exec_barrier(self, now: float) -> float:
        """Seal the init segment into the Init Pucket."""
        if self._init_barrier_inserted:
            raise PolicyError("init-exec barrier inserted twice")
        self._init_barrier_inserted = True
        for region in self.cgroup.space.regions(Segment.INIT, Location.LOCAL):
            self.init_pucket.add_inactive(region)
        self.cgroup.mglru.new_generation(now, label="init-exec-barrier")
        self._emit_seal(self.init_pucket, now)
        cost = (
            self.config.barrier_base_s
            + self.init_pucket.inactive_pages * self.config.barrier_per_page_s
        )
        self.overhead.init_exec_barrier_s = cost
        return cost

    # ------------------------------------------------------------------
    # Access-driven movement
    # ------------------------------------------------------------------

    def on_touched(self, region: PageRegion, was_remote: bool = False) -> None:
        """One touched region (see :meth:`on_touched_many`)."""
        self.on_touched_many((region,), (region.region_id,) if was_remote else ())

    def on_touched_many(
        self, regions: Iterable[PageRegion], remote_ids: Collection[int]
    ) -> None:
        """A request touched ``regions``: promote each to the hot pool, in order.

        Handles both first-touch promotion off an inactive list and the
        recall of a previously offloaded Pucket page (which the swap
        layer has already faulted back in). ``remote_ids`` holds the ids
        that were remote before the request, which tells a true remote
        recall from an aborted in-flight offload. An already-hot region
        stays put: the hot pool shares no region with any Pucket's
        inactive or offloaded set. Untracked regions (exec regions,
        unsealed split-off slices) are skipped.
        """
        hot = self.hot_pool._entries
        runtime, init = self.runtime_pucket, self.init_pucket
        runtime_inactive, runtime_offloaded = runtime._inactive, runtime._offloaded
        init_inactive, init_offloaded = init._inactive, init._offloaded
        recall_counts = self.recall_counts
        traced = self.tracer is not None
        for region in regions:
            region_id = region.region_id
            if region_id in hot:
                continue
            if runtime_inactive.pop(region_id, None) is not None:
                pucket, src = runtime, "inactive"
            elif runtime_offloaded.pop(region_id, None) is not None:
                pucket, src = runtime, "offloaded"
            elif init_inactive.pop(region_id, None) is not None:
                pucket, src = init, "inactive"
            elif init_offloaded.pop(region_id, None) is not None:
                pucket, src = init, "offloaded"
            else:
                continue
            if src == "offloaded" and region_id in remote_ids:
                recall_counts[pucket.name] += 1
            hot[region_id] = (region, pucket)
            if traced:
                self._emit_move(EventKind.PUCKET_PROMOTE, pucket, region, src)

    def on_freed(self, region: PageRegion) -> None:
        """Forget a freed region everywhere."""
        if self.tracer is not None:
            src = self._placement_of(region)
            if src is not None:
                self.tracer.emit(
                    EventKind.PUCKET_FORGET,
                    self.cgroup.name,
                    region=region.region_id,
                    src=src,
                )
        self.runtime_pucket.forget(region)
        self.init_pucket.forget(region)
        self.hot_pool.discard(region)

    # ------------------------------------------------------------------
    # Offload bookkeeping
    # ------------------------------------------------------------------

    def offload_candidates(self, pucket: Pucket) -> List[PageRegion]:
        """Local, still-inactive members of ``pucket``."""
        return [region for region in pucket.inactive_regions if region.is_local]

    def note_offload(self, region: PageRegion) -> None:
        """Record that ``region`` has been sent to the pool."""
        for pucket in (self.runtime_pucket, self.init_pucket):
            if pucket.contains_inactive(region):
                pucket.note_offloaded(region)
                self._emit_move(EventKind.PUCKET_DEMOTE, pucket, region, "inactive")
                return
        if self.hot_pool.discard(region):
            # A hot page offloaded by semi-warm: remember its origin as
            # its segment Pucket so a recall is attributed correctly.
            origin = (
                self.runtime_pucket
                if region.segment is Segment.RUNTIME
                else self.init_pucket
            )
            origin.note_offloaded(region)
            self._emit_move(EventKind.PUCKET_DEMOTE, origin, region, "hot")

    # ------------------------------------------------------------------
    # Rollback (§5.3)
    # ------------------------------------------------------------------

    def roll_back_hot_pool(self, now: float) -> float:
        """Return every hot-pool page to its origin Pucket.

        Returns the modelled rollback cost (Fig. 15 bottom).
        """
        pages = self.hot_pool.pages
        entries = self.hot_pool.entries()
        for region, origin in entries:
            origin.add_inactive(region)
        self.hot_pool.clear()
        self.cgroup.mglru.new_generation(now, label="rollback")
        if self.tracer is not None:
            self.tracer.emit(
                EventKind.PUCKET_ROLLBACK,
                self.cgroup.name,
                regions=[region.region_id for region, _ in entries],
                pages=pages,
            )
        cost = self.config.rollback_base_s + pages * self.config.rollback_per_page_s
        self.overhead.rollback_samples_s.append(cost)
        return cost

    # ------------------------------------------------------------------
    # Trace emission
    # ------------------------------------------------------------------

    def _emit_seal(self, pucket: Pucket, now: float) -> None:
        if self.tracer is None:
            return
        regions = pucket.inactive_regions
        self.tracer.emit(
            EventKind.PUCKET_SEAL,
            self.cgroup.name,
            pucket=pucket.name,
            barrier_time=now,
            regions=[region.region_id for region in regions],
            pages=sum(region.pages for region in regions),
        )

    def _emit_move(
        self, kind: EventKind, pucket: Pucket, region: PageRegion, src: str
    ) -> None:
        if self.tracer is None:
            return
        self.tracer.emit(
            kind,
            self.cgroup.name,
            pucket=pucket.name,
            region=region.region_id,
            pages=region.pages,
            src=src,
        )

    def _placement_of(self, region: PageRegion) -> Optional[str]:
        """Which tracked set currently holds ``region``, if any."""
        for pucket in (self.runtime_pucket, self.init_pucket):
            if pucket.contains_inactive(region):
                return "inactive"
            if pucket.contains_offloaded(region):
                return "offloaded"
        if region in self.hot_pool:
            return "hot"
        return None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def local_resident_pages(self) -> int:
        """Local pages under Pucket/hot-pool management."""
        return (
            self.runtime_pucket.inactive_pages
            + self.init_pucket.inactive_pages
            + self.hot_pool.pages
        )
