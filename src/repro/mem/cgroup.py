"""Per-container cgroup: address space + MGLRU + node accounting.

The cgroup is the glue the kernel provides for free: it keeps the
node-level resident counter in sync with allocations, frees, page
charges, offloads and fetches, and feeds accesses into the MGLRU
generation lists.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.mem.address_space import AddressSpace
from repro.mem.mglru import MultiGenLru
from repro.mem.node import ComputeNode
from repro.mem.page import Location, PageRegion, Segment


class Cgroup:
    """One container's memory control group."""

    def __init__(
        self,
        name: str,
        node: ComputeNode,
        clock: Callable[[], float],
    ) -> None:
        self.name = name
        self.node = node
        self._clock = clock
        self.space = AddressSpace(owner=name)
        self.mglru = MultiGenLru()
        # memory.high analogue: while a pressure governor holds the
        # node in a degraded tier it shrinks this below the quota, and
        # allocations over it pay a quadratic delay ramp. None = no
        # throttle (the default).
        self.memory_high_pages: Optional[int] = None
        self.throttle_events = 0
        # Fired when a remote region is freed, so the swap layer can
        # release pool pages; wired up by Fastswap at attach time.
        self.on_remote_freed: List[Callable[[PageRegion], None]] = []
        self.space.on_alloc.append(self._handle_alloc)
        self.space.on_free.append(self._handle_free)

    # ------------------------------------------------------------------
    # Allocation / access API used by containers
    # ------------------------------------------------------------------

    def allocate(self, name: str, segment: Segment, pages: int) -> PageRegion:
        """Allocate a local region and account it on the node."""
        return self.space.allocate(name, segment, pages, now=self._clock())

    def charge(self, segment: Segment, pages: int) -> None:
        """Account ``pages`` request-lived local pages (exec scratch).

        The node sees them as it would an allocation, direct reclaim and
        low-watermark wake-up included, but no region, MGLRU entry or
        family entry is created.
        """
        self.space.charge(segment, pages)
        self.node.add_local(pages, owner=self.name)

    def uncharge(self, segment: Segment, pages: int) -> None:
        """Release pages accounted by :meth:`charge`."""
        self.space.uncharge(segment, pages)
        self.node.sub_local(pages)

    def touch(self, region: PageRegion) -> None:
        """Record one access (see :meth:`touch_many`)."""
        self.touch_many((region,))

    def touch_many(self, regions: Sequence[PageRegion]) -> None:
        """Record one access to each region, in order, at one clock read.

        Remote regions must be fetched first: a remote, freed or
        foreign region in the batch raises ``MemoryError_`` before
        any region or generation changes.
        """
        self.space.touch_many(regions, self._clock())
        self.mglru.note_access_many(regions)

    def free(self, region: PageRegion) -> None:
        self.space.free(region)

    def free_all(self) -> int:
        """Release the whole cgroup (container reclaim)."""
        return self.space.free_all()

    # ------------------------------------------------------------------
    # Location transitions, driven by the swap datapath
    # ------------------------------------------------------------------

    def mark_offloaded(self, region: PageRegion) -> None:
        """Flip a local region to REMOTE and fix up accounting."""
        self.space.relocate(region, Location.REMOTE)
        self.node.sub_local(region.pages)
        # An offloaded page leaves the LRU; it re-enters on swap-in.
        self.mglru.remove(region)

    def mark_fetched(self, region: PageRegion) -> None:
        """Flip a remote region back to LOCAL and fix up accounting."""
        self.space.relocate(region, Location.LOCAL)
        self.node.add_local(region.pages, owner=self.name)
        self.mglru.insert(region)

    def throttle_delay(self, ramp_s: float, max_delay_s: float) -> float:
        """memory.high overage penalty: quadratic delay ramp.

        Zero when no throttle is set or the cgroup is within its
        shrunk quota; otherwise ``ramp * (overage_fraction)^2`` capped
        at ``max_delay_s``, mirroring the kernel's allocation-throttle
        curve.
        """
        if self.memory_high_pages is None or self.memory_high_pages <= 0:
            return 0.0
        over = self.local_pages - self.memory_high_pages
        if over <= 0:
            return 0.0
        self.throttle_events += 1
        overage = over / self.memory_high_pages
        return min(max_delay_s, ramp_s * overage * overage)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def local_pages(self) -> int:
        return self.space.local_pages

    @property
    def remote_pages(self) -> int:
        return self.space.remote_pages

    @property
    def total_pages(self) -> int:
        return self.space.total_pages

    def remote_regions(self, segment: Optional[Segment] = None) -> List[PageRegion]:
        return list(self.space.regions(segment, Location.REMOTE))

    def local_regions(self, segment: Optional[Segment] = None) -> List[PageRegion]:
        return list(self.space.regions(segment, Location.LOCAL))

    # ------------------------------------------------------------------
    # Observer plumbing
    # ------------------------------------------------------------------

    def _handle_alloc(self, region: PageRegion) -> None:
        self.node.add_local(region.pages, owner=self.name)
        self.mglru.insert(region)

    def _handle_free(self, region: PageRegion) -> None:
        if region.is_local:
            self.node.sub_local(region.pages)
            self.mglru.remove(region)
        else:
            for callback in self.on_remote_freed:
                callback(region)
