"""Per-container address space split into lifecycle segments."""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from types import MappingProxyType
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import MemoryError_
from repro.mem.page import Location, PageRegion, Segment, skip_region_id

RegionCallback = Callable[[PageRegion], None]

_LOCAL = Location.LOCAL
# The segments whose local regions the age index orders (TMO's
# candidates); exec scratch dies with its request and is only charged.
_AGED = frozenset((Segment.RUNTIME, Segment.INIT))
# The age heap is dropped, to be rebuilt from the local buckets on the
# next read, once it holds more than twice its candidates plus this.
_AGE_HEAP_SLACK = 64
# What :meth:`AddressSpace.family` returns for a family with no members.
_NO_MEMBERS: Mapping[int, PageRegion] = MappingProxyType({})


def _age_key(region: PageRegion) -> Tuple[float, int]:
    """A region's age-index entry: ``(last_access or -1.0, region_id)``."""
    last = region.last_access
    return (-1.0 if last is None else last, region.region_id)


class AddressSpace:
    """All memory of one container, organised by segment.

    The address space is deliberately policy-agnostic: it tracks which
    regions exist, which are touched, and where they live, and notifies
    observers (cgroup accounting) of allocations and frees. It never
    decides anything.

    It is the only writer of a live region's ``pages`` and
    ``location`` (through :meth:`split` and :meth:`relocate`), so it
    keeps its indexes exact without rescanning: regions by id, by
    ``(name, segment)`` family and by (segment, location) bucket, each
    an insertion-ordered dict, plus page counters per (segment,
    location) and per location. Memory that dies with its request is
    charged to the page counters (:meth:`charge`) and has no region.
    Regions are inserted as they are created, so insertion order is
    ascending ``region_id`` order; only :meth:`relocate` appends an
    older id to a bucket, which marks the bucket for a re-sort on its
    next read.

    :meth:`coldest_local` reads an age index: a min-heap of ``(age,
    region_id)`` entries over the local RUNTIME and INIT regions, where
    ``age`` is ``last_access`` or ``-1.0`` if never touched. It is built
    from the local buckets on the first read, so a space that is never
    asked pays one ``is None`` check per allocate, split, relocate,
    touch batch and free. Once built, an entry is pushed whenever a
    candidate appears or changes age (allocate, split, touch, relocate
    to LOCAL) and never removed eagerly; a read drops the stale ones,
    and a heap grown past twice its candidates plus ``_AGE_HEAP_SLACK``
    is dropped and rebuilt on the next read. This is exact only
    because a live region's ``last_access`` changes only in
    :meth:`allocate` (through :meth:`PageRegion.touch`) and
    :meth:`touch_many`, its ``location`` only through :meth:`relocate`,
    and a sibling is created only through :meth:`split`. Writing
    ``region.last_access`` anywhere else on a live region would make a
    built index stale.

    Accesses arrive a batch at a time (:meth:`touch_many`, one per
    request and owner): the batch is validated whole, then applied in
    order, and the age heap is bounded once after the batch's pushes.
    A touch adds no candidate, so the bound is the same for every push
    of a batch and the heap only grows within it: one check at the end
    drops the heap exactly when a check after some push would have.
    """

    def __init__(self, owner: str = "") -> None:
        self.owner = owner
        self._regions: Dict[int, PageRegion] = {}
        self._families: Dict[Tuple[str, Segment], Dict[int, PageRegion]] = {}
        self._buckets: Dict[Tuple[Segment, Location], Dict[int, PageRegion]] = {
            (segment, location): {} for segment in Segment for location in Location
        }
        # Buckets whose insertion order is no longer id order.
        self._unsorted: Set[Tuple[Segment, Location]] = set()
        self._pages: Dict[Segment, Dict[Location, int]] = {
            segment: {location: 0 for location in Location} for segment in Segment
        }
        self._location_pages: Dict[Location, int] = {location: 0 for location in Location}
        # The candidate buckets of the age index (local RUNTIME, INIT).
        self._aged_local = (
            self._buckets[(Segment.RUNTIME, _LOCAL)],
            self._buckets[(Segment.INIT, _LOCAL)],
        )
        self._age_heap: Optional[List[Tuple[float, int]]] = None
        self.on_alloc: List[RegionCallback] = []
        self.on_free: List[RegionCallback] = []

    # ------------------------------------------------------------------
    # Allocation / deallocation
    # ------------------------------------------------------------------

    def allocate(
        self,
        name: str,
        segment: Segment,
        pages: int,
        now: float,
        touched: bool = True,
    ) -> PageRegion:
        """Allocate a region; newly allocated pages are local.

        ``touched`` mirrors reality: an allocation is normally written
        immediately, which sets its Access bit.
        """
        region = PageRegion(name=name, segment=segment, pages=pages, allocated_at=now)
        if touched:
            region.touch(now)
        self._index(region)
        self._pages[segment][region.location] += region.pages
        self._location_pages[region.location] += region.pages
        if self._age_heap is not None:
            self._push_age(region)
        for callback in self.on_alloc:
            callback(region)
        return region

    def charge(self, segment: Segment, pages: int) -> None:
        """Count ``pages`` local pages in ``segment`` without a region.

        For memory that lives and dies with one request (exec scratch):
        no policy tracks, touches or moves it, so only the page
        counters see it. Draws one region id, as :meth:`allocate` would.
        """
        if pages <= 0:
            raise MemoryError_(f"charge must be at least one page, got {pages}")
        skip_region_id()
        self._pages[segment][_LOCAL] += pages
        self._location_pages[_LOCAL] += pages

    def uncharge(self, segment: Segment, pages: int) -> None:
        """Release ``pages`` local pages of a :meth:`charge` in ``segment``."""
        counts = self._pages[segment]
        if not 0 < pages <= counts[_LOCAL]:
            raise MemoryError_(
                f"uncharge of {pages} pages from {counts[_LOCAL]} local "
                f"{segment.value} pages"
            )
        counts[_LOCAL] -= pages
        self._location_pages[_LOCAL] -= pages

    def split(self, region: PageRegion, pages: int) -> PageRegion:
        """Carve ``pages`` pages off ``region`` into a new live region.

        The sibling inherits name, segment, location and access state
        (see :meth:`PageRegion.split`); no observer is notified, since
        the pages were already accounted with ``region``.
        """
        if region.region_id not in self._regions:
            raise MemoryError_(f"split of unknown region {region.name!r}")
        sibling = region.split(pages)
        self._index(sibling)
        if self._age_heap is not None:
            self._push_age(sibling)
        return sibling

    def relocate(self, region: PageRegion, location: Location) -> None:
        """Move a live region's pages to ``location`` (swap out / in)."""
        if region.region_id not in self._regions:
            raise MemoryError_(f"relocate of unknown region {region.name!r}")
        if region.location is location:
            raise MemoryError_(
                f"region {region.name!r} is already {location.value}"
            )
        region_id = region.region_id
        segment = region.segment
        del self._buckets[(segment, region.location)][region_id]
        bucket = self._buckets[(segment, location)]
        if bucket and region_id < next(reversed(bucket)):
            self._unsorted.add((segment, location))
        bucket[region_id] = region
        counts = self._pages[segment]
        counts[region.location] -= region.pages
        counts[location] += region.pages
        self._location_pages[region.location] -= region.pages
        self._location_pages[location] += region.pages
        region.location = location
        if self._age_heap is not None:
            if location is _LOCAL:
                self._push_age(region)
            else:
                self._bound_age_heap()

    def free(self, region: PageRegion) -> None:
        """Release a region (e.g. init scratch when init finishes)."""
        region_id = region.region_id
        if region_id not in self._regions:
            raise MemoryError_(f"free of unknown region {region.name!r}")
        del self._regions[region_id]
        del self._buckets[(region.segment, region.location)][region_id]
        family = (region.name, region.segment)
        members = self._families[family]
        del members[region_id]
        if not members:
            del self._families[family]
        self._pages[region.segment][region.location] -= region.pages
        self._location_pages[region.location] -= region.pages
        region.mark_freed()
        if self._age_heap is not None:
            self._bound_age_heap()
        for callback in self.on_free:
            callback(region)

    def free_segment(self, segment: Segment) -> int:
        """Free every region in ``segment``; return pages released."""
        released = 0
        for region in self.regions(segment):
            released += region.pages
            self.free(region)
        return released

    def free_all(self) -> int:
        """Free everything (container reclaim); return pages released."""
        released = 0
        for segment in Segment:
            released += self.free_segment(segment)
        return released

    def _index(self, region: PageRegion) -> None:
        region_id = region.region_id
        self._regions[region_id] = region
        self._buckets[(region.segment, region.location)][region_id] = region
        self._families.setdefault((region.name, region.segment), {})[region_id] = region

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def touch(self, region: PageRegion, now: float) -> None:
        """Record one CPU access to ``region`` (see :meth:`touch_many`)."""
        self.touch_many((region,), now)

    def touch_many(self, regions: Sequence[PageRegion], now: float) -> None:
        """Record one CPU access to each of ``regions``, in order, at ``now``.

        The whole batch is checked before anything changes: a region
        that is freed, unknown to this space or remote raises
        :class:`MemoryError_` and leaves every region as it was.
        Touching a remote region does *not* migrate it — the swap
        datapath (:mod:`repro.pool.fastswap`) owns migration; callers
        fault the region in first and account the latency.
        """
        known = self._regions
        for region in regions:
            if known.get(region.region_id) is not region or region.freed:
                raise MemoryError_(f"touch of unknown or freed region {region.name!r}")
            if region.location is not _LOCAL:
                raise MemoryError_(
                    f"touch of remote region {region.name!r}; fault it in first"
                )
        for region in regions:
            # PageRegion.touch's updates; the freed check is done above.
            region.accessed = True
            region.last_access = now
            region.access_count += 1
        heap = self._age_heap
        if heap is not None:
            for region in regions:
                if region.segment in _AGED:
                    heappush(heap, (now, region.region_id))
            self._bound_age_heap()

    # ------------------------------------------------------------------
    # Age index
    # ------------------------------------------------------------------

    def coldest_local(self, pages: int) -> List[PageRegion]:
        """The coldest local RUNTIME/INIT regions, until they hold ``pages``.

        Regions come coldest first by the unique key ``(last_access``,
        or ``-1.0`` if never touched, ``region_id)``; the last one may
        overshoot ``pages``. Their entries go back into the index: the
        regions stay candidates until a write-out actually relocates
        them.
        """
        heap = self._age_heap
        if heap is None:
            heap = self._age_heap = [
                _age_key(region) for bucket in self._aged_local for region in bucket.values()
            ]
            heapify(heap)
        regions = self._regions
        coldest: List[PageRegion] = []
        entries: List[Tuple[float, int]] = []
        taken = 0
        while heap and taken < pages:
            entry = heappop(heap)
            region = regions.get(entry[1])
            if region is None or region.location is not _LOCAL or _age_key(region) != entry:
                continue  # stale: freed, remote, or touched since
            if coldest and coldest[-1] is region:
                continue  # a repeated entry pops right after its twin
            coldest.append(region)
            entries.append(entry)
            taken += region.pages
        for entry in entries:
            heappush(heap, entry)
        return coldest

    def _push_age(self, region: PageRegion) -> None:
        """Index ``region``'s current age if it is a candidate."""
        if region.segment in _AGED and region.location is _LOCAL:
            heappush(self._age_heap, _age_key(region))
            self._bound_age_heap()

    def _bound_age_heap(self) -> None:
        """Drop an age heap grown past its bound; the next read rebuilds it."""
        runtime, init = self._aged_local
        if len(self._age_heap) > 2 * (len(runtime) + len(init)) + _AGE_HEAP_SLACK:
            self._age_heap = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def regions(
        self,
        segment: Optional[Segment] = None,
        location: Optional[Location] = None,
    ) -> Iterator[PageRegion]:
        """Iterate live regions in ascending id order.

        Optionally restricted to one segment and/or one location.
        Iterates a snapshot, so callers may allocate, split, relocate
        or free while iterating.
        """
        if segment is None and location is None:
            return iter(list(self._regions.values()))
        segments = Segment if segment is None else (segment,)
        locations = Location if location is None else (location,)
        found = [
            region
            for each in segments
            for where in locations
            for region in self._bucket(each, where)
        ]
        if len(segments) * len(locations) > 1:
            # Merge the buckets' sorted runs back into id order.
            found.sort(key=lambda region: region.region_id)
        return iter(found)

    def _bucket(self, segment: Segment, location: Location) -> List[PageRegion]:
        """Snapshot of one (segment, location) bucket in id order."""
        key = (segment, location)
        bucket = self._buckets[key]
        if key in self._unsorted:
            self._unsorted.discard(key)
            ordered = sorted(bucket.items())
            bucket.clear()
            bucket.update(ordered)
        return list(bucket.values())

    def get(self, region_id: int) -> PageRegion:
        """Look a region up by id."""
        try:
            return self._regions[region_id]
        except KeyError:
            raise MemoryError_(f"no region with id {region_id}") from None

    def family(self, name: str, segment: Segment) -> Mapping[int, PageRegion]:
        """The live regions named ``name`` in ``segment``, by id in id order.

        A live view of the index, not a copy: read it before the space
        changes again, and never write to it. More than one member
        means the region was split into slices.
        """
        return self._families.get((name, segment), _NO_MEMBERS)

    def find(self, name: str, segment: Optional[Segment] = None) -> List[PageRegion]:
        """Return live regions whose name matches exactly, in id order."""
        if segment is not None:
            return list(self.family(name, segment).values())
        found = [
            region for each in Segment for region in self.family(name, each).values()
        ]
        found.sort(key=lambda region: region.region_id)
        return found

    def family_size(self, name: str, segment: Segment) -> int:
        """Number of live regions named ``name`` in ``segment``."""
        return len(self.family(name, segment))

    def pages(
        self,
        segment: Optional[Segment] = None,
        location: Optional[Location] = None,
    ) -> int:
        """Total pages, optionally filtered by segment and location."""
        segments = Segment if segment is None else (segment,)
        locations = Location if location is None else (location,)
        return sum(self._pages[each][where] for each in segments for where in locations)

    @property
    def local_pages(self) -> int:
        """Pages currently resident in node DRAM."""
        return self._location_pages[Location.LOCAL]

    @property
    def remote_pages(self) -> int:
        """Pages currently offloaded to the pool."""
        return self._location_pages[Location.REMOTE]

    @property
    def total_pages(self) -> int:
        """All live pages regardless of location."""
        pages = self._location_pages
        return pages[Location.LOCAL] + pages[Location.REMOTE]

    def __len__(self) -> int:
        return len(self._regions)

    def __contains__(self, region: PageRegion) -> bool:
        return region.region_id in self._regions


def total_pages(regions: Iterable[PageRegion]) -> int:
    """Sum the page counts of an iterable of regions."""
    return sum(region.pages for region in regions)
