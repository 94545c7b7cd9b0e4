"""Page regions: the unit of accounting, access tracking and offload.

A :class:`PageRegion` stands in for a contiguous run of 4 KiB pages
whose pages behave identically — same lifecycle segment, same hotness,
same location (local DRAM or the remote pool). Workload models decide
region granularity: a region may be a single page or a 100 MiB model
weight blob. Policies may :meth:`PageRegion.split` a region when they
need to act on part of it (e.g. gradual semi-warm offload).
"""

from __future__ import annotations

import enum
import itertools
from typing import Optional

from repro.errors import MemoryError_
from repro.units import mib_from_pages

_REGION_IDS = itertools.count(1)


def reset_region_ids() -> None:
    """Restart the region-id sequence.

    Region ids only matter for identity and relative order (sorting
    tiebreaks), both invariant to the counter's starting offset, so a
    reset never changes simulation behaviour. Platforms reset at
    construction so that repeated same-seed runs in one process emit
    byte-identical trace streams.
    """
    global _REGION_IDS
    _REGION_IDS = itertools.count(1)


def skip_region_id() -> None:
    """Consume one region id without creating a region.

    A page charge (:meth:`AddressSpace.charge`) draws one id, as a
    region allocation at the same point would. Pool shards stripe
    pages by ``region_id``, so every later region's id, and with it its
    shard, must not depend on whether exec memory is a region or a
    charge.
    """
    next(_REGION_IDS)


class Segment(enum.Enum):
    """The paper's three-segment serverless memory layout (§3)."""

    RUNTIME = "runtime"
    INIT = "init"
    EXEC = "exec"

    # Members are singletons compared by identity, so identity hashing
    # is exact; Enum's default hashes the name in Python code, which
    # dominated the address space's (segment, location) index updates.
    __hash__ = object.__hash__


class Location(enum.Enum):
    """Where a region's pages currently live."""

    LOCAL = "local"
    REMOTE = "remote"

    __hash__ = object.__hash__  # see Segment


# On CPython 3.11 every class-attribute read on an Enum goes through
# ``EnumType.__getattr__``'s slow path (~90 ns against ~10 ns for a
# module global), and ``is_local``/``is_remote`` run for every touched
# region, so they compare against these instead.
_LOCAL = Location.LOCAL
_REMOTE = Location.REMOTE


class PageRegion:
    """A group of pages with uniform behaviour.

    Attributes:
        name: human-readable label, e.g. ``"bert/weights"``.
        segment: which lifecycle segment allocated the region.
        pages: number of 4 KiB pages in the region.
        location: LOCAL (in node DRAM) or REMOTE (in the pool).
        accessed: the hardware Access bit — set on touch, cleared by
            scans (policies own the clearing).
        last_access: simulated time of the most recent touch.
        access_count: total touches since allocation.
        freed: set once the region is deallocated; a freed region must
            not be touched or moved again.
    """

    __slots__ = (
        "region_id",
        "name",
        "segment",
        "pages",
        "location",
        "accessed",
        "last_access",
        "access_count",
        "allocated_at",
        "freed",
    )

    def __init__(
        self,
        name: str,
        segment: Segment,
        pages: int,
        allocated_at: float = 0.0,
        location: Location = Location.LOCAL,
    ) -> None:
        if pages <= 0:
            raise MemoryError_(f"region must have at least one page, got {pages}")
        self.region_id: int = next(_REGION_IDS)
        self.name = name
        self.segment = segment
        self.pages = int(pages)
        self.location = location
        self.accessed = False
        self.last_access: Optional[float] = None
        self.access_count = 0
        self.allocated_at = allocated_at
        self.freed = False

    @property
    def mib(self) -> float:
        """Region size in MiB."""
        return mib_from_pages(self.pages)

    @property
    def is_local(self) -> bool:
        return self.location is _LOCAL

    @property
    def is_remote(self) -> bool:
        return self.location is _REMOTE

    def touch(self, now: float) -> None:
        """Record a CPU access: set the Access bit and bump counters."""
        if self.freed:
            raise MemoryError_(f"touch on freed region {self.name!r}")
        self.accessed = True
        self.last_access = now
        self.access_count += 1

    def clear_access_bit(self) -> bool:
        """Clear the Access bit; return whether it had been set.

        This mirrors the page-table scan a kernel sampler performs.
        """
        was_set = self.accessed
        self.accessed = False
        return was_set

    def split(self, pages: int) -> "PageRegion":
        """Carve ``pages`` pages off into a new region.

        The new region inherits segment, location and access state;
        ``self`` shrinks accordingly. Used by gradual offloaders that
        move a region to the pool a slice at a time.
        """
        if self.freed:
            raise MemoryError_(f"split on freed region {self.name!r}")
        if not 0 < pages < self.pages:
            raise MemoryError_(
                f"cannot split {pages} pages from a {self.pages}-page region"
            )
        self.pages -= pages
        sibling = PageRegion(
            name=self.name,
            segment=self.segment,
            pages=pages,
            allocated_at=self.allocated_at,
            location=self.location,
        )
        sibling.accessed = self.accessed
        sibling.last_access = self.last_access
        sibling.access_count = self.access_count
        return sibling

    def mark_freed(self) -> None:
        """Flag the region as deallocated."""
        self.freed = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PageRegion(id={self.region_id}, name={self.name!r}, "
            f"segment={self.segment.value}, pages={self.pages}, "
            f"location={self.location.value}, accessed={self.accessed})"
        )
