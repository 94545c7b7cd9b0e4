"""A Multi-generational LRU (MGLRU) over page regions.

The paper implements a Pucket as a generation of the Linux MGLRU:
creating a generation is how a *time barrier* is inserted, and pages
move from older to newer generations when accessed. This module
reproduces that bookkeeping at region granularity; Pucket semantics
live in :mod:`repro.core.pucket` on top of it.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, List, Optional

from repro.errors import MemoryError_
from repro.mem.page import PageRegion


class Generation:
    """One MGLRU generation: an ordered set of regions."""

    def __init__(self, seq: int, created_at: float, label: str = "") -> None:
        self.seq = seq
        self.created_at = created_at
        self.label = label
        # dict preserves insertion order and gives O(1) removal.
        self._regions: Dict[int, PageRegion] = {}

    def add(self, region: PageRegion) -> None:
        self._regions[region.region_id] = region

    def discard(self, region: PageRegion) -> bool:
        """Remove ``region`` if present; return whether it was present."""
        return self._regions.pop(region.region_id, None) is not None

    def __contains__(self, region: PageRegion) -> bool:
        return region.region_id in self._regions

    def __iter__(self) -> Iterator[PageRegion]:
        return iter(list(self._regions.values()))

    def __len__(self) -> int:
        return len(self._regions)

    @property
    def pages(self) -> int:
        """Total pages across member regions."""
        return sum(region.pages for region in self._regions.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Generation(seq={self.seq}, label={self.label!r}, "
            f"regions={len(self)}, pages={self.pages})"
        )


class MultiGenLru:
    """Generation lists for one cgroup (container).

    New allocations join the youngest generation; an access promotes a
    region to the youngest generation. Creating a new generation seals
    the current one — exactly the primitive FaaSMem uses to build time
    barriers and hot-page rollbacks.
    """

    def __init__(self) -> None:
        self._seq = itertools.count(1)
        self._generations: List[Generation] = []
        self._member: Dict[int, Generation] = {}
        self.new_generation(0.0, label="gen-0")

    # ------------------------------------------------------------------
    # Generation management
    # ------------------------------------------------------------------

    def new_generation(self, now: float, label: str = "") -> Generation:
        """Seal the youngest generation and open a fresh one.

        This is the MGLRU interface the paper uses for inserting a time
        barrier (§7).
        """
        generation = Generation(seq=next(self._seq), created_at=now, label=label)
        self._generations.append(generation)
        return generation

    @property
    def youngest(self) -> Generation:
        return self._generations[-1]

    @property
    def oldest(self) -> Generation:
        return self._generations[0]

    @property
    def generations(self) -> List[Generation]:
        """Oldest-first list of generations (live view, do not mutate)."""
        return self._generations

    def generation_of(self, region: PageRegion) -> Optional[Generation]:
        """The generation currently holding ``region``, if tracked."""
        return self._member.get(region.region_id)

    # ------------------------------------------------------------------
    # Region tracking
    # ------------------------------------------------------------------

    def insert(self, region: PageRegion, generation: Optional[Generation] = None) -> None:
        """Start tracking ``region`` (defaults to the youngest generation)."""
        if region.region_id in self._member:
            raise MemoryError_(f"region {region.name!r} already tracked")
        target = generation if generation is not None else self.youngest
        target.add(region)
        self._member[region.region_id] = target

    def note_access(self, region: PageRegion) -> Optional[Generation]:
        """Promote one accessed region (see :meth:`note_access_many`).

        Returns the generation the region came from, or None when the
        region is not tracked (e.g. a slice split off a tracked region).
        """
        origin = self._member.get(region.region_id)
        self.note_access_many((region,))
        return origin

    def note_access_many(self, regions: Iterable[PageRegion]) -> None:
        """Promote each accessed region to the youngest generation, in order.

        Untracked regions (e.g. slices split off a tracked region) are
        skipped.
        """
        youngest = self._generations[-1]
        young = youngest._regions
        member = self._member
        for region in regions:
            region_id = region.region_id
            origin = member.get(region_id)
            if origin is None or origin is youngest:
                continue
            del origin._regions[region_id]
            young[region_id] = region
            member[region_id] = youngest

    def move(self, region: PageRegion, generation: Generation) -> None:
        """Explicitly move a tracked region to ``generation`` (rollback)."""
        origin = self._member.get(region.region_id)
        if origin is None:
            raise MemoryError_(f"region {region.name!r} is not tracked")
        origin.discard(region)
        generation.add(region)
        self._member[region.region_id] = generation

    def remove(self, region: PageRegion) -> None:
        """Stop tracking ``region`` (freed or offloaded)."""
        origin = self._member.pop(region.region_id, None)
        if origin is not None:
            origin.discard(region)

    def age(self, max_generations: int = 4) -> int:
        """Fold the oldest generations together until at most
        ``max_generations`` remain (kernel MGLRU keeps MAX_NR_GENS=4).

        Pucket generations created by time barriers survive as long as
        the policy holds references to their regions; aging only
        merges the *oldest* generations, which is what the kernel's
        aging path does between barrier insertions. Returns the number
        of merges performed.
        """
        if max_generations < 1:
            raise MemoryError_(f"need at least one generation, got {max_generations}")
        merges = 0
        while len(self._generations) > max_generations:
            oldest = self._generations.pop(0)
            target = self._generations[0]
            for region in oldest:
                target.add(region)
                self._member[region.region_id] = target
            merges += 1
        return merges

    def tracked(self, region: PageRegion) -> bool:
        return region.region_id in self._member

    @property
    def tracked_pages(self) -> int:
        """Pages across all tracked regions."""
        return sum(gen.pages for gen in self._generations)

    def __len__(self) -> int:
        return len(self._member)
