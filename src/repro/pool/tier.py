"""The memory pool: a hierarchical, sharded pool of memory nodes.

The paper's memory pool is one flat RDMA node; its §9 discussion (and
the memory-pool architectures it targets) assume richer topologies. A
:class:`TierTopology` describes a hierarchy below local DRAM — by
convention tier 1 is a CXL-style near pool (sub-µs fault, high
bandwidth, small capacity) and tier 2 the familiar 56 Gbps Fastswap
far pool — where each tier is sharded across multiple pool nodes.
Pages stripe deterministically across a tier's shards by region id,
and every shard is a capacity-checked :class:`PoolShard` behind its
own contended :class:`~repro.pool.link.Link`. The paper's single
memory node is the degenerate one-tier, one-shard topology
(:meth:`TierTopology.flat`), which every platform builds by default.

:class:`TieredPool` aggregates the shards (``used_pages``,
``peak_pages``, ``average_mib`` …) for platform summaries and the
invariant auditor. The routing logic lives in
:class:`repro.pool.fastswap.Fastswap`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.errors import CapacityError
from repro.metrics.timeweighted import TimeWeightedAccumulator
from repro.pool.link import Link, LinkConfig
from repro.units import mib_from_pages, pages_from_mib


@dataclass
class TierSpec:
    """One tier of the hierarchy.

    ``capacity_mib`` and ``link`` of ``None`` inherit the platform's
    ``pool_capacity_mib`` and link config, which is how the degenerate
    one-tier/one-shard topology is the paper's single memory node.
    ``capacity_mib`` is the whole tier's capacity, split evenly across
    its shards.
    """

    name: str
    capacity_mib: Optional[float] = None
    shards: int = 1
    link: Optional[LinkConfig] = None

    def validate(self) -> None:
        if self.shards < 1:
            raise CapacityError(
                f"tier {self.name!r} needs at least one shard, got {self.shards}"
            )
        if self.capacity_mib is not None and self.capacity_mib <= 0:
            raise CapacityError(
                f"tier {self.name!r} capacity must be positive, got "
                f"{self.capacity_mib}"
            )


@dataclass
class TierTopology:
    """The full pool hierarchy plus its migration policy knobs.

    Tiers are ordered nearest first; tier levels are 1-based (tier 0
    is local DRAM). ``demote_after_s`` is the cold barrier: a page
    resident in a non-bottom tier longer than this without a recall is
    migrated one tier down by the background demotion daemon.
    ``far_direct_age_s`` (when set) sends pages whose last access is
    at least that old straight to the bottom tier at offload time —
    the page-temperature half of tier selection.
    """

    tiers: List[TierSpec] = field(default_factory=list)
    demote_after_s: float = 60.0
    demote_tick_s: float = 5.0
    demote_batch_mib: float = 64.0
    far_direct_age_s: Optional[float] = None

    def validate(self) -> None:
        if not self.tiers:
            raise CapacityError("topology needs at least one tier")
        for spec in self.tiers:
            spec.validate()
        if self.demote_after_s < 0:
            raise CapacityError(
                f"demote_after_s must be non-negative, got {self.demote_after_s}"
            )
        if self.demote_tick_s <= 0:
            raise CapacityError(
                f"demote_tick_s must be positive, got {self.demote_tick_s}"
            )
        if self.demote_batch_mib <= 0:
            raise CapacityError(
                f"demote_batch_mib must be positive, got {self.demote_batch_mib}"
            )

    @property
    def degenerate(self) -> bool:
        """One tier, one shard: the single-node (flat) pool."""
        return len(self.tiers) == 1 and self.tiers[0].shards == 1

    @classmethod
    def flat(cls) -> "TierTopology":
        """The paper's single memory node (the platform default)."""
        return cls(tiers=[TierSpec(name="pool")])

    @classmethod
    def cxl_rdma(
        cls,
        total_capacity_mib: float,
        near_share: float = 0.25,
        near_shards: int = 2,
        far_shards: int = 2,
        demote_after_s: float = 60.0,
        far_direct_age_s: Optional[float] = 300.0,
    ) -> "TierTopology":
        """CXL-near + RDMA-far hierarchy at a given total capacity."""
        if not 0.0 < near_share < 1.0:
            raise CapacityError(
                f"near_share must be in (0, 1), got {near_share}"
            )
        near_mib = total_capacity_mib * near_share
        far_mib = total_capacity_mib - near_mib
        return cls(
            tiers=[
                TierSpec(
                    name="cxl-near",
                    capacity_mib=near_mib,
                    shards=near_shards,
                    link=LinkConfig.cxl(),
                ),
                TierSpec(
                    name="rdma-far",
                    capacity_mib=far_mib,
                    shards=far_shards,
                    link=LinkConfig.infiniband_fdr(),
                ),
            ],
            demote_after_s=demote_after_s,
            far_direct_age_s=far_direct_age_s,
        )


class PoolShard:
    """One pool node: an integer page store behind its own link.

    Only exact counters live here; the time-weighted occupancy that
    summaries read is kept once, on the aggregate :class:`TieredPool`.
    """

    def __init__(
        self,
        level: int,
        index: int,
        capacity_mib: float,
        link_config: LinkConfig,
        name: str,
        link_name: str = "",
    ) -> None:
        if capacity_mib <= 0:
            raise CapacityError(f"capacity must be positive, got {capacity_mib}")
        self.level = level
        self.index = index
        self.name = name
        self.capacity_pages = pages_from_mib(capacity_mib)
        self.link = Link(link_config, name=link_name)
        self.used_pages = 0
        # Cumulative pages destroyed by pool-node crashes (repro.faults).
        self.lost_pages = 0
        # Pages issued toward this shard whose write-out has not landed
        # yet; tier-pressure spill decisions count them so concurrent
        # in-flight offloads cannot oversubscribe a small near tier.
        self.pending_pages = 0

    @property
    def free_pages(self) -> int:
        return self.capacity_pages - self.used_pages

    def room_for(self, pages: int) -> bool:
        return self.used_pages + self.pending_pages + pages <= self.capacity_pages

    def store(self, pages: int) -> None:
        """Account ``pages`` arriving on this node."""
        if pages < 0:
            raise ValueError(f"pages must be non-negative, got {pages}")
        if self.used_pages + pages > self.capacity_pages:
            raise CapacityError(
                f"pool {self.name} full: {self.used_pages}+{pages} "
                f"> {self.capacity_pages} pages"
            )
        self.used_pages += pages

    def release(self, pages: int) -> None:
        """Account ``pages`` leaving this node (recall, free, demotion)."""
        if pages < 0:
            raise ValueError(f"pages must be non-negative, got {pages}")
        if pages > self.used_pages:
            raise ValueError(
                f"pool {self.name}: releasing {pages} pages but only "
                f"{self.used_pages} stored"
            )
        self.used_pages -= pages

    def drop(self, pages: int) -> None:
        """Account ``pages`` destroyed by a crash of this node.

        Dropped pages never travel back over the link; callers account
        them in ``SwapStats.remote_lost_pages`` so swap conservation
        still balances.
        """
        if pages < 0:
            raise ValueError(f"pages must be non-negative, got {pages}")
        if pages > self.used_pages:
            raise ValueError(
                f"pool {self.name}: dropping {pages} pages but only "
                f"{self.used_pages} stored"
            )
        self.used_pages -= pages
        self.lost_pages += pages


class Tier:
    """An ordered shard group with deterministic page striping."""

    def __init__(self, level: int, name: str, shards: List[PoolShard]) -> None:
        self.level = level
        self.name = name
        self.shards = shards

    def shard_for(self, region_id: int) -> PoolShard:
        """Deterministic stripe: the shard holding a region id's pages."""
        shards = self.shards
        return shards[region_id % len(shards)]

    @property
    def used_pages(self) -> int:
        return sum(shard.used_pages for shard in self.shards)

    @property
    def capacity_pages(self) -> int:
        return sum(shard.capacity_pages for shard in self.shards)

    @property
    def lost_pages(self) -> int:
        return sum(shard.lost_pages for shard in self.shards)


class TieredPool:
    """Every shard of every tier, plus the aggregate occupancy view.

    Exact page counts are the shards' integer counters, summed on read.
    Aggregate occupancy over time lives in one time-weighted
    accumulator (the only one in the pool: summaries read its peak and
    averages, never a shard's); truncating its float value would
    mis-count by a page whenever float error crosses a page boundary,
    so it never serves ``used_pages``. Internal tier-to-tier migrations
    change shard occupancies but not the aggregate.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        topology: TierTopology,
        default_capacity_mib: float,
        default_link: Optional[LinkConfig] = None,
    ) -> None:
        topology.validate()
        self.topology = topology
        self.degenerate = topology.degenerate
        self._clock = clock
        self.tiers: List[Tier] = []
        self._shards: List[PoolShard] = []
        for level, spec in enumerate(topology.tiers, start=1):
            capacity = (
                spec.capacity_mib
                if spec.capacity_mib is not None
                else default_capacity_mib
            )
            per_shard = capacity / spec.shards
            link_config = (
                spec.link if spec.link is not None else (default_link or LinkConfig())
            )
            shards = []
            for j in range(spec.shards):
                if self.degenerate:
                    # The single node keeps the names its pinned traces
                    # carry: pool mempool-0 and an unnamed link.
                    pool_name, link_name = "mempool-0", ""
                else:
                    pool_name = f"{spec.name}-{level}.{j}"
                    link_name = pool_name
                shards.append(
                    PoolShard(level, j, per_shard, link_config, pool_name, link_name)
                )
            self.tiers.append(Tier(level, spec.name, shards))
            self._shards += shards
        self.name = "mempool-0" if self.degenerate else "tiered-pool"
        self.capacity_pages = sum(shard.capacity_pages for shard in self._shards)
        self._usage = TimeWeightedAccumulator(start_time=clock(), value=0.0)

    # ------------------------------------------------------------------
    # Shard addressing
    # ------------------------------------------------------------------

    def all_shards(self) -> List[PoolShard]:
        return list(self._shards)

    def links(self) -> List[Link]:
        return [shard.link for shard in self._shards]

    # ------------------------------------------------------------------
    # Page accounting (called by Fastswap)
    # ------------------------------------------------------------------

    def store(self, shard: PoolShard, pages: int) -> None:
        shard.store(pages)
        self._usage.add(self._clock(), pages)

    def release(self, shard: PoolShard, pages: int) -> None:
        shard.release(pages)
        self._usage.add(self._clock(), -pages)

    def drop(self, shard: PoolShard, pages: int) -> None:
        shard.drop(pages)
        self._usage.add(self._clock(), -pages)

    def migrate(self, src: PoolShard, dst: PoolShard, pages: int) -> None:
        """Move pages between shards; the aggregate does not change."""
        dst.store(pages)
        src.release(pages)

    # ------------------------------------------------------------------
    # Aggregate surface
    # ------------------------------------------------------------------

    @property
    def used_pages(self) -> int:
        return sum(shard.used_pages for shard in self._shards)

    @property
    def lost_pages(self) -> int:
        return sum(shard.lost_pages for shard in self._shards)

    @property
    def used_mib(self) -> float:
        return mib_from_pages(self.used_pages)

    @property
    def free_pages(self) -> int:
        return self.capacity_pages - self.used_pages

    @property
    def peak_pages(self) -> int:
        return int(self._usage.peak)

    def average_pages(self, now: Optional[float] = None) -> float:
        return self._usage.average(now)

    def average_pages_between(self, start: float, end: float) -> float:
        return self._usage.average_between(start, end)

    def average_mib(self, now: Optional[float] = None) -> float:
        return self.average_pages(now) * 4096 / (1024 * 1024)
