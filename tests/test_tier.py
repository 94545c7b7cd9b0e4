"""Unit tests for the hierarchical, sharded pool (``repro.pool.tier``)."""

from __future__ import annotations

import pytest

from repro.errors import CapacityError
from repro.mem.page import Segment
from repro.pool.link import LinkConfig
from repro.pool.fastswap import Fastswap
from repro.pool.tier import TieredPool, TierSpec, TierTopology
from repro.units import pages_from_mib


def _two_tier(
    engine,
    near_mib=2.0,
    far_mib=64.0,
    near_shards=1,
    far_shards=1,
    **knobs,
) -> Fastswap:
    topology = TierTopology(
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
        **knobs,
    )
    pool = TieredPool(lambda: engine.now, topology, default_capacity_mib=64.0)
    return Fastswap(engine, pool)


class TestTopology:
    def test_empty_topology_rejected(self):
        with pytest.raises(CapacityError):
            TierTopology(tiers=[]).validate()

    def test_bad_shards_rejected(self):
        with pytest.raises(CapacityError):
            TierTopology(tiers=[TierSpec(name="t", shards=0)]).validate()

    def test_bad_capacity_rejected(self):
        with pytest.raises(CapacityError):
            TierTopology(tiers=[TierSpec(name="t", capacity_mib=-1.0)]).validate()

    def test_bad_near_share_rejected(self):
        with pytest.raises(CapacityError):
            TierTopology.cxl_rdma(1024.0, near_share=1.0)

    def test_cxl_rdma_conserves_total_capacity(self):
        topo = TierTopology.cxl_rdma(1024.0, near_share=0.25)
        assert topo.tiers[0].capacity_mib + topo.tiers[1].capacity_mib == 1024.0
        assert topo.tiers[0].name == "cxl-near"
        assert topo.tiers[1].name == "rdma-far"
        assert not topo.degenerate

    def test_degenerate_inherits_platform_defaults(self, engine):
        pool = TieredPool(
            lambda: engine.now, TierTopology.flat(), default_capacity_mib=128.0
        )
        assert pool.degenerate
        assert pool.capacity_pages == pages_from_mib(128.0)
        assert pool.name == "mempool-0"
        assert pool.tiers[0].shards[0].link.name == ""


class TestTieredPool:
    def test_shard_names_and_capacity_split(self, engine):
        fastswap = _two_tier(engine, near_mib=2.0, near_shards=2)
        near = fastswap.pool.tiers[0]
        assert [s.name for s in near.shards] == ["cxl-near-1.0", "cxl-near-1.1"]
        assert all(s.capacity_pages == pages_from_mib(1.0) for s in near.shards)

    def test_aggregate_tracks_store_release_drop(self, engine):
        fastswap = _two_tier(engine)
        pool = fastswap.pool
        near, far = pool.tiers[0].shards[0], pool.tiers[1].shards[0]
        pool.store(near, 100)
        pool.store(far, 50)
        assert pool.used_pages == 150
        pool.release(far, 20)
        assert pool.used_pages == 130
        pool.drop(near, 100)
        assert pool.used_pages == 30
        assert pool.lost_pages == 100
        assert near.lost_pages == 100

    def test_migrate_moves_shards_not_aggregate(self, engine):
        pool = _two_tier(engine).pool
        near, far = pool.tiers[0].shards[0], pool.tiers[1].shards[0]
        pool.store(near, 64)
        pool.migrate(near, far, 64)
        assert pool.tiers[0].used_pages == 0
        assert pool.tiers[1].used_pages == 64
        assert pool.used_pages == 64

    def test_striping_is_region_id_modulo_shards(self, engine):
        fastswap = _two_tier(engine, far_shards=3)
        far = fastswap.pool.tiers[1]
        assert [far.shard_for(region_id).index for region_id in range(6)] == [
            0, 1, 2, 0, 1, 2,
        ]


class TestRoutingAndSpill:
    def test_default_offload_lands_near(self, engine, cgroup):
        fastswap = _two_tier(engine)
        region = cgroup.allocate("a", Segment.INIT, 256)
        fastswap.offload(cgroup, [region])
        # Bounded run: a full drain would also age the page past the
        # demotion barrier and migrate it far.
        engine.run(until=1.0)
        assert region.is_remote
        assert fastswap.pool.tiers[0].used_pages == 256
        assert fastswap.tier_stats[1].placed == 256
        assert fastswap.tier_stats[2].placed == 0

    def test_far_hint_skips_the_near_tier(self, engine, cgroup):
        fastswap = _two_tier(engine)
        region = cgroup.allocate("a", Segment.INIT, 256)
        fastswap.offload(cgroup, [region], tier_hint="far")
        engine.run()
        assert fastswap.pool.tiers[1].used_pages == 256
        assert fastswap.tier_stats[2].placed == 256

    def test_cold_page_goes_far_directly(self, engine, cgroup):
        fastswap = _two_tier(engine, far_direct_age_s=300.0)
        region = cgroup.allocate("a", Segment.INIT, 256)
        cgroup.touch(region)
        engine.run(until=400.0)  # idle well past the temperature bar
        fastswap.offload(cgroup, [region])
        engine.run()
        assert fastswap.pool.tiers[1].used_pages == 256

    def test_full_near_shard_spills_one_level_down(self, engine, cgroup):
        # Near tier holds 256 pages; the second region cannot fit and
        # must spill to the far tier, counted once per level crossed.
        fastswap = _two_tier(engine, near_mib=1.0)
        first = cgroup.allocate("a", Segment.INIT, 256)
        second = cgroup.allocate("b", Segment.INIT, 256)
        fastswap.offload(cgroup, [first, second])
        engine.run(until=1.0)  # bounded: before the demotion barrier
        assert fastswap.pool.tiers[0].used_pages == 256
        assert fastswap.pool.tiers[1].used_pages == 256
        assert fastswap.tier_stats[1].spills == 1

    def test_spill_counts_inflight_pages(self, engine, cgroup):
        # Both offloads are issued before either write-out lands, so
        # only pending-page accounting can prevent oversubscription.
        fastswap = _two_tier(engine, near_mib=1.0)
        first = cgroup.allocate("a", Segment.INIT, 200)
        second = cgroup.allocate("b", Segment.INIT, 200)
        fastswap.offload(cgroup, [first])
        fastswap.offload(cgroup, [second])
        engine.run(until=1.0)  # bounded: before the demotion barrier
        assert fastswap.pool.tiers[0].used_pages == 200
        assert fastswap.pool.tiers[1].used_pages == 200

    def test_recall_promotes_from_whichever_tier(self, engine, cgroup):
        fastswap = _two_tier(engine)
        region = cgroup.allocate("a", Segment.INIT, 256)
        fastswap.offload(cgroup, [region], tier_hint="far")
        engine.run()
        stall = fastswap.fault(cgroup, [region])
        assert stall > 0
        assert region.is_local
        assert fastswap.pool.used_pages == 0
        assert fastswap.tier_stats[2].recalled == 256
        assert fastswap.tier_stats[2].resident == 0


class TestDemotionDaemon:
    def test_cold_near_pages_demote_past_the_barrier(self, engine, cgroup):
        fastswap = _two_tier(engine, demote_after_s=10.0, demote_tick_s=1.0)
        region = cgroup.allocate("a", Segment.INIT, 256)
        fastswap.offload(cgroup, [region])
        engine.run()  # daemon arms, waits out the barrier, demotes, stops
        assert fastswap.demotions == 1
        assert fastswap.pool.tiers[0].used_pages == 0
        assert fastswap.pool.tiers[1].used_pages == 256
        assert fastswap.tier_stats[1].demoted_out == 256
        assert fastswap.tier_stats[2].demoted_in == 256
        assert fastswap._daemon is None  # self-terminated: engine drained

    def test_demotion_respects_batch_budget(self, engine, cgroup):
        fastswap = _two_tier(
            engine,
            near_mib=8.0,
            demote_after_s=10.0,
            demote_tick_s=1.0,
            demote_batch_mib=1.0,
        )
        regions = [
            cgroup.allocate(f"r{i}", Segment.INIT, 256) for i in range(3)
        ]
        fastswap.offload(cgroup, regions)
        engine.run(until=10.5)  # exactly the first ripe tick
        assert fastswap.demotions == 1  # 1 MiB budget = one 256-page region
        engine.run()
        assert fastswap.demotions == 3

    def test_demotion_is_oldest_first(self, engine, cgroup):
        fastswap = _two_tier(
            engine,
            near_mib=8.0,
            demote_after_s=10.0,
            demote_tick_s=1.0,
            demote_batch_mib=1.0,
        )
        old = cgroup.allocate("old", Segment.INIT, 256)
        fastswap.offload(cgroup, [old])
        engine.run(until=5.0)
        young = cgroup.allocate("young", Segment.INIT, 256)
        fastswap.offload(cgroup, [young])
        engine.run(until=11.5)
        assert fastswap.demotions == 1
        far_residents = fastswap.regions_on_shard(cgroup, fastswap.pool.tiers[1].shards[0])
        assert [r.name for r in far_residents] == ["old"]

    def test_conservation_identity_per_tier(self, engine, cgroup):
        fastswap = _two_tier(engine, demote_after_s=10.0, demote_tick_s=1.0)
        regions = [
            cgroup.allocate(f"r{i}", Segment.INIT, 128) for i in range(4)
        ]
        fastswap.offload(cgroup, regions)
        engine.run()
        fastswap.fault(cgroup, regions[:1])
        cgroup.free(regions[1])
        engine.run()
        for tier in fastswap.pool.tiers:
            ledger = fastswap.tier_stats[tier.level]
            assert ledger.resident == tier.used_pages
