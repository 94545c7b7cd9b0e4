"""Unit tests for the memory pool and the Fastswap datapath."""

import pytest

from repro.errors import CapacityError, MemoryError_
from repro.mem.page import Segment
from repro.pool.fastswap import Fastswap, FastswapConfig
from repro.pool.link import LinkConfig
from repro.pool.tier import PoolShard, TieredPool, TierTopology


def _node(pool):
    """The single memory node of a one-tier, one-shard pool."""
    (shard,) = pool.all_shards()
    return shard


class TestRemotePool:
    """The memory pool: exact aggregate counts over checked shards."""

    def test_store_and_release(self, pool):
        shard = _node(pool)
        pool.store(shard, 100)
        assert pool.used_pages == shard.used_pages == 100
        pool.release(shard, 60)
        assert pool.used_pages == shard.used_pages == 40

    def test_capacity_enforced(self):
        shard = PoolShard(1, 0, 1, LinkConfig(), "node")
        with pytest.raises(CapacityError):
            shard.store(shard.capacity_pages + 1)
        shard.store(shard.capacity_pages)
        assert shard.free_pages == 0
        with pytest.raises(CapacityError):
            PoolShard(1, 0, 0, LinkConfig(), "empty")

    def test_release_more_than_stored_rejected(self, pool):
        shard = _node(pool)
        pool.store(shard, 5)
        with pytest.raises(ValueError):
            shard.release(6)
        with pytest.raises(ValueError):
            pool.release(shard, 6)
        assert pool.used_pages == shard.used_pages == 5

    def test_negative_rejected(self, pool):
        shard = _node(pool)
        for method in (shard.store, shard.release, shard.drop):
            with pytest.raises(ValueError):
                method(-1)
        with pytest.raises(ValueError):
            pool.store(shard, -1)
        assert pool.used_pages == shard.used_pages == 0

    def test_average_usage(self, engine, pool):
        pool.store(_node(pool), 100)
        engine.run(until=10.0)
        assert pool.average_pages(10.0) == pytest.approx(100.0)

    def test_used_pages_exact_at_fractional_time_boundaries(self):
        # Regression: used_pages used to be read back as
        # int(self._usage.value), so any float residue in the
        # time-weighted accumulator truncated the count by a page.
        now = [0.0]
        pool = TieredPool(lambda: now[0], TierTopology.flat(), default_capacity_mib=64)
        shard = _node(pool)
        expected = 0
        for _ in range(1000):
            now[0] += 0.1  # not exactly representable in binary
            pool.store(shard, 3)
            expected += 3
            now[0] += 0.1
            pool.release(shard, 1)
            expected -= 1
            assert pool.used_pages == expected
        assert isinstance(pool.used_pages, int)
        assert pool.free_pages == pool.capacity_pages - expected
        # The accumulator only serves averages/peaks; nudge it below the
        # true count and the authoritative counter must not move, while
        # the old truncating readout visibly mis-counts.
        pool._usage.add(now[0], -1e-9)
        assert pool.used_pages == expected
        assert int(pool._usage.value) == expected - 1


class TestOffload:
    def test_offload_moves_region_remote(self, engine, cgroup, fastswap):
        fastswap.attach(cgroup)
        r = cgroup.allocate("a", Segment.INIT, 256)
        fastswap.offload(cgroup, [r])
        engine.run()
        assert r.is_remote
        assert fastswap.pool.used_pages == 256
        assert fastswap.stats.offloaded_pages == 256

    def test_offload_is_asynchronous(self, engine, cgroup, fastswap):
        r = cgroup.allocate("a", Segment.INIT, 256)
        fastswap.offload(cgroup, [r])
        assert r.is_local  # not yet written out
        engine.run()
        assert r.is_remote

    def test_touch_aborts_inflight_offload(self, engine, cgroup, fastswap):
        r = cgroup.allocate("a", Segment.INIT, 256)
        fastswap.offload(cgroup, [r])
        cgroup.touch(r)  # re-dirtied before write-out completes
        engine.run()
        assert r.is_local
        assert fastswap.stats.aborted_offloads == 1
        assert fastswap.pool.used_pages == 0

    def test_freed_region_offload_aborts(self, engine, cgroup, fastswap):
        r = cgroup.allocate("a", Segment.EXEC, 256)
        fastswap.offload(cgroup, [r])
        cgroup.free(r)
        engine.run()
        assert fastswap.stats.offloaded_pages == 0
        assert fastswap.pool.used_pages == 0

    def test_remote_region_skipped(self, engine, cgroup, fastswap):
        r = cgroup.allocate("a", Segment.INIT, 16)
        fastswap.offload(cgroup, [r])
        engine.run()
        fastswap.offload(cgroup, [r])  # second call is a no-op
        engine.run()
        assert fastswap.stats.offloaded_pages == 16


class TestFault:
    def _offloaded_region(self, engine, cgroup, fastswap, pages=256):
        r = cgroup.allocate("a", Segment.INIT, pages)
        fastswap.offload(cgroup, [r])
        engine.run()
        assert r.is_remote
        return r

    def test_fault_brings_region_back(self, engine, cgroup, fastswap):
        r = self._offloaded_region(engine, cgroup, fastswap)
        stall = fastswap.fault(cgroup, [r])
        assert r.is_local
        assert stall > 0
        assert fastswap.pool.used_pages == 0
        assert fastswap.stats.recalled_pages == 256

    def test_fault_local_region_is_free(self, cgroup, fastswap):
        r = cgroup.allocate("a", Segment.INIT, 16)
        assert fastswap.fault(cgroup, [r]) == 0.0

    def test_fault_cpu_share_scales_stall(self, engine, cgroup, fastswap):
        r = self._offloaded_region(engine, cgroup, fastswap)
        full = fastswap.fault(cgroup, [r])
        fastswap.offload(cgroup, [r])
        # Leave the access count untouched so the offload completes.
        engine.run()
        throttled = fastswap.fault(cgroup, [r], cpu_share=0.1)
        # CPU component is 10x; wire time is similar.
        assert throttled > full

    def test_fault_freed_rejected(self, engine, cgroup, fastswap):
        r = self._offloaded_region(engine, cgroup, fastswap)
        fastswap.attach(cgroup)
        cgroup.free(r)
        with pytest.raises(MemoryError_):
            fastswap.fault(cgroup, [r])

    def test_invalid_cpu_share_rejected(self, cgroup, fastswap):
        with pytest.raises(MemoryError_):
            fastswap.fault(cgroup, [], cpu_share=0.0)

    def test_fault_cpu_cost_model(self, engine, cgroup, fastswap):
        config = FastswapConfig(fault_cpu_per_page_s=1e-5)
        swap = Fastswap(engine, fastswap.pool, config)
        r = cgroup.allocate("a", Segment.INIT, 100)
        swap.offload(cgroup, [r])
        engine.run()
        stall = swap.fault(cgroup, [r], cpu_share=0.5)
        # CPU part alone: 100 pages * 1e-5 / 0.5 = 2 ms.
        assert stall >= 100 * 1e-5 / 0.5


class TestSwapStatsConservation:
    """Regression tests for the SwapStats conservation identity:
    offloaded == recalled + remote_freed + remote-resident (pool usage)."""

    def test_identity_through_full_lifecycle(self, engine, cgroup, fastswap):
        fastswap.attach(cgroup)
        a = cgroup.allocate("a", Segment.INIT, 100)
        b = cgroup.allocate("b", Segment.INIT, 50)
        fastswap.offload(cgroup, [a, b])
        engine.run()
        fastswap.stats.check_conservation(fastswap.pool.used_pages)
        assert fastswap.stats.remote_resident_pages == 150
        fastswap.fault(cgroup, [a])
        fastswap.stats.check_conservation(fastswap.pool.used_pages)
        assert fastswap.stats.remote_resident_pages == 50
        cgroup.free(b)
        fastswap.stats.check_conservation(fastswap.pool.used_pages)
        assert fastswap.stats.remote_freed_pages == 50
        assert fastswap.stats.remote_resident_pages == 0

    def test_aborted_offload_leaves_identity_intact(self, engine, cgroup, fastswap):
        r = cgroup.allocate("a", Segment.INIT, 64)
        fastswap.offload(cgroup, [r])
        cgroup.touch(r)  # abort: re-dirtied in flight
        engine.run()
        assert fastswap.stats.aborted_offloads == 1
        assert fastswap.stats.offloaded_pages == 0
        fastswap.stats.check_conservation(fastswap.pool.used_pages)

    def test_split_in_flight_offload_aborts(self, engine, cgroup, fastswap):
        """A region split (partially cancelled) while its write-out is
        in flight must abort, not account mismatched page counts."""
        r = cgroup.allocate("a", Segment.INIT, 100)
        fastswap.offload(cgroup, [r])
        sibling = cgroup.space.split(r, 40)  # shrink r to 60 pages mid-flight
        engine.run()
        assert fastswap.stats.aborted_offloads == 1
        assert fastswap.stats.offloaded_pages == 0
        assert r.is_local and sibling.is_local
        assert fastswap.pool.used_pages == 0
        fastswap.stats.check_conservation(fastswap.pool.used_pages)

    def test_counters_monotone_and_never_negative(self, engine, cgroup, fastswap):
        fastswap.attach(cgroup)
        regions = [
            cgroup.allocate(f"r{i}", Segment.INIT, 10 + i) for i in range(6)
        ]
        fastswap.offload(cgroup, regions)
        engine.run()
        fastswap.fault(cgroup, regions[:3])
        cgroup.free(regions[3])
        fastswap.offload(cgroup, regions[:2])
        engine.run()
        stats = fastswap.stats
        for name in (
            "offloaded_pages",
            "recalled_pages",
            "remote_freed_pages",
            "aborted_offloads",
            "offload_ops",
            "fault_ops",
        ):
            assert getattr(stats, name) >= 0
        stats.check_conservation(fastswap.pool.used_pages)

    def test_check_conservation_rejects_negative_counter(self, fastswap):
        fastswap.stats.recalled_pages = -1
        with pytest.raises(MemoryError_):
            fastswap.stats.check_conservation(0)

    def test_check_conservation_rejects_overdrawn_balance(self, fastswap):
        fastswap.stats.offloaded_pages = 10
        fastswap.stats.recalled_pages = 20
        with pytest.raises(MemoryError_):
            fastswap.stats.check_conservation(0)

    def test_check_conservation_rejects_pool_mismatch(self, fastswap):
        fastswap.stats.offloaded_pages = 10
        with pytest.raises(MemoryError_):
            fastswap.stats.check_conservation(0)


class TestPoolFullAbort:
    """An offload completing against a pool that filled up mid-flight
    must bounce cleanly (aborted, pages stay local), not raise."""

    def _small_pool_swap(self, engine):
        pool = TieredPool(
            lambda: engine.now, TierTopology.flat(), default_capacity_mib=2
        )  # 512 pages
        return pool, Fastswap(engine, pool)

    def test_pool_full_mid_flight_aborts(self, engine, node):
        from repro.mem.cgroup import Cgroup

        pool, swap = self._small_pool_swap(engine)
        cgroup = Cgroup("cg", node, clock=lambda: engine.now)
        r = cgroup.allocate("a", Segment.INIT, 400)
        swap.offload(cgroup, [r])
        # A competing store fills the pool before the write-out lands.
        pool.store(_node(pool), 300)
        engine.run()
        assert r.is_local
        assert swap.stats.aborted_offloads == 1
        assert swap.stats.offloaded_pages == 0
        assert pool.used_pages == 300
        swap.stats.check_conservation(pool.used_pages - 300)

    def test_exact_fit_still_lands(self, engine, node):
        from repro.mem.cgroup import Cgroup

        pool, swap = self._small_pool_swap(engine)
        cgroup = Cgroup("cg", node, clock=lambda: engine.now)
        r = cgroup.allocate("a", Segment.INIT, 212)
        swap.offload(cgroup, [r])
        pool.store(_node(pool), 300)  # leaves exactly 212 free
        engine.run()
        assert r.is_remote
        assert swap.stats.aborted_offloads == 0
        assert pool.used_pages == 512


class TestLostPages:
    """Pool-crash accounting: drop() and declare_lost() keep the
    conservation identity intact with a remote_lost term."""

    def test_drop_counts_lost_pages(self, pool):
        shard = _node(pool)
        pool.store(shard, 100)
        pool.drop(shard, 40)
        assert pool.used_pages == shard.used_pages == 60
        assert pool.lost_pages == shard.lost_pages == 40

    def test_drop_more_than_stored_rejected(self, pool):
        shard = _node(pool)
        pool.store(shard, 5)
        with pytest.raises(ValueError):
            shard.drop(6)
        with pytest.raises(ValueError):
            pool.drop(shard, 6)
        assert pool.lost_pages == shard.lost_pages == 0

    def test_declare_lost_then_free_skips_release(self, engine, cgroup, fastswap):
        fastswap.attach(cgroup)
        r = cgroup.allocate("a", Segment.INIT, 128)
        fastswap.offload(cgroup, [r])
        engine.run()
        lost = fastswap.declare_lost(cgroup, [r])
        fastswap.pool.drop(_node(fastswap.pool), lost)
        assert lost == 128
        assert fastswap.stats.remote_lost_pages == 128
        fastswap.stats.check_conservation(fastswap.pool.used_pages)
        cgroup.free(r)  # must not release pool pages a second time
        assert fastswap.stats.remote_freed_pages == 0
        fastswap.stats.check_conservation(fastswap.pool.used_pages)

    def test_fault_on_lost_region_rematerializes_locally(
        self, engine, cgroup, fastswap
    ):
        fastswap.attach(cgroup)
        r = cgroup.allocate("a", Segment.INIT, 64)
        fastswap.offload(cgroup, [r])
        engine.run()
        fastswap.pool.drop(_node(fastswap.pool), fastswap.declare_lost(cgroup, [r]))
        stall = fastswap.fault(cgroup, [r])
        assert r.is_local
        assert stall == 0.0  # no wire transfer: the image was lost
        assert fastswap.stats.recalled_pages == 0
        fastswap.stats.check_conservation(fastswap.pool.used_pages)

    def test_declare_lost_skips_local_and_freed(self, engine, cgroup, fastswap):
        fastswap.attach(cgroup)
        local = cgroup.allocate("a", Segment.INIT, 16)
        assert fastswap.declare_lost(cgroup, [local]) == 0
        assert fastswap.stats.remote_lost_pages == 0

    def test_declare_lost_idempotent(self, engine, cgroup, fastswap):
        fastswap.attach(cgroup)
        r = cgroup.allocate("a", Segment.INIT, 32)
        fastswap.offload(cgroup, [r])
        engine.run()
        first = fastswap.declare_lost(cgroup, [r])
        second = fastswap.declare_lost(cgroup, [r])
        assert first == 32 and second == 0
        assert fastswap.stats.remote_lost_pages == 32


class TestAttachment:
    def test_freeing_remote_region_releases_pool(self, engine, cgroup, fastswap):
        fastswap.attach(cgroup)
        r = cgroup.allocate("a", Segment.INIT, 128)
        fastswap.offload(cgroup, [r])
        engine.run()
        assert fastswap.pool.used_pages == 128
        cgroup.free(r)
        assert fastswap.pool.used_pages == 0
