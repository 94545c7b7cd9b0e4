"""Unit tests for cgroup accounting and the compute node."""

import pytest

from repro.errors import CapacityError, MemoryError_
from repro.mem.cgroup import Cgroup
from repro.mem.node import ComputeNode
from repro.mem.page import Segment


class TestComputeNode:
    def test_add_and_sub(self, node):
        node.add_local(100)
        assert node.local_pages == 100
        node.sub_local(40)
        assert node.local_pages == 60

    def test_free_pages(self, node):
        node.add_local(100)
        assert node.free_pages == node.capacity_pages - 100

    def test_sub_more_than_resident_rejected(self, node):
        node.add_local(10)
        with pytest.raises(ValueError):
            node.sub_local(11)

    def test_negative_rejected(self, node):
        with pytest.raises(ValueError):
            node.add_local(-1)
        with pytest.raises(ValueError):
            node.sub_local(-1)

    def test_strict_capacity(self, engine):
        node = ComputeNode(clock=lambda: engine.now, capacity_mib=1, strict=True)
        with pytest.raises(CapacityError):
            node.add_local(node.capacity_pages + 1)

    def test_nonstrict_allows_overcommit(self, node):
        node.add_local(node.capacity_pages + 10)
        assert node.local_pages == node.capacity_pages + 10

    def test_time_weighted_average(self, engine, node):
        node.add_local(100)
        engine.run(until=10.0)
        node.sub_local(100)
        engine.run(until=20.0)
        assert node.average_pages(20.0) == pytest.approx(50.0)

    def test_windowed_average(self, engine, node):
        node.add_local(100)
        engine.run(until=10.0)
        node.sub_local(100)
        engine.run(until=20.0)
        assert node.average_pages_between(0.0, 10.0) == pytest.approx(100.0)
        assert node.average_pages_between(10.0, 20.0) == pytest.approx(0.0)

    def test_peak_tracking(self, engine, node):
        node.add_local(100)
        node.sub_local(50)
        assert node.peak_pages == 100

    def test_invalid_capacity_rejected(self, engine):
        with pytest.raises(CapacityError):
            ComputeNode(clock=lambda: engine.now, capacity_mib=0)


class TestCgroup:
    def test_allocate_accounts_on_node(self, cgroup, node):
        cgroup.allocate("a", Segment.INIT, 64)
        assert node.local_pages == 64
        assert cgroup.local_pages == 64

    def test_allocate_inserts_into_mglru(self, cgroup):
        r = cgroup.allocate("a", Segment.INIT, 8)
        assert cgroup.mglru.tracked(r)

    def test_free_releases_node_pages(self, cgroup, node):
        r = cgroup.allocate("a", Segment.EXEC, 64)
        cgroup.free(r)
        assert node.local_pages == 0
        assert not cgroup.mglru.tracked(r)

    def test_touch_promotes_to_youngest_generation(self, cgroup):
        r = cgroup.allocate("a", Segment.INIT, 8)
        old = cgroup.mglru.generation_of(r)
        cgroup.mglru.new_generation(1.0)
        cgroup.touch(r)
        assert cgroup.mglru.generation_of(r) is cgroup.mglru.youngest
        assert cgroup.mglru.youngest is not old
        assert r.access_count == 2  # allocation write + this touch

    def test_touch_remote_rejected(self, cgroup):
        r = cgroup.allocate("a", Segment.INIT, 8)
        cgroup.mark_offloaded(r)
        with pytest.raises(MemoryError_):
            cgroup.touch(r)

    def test_mark_offloaded_moves_accounting(self, cgroup, node):
        r = cgroup.allocate("a", Segment.INIT, 64)
        cgroup.mark_offloaded(r)
        assert node.local_pages == 0
        assert cgroup.remote_pages == 64
        assert cgroup.local_pages == 0
        assert not cgroup.mglru.tracked(r)

    def test_double_offload_rejected(self, cgroup):
        r = cgroup.allocate("a", Segment.INIT, 8)
        cgroup.mark_offloaded(r)
        with pytest.raises(MemoryError_):
            cgroup.mark_offloaded(r)

    def test_mark_fetched_restores(self, cgroup, node):
        r = cgroup.allocate("a", Segment.INIT, 64)
        cgroup.mark_offloaded(r)
        cgroup.mark_fetched(r)
        assert node.local_pages == 64
        assert r.is_local
        assert cgroup.mglru.tracked(r)

    def test_fetch_local_rejected(self, cgroup):
        r = cgroup.allocate("a", Segment.INIT, 8)
        with pytest.raises(MemoryError_):
            cgroup.mark_fetched(r)

    def test_foreign_region_rejected(self, cgroup, engine, node):
        other = Cgroup("other", node, clock=lambda: engine.now)
        r = other.allocate("a", Segment.INIT, 8)
        with pytest.raises(MemoryError_):
            cgroup.mark_offloaded(r)

    def test_remote_free_fires_callback(self, cgroup):
        released = []
        cgroup.on_remote_freed.append(lambda region: released.append(region.pages))
        r = cgroup.allocate("a", Segment.INIT, 32)
        cgroup.mark_offloaded(r)
        cgroup.free(r)
        assert released == [32]

    def test_free_all_mixed_locations(self, cgroup, node):
        a = cgroup.allocate("a", Segment.INIT, 16)
        cgroup.allocate("b", Segment.RUNTIME, 16)
        cgroup.mark_offloaded(a)
        released = cgroup.free_all()
        assert released == 32
        assert node.local_pages == 0

    def test_region_lists(self, cgroup):
        a = cgroup.allocate("a", Segment.INIT, 16)
        b = cgroup.allocate("b", Segment.INIT, 16)
        cgroup.mark_offloaded(a)
        assert cgroup.remote_regions(Segment.INIT) == [a]
        assert cgroup.local_regions(Segment.INIT) == [b]
