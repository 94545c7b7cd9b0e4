"""Unit tests for the per-container address space."""

import pytest

from repro.errors import MemoryError_
from repro.mem.address_space import AddressSpace, total_pages
from repro.mem.page import Location, PageRegion, Segment


@pytest.fixture
def space():
    return AddressSpace(owner="c-1")


class TestAllocate:
    def test_allocate_adds_region(self, space):
        r = space.allocate("a", Segment.INIT, 10, now=0.0)
        assert r in space
        assert space.total_pages == 10

    def test_allocate_touches_by_default(self, space):
        r = space.allocate("a", Segment.INIT, 10, now=5.0)
        assert r.accessed and r.last_access == 5.0

    def test_allocate_untouched(self, space):
        r = space.allocate("a", Segment.INIT, 10, now=5.0, touched=False)
        assert not r.accessed

    def test_alloc_callback_fires(self, space):
        seen = []
        space.on_alloc.append(seen.append)
        r = space.allocate("a", Segment.EXEC, 3, now=0.0)
        assert seen == [r]

    def test_split_skips_callbacks(self, space):
        seen = []
        space.on_alloc.append(seen.append)
        r = space.allocate("a", Segment.INIT, 10, now=0.0)
        sibling = space.split(r, 4)
        assert seen == [r]
        assert space.total_pages == 10  # conserved


class TestFree:
    def test_free_removes_and_marks(self, space):
        r = space.allocate("a", Segment.EXEC, 4, now=0.0)
        space.free(r)
        assert r not in space
        assert r.freed
        assert space.total_pages == 0

    def test_free_unknown_rejected(self, space):
        foreign = PageRegion("x", Segment.INIT, 1)
        with pytest.raises(MemoryError_):
            space.free(foreign)

    def test_free_callback(self, space):
        seen = []
        space.on_free.append(seen.append)
        r = space.allocate("a", Segment.EXEC, 4, now=0.0)
        space.free(r)
        assert seen == [r]

    def test_free_segment(self, space):
        space.allocate("a", Segment.INIT, 4, now=0.0)
        space.allocate("b", Segment.INIT, 6, now=0.0)
        space.allocate("c", Segment.EXEC, 5, now=0.0)
        released = space.free_segment(Segment.INIT)
        assert released == 10
        assert space.total_pages == 5

    def test_free_all(self, space):
        space.allocate("a", Segment.INIT, 4, now=0.0)
        space.allocate("b", Segment.RUNTIME, 6, now=0.0)
        assert space.free_all() == 10
        assert len(space) == 0


class TestTouch:
    def test_touch_counts_access(self, space):
        r = space.allocate("a", Segment.INIT, 4, now=0.0)
        space.touch(r, now=1.0)
        assert r.last_access == 1.0
        assert r.access_count == 2  # alloc + touch

    def test_touch_unknown_rejected(self, space):
        foreign = PageRegion("x", Segment.INIT, 1)
        with pytest.raises(MemoryError_):
            space.touch(foreign, now=0.0)


class TestQueries:
    def test_pages_by_segment_and_location(self, space):
        a = space.allocate("a", Segment.INIT, 4, now=0.0)
        space.allocate("b", Segment.RUNTIME, 6, now=0.0)
        space.relocate(a, Location.REMOTE)
        assert space.pages(Segment.INIT) == 4
        assert space.local_pages == 6
        assert space.remote_pages == 4
        assert space.total_pages == 10

    def test_find_by_name(self, space):
        a = space.allocate("weights", Segment.INIT, 4, now=0.0)
        sibling = space.split(a, 1)
        assert set(space.find("weights")) == {a, sibling}
        assert space.find("weights", Segment.RUNTIME) == []

    def test_get_by_id(self, space):
        r = space.allocate("a", Segment.INIT, 4, now=0.0)
        assert space.get(r.region_id) is r
        with pytest.raises(MemoryError_):
            space.get(999999)

    def test_regions_iteration_order_is_allocation_order(self, space):
        names = ["a", "b", "c"]
        for name in names:
            space.allocate(name, Segment.INIT, 1, now=0.0)
        assert [r.name for r in space.regions()] == names

    def test_total_pages_helper(self, space):
        regions = [
            space.allocate("a", Segment.INIT, 4, now=0.0),
            space.allocate("b", Segment.INIT, 6, now=0.0),
        ]
        assert total_pages(regions) == 10
