"""Unit tests for Puckets, the hot page pool and time barriers."""

import pytest

from repro.core.config import FaaSMemConfig
from repro.core.pucket import ContainerMemoryState, HotPagePool, Pucket
from repro.errors import PolicyError
from repro.mem.page import Segment


@pytest.fixture
def state(cgroup):
    return ContainerMemoryState(cgroup, FaaSMemConfig())


class TestPucket:
    def test_inactive_membership(self, cgroup):
        pucket = Pucket("runtime", Segment.RUNTIME)
        region = cgroup.allocate("a", Segment.RUNTIME, 8)
        pucket.add_inactive(region)
        assert pucket.contains_inactive(region)
        assert pucket.inactive_pages == 8
        assert pucket.take(region) == "inactive"
        assert pucket.take(region) is None

    def test_offloaded_tracking(self, cgroup):
        pucket = Pucket("init", Segment.INIT)
        region = cgroup.allocate("a", Segment.INIT, 8)
        pucket.add_inactive(region)
        pucket.note_offloaded(region)
        assert not pucket.contains_inactive(region)
        assert pucket.contains_offloaded(region)
        assert pucket.offloaded_pages == 8
        assert pucket.take(region) == "offloaded"
        assert not pucket.contains_offloaded(region)

    def test_forget_clears_both(self, cgroup):
        pucket = Pucket("init", Segment.INIT)
        region = cgroup.allocate("a", Segment.INIT, 8)
        pucket.add_inactive(region)
        pucket.forget(region)
        assert not pucket.contains_inactive(region)


class TestHotPagePool:
    def test_add_discard(self, cgroup):
        pool = HotPagePool()
        pucket = Pucket("init", Segment.INIT)
        region = cgroup.allocate("a", Segment.INIT, 8)
        pool.add(region, pucket)
        assert region in pool
        assert pool.pages == 8
        assert pool.discard(region)
        assert not pool.discard(region)

    def test_entries_remember_origin(self, cgroup):
        pool = HotPagePool()
        pucket = Pucket("runtime", Segment.RUNTIME)
        region = cgroup.allocate("a", Segment.RUNTIME, 8)
        pool.add(region, pucket)
        [(entry_region, origin)] = pool.entries()
        assert entry_region is region and origin is pucket

    def test_clear(self, cgroup):
        pool = HotPagePool()
        pool.add(cgroup.allocate("a", Segment.INIT, 8), Pucket("init", Segment.INIT))
        pool.clear()
        assert len(pool) == 0


class TestBarriers:
    def test_runtime_barrier_captures_runtime_segment(self, cgroup, state):
        runtime = cgroup.allocate("runtime/hot", Segment.RUNTIME, 100)
        cost = state.insert_runtime_init_barrier(now=1.0)
        assert state.runtime_pucket.contains_inactive(runtime)
        assert cost > 0
        assert state.overhead.runtime_init_barrier_s == cost

    def test_init_barrier_captures_init_segment(self, cgroup, state):
        cgroup.allocate("runtime/hot", Segment.RUNTIME, 10)
        state.insert_runtime_init_barrier(now=1.0)
        init = cgroup.allocate("init/hot", Segment.INIT, 50)
        state.insert_init_exec_barrier(now=2.0)
        assert state.init_pucket.contains_inactive(init)
        assert not state.runtime_pucket.contains_inactive(init)

    def test_init_barrier_twice_rejected(self, cgroup, state):
        state.insert_init_exec_barrier(now=1.0)
        with pytest.raises(PolicyError):
            state.insert_init_exec_barrier(now=2.0)

    def test_barrier_cost_scales_with_pages(self, cgroup, engine, node):
        small_state = ContainerMemoryState(cgroup, FaaSMemConfig())
        cgroup.allocate("a", Segment.RUNTIME, 100)
        small_cost = small_state.insert_runtime_init_barrier(0.0)

        from repro.mem.cgroup import Cgroup

        big_cgroup = Cgroup("big", node, clock=lambda: engine.now)
        big_state = ContainerMemoryState(big_cgroup, FaaSMemConfig())
        big_cgroup.allocate("a", Segment.RUNTIME, 100000)
        big_cost = big_state.insert_runtime_init_barrier(0.0)
        assert big_cost > small_cost

    def test_barrier_creates_mglru_generation(self, cgroup, state):
        generations_before = len(cgroup.mglru.generations)
        state.insert_runtime_init_barrier(now=1.0)
        assert len(cgroup.mglru.generations) == generations_before + 1


class TestTouchFlow:
    def _prepared(self, cgroup, state):
        runtime = cgroup.allocate("runtime/hot", Segment.RUNTIME, 10)
        state.insert_runtime_init_barrier(now=0.0)
        init = cgroup.allocate("init/hot", Segment.INIT, 20)
        state.insert_init_exec_barrier(now=0.0)
        return runtime, init

    def test_touch_promotes_to_hot_pool(self, cgroup, state):
        runtime, _ = self._prepared(cgroup, state)
        state.on_touched(runtime)
        assert runtime in state.hot_pool
        assert not state.runtime_pucket.contains_inactive(runtime)

    def test_touch_offloaded_counts_recall(self, cgroup, state):
        runtime, _ = self._prepared(cgroup, state)
        state.runtime_pucket.note_offloaded(runtime)
        state.on_touched(runtime, was_remote=True)
        assert state.recall_counts["runtime"] == 1
        assert runtime in state.hot_pool

    def test_aborted_offload_touch_not_a_recall(self, cgroup, state):
        runtime, _ = self._prepared(cgroup, state)
        state.runtime_pucket.note_offloaded(runtime)
        state.on_touched(runtime, was_remote=False)
        assert state.recall_counts["runtime"] == 0
        assert runtime in state.hot_pool

    def test_touch_exec_region_ignored(self, cgroup, state):
        self._prepared(cgroup, state)
        scratch = cgroup.allocate("exec", Segment.EXEC, 5)
        state.on_touched(scratch)
        assert scratch not in state.hot_pool

    def test_offload_candidates_are_local_inactive(self, cgroup, state):
        runtime, init = self._prepared(cgroup, state)
        state.on_touched(init)  # init becomes hot
        candidates = state.offload_candidates(state.init_pucket)
        assert candidates == []
        candidates = state.offload_candidates(state.runtime_pucket)
        assert candidates == [runtime]

    def test_note_offload_moves_to_offloaded(self, cgroup, state):
        runtime, _ = self._prepared(cgroup, state)
        state.note_offload(runtime)
        assert state.runtime_pucket.contains_offloaded(runtime)

    def test_note_offload_hot_pool_region_attributed_by_segment(self, cgroup, state):
        _, init = self._prepared(cgroup, state)
        state.on_touched(init)
        state.note_offload(init)
        assert state.init_pucket.contains_offloaded(init)
        assert init not in state.hot_pool


class TestRollback:
    def test_rollback_returns_hot_pages_to_origin(self, cgroup, state):
        runtime = cgroup.allocate("runtime/hot", Segment.RUNTIME, 10)
        state.insert_runtime_init_barrier(now=0.0)
        init = cgroup.allocate("init/hot", Segment.INIT, 20)
        state.insert_init_exec_barrier(now=0.0)
        state.on_touched(runtime)
        state.on_touched(init)
        cost = state.roll_back_hot_pool(now=5.0)
        assert cost > 0
        assert state.runtime_pucket.contains_inactive(runtime)
        assert state.init_pucket.contains_inactive(init)
        assert len(state.hot_pool) == 0
        assert state.overhead.rollback_samples_s == [cost]

    def test_rollback_cost_scales_with_hot_pages(self, cgroup, state):
        a = cgroup.allocate("runtime/hot", Segment.RUNTIME, 10)
        state.insert_runtime_init_barrier(now=0.0)
        state.insert_init_exec_barrier(now=0.0)
        state.on_touched(a)
        small = state.roll_back_hot_pool(now=1.0)
        big_region = cgroup.allocate("init/big", Segment.INIT, 100000)
        state.init_pucket.add_inactive(big_region)
        state.on_touched(big_region)
        big = state.roll_back_hot_pool(now=2.0)
        assert big > small

    def test_local_resident_pages(self, cgroup, state):
        runtime = cgroup.allocate("runtime/hot", Segment.RUNTIME, 10)
        state.insert_runtime_init_barrier(now=0.0)
        state.insert_init_exec_barrier(now=0.0)
        assert state.local_resident_pages == 10
        state.on_touched(runtime)
        assert state.local_resident_pages == 10  # moved, not dropped
