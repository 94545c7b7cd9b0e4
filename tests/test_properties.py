"""Cross-cutting property-based tests on core invariants."""

from hypothesis import given, settings, strategies as st

from repro.core import FaaSMemConfig
from repro.core.pucket import ContainerMemoryState
from repro.mem.cgroup import Cgroup
from repro.mem.node import ComputeNode
from repro.mem.page import Segment
from repro.sim.engine import Engine


def fresh_cgroup():
    engine = Engine()
    node = ComputeNode(clock=lambda: engine.now, capacity_mib=1 << 20)
    return engine, node, Cgroup("prop", node, clock=lambda: engine.now)


class TestAccountingInvariants:
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["alloc", "free", "offload", "fetch", "split"]),
                st.integers(min_value=1, max_value=4096),
            ),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_node_pool_conservation_under_any_op_sequence(self, ops):
        """node local pages always equals the sum of local region pages,
        under any interleaving of alloc/free/offload/fetch/split."""
        engine, node, cgroup = fresh_cgroup()
        live = []
        remote_pages = 0
        for index, (op, size) in enumerate(ops):
            if op == "alloc":
                live.append(cgroup.allocate(f"r{index}", Segment.INIT, size))
            elif op == "free" and live:
                region = live.pop(0)
                if region.is_remote:
                    remote_pages -= region.pages
                cgroup.free(region)
            elif op == "offload":
                local = [r for r in live if r.is_local]
                if local:
                    cgroup.mark_offloaded(local[0])
                    remote_pages += local[0].pages
            elif op == "fetch":
                remote = [r for r in live if r.is_remote]
                if remote:
                    cgroup.mark_fetched(remote[0])
                    remote_pages -= remote[0].pages
            elif op == "split":
                splittable = [r for r in live if r.pages > 1]
                if splittable:
                    sibling = cgroup.space.split(
                        splittable[0], splittable[0].pages // 2
                    )
                    live.append(sibling)
            # Invariants hold after every step.
            assert node.local_pages == sum(r.pages for r in live if r.is_local)
            assert cgroup.remote_pages == remote_pages
            assert cgroup.total_pages == sum(r.pages for r in live)

    @given(
        sizes=st.lists(st.integers(min_value=2, max_value=10000), min_size=1, max_size=20)
    )
    @settings(max_examples=40, deadline=None)
    def test_split_never_changes_node_accounting(self, sizes):
        engine, node, cgroup = fresh_cgroup()
        regions = [
            cgroup.allocate(f"r{i}", Segment.INIT, size)
            for i, size in enumerate(sizes)
        ]
        total_before = node.local_pages
        for region in regions:
            while region.pages > 1:
                sibling = cgroup.space.split(region, region.pages // 2)
                if sibling.pages <= 1:
                    break
        assert node.local_pages == total_before


class TestPucketInvariants:
    @given(
        touches=st.lists(st.integers(min_value=0, max_value=9), min_size=0, max_size=40)
    )
    @settings(max_examples=40, deadline=None)
    def test_region_in_exactly_one_place(self, touches):
        """A Pucket page is always in exactly one of: inactive list,
        offloaded set, hot pool — never two, never zero."""
        engine, node, cgroup = fresh_cgroup()
        state = ContainerMemoryState(cgroup, FaaSMemConfig())
        regions = [
            cgroup.allocate(f"runtime/r{i}", Segment.RUNTIME, 4) for i in range(10)
        ]
        state.insert_runtime_init_barrier(0.0)
        state.insert_init_exec_barrier(0.0)
        for step, index in enumerate(touches):
            region = regions[index]
            state.on_touched(region)
            if step % 7 == 3:
                state.roll_back_hot_pool(float(step))
            if step % 11 == 5:
                for victim in state.offload_candidates(state.runtime_pucket):
                    state.note_offload(victim)
            for r in regions:
                places = sum(
                    (
                        state.runtime_pucket.contains_inactive(r),
                        state.runtime_pucket.contains_offloaded(r),
                        r in state.hot_pool,
                    )
                )
                assert places == 1

    @given(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_rollback_empties_hot_pool(self, touches):
        engine, node, cgroup = fresh_cgroup()
        state = ContainerMemoryState(cgroup, FaaSMemConfig())
        regions = [
            cgroup.allocate(f"runtime/r{i}", Segment.RUNTIME, 4) for i in range(5)
        ]
        state.insert_runtime_init_barrier(0.0)
        state.insert_init_exec_barrier(0.0)
        for index in touches:
            state.on_touched(regions[index])
        state.roll_back_hot_pool(1.0)
        assert len(state.hot_pool) == 0
        assert all(state.runtime_pucket.contains_inactive(r) for r in regions)
