"""Randomized-trace invariant tests for core.pucket and core.semiwarm.

Driven by the deterministic property harness in :mod:`tests.proptest`:
random operation sequences against the Pucket state machine (with the
invariant auditor listening to the emitted trace), and random small
workloads through a fully audited platform with semi-warm enabled.
"""

from __future__ import annotations


from repro.core.config import FaaSMemConfig
from repro.core.manager import FaaSMemPolicy
from repro.core.pucket import ContainerMemoryState
from repro.faas import PlatformConfig, ServerlessPlatform
from repro.mem.cgroup import Cgroup
from repro.mem.node import ComputeNode
from repro.mem.page import Segment
from repro.obs.audit import InvariantAuditor
from repro.obs.trace import Tracer
from repro.workloads import get_profile

from tests import proptest as pt


def _placements(state: ContainerMemoryState, region) -> list:
    """Every tracked set currently holding ``region``."""
    found = []
    for pucket in (state.runtime_pucket, state.init_pucket):
        if pucket.contains_inactive(region):
            found.append(f"{pucket.name}:inactive")
        if pucket.contains_offloaded(region):
            found.append(f"{pucket.name}:offloaded")
    if region in state.hot_pool:
        found.append("hot")
    return found


class _Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def tick(self) -> float:
        self.now += 1.0
        return self.now

    def __call__(self) -> float:
        return self.now


def _build_state(n_runtime: int, n_init: int):
    """A sealed ContainerMemoryState with an auditor on its trace."""
    clock = _Clock()
    node = ComputeNode(clock=clock, capacity_mib=1024)
    cgroup = Cgroup("prop-cgroup", node, clock=clock)
    tracer = Tracer(clock=clock)
    auditor = InvariantAuditor().attach(tracer)
    state = ContainerMemoryState(cgroup, FaaSMemConfig(), tracer=tracer)
    regions = [
        cgroup.allocate(f"rt/{i}", Segment.RUNTIME, pages=4) for i in range(n_runtime)
    ]
    clock.tick()
    state.insert_runtime_init_barrier(clock.now)
    regions += [
        cgroup.allocate(f"init/{i}", Segment.INIT, pages=4) for i in range(n_init)
    ]
    clock.tick()
    state.insert_init_exec_barrier(clock.now)
    return clock, state, regions, auditor


# One random op: (kind, region index). Indexes are taken modulo the
# region count so every drawn op applies to some region.
_OPS = pt.lists(
    pt.builds(
        lambda kind, idx: (kind, idx),
        pt.sampled_from(["touch", "recall_touch", "offload", "free", "rollback"]),
        pt.integers(min_value=0, max_value=63),
    ),
    min_size=1,
    max_size=60,
)


class TestPucketPlacementProperty:
    @pt.settings(max_examples=100)
    @pt.given(
        pt.integers(min_value=1, max_value=6),
        pt.integers(min_value=0, max_value=6),
        _OPS,
    )
    def test_region_in_at_most_one_placement(self, n_runtime, n_init, ops):
        """No region is ever simultaneously inactive and offloaded (or
        in two Puckets, or inactive and hot) — after every operation."""
        clock, state, regions, auditor = _build_state(n_runtime, n_init)
        freed = set()
        for kind, idx in ops:
            region = regions[idx % len(regions)]
            clock.tick()
            if kind in ("touch", "recall_touch"):
                state.on_touched(region, was_remote=(kind == "recall_touch"))
            elif kind == "offload":
                state.note_offload(region)
            elif kind == "free":
                state.on_freed(region)
                freed.add(region.region_id)
            elif kind == "rollback":
                state.roll_back_hot_pool(clock.now)
            for other in regions:
                placements = _placements(state, other)
                assert len(placements) <= 1, (
                    f"region {other.region_id} in {placements} after {kind}"
                )
                if other.region_id in freed:
                    assert placements == [], (
                        f"freed region {other.region_id} still in {placements}"
                    )
        assert auditor.clean, auditor.report()

    @pt.settings(max_examples=100)
    @pt.given(pt.integers(min_value=1, max_value=6), _OPS)
    def test_forget_leaves_no_residue(self, n_regions, ops):
        """After freeing every region the state machine is empty."""
        clock, state, regions, auditor = _build_state(n_regions, n_regions)
        for kind, idx in ops:
            region = regions[idx % len(regions)]
            clock.tick()
            if kind in ("touch", "recall_touch"):
                state.on_touched(region, was_remote=(kind == "recall_touch"))
            elif kind == "offload":
                state.note_offload(region)
            elif kind == "free":
                state.on_freed(region)
            elif kind == "rollback":
                state.roll_back_hot_pool(clock.now)
        for region in regions:
            clock.tick()
            state.on_freed(region)
        assert state.runtime_pucket.inactive_regions == []
        assert state.runtime_pucket.offloaded_regions == []
        assert state.init_pucket.inactive_regions == []
        assert state.init_pucket.offloaded_regions == []
        assert len(state.hot_pool) == 0
        assert state.local_resident_pages == 0
        assert auditor.clean, auditor.report()

    @pt.settings(max_examples=100)
    @pt.given(_OPS)
    def test_page_conservation(self, ops):
        """Tracked pages never exceed what the barriers sealed."""
        clock, state, regions, auditor = _build_state(4, 4)
        sealed_pages = sum(region.pages for region in regions)
        for kind, idx in ops:
            region = regions[idx % len(regions)]
            clock.tick()
            if kind in ("touch", "recall_touch"):
                state.on_touched(region)
            elif kind == "offload":
                state.note_offload(region)
            elif kind == "free":
                state.on_freed(region)
            elif kind == "rollback":
                state.roll_back_hot_pool(clock.now)
            tracked = (
                state.local_resident_pages
                + state.runtime_pucket.offloaded_pages
                + state.init_pucket.offloaded_pages
            )
            assert tracked <= sealed_pages
        assert auditor.clean, auditor.report()


class TestSemiWarmRandomizedWorkload:
    """Random small workloads through a fully audited platform."""

    @pt.settings(max_examples=100)
    @pt.given(
        pt.integers(min_value=1, max_value=10_000),
        pt.integers(min_value=2, max_value=8),
        pt.floats(min_value=5.0, max_value=120.0),
    )
    def test_audited_run_is_clean(self, seed, n_requests, gap):
        config = PlatformConfig(seed=seed, keep_alive_s=600.0, audit_events=True)
        policy = FaaSMemPolicy(FaaSMemConfig())
        platform = ServerlessPlatform(policy, config=config)
        platform.register_function("web", get_profile("web"))
        for i in range(n_requests):
            platform.submit("web", at_time=i * gap)
        platform.run()
        assert platform.auditor is not None
        assert platform.auditor.clean, platform.auditor.report()
        assert platform.tracer is not None and platform.tracer.emitted > 0

    @pt.settings(max_examples=100)
    @pt.given(pt.integers(min_value=1, max_value=10_000))
    def test_semiwarm_drain_is_audit_clean(self, seed):
        """Long idle gaps force semi-warm episodes; audit stays clean."""
        config = PlatformConfig(seed=seed, keep_alive_s=3600.0, audit_events=True)
        # A tiny prior makes the semi-warm start timing fire quickly.
        policy = FaaSMemPolicy(FaaSMemConfig(), reuse_priors={"web": [1.0] * 50})
        platform = ServerlessPlatform(policy, config=config)
        platform.register_function("web", get_profile("web"))
        for i in range(3):
            platform.submit("web", at_time=i * 400.0)
        platform.run()
        assert platform.auditor is not None
        assert platform.auditor.clean, platform.auditor.report()
        semiwarm_pages = sum(r.semiwarm_offloaded_pages for r in policy.reports)
        events = [e.kind for e in platform.tracer.snapshot()]
        if semiwarm_pages > 0:
            assert "semiwarm.drain" in events
