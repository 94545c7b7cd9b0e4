"""Tiering composed with fault injection and the pressure governor.

The fault layer and the governor were written against the flat pool;
these tests pin down that they compose with the hierarchy unchanged:
a pool crash hits exactly one (tier, shard) domain and orphaned
invocations re-dispatch, and governor/semi-warm traffic that exhausts
the starved near tier spills one legal step down to the far tier —
all with the invariant auditor online.
"""

from __future__ import annotations

import pytest

from repro.core import FaaSMemPolicy
from repro.experiments.common import make_reuse_priors
from repro.faas import PlatformConfig, ServerlessPlatform
from repro.faults import POOL_CRASH, FaultSchedule, PointFault
from repro.pool.tier import TierTopology
from repro.pressure import PressureConfig
from repro.traces.azure import sample_function_trace
from repro.workloads import get_profile


def _platform(
    tiers,
    faults=None,
    pressure=None,
    benchmark="web",
    seed=5,
    duration=600.0,
    **config_kwargs,
):
    trace = sample_function_trace("high", duration=duration, seed=seed)
    priors = make_reuse_priors(
        trace, benchmark, exec_time_s=get_profile(benchmark).exec_time_s
    )
    platform = ServerlessPlatform(
        FaaSMemPolicy(reuse_priors=priors),
        config=PlatformConfig(
            seed=seed,
            audit_events=True,
            tiers=tiers,
            faults=faults,
            pressure=pressure,
            **config_kwargs,
        ),
    )
    platform.register_function(benchmark, get_profile(benchmark))
    return platform, trace


def _run(platform, trace, benchmark="web"):
    platform.run_trace((t, benchmark) for t in trace.timestamps)
    assert platform.auditor is not None
    assert platform.auditor.clean, platform.auditor.report()
    return platform


def _topology(**kwargs):
    defaults = dict(
        total_capacity_mib=2048.0,
        near_share=0.25,
        near_shards=2,
        far_shards=2,
        demote_after_s=30.0,
    )
    defaults.update(kwargs)
    return TierTopology.cxl_rdma(**defaults)


class _PinnedRng:
    """Deterministic stand-in for the injector's domain draw."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.draws = 0

    def integers(self, low: int, high: int) -> int:
        assert low <= self.index < high
        self.draws += 1
        return self.index


class TestPoolCrashComposition:
    @pytest.fixture(scope="class")
    def near_crashed(self):
        # Semi-warm drains park pages in the near tier; a long demotion
        # barrier keeps them there, and the pinned draw crashes exactly
        # near shard 0 — pool.all_shards() orders tier 1 shards first.
        # 104.55 lands just after a seeded arrival, mid-execution, so
        # the victim container is busy and its invocation is orphaned.
        schedule = FaultSchedule(points=[PointFault(POOL_CRASH, 104.55)])
        platform, trace = _platform(
            _topology(demote_after_s=3600.0), faults=schedule
        )
        platform.fault_injector.rng = _PinnedRng(0)
        return _run(platform, trace), trace

    def test_audit_clean_and_all_served(self, near_crashed):
        platform, trace = near_crashed
        assert platform.auditor.clean
        assert len(platform.records) == trace.count

    def test_only_the_near_shard_lost_pages(self, near_crashed):
        platform, _ = near_crashed
        assert platform.fault_injector.rng.draws == 1
        near, far = platform.pool.tiers
        assert near.shards[0].lost_pages > 0
        assert near.shards[1].lost_pages == 0
        assert all(shard.lost_pages == 0 for shard in far.shards)
        assert platform.fastswap.tier_stats[1].lost == near.lost_pages
        assert platform.fastswap.tier_stats[2].lost == 0

    def test_orphans_redispatch_and_conservation_balances(self, near_crashed):
        platform, _ = near_crashed
        stats = platform.fault_injector.stats
        assert stats.pool_crashes == 1
        assert stats.containers_crashed > 0
        assert stats.invocations_redispatched > 0
        assert any(r.restarts > 0 for r in platform.records)
        # Lost pages re-fault from scratch: the flat conservation law
        # and the per-tier ledgers both still balance.
        platform.fastswap.stats.check_conservation(platform.pool.used_pages)
        for tier in platform.pool.tiers:
            ledger = platform.fastswap.tier_stats[tier.level]
            assert ledger.resident == tier.used_pages


class TestGovernorComposition:
    def test_pressure_reclaim_spills_audited(self):
        # A starved near tier (1% of a small pool) on a tight node:
        # governor reclaim and semi-warm drains both target the near
        # tier, exhaust it, and must spill one legal step down. The
        # auditor checks every tier.spill online and the per-tier
        # conservation identity at finalize.
        topology = _topology(
            total_capacity_mib=1024.0, near_share=0.01, near_shards=1
        )
        platform, trace = _platform(
            topology,
            pressure=PressureConfig(),
            duration=900.0,
            node_capacity_mib=4096.0,
        )
        _run(platform, trace)
        fastswap = platform.fastswap
        assert platform.governor is not None
        assert fastswap.tier_stats[1].spills > 0
        for tier in platform.pool.tiers:
            assert fastswap.tier_stats[tier.level].resident == tier.used_pages

    def test_spills_are_one_step_in_the_trace(self):
        from repro.obs import runtime as obs

        topology = _topology(
            total_capacity_mib=1024.0, near_share=0.01, near_shards=1
        )
        obs.reset_sessions()
        obs.enable(trace=True, audit=False)
        try:
            platform, trace = _platform(topology, duration=600.0)
            platform.run_trace((t, "web") for t in trace.timestamps)
            spills = [
                e for e in platform.tracer.events if e.kind == "tier.spill"
            ]
            assert spills, "starved near tier produced no spills"
            assert all(
                e.data["to_tier"] == e.data["from_tier"] + 1 for e in spills
            )
        finally:
            obs.disable()
            obs.reset_sessions()
