"""Pool-hierarchy reference digests.

Every platform runs the one swap datapath over a :class:`TieredPool`.
With no topology configured it builds the degenerate one-tier,
one-shard pool, which must reproduce the retired flat single-node
pool byte for byte: the single shard inherits the platform's capacity
and link, keeps the pool name ``mempool-0`` and the unnamed link
subject, emits no ``tier.*`` events, never arms the demotion daemon
and draws no random numbers. The flat-path digests below were recorded
on the flat datapath before it was folded into the hierarchy; the two
multi-shard compositions pin runs no ``digest-parity`` entry covers.
"""

from __future__ import annotations

from repro.baselines import NoOffloadPolicy
from repro.context import using
from repro.faas import PlatformConfig, ServerlessPlatform
from repro.faults import POOL_CRASH, FaultSchedule, FaultSpec, PointFault
from repro.obs import runtime as obs
from repro.pool.tier import TieredPool, TierSpec, TierTopology

from tests.test_tier_composition import _PinnedRng, _platform, _run, _topology

# fig12 web/high/300 s on the flat pool (perfbench's pinned sentinel).
FLAT_FIG12_DIGEST = "ea7e6dfbf0a8aa97504ac75bf02f4b43844cc38f4ef27aef2a8ae172ca5b54a7"
# Events the audited FLAT_FIG12_DIGEST run emits over its sessions.
FLAT_FIG12_EVENTS = 2_714
# fig11 with a one-hour reuse history on the flat pool.
FLAT_FIG11_DIGEST = "4f1a91f207a209520e0fd2d3e9936f6c61756ad65ee13629e4bd1a7ab983b951"
# Audited `tiering` quick run under FaultSpec.parse("seed=11,intensity=1").
TIERING_FAULTS_DIGEST = (
    "d7cb3ca9ab6576afd01280ae8f9f74c61b563988d603cfc198331a77293605e3"
)
# test_tier_composition's near_crashed scenario (one near shard lost).
NEAR_CRASHED_DIGEST = (
    "60d3293330c018f8e6904383d6ed965e2dcaa2a69fd06d4f1f899a08d0626bbb"
)


def _digest(runner, audit: bool = False) -> str:
    obs.reset_sessions()
    try:
        with using(trace=True, audit=audit):
            runner()
        assert obs.total_violations() == 0, obs.audit_report()
        return obs.combined_digest()
    finally:
        obs.reset_sessions()


def _run_fig12():
    from repro.experiments import fig12_azure_eval

    fig12_azure_eval.run(benchmarks=["web"], loads=("high",), duration=300.0)


def _run_semiwarm():
    from repro.experiments import fig11_semiwarm_overview

    fig11_semiwarm_overview.run(history_duration=3600.0)


class TestDegenerateHierarchyDifferential:
    def test_fig12_digest_identical(self):
        """The audited sentinel: pinned digest, event count, 0 violations."""
        obs.reset_sessions()
        try:
            with using(trace=True, audit=True):
                _run_fig12()
            sessions = obs.sessions()
            assert all(s.auditor is not None for s in sessions)
            assert obs.combined_digest() == FLAT_FIG12_DIGEST
            assert sum(s.tracer.emitted for s in sessions) == FLAT_FIG12_EVENTS
            assert obs.total_violations() == 0, obs.audit_report()
        finally:
            obs.reset_sessions()

    def test_semiwarm_digest_identical(self):
        assert _digest(_run_semiwarm) == FLAT_FIG11_DIGEST

    def test_differential_is_not_vacuous(self):
        """The default platform builds a one-tier, one-shard pool."""
        platform = ServerlessPlatform(NoOffloadPolicy(), config=PlatformConfig())
        pool = platform.pool
        assert isinstance(pool, TieredPool)
        assert pool.degenerate
        assert len(pool.tiers) == 1 and len(pool.tiers[0].shards) == 1
        assert pool.name == "mempool-0"
        assert pool.tiers[0].shards[0].name == "mempool-0"
        assert platform.pool.links() == [platform.link]
        assert platform.link.name == ""
        assert pool.capacity_pages == pool.tiers[0].shards[0].capacity_pages

    def test_real_hierarchy_does_change_the_stream(self):
        """Sanity check on the instrument: two tiers diverge.

        A genuine CXL+RDMA topology emits ``tier.*`` events and routes
        semi-warm drains over the near link, so its digest cannot match
        the flat run.
        """

        def runner():
            with using(tiers=TierTopology.cxl_rdma(total_capacity_mib=64 * 1024)):
                _run_fig12()

        assert _digest(runner) != FLAT_FIG12_DIGEST

    def test_multi_shard_single_tier_is_not_degenerate(self):
        """Sharding alone already leaves the provable-flat regime."""
        topo = TierTopology(tiers=[TierSpec(name="pool", shards=2)])
        assert not topo.degenerate
        assert TierTopology.flat().degenerate


class TestMultiShardReferenceDigests:
    def test_tiering_under_faults(self):
        from repro.experiments import run_experiment

        def runner():
            with using(faults=FaultSpec.parse("seed=11,intensity=1")):
                run_experiment("tiering", duration=300.0, near_shares=(0.25,))

        assert _digest(runner, audit=True) == TIERING_FAULTS_DIGEST

    def test_near_shard_crash(self):
        schedule = FaultSchedule(points=[PointFault(POOL_CRASH, 104.55)])
        platform, trace = _platform(_topology(demote_after_s=3600.0), faults=schedule)
        platform.fault_injector.rng = _PinnedRng(0)
        _run(platform, trace)
        assert platform.tracer.digest() == NEAR_CRASHED_DIGEST
