"""Tiering experiment: near-pool capacity share vs p99 and memory.

Beyond the paper's figures: FaaSMem's pool is one flat RDMA node, but
the §9 discussion (and CXL-era memory-pool architectures generally)
point at a hierarchy — a small, fast CXL-near tier in front of the big
RDMA far tier. This harness fixes the *total* pool capacity and sweeps
how much of it is the near tier, comparing the hierarchy
(:class:`~repro.pool.tier.TierTopology`, sharded per tier) against the
flat pool at the same capacity, under the same paired arrival trace.

The expected shape: memory savings are a property of the offload
policy, not the pool topology, so average local memory stays within a
few percent of flat for every share; p99 improves (or at worst
matches) because semi-warm recalls — the dominant fault source — are
served from the sub-µs CXL tier instead of paying RDMA round-trips,
while the background demotion daemon keeps genuinely cold pages from
squatting in the small near tier. Every run is audited, including the
generalised per-tier swap-conservation law.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from repro.baselines import NoOffloadPolicy
from repro.errors import ExperimentError
from repro.experiments.common import (
    ExperimentResult,
    SweepGrid,
    SweepPoint,
    make_reuse_priors,
)
from repro.core import FaaSMemPolicy
from repro.faas import PlatformConfig, ServerlessPlatform
from repro.pool.tier import TierTopology
from repro.traces import sample_function_trace
from repro.workloads import get_profile


def _run_one(
    benchmark: str,
    trace,
    seed: int,
    pool_capacity_mib: float,
    tiers: Optional[TierTopology],
    offload: bool,
) -> ServerlessPlatform:
    if offload:
        priors = make_reuse_priors(
            trace, benchmark, exec_time_s=get_profile(benchmark).exec_time_s
        )
        policy = FaaSMemPolicy(reuse_priors=priors)
    else:
        policy = NoOffloadPolicy()
    platform = ServerlessPlatform(
        policy,
        config=PlatformConfig(
            seed=seed,
            audit_events=True,
            pool_capacity_mib=pool_capacity_mib,
            tiers=tiers,
        ),
    )
    platform.register_function(benchmark, get_profile(benchmark))
    platform.run_trace((t, benchmark) for t in trace.timestamps)
    assert platform.auditor is not None
    return platform


def _sweep_point(
    system: str,
    share: Optional[float],
    benchmark: str,
    load: str,
    duration: float,
    pool_capacity_mib: float,
    near_shards: int,
    far_shards: int,
    demote_after_s: float,
    far_direct_age_s: Optional[float],
    seed: int,
) -> Dict[str, Any]:
    """One sweep cell: a full platform run reduced to its result row."""
    trace = sample_function_trace(load, duration=duration, seed=seed)
    tiers = None
    if system == "hierarchy":
        tiers = TierTopology.cxl_rdma(
            total_capacity_mib=pool_capacity_mib,
            near_share=share,
            near_shards=near_shards,
            far_shards=far_shards,
            demote_after_s=demote_after_s,
            far_direct_age_s=far_direct_age_s,
        )
    platform = _run_one(
        benchmark,
        trace,
        seed,
        pool_capacity_mib,
        tiers=tiers,
        offload=system != "no_offload",
    )
    summary = platform.summarize(benchmark, load, window=duration)
    breakdown = platform.latency_breakdown()
    fastswap = platform.fastswap
    tier_stats = fastswap.tier_stats
    return {
        "system": system,
        "near_share": "-" if share is None else share,
        "requests": summary.requests,
        "p99_s": round(summary.latency_p99, 4),
        "mean_s": round(summary.latency_mean, 4),
        "fault_stall_ms": round(breakdown["fault_stall_s"] * 1e3, 3),
        "avg_mem_mib": round(summary.memory.average_mib, 2),
        "remote_avg_mib": round(summary.remote_avg_mib, 1),
        # Only the hierarchy has a near tier; the single-node pool's
        # one tier is the far memory node.
        "near_resident_pk": (
            tier_stats[1].placed + tier_stats[1].demoted_in
            if system == "hierarchy"
            else 0
        ),
        "spills": sum(ledger.spills for ledger in tier_stats.values()),
        "demotions": fastswap.demotions,
        "violations": len(platform.auditor.violations),
    }


def run(
    benchmark: str = "web",
    load: str = "high",
    duration: float = 1800.0,
    pool_capacity_mib: float = 2048.0,
    near_shares: Sequence[float] = (0.1, 0.25, 0.5),
    near_shards: int = 2,
    far_shards: int = 2,
    demote_after_s: float = 60.0,
    far_direct_age_s: Optional[float] = 300.0,
    seed: int = 7,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Sweep the near-tier capacity share at fixed total pool capacity."""
    result = ExperimentResult(
        "tiering",
        "Near-pool capacity share vs p99 and memory savings "
        "(flat pool vs CXL-near + RDMA-far hierarchy, equal total capacity)",
    )
    shared = {
        "benchmark": benchmark,
        "load": load,
        "duration": duration,
        "pool_capacity_mib": pool_capacity_mib,
        "near_shards": near_shards,
        "far_shards": far_shards,
        "demote_after_s": demote_after_s,
        "far_direct_age_s": far_direct_age_s,
        "seed": seed,
    }
    cells = [("no_offload", None), ("flat", 0.0)] + [
        ("hierarchy", share) for share in near_shares
    ]
    points = [
        SweepPoint(
            key=(system, share),
            fn=_sweep_point,
            kwargs={"system": system, "share": share, **shared},
        )
        for system, share in cells
    ]
    outcomes = SweepGrid("tiering", points).run(jobs=jobs)
    result.rows = [outcome.value for outcome in outcomes]

    ref_row = result.rows[0]
    ref_mem = ref_row["avg_mem_mib"]
    if ref_mem <= 0:
        raise ExperimentError("no-offload reference run used no memory")
    flat_row = result.rows[1]

    for row in result.rows:
        row["savings_pct"] = round(100.0 * (1.0 - row["avg_mem_mib"] / ref_mem), 1)

    result.series["near_shares"] = list(near_shares)
    hier_rows = [row for row in result.rows if row["system"] == "hierarchy"]
    result.series["p99_flat"] = flat_row["p99_s"]
    result.series["p99_hierarchy"] = [row["p99_s"] for row in hier_rows]
    result.series["savings_flat"] = flat_row["savings_pct"]
    result.series["savings_hierarchy"] = [row["savings_pct"] for row in hier_rows]
    result.notes.append(
        "all systems see the same paired arrival trace and the same total "
        "pool capacity; the hierarchy splits it CXL-near vs RDMA-far and "
        "shards each tier"
    )
    result.notes.append(
        "expected shape: hierarchy p99 <= flat p99 (near-tier recalls avoid "
        "RDMA round-trips) while memory savings stay within ~5% of flat "
        "(savings come from the policy, not the topology)"
    )
    result.notes.append(
        "every run is audited, including per-tier swap conservation "
        "(placed + demoted_in == recalled + freed + lost + demoted_out + "
        "resident, summed over each tier's shards); violations must be 0"
    )
    return result
