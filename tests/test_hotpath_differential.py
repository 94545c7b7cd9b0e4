"""Differential tests: each incremental hot-path structure against the scan it replaced.

* ``AddressSpace`` indexes, (segment, location) buckets and page
  counters vs a naive scan of the live regions, over random
  allocate/split/touch/free/offload/fetch sequences.
* ``FunctionProfiler``'s sorted-history percentile vs ``np.percentile``
  over the same samples, compared with ``==``.
* ``TmoPolicy``'s heap-picked victims vs a full sort of the candidates.
* ``Link.bytes_moved``'s prefix sums vs the windowed sum over every
  transfer.
* ``TieredFastswap``'s upper-tier set vs a filter of every residence.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import numpy as np

from repro.baselines.tmo import TmoPolicy
from repro.core.config import FaaSMemConfig
from repro.core.profiler import FunctionProfiler, sorted_percentile
from repro.mem.cgroup import Cgroup
from repro.mem.node import ComputeNode
from repro.mem.page import Location, Segment
from repro.pool.link import Link, LinkConfig, LinkDirection
from repro.pool.tier import TieredPool, TierSpec, TierTopology
from repro.sim.engine import Engine
from repro.tier.datapath import TieredFastswap
from repro.units import PAGE_SIZE

from tests import proptest as pt

NAMES = ("weights", "heap", "stack")

_SPACE_OPS = pt.lists(
    pt.tuples(
        pt.sampled_from(["alloc", "split", "touch", "free", "offload", "fetch"]),
        pt.integers(min_value=0, max_value=1 << 16),
        pt.integers(min_value=1, max_value=64),
    ),
    min_size=1,
    max_size=80,
)


def fresh_cgroup():
    """A cgroup on a roomy node, with a clock the test sets by hand."""
    now = [0.0]
    node = ComputeNode(clock=lambda: now[0], capacity_mib=1 << 20)
    return now, node, Cgroup("diff", node, clock=lambda: now[0])


def naive_pages(live, segment=None, location=None):
    return sum(
        r.pages
        for r in live
        if (segment is None or r.segment is segment)
        and (location is None or r.location is location)
    )


def check_space_against_scan(space, live, freed=()):
    ordered = sorted(live, key=lambda r: r.region_id)
    assert list(space.regions()) == ordered
    ids = [r.region_id for r in space.regions()]
    assert ids == sorted(ids)
    for segment in Segment:
        assert list(space.regions(segment)) == [r for r in ordered if r.segment is segment]
    for segment in (None,) + tuple(Segment):
        for location in Location:
            assert list(space.regions(segment, location)) == [
                r
                for r in ordered
                if (segment is None or r.segment is segment) and r.location is location
            ]
    # Every live region sits in exactly one bucket; no freed one in any.
    bucketed = [
        region
        for segment in Segment
        for location in Location
        for region in space.regions(segment, location)
    ]
    assert sorted(r.region_id for r in bucketed) == [r.region_id for r in ordered]
    assert not any(region.freed for region in bucketed)
    assert not {r.region_id for r in freed} & {r.region_id for r in bucketed}
    for name in NAMES:
        assert space.find(name) == [r for r in ordered if r.name == name]
        for segment in Segment:
            assert space.find(name, segment) == [
                r for r in ordered if r.name == name and r.segment is segment
            ]
    for segment in (None,) + tuple(Segment):
        for location in (None,) + tuple(Location):
            assert space.pages(segment, location) == naive_pages(live, segment, location)
    assert space.local_pages == naive_pages(live, location=Location.LOCAL)
    assert space.remote_pages == naive_pages(live, location=Location.REMOTE)
    assert space.total_pages == naive_pages(live)
    assert len(space) == len(live)


class TestAddressSpaceIndexes:
    @pt.settings(max_examples=150)
    @pt.given(_SPACE_OPS)
    def test_indexes_match_naive_scan(self, ops):
        now, node, cgroup = fresh_cgroup()
        space = cgroup.space
        live = []
        freed = []
        for step, (op, pick, size) in enumerate(ops):
            now[0] = float(step)
            local = [r for r in live if r.is_local]
            remote = [r for r in live if r.is_remote]
            if op == "alloc":
                segment = list(Segment)[pick % len(Segment)]
                live.append(cgroup.allocate(NAMES[pick % len(NAMES)], segment, size))
            elif op == "split":
                splittable = [r for r in live if r.pages > 1]
                if splittable:
                    region = splittable[pick % len(splittable)]
                    live.append(space.split(region, 1 + size % (region.pages - 1)))
            elif op == "touch" and local:
                cgroup.touch(local[pick % len(local)])
            elif op == "free" and live:
                freed.append(live.pop(pick % len(live)))
                cgroup.free(freed[-1])
            elif op == "offload" and local:
                cgroup.mark_offloaded(local[pick % len(local)])
            elif op == "fetch" and remote:
                cgroup.mark_fetched(remote[pick % len(remote)])
            check_space_against_scan(space, live, freed)
            assert cgroup.local_regions() == list(space.regions(location=Location.LOCAL))
            assert cgroup.remote_regions() == list(space.regions(location=Location.REMOTE))
            assert node.local_pages == naive_pages(live, location=Location.LOCAL)


_SAMPLE = pt.one_of(
    pt.sampled_from([0.0, 1.0, 2.5, 7.0, 600.0]),  # duplicates
    pt.floats(min_value=0.0, max_value=900.0),
    pt.integers(min_value=0, max_value=1000),
)


class TestPercentileMatchesNumpy:
    @pt.settings(max_examples=300)
    @pt.given(
        pt.lists(_SAMPLE, min_size=0, max_size=40),
        pt.lists(_SAMPLE, min_size=0, max_size=40),
        pt.integers(min_value=0, max_value=6),
        pt.sampled_from([50.0, 95.5, 99.0, 100.0]),
        pt.booleans(),
        pt.integers(min_value=1, max_value=6),
    )
    def test_semiwarm_timing_equals_np_percentile(
        self, priors, online, cold_starts, q, aware, min_samples
    ):
        config = FaaSMemConfig(
            semiwarm_percentile=q,
            coldstart_aware_timing=aware,
            semiwarm_min_samples=min_samples,
        )
        profiler = FunctionProfiler(config, reuse_priors={"f": priors})
        samples = list(priors)
        for index, value in enumerate(online):
            profiler.record_reuse("f", value)
            samples.append(value)
            if index < cold_starts:
                profiler.record_cold_start("f")
                if aware:
                    samples.append(config.coldstart_censor_s)
        timing = profiler.semiwarm_start_timing("f")
        if len(samples) < min_samples:
            assert timing == config.semiwarm_fallback_s
        else:
            assert timing == float(np.percentile(np.asarray(samples), q))

    def test_exactly_min_samples(self):
        config = FaaSMemConfig(semiwarm_min_samples=5, semiwarm_percentile=99.0)
        profiler = FunctionProfiler(config)
        samples = [3.0, 0.1, 3.0, 17.25, 0.7]
        for value in samples:
            profiler.record_reuse("f", value)
        assert profiler.semiwarm_start_timing("f") == float(
            np.percentile(np.asarray(samples), 99.0)
        )

    @pt.settings(max_examples=300)
    @pt.given(
        pt.lists(pt.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=64),
        pt.floats(min_value=1e-9, max_value=100.0),
    )
    def test_sorted_percentile_any_q(self, values, q):
        values.sort()
        assert sorted_percentile(values, q) == float(np.percentile(np.asarray(values), q))


def sort_based_victims(cgroup, budget_pages):
    """The full-sort victim choice TMO used before, as (id, pages, whole)."""
    candidates = [
        region
        for segment in (Segment.RUNTIME, Segment.INIT)
        for region in cgroup.space.regions(segment)
        if region.is_local
    ]
    candidates.sort(
        key=lambda r: (r.last_access if r.last_access is not None else -1.0, r.region_id)
    )
    chosen = []
    remaining = budget_pages
    for region in candidates:
        if remaining <= 0:
            break
        if region.pages <= remaining:
            chosen.append((region.region_id, region.pages, True))
            remaining -= region.pages
        else:
            chosen.append((region.region_id, remaining, False))
            remaining = 0
    return chosen


class TestTmoVictimsMatchSort:
    @pt.settings(max_examples=200)
    @pt.given(
        pt.lists(
            pt.tuples(
                pt.sampled_from(list(Segment)),
                pt.integers(min_value=1, max_value=32),
                pt.one_of(
                    pt.sampled_from([None, 0.0, 1.0]),  # ties break on region_id
                    pt.floats(min_value=0.0, max_value=5.0),
                ),
                pt.booleans(),
            ),
            min_size=0,
            max_size=30,
        ),
        pt.integers(min_value=1, max_value=200),
    )
    def test_heap_victims_equal_sorted_victims(self, specs, budget):
        _, node, cgroup = fresh_cgroup()
        for index, (segment, pages, last_access, offloaded) in enumerate(specs):
            region = cgroup.space.allocate(
                f"r{index % 4}", segment, pages, now=0.0, touched=False
            )
            region.last_access = last_access
            if offloaded:
                cgroup.mark_offloaded(region)
        before = {r.region_id: (r.name, r.pages) for r in cgroup.space.regions()}
        expected = sort_based_victims(cgroup, budget)

        victims = TmoPolicy()._coldest_victims(SimpleNamespace(cgroup=cgroup), budget)

        assert len(victims) == len(expected)
        for victim, (region_id, pages, whole) in zip(victims, expected):
            assert victim.pages == pages
            if whole:
                assert victim.region_id == region_id
            else:
                parent = cgroup.space.get(region_id)
                assert victim.region_id not in before
                assert victim.name == parent.name
                assert parent.pages == before[region_id][1] - pages


# ----------------------------------------------------------------------
# Link byte accounting
# ----------------------------------------------------------------------

_LINK_OPS = pt.lists(
    pt.tuples(
        pt.sampled_from(
            ["out", "out", "in", "in", "empty", "degrade", "restore", "down", "up"]
        ),
        pt.floats(min_value=0.0, max_value=0.05),
        pt.integers(min_value=1, max_value=4096),
    ),
    min_size=0,
    max_size=60,
)


def naive_bytes_moved(transfers, direction, since, until):
    return sum(
        size
        for moved, completion, size in transfers
        if moved is direction and since <= completion <= until
    )


class TestLinkBytesMatchWindowedSum:
    @pt.settings(max_examples=200)
    @pt.given(_LINK_OPS, pt.integers(min_value=0, max_value=1 << 30))
    def test_bytes_moved_equals_windowed_sum(self, ops, seed):
        rng = random.Random(seed)
        link = Link(LinkConfig.rdma_100g())
        transfers = []
        for op, at, size in ops:
            # Request times need not be monotone: completions still are.
            if op in ("out", "in", "empty"):
                direction = LinkDirection.IN if op == "in" else LinkDirection.OUT
                pages = 0 if op == "empty" else size
                _, completion = link.transfer(at, pages, direction)
                if pages:
                    transfers.append((direction, completion, pages * PAGE_SIZE))
            elif op == "degrade":
                link.set_degradation(size / 4096)
            elif op == "restore":
                link.set_degradation(1.0)
            else:
                link.set_up(op == "up")
        completions = [completion for _, completion, _ in transfers]
        horizon = max(completions, default=0.05)
        bounds = [0.0, -1.0, float("inf")] + completions
        bounds += [rng.uniform(0.0, horizon) for _ in range(8)]
        for direction in LinkDirection:
            assert link.bytes_moved(direction) == naive_bytes_moved(
                transfers, direction, 0.0, float("inf")
            )
            for _ in range(40):
                since, until = rng.choice(bounds), rng.choice(bounds)
                assert link.bytes_moved(direction, since, until) == naive_bytes_moved(
                    transfers, direction, since, until
                )
            for completion in completions:
                # Inclusive ends, an open end and an empty (since > until) window.
                for since, until in ((completion, completion), (0.0, completion),
                                     (completion, float("inf")), (completion, -1.0)):
                    assert link.bytes_moved(direction, since, until) == (
                        naive_bytes_moved(transfers, direction, since, until)
                    )


# ----------------------------------------------------------------------
# Tiered pool upper-tier set
# ----------------------------------------------------------------------

_TIER_OPS = pt.lists(
    pt.tuples(
        pt.sampled_from(
            ["alloc", "offload", "writeback", "fault", "free", "run", "demote", "crash"]
        ),
        pt.integers(min_value=0, max_value=1 << 16),
        pt.integers(min_value=1, max_value=384),
    ),
    min_size=1,
    max_size=60,
)


def three_tier(engine):
    """Small upper tiers, so offloads spill and demotions block."""
    topology = TierTopology(
        tiers=[
            TierSpec(name="near", capacity_mib=1.0, shards=2, link=LinkConfig.cxl()),
            TierSpec(name="mid", capacity_mib=2.0, shards=1, link=LinkConfig.cxl()),
            TierSpec(name="far", capacity_mib=64.0, shards=2),
        ],
        demote_after_s=2.0,
        demote_tick_s=0.5,
        demote_batch_mib=1.0,
    )
    pool = TieredPool(lambda: engine.now, topology, default_capacity_mib=64.0)
    return TieredFastswap(engine, pool)


def check_upper_against_scan(fastswap):
    bottom = len(fastswap.hierarchy.tiers) - 1
    expected = [p for p in fastswap._residence.values() if p.tier_index < bottom]
    assert list(fastswap._upper.values()) == expected
    assert list(fastswap._upper) == [p.region.region_id for p in expected]


class TestTierUpperSetMatchesScan:
    @pt.settings(max_examples=150)
    @pt.given(_TIER_OPS)
    def test_upper_set_equals_filter(self, ops):
        engine = Engine()
        node = ComputeNode(clock=lambda: engine.now, capacity_mib=1 << 20)
        cgroup = Cgroup("tiered", node, clock=lambda: engine.now)
        fastswap = three_tier(engine)
        fastswap.attach(cgroup)
        hints = (None, "near", "far")
        for op, pick, size in ops:
            live = list(cgroup.space.regions())
            local = [r for r in live if r.is_local]
            remote = [r for r in live if r.is_remote]
            if op == "alloc":
                cgroup.allocate(f"r{pick % 5}", Segment.INIT, size)
            elif op == "offload" and local:
                start = pick % len(local)
                chosen = local[start:start + 1 + size % 3]
                fastswap.offload(cgroup, chosen, tier_hint=hints[pick % 3])
            elif op == "writeback" and local:
                fastswap.writeback(cgroup, [local[pick % len(local)]], hints[pick % 3])
            elif op == "fault" and remote:
                fastswap.fault(cgroup, [remote[pick % len(remote)]])
            elif op == "free" and live:
                cgroup.free(live[pick % len(live)])
            elif op == "run":
                engine.run(until=engine.now + size / 64)
            elif op == "demote":
                fastswap._demote_tick()
            elif op == "crash":
                domains = fastswap.crash_domains()
                domain = domains[pick % len(domains)]
                lost = fastswap.declare_lost(
                    cgroup, fastswap.regions_in_domain(cgroup, domain)
                )
                fastswap.drop_pool(domain, lost)
            check_upper_against_scan(fastswap)
        engine.run(until=engine.now + 60.0)
        check_upper_against_scan(fastswap)
