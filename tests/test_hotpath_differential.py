"""Differential tests: each incremental hot-path structure against the scan it replaced.

* ``AddressSpace`` indexes, (segment, location) buckets and page
  counters vs a naive scan of the live regions, over random
  allocate/split/touch/free/offload/fetch sequences.
* ``FunctionProfiler``'s sorted-history percentile vs ``np.percentile``
  over the same samples, compared with ``==``.
* ``TmoPolicy``'s victims, read from ``AddressSpace``'s age index, vs
  a full sort of the candidates: on fresh spaces, and on one persistent
  space over random allocate/split/touch/offload/fetch/free sequences
  with repeated reads whose splits stay in the space.
* ``Link.bytes_moved``'s prefix sums vs the windowed sum over every
  transfer.
* ``Fastswap``'s demotion index vs a filter of every residence (same
  set, ``(placed_at, region_id)`` order once normalised), and each
  demotion tick's walk of its ripe prefix vs the sort and filter of
  every placement it replaced (kept here as ``SortingDemoteFastswap``).
* ``Engine``'s ``(time, seq, event)`` heap vs sorting the live events
  by ``(time, seq)``, over random schedule/cancel/step sequences.
* ``Timer`` and ``PeriodicTask`` re-armed in place vs cancelled and
  scheduled anew (kept here as ``EagerTimer`` and
  ``EagerPeriodicTask``): executed ``(time, seq, name)`` keys,
  ``events_processed``, ``now`` and every timer's and task's state
  after each step of random start/cancel/restart/stop/step/run/clear
  sequences with many equal-timestamp ties.
* ``UniformInit.request_regions``' one vector draw vs one scalar draw
  per tail chunk (same regions, same generator state), and the cached
  service-time lognormal parameters vs the per-call formula.
* ``Container._expand_families`` vs sorting every touched family and
  listing it with ``space.find``.
* ``Controller.dispatch`` over the raw fleet vs over ``containers_of``.
* ``ContainerMemoryState.on_touched``'s hot-first return vs the
  four-pop walk over both Puckets, with the hot pool disjoint from
  every inactive and offloaded set after each step.
* The batched touch path (``Container._touch``: ``Cgroup.touch_many``
  per owner, then one ``on_regions_touched``) vs the per-region walk
  it replaced (``Cgroup.touch``, ``AddressSpace.touch``,
  ``MultiGenLru.note_access`` and ``ContainerMemoryState.on_touched``
  as they were, kept here as the reference): region access fields,
  MGLRU order, the age index and its victims, Pucket and hot-pool
  placements, recall counts and PROMOTE events after every step; and a
  rejected batch changes nothing.
* Exec scratch charged to the cgroup (``Cgroup.charge``/``uncharge``)
  vs the ``exec/scratch`` region allocated and freed per request that
  it replaced (kept here as ``RegionScratchCgroup``): node usage
  samples, peak and average, every cgroup's local and EXEC pages, the
  next region id, request records, direct reclaims and the trace
  digest after every step of random request, crash and heartbeat
  sequences, on roomy and governed nodes.
* ``replay_keepalive``'s idle and busy deques vs scanning every live
  span per arrival: every ``ContainerSpan`` field in the same order,
  cold starts and request counts, over random arrivals with duplicate
  timestamps, ``exec_time`` longer than the gaps, ``timeout <
  exec_time`` and a horizon unset, before or after the last arrival.
* The arrival generators' one array sort vs their per-element loops
  (``sorted()`` over Python lists, one scalar draw and one ``np.sin``
  per diurnal candidate): equal lists and equal generator states for
  every pattern, every ``sample_function_trace`` load and a 40-function
  ``generate_azure_like`` population.
"""

from __future__ import annotations

import random
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from repro.baselines import NoOffloadPolicy
from repro.baselines.tmo import TmoPolicy
from repro.core.config import FaaSMemConfig
from repro.core.manager import FaaSMemPolicy
from repro.core.profiler import FunctionProfiler, sorted_percentile
from repro.core.pucket import ContainerMemoryState
from repro.errors import MemoryError_, SimulationError
from repro.faas import PlatformConfig, ServerlessPlatform
from repro.faas.container import ContainerState
from repro.faas.controller import Controller
from repro.faas.policy import OffloadPolicy
from repro.faas.request import Invocation
from repro.mem import address_space, page
from repro.mem.address_space import _AGE_HEAP_SLACK
from repro.mem.cgroup import Cgroup
from repro.mem.node import ComputeNode
from repro.mem.page import Location, Segment
from repro.obs.trace import EventKind
from repro.pool.fastswap import Fastswap
from repro.pool.link import Link, LinkConfig, LinkDirection
from repro.pool.tier import TieredPool, TierSpec, TierTopology
from repro.pressure import PressureConfig
from repro.sim.engine import Engine
from repro.sim.process import PeriodicTask, Timer
from repro.sim.randomness import RandomStreams
from repro.traces import azure, patterns
from repro.traces.analysis import ContainerSpan, KeepAliveReplay, replay_keepalive
from repro.traces.azure import AzureTraceConfig, generate_azure_like, sample_function_trace
from repro.units import HOUR, PAGE_SIZE, pages_from_mib
from repro.workloads import all_benchmarks, get_profile
from repro.workloads.profile import InitState, UniformInit

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


def assert_victims_match(cgroup, victims, expected, before):
    """``victims`` are ``expected`` (from :func:`sort_based_victims`)."""
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


def assert_age_heap_bounded(space):
    heap = space._age_heap
    candidates = sum(
        len(list(space.regions(segment, Location.LOCAL)))
        for segment in (Segment.RUNTIME, Segment.INIT)
    )
    assert heap is None or len(heap) <= 2 * candidates + address_space._AGE_HEAP_SLACK


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
            if last_access is not None:
                cgroup.space.touch(region, last_access)
            if offloaded:
                cgroup.mark_offloaded(region)
        before = {r.region_id: (r.name, r.pages) for r in cgroup.space.regions()}
        expected = sort_based_victims(cgroup, budget)

        victims = TmoPolicy()._coldest_victims(SimpleNamespace(cgroup=cgroup), budget)

        assert_victims_match(cgroup, victims, expected, before)


_AGE_OPS = pt.lists(
    pt.tuples(
        pt.sampled_from(
            [
                "alloc", "alloc", "split", "touch", "touch", "offload",
                "fetch", "fetch_touch", "free", "tmo", "tmo", "tmo",
            ]
        ),
        pt.integers(min_value=0, max_value=1 << 16),
        pt.integers(min_value=1, max_value=48),
        pt.sampled_from([0.0, 0.0, 0.25, 1.0]),  # equal times are common
    ),
    min_size=1,
    max_size=120,
)


class TestAgeIndexMatchesSortOverTime:
    """One space lives through the whole sequence, so a stale index shows."""

    @pt.settings(max_examples=200)
    @pt.given(_AGE_OPS)
    def test_repeated_victims_equal_sorted_victims(self, ops):
        self.replay(ops)

    @pt.settings(max_examples=100)
    @pt.given(_AGE_OPS)
    def test_repeated_victims_with_frequent_rebuilds(self, ops):
        # No slack: the heap is dropped and rebuilt mid-sequence.
        with mock.patch.object(address_space, "_AGE_HEAP_SLACK", 0):
            self.replay(ops)

    @staticmethod
    def replay(ops):
        now, node, cgroup = fresh_cgroup()
        space = cgroup.space
        tmo = TmoPolicy()
        container = SimpleNamespace(cgroup=cgroup)
        live = []
        for op, pick, size, advance in ops:
            now[0] += advance
            local = [r for r in live if r.is_local]
            remote = [r for r in live if r.is_remote]
            if op == "alloc":
                segment = list(Segment)[pick % len(Segment)]
                live.append(
                    space.allocate(
                        NAMES[pick % len(NAMES)], segment, size, now=now[0],
                        touched=pick % 5 != 0,
                    )
                )
            elif op == "split":
                splittable = [r for r in live if r.pages > 1]
                if splittable:
                    region = splittable[pick % len(splittable)]
                    live.append(space.split(region, 1 + size % (region.pages - 1)))
            elif op == "touch" and local:
                space.touch(local[pick % len(local)], now[0])
            elif op == "offload" and local:
                cgroup.mark_offloaded(local[pick % len(local)])
            elif op in ("fetch", "fetch_touch") and remote:
                region = remote[pick % len(remote)]
                cgroup.mark_fetched(region)
                if op == "fetch_touch":
                    space.touch(region, now[0])
            elif op == "free" and live:
                cgroup.free(live.pop(pick % len(live)))
            elif op == "tmo":
                # Small steps like TMO's, and budgets past every local
                # page that read the whole index.
                budget = size if pick % 3 else size * 64
                before = {r.region_id: (r.name, r.pages) for r in space.regions()}
                expected = sort_based_victims(cgroup, budget)
                victims = tmo._coldest_victims(container, budget)
                assert_victims_match(cgroup, victims, expected, before)
                live.extend(v for v in victims if v.region_id not in before)
                if pick % 4 == 0:
                    # The write-outs complete: the victims go remote.
                    for victim in victims:
                        cgroup.mark_offloaded(victim)
            assert_age_heap_bounded(space)
        assert sorted(r.region_id for r in live) == [r.region_id for r in space.regions()]

    def test_heap_is_rebuilt_past_its_bound(self):
        _, _, cgroup = fresh_cgroup()
        space = cgroup.space
        region = space.allocate("weights", Segment.RUNTIME, 4, now=0.0)
        assert space.coldest_local(1) == [region]
        for step in range(2 + _AGE_HEAP_SLACK):
            space.touch(region, float(step))
            assert_age_heap_bounded(space)
        assert space._age_heap is None
        space.touch(region, 100.0)
        assert space._age_heap is None  # nothing is pushed until a read
        assert space.coldest_local(10) == [region]
        assert space._age_heap == [(100.0, region.region_id)]

    def test_exec_and_remote_regions_are_never_returned(self):
        _, _, cgroup = fresh_cgroup()
        space = cgroup.space
        scratch = space.allocate("stack", Segment.EXEC, 4, now=0.0)
        init = space.allocate("heap", Segment.INIT, 4, now=1.0)
        runtime = space.allocate("weights", Segment.RUNTIME, 4, now=2.0)
        assert space.coldest_local(100) == [init, runtime]
        cgroup.mark_offloaded(init)
        space.touch(scratch, 3.0)
        assert space.coldest_local(100) == [runtime]
        cgroup.mark_fetched(init)  # back with its old age, not re-touched
        assert space.coldest_local(100) == [init, runtime]
        assert space.coldest_local(100) == [init, runtime]


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


def three_tier(engine, fastswap_cls=Fastswap):
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
    return fastswap_cls(engine, pool)


class SortingDemoteFastswap(Fastswap):
    """The demotion tick as it was: sort and filter every placement."""

    def _demote_tick(self):
        now = self.engine.now
        topology = self.pool.topology
        upper = list(self._upper.values())
        if not upper:
            self._stop_daemon()
            return
        if self.suspended:
            return
        ripe = sorted(
            (p for p in upper if now - p.placed_at >= topology.demote_after_s),
            key=lambda p: (p.placed_at, p.region.region_id),
        )
        budget = pages_from_mib(topology.demote_batch_mib)
        progressed = False
        for placement in ripe:
            if budget <= 0:
                break
            region = placement.region
            pages = region.pages
            src_shard = self._residence[region.region_id]
            dst_shard = self.pool.tiers[src_shard.level].shard_for(region.region_id)
            if not dst_shard.room_for(pages):
                continue
            src_level = src_shard.level
            dst_shard.link.transfer(now, pages, LinkDirection.OUT)
            self.pool.migrate(src_shard, dst_shard, pages)
            self.tier_stats[src_level].demoted_out += pages
            self.tier_stats[dst_shard.level].demoted_in += pages
            self.demotions += 1
            if self.tracer is not None:
                self.tracer.emit(
                    EventKind.TIER_DEMOTE,
                    region.name,
                    from_tier=src_level,
                    to_tier=dst_shard.level,
                    shard=dst_shard.index,
                    region=region.region_id,
                    pages=pages,
                )
            self._residence[region.region_id] = dst_shard
            if dst_shard.level == self._bottom_level:
                del self._upper[region.region_id]
            placement.placed_at = now
            budget -= pages
            progressed = True
        if not progressed and all(
            now - p.placed_at >= topology.demote_after_s for p in upper
        ):
            self._stop_daemon()


def check_upper_against_scan(fastswap):
    """The demotion index holds exactly the upper-tier residences, in
    ``(placed_at, region_id)`` order unless marked for a re-sort."""
    bottom = fastswap.pool.tiers[-1].level
    expected = {
        region_id
        for region_id, shard in fastswap._residence.items()
        if shard.level < bottom
    }
    assert set(fastswap._upper) == expected
    assert all(p.region.region_id == i for i, p in fastswap._upper.items())
    if not fastswap._upper_unsorted:
        keys = [(p.placed_at, i) for i, p in fastswap._upper.items()]
        assert keys == sorted(keys)


def replay_tiers(ops, fastswap_cls):
    """Run ``ops`` on a fresh three-tier datapath.

    Returns the region ids each demotion tick moved, in order, the
    final ledgers and every datapath event. Region ids restart at 1, so
    two replays of the same ops name the same regions. The index is
    checked after every op, except under the sorting tick, which
    re-times placements in place and keeps no order.
    """
    indexed = fastswap_cls is Fastswap
    page.reset_region_ids()
    engine = Engine()
    node = ComputeNode(clock=lambda: engine.now, capacity_mib=1 << 20)
    cgroup = Cgroup("tiered", node, clock=lambda: engine.now)
    fastswap = three_tier(engine, fastswap_cls)
    fastswap.attach(cgroup)
    fastswap.tracer = _Recorder()
    ticks = []
    tick = fastswap._demote_tick

    def recorded_tick():
        before = len(fastswap.tracer.events)
        tick()
        ticks.append([
            fields["region"]
            for kind, fields in fastswap.tracer.events[before:]
            if kind is EventKind.TIER_DEMOTE
        ])

    fastswap._demote_tick = recorded_tick
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
            shards = fastswap.pool.all_shards()
            shard = shards[pick % len(shards)]
            lost = fastswap.declare_lost(
                cgroup, fastswap.regions_on_shard(cgroup, shard)
            )
            fastswap.pool.drop(shard, lost)
        if indexed:
            check_upper_against_scan(fastswap)
    engine.run(until=engine.now + 60.0)
    if indexed:
        check_upper_against_scan(fastswap)
    ledgers = {level: vars(ledger) for level, ledger in fastswap.tier_stats.items()}
    return ticks, ledgers, fastswap.tracer.events


class TestTierUpperSetMatchesScan:
    @pt.settings(max_examples=150)
    @pt.given(_TIER_OPS)
    def test_upper_set_equals_filter(self, ops):
        replay_tiers(ops, Fastswap)

    @pt.settings(max_examples=150)
    @pt.given(_TIER_OPS)
    def test_demotions_equal_sort_and_filter(self, ops):
        ticks, ledgers, events = replay_tiers(ops, Fastswap)
        assert (ticks, ledgers, events) == replay_tiers(ops, SortingDemoteFastswap)

    def test_same_time_placements_are_resorted(self):
        """Placements that tie on ``placed_at`` with falling ids mark the
        index, and the next tick demotes them in id order."""
        page.reset_region_ids()
        engine = Engine()
        node = ComputeNode(clock=lambda: engine.now, capacity_mib=1 << 20)
        cgroup = Cgroup("tiered", node, clock=lambda: engine.now)
        fastswap = three_tier(engine)
        fastswap.attach(cgroup)
        regions = [cgroup.allocate(f"r{i}", Segment.INIT, 16) for i in range(3)]
        for region in reversed(regions):
            fastswap.writeback(cgroup, [region], "near")
        assert fastswap._upper_unsorted
        assert list(fastswap._upper) == [r.region_id for r in reversed(regions)]
        fastswap.tracer = _Recorder()
        engine.run(until=2.5)
        demoted = [
            fields["region"]
            for kind, fields in fastswap.tracer.events
            if kind is EventKind.TIER_DEMOTE
        ]
        assert demoted == [r.region_id for r in regions]
        check_upper_against_scan(fastswap)


# ----------------------------------------------------------------------
# Engine: (time, seq, event) heap vs a sort of the live events
# ----------------------------------------------------------------------

_ENGINE_OPS = pt.lists(
    pt.tuples(
        pt.sampled_from(["schedule", "schedule", "schedule_at", "cancel", "step"]),
        pt.integers(min_value=0, max_value=1 << 16),
        # Few distinct delays, so many events tie on their timestamp.
        pt.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0]),
    ),
    min_size=1,
    max_size=60,
)


class TestEngineOrderMatchesSort:
    @pt.settings(max_examples=200)
    @pt.given(_ENGINE_OPS)
    def test_execution_order_is_time_then_seq(self, ops):
        engine = Engine()
        # [time, label, event, cancelled before it ran], in schedule order.
        scheduled = []
        executed = []

        def add(time, spawns):
            label = len(scheduled)

            def callback():
                assert engine.now == time
                executed.append(label)
                if spawns:
                    # A same-timestamp child ties with pending events.
                    add(engine.now, False)

            scheduled.append([time, label, engine.schedule_at(time, callback), False])

        for op, pick, delay in ops:
            if op == "schedule":
                add(engine.now + delay, pick % 3 == 0)
            elif op == "schedule_at" and pick % 4 >= engine.now:
                add(float(pick % 4), False)
            elif op == "cancel" and scheduled:
                entry = scheduled[pick % len(scheduled)]
                entry[2].cancel()
                # Cancelling an event that already ran changes nothing.
                entry[3] = entry[3] or entry[1] not in executed
            elif op == "step":
                engine.step()
        engine.run()
        # Every new event has time >= now and a larger seq than every
        # earlier one, so the whole run executes in (time, seq) order.
        assert [event.seq for _, _, event, _ in scheduled] == list(range(len(scheduled)))
        expected = [
            label
            for time, label, event, cancelled in sorted(
                scheduled, key=lambda entry: (entry[0], entry[2].seq)
            )
            if not cancelled
        ]
        assert executed == expected
        assert engine.events_processed == len(executed)
        assert engine.pending == 0


# ----------------------------------------------------------------------
# Timers: re-armed in place vs cancel-and-schedule
# ----------------------------------------------------------------------


class EagerTimer:
    """``Timer`` as it was: every start cancels and schedules anew."""

    def __init__(self, engine, callback, name=""):
        self._engine = engine
        self._callback = callback
        self._name = name
        self._event = None

    @property
    def armed(self):
        return self._event is not None and not self._event.cancelled

    @property
    def deadline(self):
        return self._event.time if self.armed else None

    def start(self, delay):
        self.cancel()
        self._event = self._engine.schedule(delay, self._fire, name=self._name)

    def cancel(self):
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self):
        self._event = None
        self._callback()


class _EagerSeries:
    """``PeriodicTask`` as it was: one new event per tick."""

    def __init__(self, engine, interval, callback, name="", start_delay=None):
        self._engine = engine
        self.interval = interval
        self._callback = callback
        self._name = name
        self._stopped = False
        self._event = engine.schedule(
            interval if start_delay is None else start_delay, self._tick, name=name
        )

    @property
    def running(self):
        return not self._stopped

    def stop(self):
        self._stopped = True
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _tick(self):
        if self._stopped:
            return
        self._callback()
        if not self._stopped:
            self._event = self._engine.schedule(self.interval, self._tick, name=self._name)


class EagerPeriodicTask:
    """A periodic task whose ``restart`` is what callers did before the
    method existed: stop the task and build a new one (an
    ``_EagerSeries``) in the same instant."""

    def __init__(self, engine, interval, callback, name="", start_delay=None):
        self._make = lambda interval, delay: _EagerSeries(
            engine, interval, callback, name, delay
        )
        self._series = self._make(interval, start_delay)

    @property
    def interval(self):
        return self._series.interval

    @interval.setter
    def interval(self, value):
        self._series.interval = value

    @property
    def running(self):
        return self._series.running

    def stop(self):
        self._series.stop()

    def restart(self, start_delay=None):
        self._series.stop()
        self._series = self._make(self._series.interval, start_delay)


_TIMER_OPS = pt.lists(
    pt.tuples(
        pt.sampled_from(
            ["start", "start", "start", "cancel", "restart", "restart", "stop",
             "interval", "schedule", "step", "step", "until", "max_events", "clear"]
        ),
        pt.integers(min_value=0, max_value=1 << 16),
        # Few distinct delays, so many expiries tie on their timestamp
        # and a start often moves a timer earlier than its queued entry.
        pt.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.0]),
    ),
    min_size=1,
    max_size=70,
)


def replay_timers(ops, timer_cls, task_cls):
    """Drive three timers and two periodic tasks on one engine.

    The callbacks act on the timers too: an expiry restarts the next
    timer on every other firing, a task stops itself on every third
    tick, and on every fifth it stops and restarts itself from inside
    its own tick. Returns one snapshot per op: the executed ``(time,
    seq, name)`` keys so far, ``events_processed``, ``now``, each
    timer's ``armed``/``deadline``, each task's ``running``, and which
    ops raised.
    """
    engine = Engine()
    executed = []
    step = engine.step

    def recording_step():
        head = engine._live_head()
        if head is not None:
            executed.append((head.time, head.seq, head.name))
        return step()

    engine.step = recording_step
    fired = [0, 0, 0]
    ticks = [0, 0]
    timers, tasks = [], []

    def expiry(index):
        def callback():
            fired[index] += 1
            if fired[index] % 2 == 0:
                timers[(index + 1) % 3].start(1.0)
        return callback

    def tick(index):
        def callback():
            ticks[index] += 1
            if ticks[index] % 3 == 0:
                tasks[index].stop()
            elif ticks[index] % 5 == 0:
                tasks[index].stop()
                tasks[index].restart(0.5)
        return callback

    timers.extend(timer_cls(engine, expiry(i), name=f"ka:{i}") for i in range(3))
    tasks.extend(
        task_cls(engine, 1.0, tick(i), name=f"hb:{i}", start_delay=0.0 if i else None)
        for i in range(2)
    )
    snapshots = []
    for op, pick, delay in ops:
        raised = None
        try:
            if op == "start":
                timers[pick % 3].start(delay)
            elif op == "cancel":
                timers[pick % 3].cancel()
            elif op == "restart":
                tasks[pick % 2].restart(delay if pick % 3 else None)
            elif op == "stop":
                tasks[pick % 2].stop()
            elif op == "interval":
                tasks[pick % 2].interval = delay or 0.25
            elif op == "schedule":
                engine.schedule(delay, lambda: None, name="plain")
            elif op == "step":
                engine.step()
            elif op == "until":
                engine.run(until=engine.now + delay + pick % 3)
            elif op == "max_events":
                engine.run(max_events=pick % 6)
            elif op == "clear":
                engine.clear()
        except SimulationError as exc:
            raised = str(exc)
        snapshots.append((
            list(executed),
            engine.events_processed,
            engine.now,
            [(timer.armed, timer.deadline) for timer in timers],
            [task.running for task in tasks],
            raised,
        ))
    return snapshots


class TestRearmedTimersMatchEager:
    """``Timer`` and ``PeriodicTask`` re-arming their one event in
    place (``Engine.rearm``) vs cancelling it and scheduling a new one
    (``EagerTimer``, ``EagerPeriodicTask``): the same events run under
    the same ``(time, seq)`` keys."""

    @pt.settings(max_examples=300)
    @pt.given(_TIMER_OPS)
    def test_rearm_equals_cancel_and_schedule(self, ops):
        assert replay_timers(ops, Timer, PeriodicTask) == replay_timers(
            ops, EagerTimer, EagerPeriodicTask
        )

    def test_rearm_earlier_than_queued_entry_pushes_fresh(self):
        engine = Engine()
        fired = []
        timer = Timer(engine, lambda: fired.append(engine.now))
        timer.start(5.0)
        first = timer._event
        timer.start(1.0)
        assert timer._event is not first and first.cancelled
        assert engine.pending == 2
        engine.run()
        assert fired == [1.0]
        assert engine.events_processed == 1

    def test_rearm_later_reuses_the_queued_entry(self):
        engine = Engine()
        fired = []
        timer = Timer(engine, lambda: fired.append(engine.now))
        timer.start(1.0)
        event = timer._event
        for delay in (2.0, 3.0, 4.0):
            timer.cancel()
            timer.start(delay)
        assert timer._event is event and engine.pending == 1
        engine.run()
        assert fired == [4.0] and engine.events_processed == 1

    def test_cleared_entry_is_not_reused(self):
        engine = Engine()
        fired = []
        timer = Timer(engine, lambda: fired.append(engine.now))
        timer.start(1.0)
        engine.clear()
        assert not timer._event.queued
        timer.start(2.0)
        assert engine.pending == 1
        engine.run()
        assert fired == [2.0]


# ----------------------------------------------------------------------
# RNG: one vector draw vs the scalar loop; cached lognormal parameters
# ----------------------------------------------------------------------


def scalar_request_regions(layout, state, rng):
    """The per-chunk scalar loop ``request_regions`` replaced."""
    touched = list(state.hot)
    for region in state.tail:
        if layout.tail_touch_prob > 0 and rng.random() < layout.tail_touch_prob:
            touched.append(region)
    return touched


def uncached_exec_time(profile, rng):
    """``sample_exec_time`` computing its parameters on every call."""
    if profile.exec_time_cv <= 0:
        return profile.exec_time_s
    sigma = float(np.sqrt(np.log(1.0 + profile.exec_time_cv**2)))
    mu = float(np.log(profile.exec_time_s)) - sigma**2 / 2.0
    return float(rng.lognormal(mu, sigma))


class TestVectorDrawsMatchScalarLoop:
    @pt.settings(max_examples=200)
    @pt.given(
        pt.integers(min_value=0, max_value=60),
        pt.one_of(
            pt.sampled_from([0.0, 1e-3, 0.05, 0.5, 1.0]),
            pt.floats(min_value=0.0, max_value=1.0),
        ),
        pt.integers(min_value=0, max_value=1 << 30),
        pt.integers(min_value=1, max_value=4),
    )
    def test_tail_coins_equal_scalar_draws(self, n_tail, prob, seed, requests):
        layout = UniformInit(
            hot_mib=1.0, cold_mib=0.0, tail_chunks=n_tail, tail_touch_prob=prob
        )
        state = InitState(hot=["hot"], tail=[f"tail-{i}" for i in range(n_tail)])
        vector = np.random.default_rng(seed)
        scalar = np.random.default_rng(seed)
        for _ in range(requests):
            got = layout.request_regions(state, vector)
            assert got == scalar_request_regions(layout, state, scalar)
            assert vector.bit_generator.state == scalar.bit_generator.state
        assert vector.random() == scalar.random()

    @pt.settings(max_examples=100)
    @pt.given(
        pt.sampled_from(sorted(all_benchmarks())),
        pt.one_of(
            pt.sampled_from([0.0, -0.5, 0.1, 1.0]),
            pt.floats(min_value=0.0, max_value=3.0),
        ),
        pt.floats(min_value=1e-4, max_value=30.0),
        pt.integers(min_value=0, max_value=1 << 30),
    )
    def test_cached_lognormal_equals_formula(self, benchmark, cv, mean_s, seed):
        profile = replace(get_profile(benchmark), exec_time_cv=cv, exec_time_s=mean_s)
        cached = np.random.default_rng(seed)
        fresh = np.random.default_rng(seed)
        for _ in range(3):
            assert profile.sample_exec_time(cached) == uncached_exec_time(profile, fresh)
        assert cached.bit_generator.state == fresh.bit_generator.state


# ----------------------------------------------------------------------
# Family expansion: only split families vs sorting every family
# ----------------------------------------------------------------------


def naive_expand_families(space, regions):
    """Sort every touched family and list it with ``space.find``."""
    seen = {}
    names = set()
    for region in regions:
        seen[region.region_id] = region
        names.add((region.name, region.segment))
    for name, segment in sorted(names, key=lambda ns: (ns[0], ns[1].value)):
        for sibling in space.find(name, segment):
            seen.setdefault(sibling.region_id, sibling)
    return list(seen.values())


def warm_container():
    """One idle json container on a platform that never offloads."""
    platform = ServerlessPlatform(NoOffloadPolicy(), config=PlatformConfig(seed=5))
    platform.register_function("json", get_profile("json"))
    platform.submit("json", 0.0)
    platform.engine.run(until=30.0)
    [container] = platform.controller.all_containers()
    return container


_FAMILY_OPS = pt.lists(
    pt.tuples(
        pt.sampled_from(["alloc", "split", "split", "free", "expand"]),
        pt.integers(min_value=0, max_value=1 << 16),
        pt.integers(min_value=1, max_value=8),
    ),
    min_size=1,
    max_size=40,
)


class TestFamilyExpansionMatchesSortedFind:
    @pt.settings(max_examples=60)
    @pt.given(_FAMILY_OPS)
    def test_expansion_equals_sorted_find(self, ops):
        container = warm_container()
        cgroup = container.cgroup
        space = cgroup.space
        names = ("runtime/hot", "init/hot", "b", "a")
        # Start with split same-name families in both segments, so the
        # (name, segment) sort has ties on the name to break.
        for name in ("b", "a"):
            for segment in (Segment.RUNTIME, Segment.INIT):
                space.split(cgroup.allocate(name, segment, 4), 1)
        for op, pick, size in ops:
            live = list(space.regions())
            if op == "alloc":
                # Same names in two segments: the sort key's tiebreak.
                segment = (Segment.RUNTIME, Segment.INIT)[pick % 2]
                cgroup.allocate(names[pick % len(names)], segment, size + 1)
            elif op == "split":
                splittable = [r for r in live if r.pages > 1]
                if splittable:
                    region = splittable[pick % len(splittable)]
                    space.split(region, 1 + size % (region.pages - 1))
            elif op == "free" and len(live) > 1:
                cgroup.free(live[pick % len(live)])
            rng = random.Random(pick)
            live = list(space.regions())
            # Bases in any order, repeats allowed, as a working set is.
            bases = [rng.choice(live) for _ in range(rng.randint(0, 2 * len(live)))]
            expanded = container._expand_families(iter(bases))
            assert expanded == naive_expand_families(space, bases)
            for region in expanded:
                family = space.find(region.name, region.segment)
                assert space.family_size(region.name, region.segment) == len(family)


# ----------------------------------------------------------------------
# Dispatch: the raw fleet vs the live containers
# ----------------------------------------------------------------------


def live_fleet_dispatch(pool, queue_bound):
    """The routing choice ``Controller.dispatch`` made over ``containers_of``."""
    containers = [c for c in pool if c.alive]
    warm = [c for c in containers if c.state is ContainerState.IDLE]
    if warm:
        return max(warm, key=lambda c: c.idle_since or 0.0)
    queueable = [c for c in containers if len(c.pending) < queue_bound]
    if queueable:
        return min(queueable, key=lambda c: (len(c.pending), c.created_at))
    return "cold"


_FLEETS = pt.lists(
    pt.tuples(
        pt.sampled_from(list(ContainerState)),
        # Few distinct values, so keys tie often; None idles as 0.0.
        pt.sampled_from([None, 0.0, 1.0, 2.0]),
        pt.integers(min_value=0, max_value=3),
        pt.sampled_from([0.0, 1.0, 2.0]),
    ),
    min_size=0,
    max_size=8,
)


class TestDispatchMatchesLiveFleet:
    @pt.settings(max_examples=300)
    @pt.given(_FLEETS, pt.integers(min_value=0, max_value=3))
    def test_raw_fleet_picks_same_container(self, fleet, queue_bound):
        chosen = []
        pool = [
            SimpleNamespace(
                state=state,
                alive=state is not ContainerState.RECLAIMED,
                idle_since=idle_since,
                pending=[None] * backlog,
                created_at=created_at,
                enqueue=lambda invocation, index=index: chosen.append(index),
            )
            for index, (state, idle_since, backlog, created_at) in enumerate(fleet)
        ]
        platform = SimpleNamespace(
            function=lambda name: name,
            config=SimpleNamespace(max_queue_per_container=queue_bound),
            governor=None,
        )
        controller = Controller(platform)
        controller._containers["f"] = pool
        controller._create_container = lambda spec: SimpleNamespace(
            enqueue=lambda invocation: chosen.append("cold")
        )
        controller.dispatch(Invocation(function="f", arrival=0.0))
        expected = live_fleet_dispatch(pool, queue_bound)
        assert chosen == [expected if expected == "cold" else pool.index(expected)]


# ----------------------------------------------------------------------
# Pucket touch: hot-first return vs the four-pop walk
# ----------------------------------------------------------------------


class _Recorder:
    """A tracer stand-in that keeps every emitted (kind, fields) pair."""

    def __init__(self):
        self.events = []

    def emit(self, kind, subject, **fields):
        self.events.append((kind, fields))


def placements(state):
    """Every tracked set of ``state`` as plain id -> name maps."""
    return {
        "runtime": (
            {r.region_id for r in state.runtime_pucket.inactive_regions},
            {r.region_id for r in state.runtime_pucket.offloaded_regions},
        ),
        "init": (
            {r.region_id for r in state.init_pucket.inactive_regions},
            {r.region_id for r in state.init_pucket.offloaded_regions},
        ),
        "hot": {region.region_id: origin.name for region, origin in state.hot_pool.entries()},
        "recalls": dict(state.recall_counts),
    }


def four_pop_touch(before, region, was_remote):
    """The walk ``on_touched`` replaced, on a :func:`placements` copy.

    Returns the expected placements afterwards and the expected
    promotion ``(pucket, src)``, or None.
    """
    after = {
        "runtime": tuple(set(members) for members in before["runtime"]),
        "init": tuple(set(members) for members in before["init"]),
        "hot": dict(before["hot"]),
        "recalls": dict(before["recalls"]),
    }
    region_id = region.region_id
    for name in ("runtime", "init"):
        inactive, offloaded = after[name]
        if region_id in inactive:
            inactive.discard(region_id)
            after["hot"][region_id] = name
            return after, (name, "inactive")
        if region_id in offloaded:
            offloaded.discard(region_id)
            if was_remote:
                after["recalls"][name] += 1
            after["hot"][region_id] = name
            return after, (name, "offloaded")
    return after, None


def assert_hot_pool_disjoint(state):
    hot = {region.region_id for region in state.hot_pool.regions}
    for pucket in (state.runtime_pucket, state.init_pucket):
        assert not hot & {r.region_id for r in pucket.inactive_regions}
        assert not hot & {r.region_id for r in pucket.offloaded_regions}


_PUCKET_OPS = pt.lists(
    pt.tuples(
        pt.sampled_from(
            ["touch", "touch", "touch", "offload", "rollback", "free", "split", "exec"]
        ),
        pt.integers(min_value=0, max_value=1 << 16),
        pt.booleans(),
    ),
    min_size=1,
    max_size=80,
)


class TestPucketTouchMatchesFourPopWalk:
    @pt.settings(max_examples=150)
    @pt.given(
        pt.integers(min_value=1, max_value=5),
        pt.integers(min_value=0, max_value=5),
        _PUCKET_OPS,
    )
    def test_touch_moves_equal_reference(self, n_runtime, n_init, ops):
        now, node, cgroup = fresh_cgroup()
        recorder = _Recorder()
        state = ContainerMemoryState(cgroup, FaaSMemConfig(), tracer=recorder)
        for i in range(n_runtime):
            cgroup.allocate(f"rt/{i}", Segment.RUNTIME, 4)
        state.insert_runtime_init_barrier(now[0])
        for i in range(n_init):
            cgroup.allocate(f"init/{i}", Segment.INIT, 4)
        state.insert_init_exec_barrier(now[0])
        for step, (op, pick, flag) in enumerate(ops):
            now[0] = float(step + 1)
            live = list(cgroup.space.regions())
            region = live[pick % len(live)] if live else None
            if op == "touch" and region is not None:
                was_remote = region.is_remote or flag
                if region.is_remote:
                    cgroup.mark_fetched(region)
                before = placements(state)
                emitted = len(recorder.events)
                expected, move = four_pop_touch(before, region, was_remote)
                state.on_touched(region, was_remote=was_remote)
                assert placements(state) == expected
                promotions = [
                    (fields["pucket"], fields["src"])
                    for kind, fields in recorder.events[emitted:]
                ]
                assert promotions == ([] if move is None else [move])
            elif op == "offload" and region is not None and region.is_local:
                state.note_offload(region)
                cgroup.mark_offloaded(region)
            elif op == "rollback":
                state.roll_back_hot_pool(now[0])
            elif op == "free" and region is not None:
                state.on_freed(region)
                cgroup.free(region)
            elif op == "split" and region is not None and region.pages > 1:
                # A split-off slice joins no Pucket: it stays untracked.
                cgroup.space.split(region, 1)
            elif op == "exec":
                cgroup.allocate("exec/scratch", Segment.EXEC, 2)
            assert_hot_pool_disjoint(state)


# ----------------------------------------------------------------------
# Batched touch path vs the per-region walk it replaced
# ----------------------------------------------------------------------


def per_region_space_touch(space, region, now):
    """``AddressSpace.touch`` as it was before batching."""
    if region.region_id not in space._regions:
        raise MemoryError_(f"touch of unknown region {region.name!r}")
    region.touch(now)
    if space._age_heap is not None:
        space._push_age(region)


def per_region_note_access(lru, region):
    """``MultiGenLru.note_access`` as it was before batching."""
    origin = lru._member.get(region.region_id)
    if origin is None:
        return None
    if origin is not lru.youngest:
        origin.discard(region)
        lru.youngest.add(region)
        lru._member[region.region_id] = lru.youngest
    return origin


def per_region_cgroup_touch(cgroup, region):
    """``Cgroup.touch`` as it was before batching."""
    if region.is_remote:
        raise MemoryError_(f"touch of remote region {region.name!r}; fault it in first")
    per_region_space_touch(cgroup.space, region, now=cgroup._clock())
    per_region_note_access(cgroup.mglru, region)


def per_region_on_touched(state, region, was_remote):
    """``ContainerMemoryState.on_touched`` as it was before batching."""
    if region in state.hot_pool:
        return
    for pucket in (state.runtime_pucket, state.init_pucket):
        src = pucket.take(region)
        if src is not None:
            if was_remote and src == "offloaded":
                state.recall_counts[pucket.name] += 1
            state.hot_pool.add(region, pucket)
            state._emit_move(EventKind.PUCKET_PROMOTE, pucket, region, src)
            return


def per_region_request_touch(container, state, regions, remote_ids):
    """``Container._start_next``'s loop before batching: touch, then
    ``FaaSMemPolicy.on_region_touched``, one region at a time."""
    for region in regions:
        per_region_cgroup_touch(container._owner_cgroup(region), region)
        per_region_on_touched(state, region, was_remote=region.region_id in remote_ids)


def faasmem_container():
    """One warm json container under FaaSMem that only the test moves.

    No heartbeat, no semi-warm and a keep-alive past the test's clock,
    so running the engine only advances time. The test relocates
    regions itself, so the swap datapath is unhooked from frees.
    """
    policy = FaaSMemPolicy(FaaSMemConfig(enable_semiwarm=False))
    platform = ServerlessPlatform(
        policy, config=PlatformConfig(seed=5, heartbeat_s=0.0, keep_alive_s=1e9)
    )
    platform.register_function("json", get_profile("json"))
    platform.submit("json", 0.0)
    platform.engine.run(until=30.0)
    [container] = platform.controller.all_containers()
    container.cgroup.on_remote_freed.clear()
    state = policy._ctl[container.container_id].state
    state.tracer = _Recorder()
    return container, state


def touch_snapshot(container, state, victims):
    """Everything a touch may change, in order, as plain values."""
    space = container.cgroup.space
    heap = space._age_heap
    return {
        "regions": [
            (r.region_id, r.name, r.segment, r.pages, r.location,
             r.accessed, r.last_access, r.access_count)
            for r in space.regions()
        ],
        "generations": [
            (gen.seq, [r.region_id for r in gen]) for gen in container.cgroup.mglru.generations
        ],
        "age_heap": None if heap is None else list(heap),
        "victims": victims,
        "puckets": [
            ([r.region_id for r in p.inactive_regions], [r.region_id for r in p.offloaded_regions])
            for p in (state.runtime_pucket, state.init_pucket)
        ],
        "hot": [(region.region_id, origin.name) for region, origin in state.hot_pool.entries()],
        "recalls": dict(state.recall_counts),
        "events": list(state.tracer.events),
    }


_TOUCH_OPS = pt.lists(
    pt.tuples(
        pt.sampled_from(
            ["request", "request", "request", "split", "offload", "abort", "fetch",
             "free", "rollback", "generation", "tmo", "alloc"]
        ),
        pt.integers(min_value=0, max_value=1 << 16),
        pt.integers(min_value=0, max_value=1 << 16),
    ),
    min_size=1,
    max_size=60,
)


class TestBatchedTouchMatchesPerRegion:
    """``Container._touch`` (one ``Cgroup.touch_many`` per owner, one
    ``on_regions_touched``) vs the per-region walk, over one persistent
    container and Pucket state per example: both replay the same
    operations from the same start (platforms restart region ids), and
    every step's snapshot must be equal."""

    @staticmethod
    def replay(ops, batched):
        container, state = faasmem_container()
        cgroup, space = container.cgroup, container.cgroup.space
        engine = container.platform.engine
        snapshots = []
        for step, (op, pick, size) in enumerate(ops):
            engine.run(until=31.0 + step)
            now = engine.now
            live = list(space.regions())
            local = [r for r in live if r.is_local]
            aged = [r for r in local if r.segment is not Segment.EXEC]
            remote = [r for r in live if r.is_remote]
            victims = None
            if op == "request":
                # A duplicate-free working set in any order; remote
                # members are faulted in first, as _start_next does.
                rng = random.Random(pick)
                regions = rng.sample(live, rng.randint(0, len(live)))
                remote_ids = {r.region_id for r in regions if r.is_remote}
                for region in regions:
                    if region.is_remote:
                        cgroup.mark_fetched(region)
                if batched:
                    container._touch(regions, remote_ids)
                else:
                    per_region_request_touch(container, state, regions, remote_ids)
            elif op == "split" and any(r.pages > 1 for r in aged):
                # Semi-warm's last victim: a slice split off and sent out.
                splittable = [r for r in aged if r.pages > 1]
                region = splittable[pick % len(splittable)]
                sibling = space.split(region, 1 + size % (region.pages - 1))
                state.note_offload(sibling)
                cgroup.mark_offloaded(sibling)
            elif op in ("offload", "abort") and aged:
                region = aged[pick % len(aged)]
                state.note_offload(region)
                if op == "offload":  # "abort": re-dirtied in flight, stays local
                    cgroup.mark_offloaded(region)
            elif op == "fetch" and remote:
                cgroup.mark_fetched(remote[pick % len(remote)])
            elif op == "free" and len(live) > 1:
                region = live[pick % len(live)]
                state.on_freed(region)
                cgroup.free(region)
            elif op == "rollback":
                state.roll_back_hot_pool(now)
            elif op == "generation":
                cgroup.mglru.new_generation(now, label="test")
            elif op == "tmo":
                budget = 1 + size % (2 * max(1, space.local_pages))
                victims = [r.region_id for r in space.coldest_local(budget)]
            elif op == "alloc":
                segment = list(Segment)[pick % len(Segment)]
                name = ("init/hot", "runtime/hot", "extra")[size % 3]
                cgroup.allocate(name, segment, 1 + size % 64)
            snapshots.append(touch_snapshot(container, state, victims))
        return snapshots

    @pt.settings(max_examples=100)
    @pt.given(_TOUCH_OPS)
    def test_batch_equals_per_region_walk(self, ops):
        batched = self.replay(ops, batched=True)
        walked = self.replay(ops, batched=False)
        for step, (got, expected) in enumerate(zip(batched, walked)):
            for key in expected:
                assert got[key] == expected[key], f"step {step} ({ops[step][0]}): {key}"

    def test_default_hook_reports_each_region_in_order(self):
        calls = []

        class Recorder(OffloadPolicy):
            def on_region_touched(self, container, region, was_remote=False):
                calls.append((container, region, was_remote))

        regions = [SimpleNamespace(region_id=i) for i in (3, 1, 2)]
        Recorder().on_regions_touched("c", regions, {1})
        assert calls == [("c", region, region.region_id == 1) for region in regions]


class TestTouchBatchIsAllOrNothing:
    @pytest.mark.parametrize("bad", ["remote", "unknown", "freed"])
    @pytest.mark.parametrize("position", [0, 2, 4])
    def test_rejected_batch_changes_nothing(self, bad, position):
        now, _, cgroup = fresh_cgroup()
        good = [
            cgroup.allocate(f"r{i}", (Segment.RUNTIME, Segment.INIT, Segment.EXEC)[i % 3], 2)
            for i in range(4)
        ]
        culprit = cgroup.allocate("bad", Segment.INIT, 2)
        if bad == "remote":
            cgroup.mark_offloaded(culprit)
        elif bad == "unknown":
            culprit = fresh_cgroup()[2].allocate("bad", Segment.INIT, 2)
        else:
            cgroup.free(culprit)
        cgroup.space.coldest_local(1)  # build the age index
        cgroup.mglru.new_generation(1.0)
        now[0] = 2.0
        batch = good[:position] + [culprit] + good[position:]

        def state():
            return (
                [(r.accessed, r.last_access, r.access_count) for r in batch],
                [cgroup.mglru.generation_of(r) for r in batch],
                list(cgroup.space._age_heap),
            )

        before = state()
        with pytest.raises(MemoryError_):
            cgroup.touch_many(batch)
        assert state() == before


# ----------------------------------------------------------------------
# Exec scratch: a page charge vs the region it replaced
# ----------------------------------------------------------------------


class RegionScratchCgroup(Cgroup):
    """``Cgroup`` with exec scratch as it was before page charges: a
    region allocated where ``charge`` is called and freed where
    ``uncharge`` is, unless ``free_all`` (a crash) already freed it."""

    _scratch = None

    def charge(self, segment, pages):
        self._scratch = self.allocate("exec/scratch", segment, pages)

    def uncharge(self, segment, pages):
        scratch, self._scratch = self._scratch, None
        if scratch is not None and not scratch.freed:
            self.free(scratch)


def next_region_id():
    """The id the next region will get, read without drawing it."""
    return int(repr(page._REGION_IDS)[len("count("):-1])


def scratch_platform(policy_name, capacity_mib):
    """A node replaying web, json and bert under one policy.

    ``capacity_mib`` None is a roomy, ungoverned node; otherwise the
    node is that small and governed by the default pressure config.
    """
    policy = {"none": NoOffloadPolicy, "tmo": TmoPolicy, "faasmem": FaaSMemPolicy}[policy_name]
    config = PlatformConfig(seed=11, heartbeat_s=5.0, keep_alive_s=120.0, trace_events=True)
    if capacity_mib is not None:
        config = replace(config, node_capacity_mib=capacity_mib, pressure=PressureConfig())
    platform = ServerlessPlatform(policy(), config=config)
    for name in ("web", "json", "bert"):
        platform.register_function(name, get_profile(name))
    return platform


def scratch_snapshot(platform, cgroups):
    """Every value the scratch's accounting reaches, as plain values."""
    node = platform.node
    return {
        "usage": node.usage_samples(),
        "peak": node.peak_pages,
        "average": node.average_pages(),
        "cgroups": [
            (name, cgroup.local_pages, cgroup.space.pages(Segment.EXEC, Location.LOCAL))
            for name, cgroup in cgroups.items()
        ],
        "next_id": next_region_id(),
        "records": [
            (r.invocation_id, r.container_id, r.start, r.completion, r.reclaim_stall_s)
            for r in platform.records
        ],
        "reclaims": [
            (event.time, event.data)
            for event in platform.tracer.events
            if event.kind == EventKind.DIRECT_RECLAIM.value
        ],
        "digest": platform.tracer.digest(),
    }


def replay_scratch(policy_name, capacity_mib, ops, charged):
    """Run ``ops`` on a fresh platform; exec scratch is charged, or a
    region as it was. Returns one snapshot per op."""
    with mock.patch(
        "repro.faas.container.Cgroup", Cgroup if charged else RegionScratchCgroup
    ):
        platform = scratch_platform(policy_name, capacity_mib)
        engine = platform.engine
        cgroups = {}
        snapshots = []
        for op, pick, gap in ops:
            live = platform.controller.all_containers()
            if op == "request":
                platform.submit(("web", "json", "bert")[pick % 3], engine.now + gap)
            elif op == "crash" and live:
                live[pick % len(live)].crash()
            elif op == "heartbeat" and live:
                live[pick % len(live)]._on_heartbeat()
            engine.run(until=engine.now + gap)
            for container in platform.controller.all_containers():
                cgroups.setdefault(container.container_id, container.cgroup)
            snapshots.append(scratch_snapshot(platform, cgroups))
        return snapshots


_SCRATCH_OPS = pt.lists(
    pt.tuples(
        pt.sampled_from(["request", "request", "request", "crash", "heartbeat", "wait"]),
        pt.integers(min_value=0, max_value=1 << 16),
        pt.sampled_from([0.0, 1e-3, 0.05, 0.2, 1.0, 3.0, 8.0, 30.0]),
    ),
    min_size=1,
    max_size=30,
)


class TestExecChargeMatchesScratchRegion:
    """``Cgroup.charge``/``uncharge`` for exec scratch vs allocating and
    freeing an ``exec/scratch`` region (:class:`RegionScratchCgroup`),
    over random request, crash and heartbeat sequences on one platform
    per example: node usage, per-cgroup pages, the next region id,
    request records, direct reclaims and the trace digest must be equal
    after every step."""

    @pt.settings(max_examples=40)
    @pt.given(
        pt.sampled_from(["none", "tmo", "faasmem"]),
        pt.sampled_from([None, None, 1125.0, 1400.0]),
        _SCRATCH_OPS,
    )
    def test_charge_equals_region(self, policy_name, capacity_mib, ops):
        charged = replay_scratch(policy_name, capacity_mib, ops, charged=True)
        region = replay_scratch(policy_name, capacity_mib, ops, charged=False)
        for step, (got, expected) in enumerate(zip(charged, region)):
            for key in expected:
                assert got[key] == expected[key], f"step {step} ({ops[step][0]}): {key}"

    @pytest.mark.parametrize("policy_name", ["none", "tmo", "faasmem"])
    def test_charge_crossing_min_watermark_reclaims_alike(self, policy_name):
        """On a 1125 MiB governed node, bert's warm request at 50 s
        charges its 210 MiB scratch below the min watermark: direct
        reclaim runs inside the charge, owned by bert, and the stall
        lands on that request, as it did for the region."""
        web, bert = 0, 2  # picks in replay_scratch's function list
        ops = [("request", web, 0.0), ("wait", 0, 10.0), ("request", bert, 0.0),
               ("wait", 0, 30.0), ("request", bert, 0.0), ("wait", 0, 1.0),
               ("request", web, 0.0), ("wait", 0, 9.0), ("request", bert, 0.0),
               ("wait", 0, 10.0)]
        crossings = []
        real_charge = Cgroup.charge

        def charge(cgroup, segment, pages):
            before = cgroup.node.local_pages
            real_charge(cgroup, segment, pages)
            if cgroup.node.local_pages < before + pages:
                crossings.append((cgroup.name, cgroup._clock()))

        with mock.patch.object(Cgroup, "charge", charge):
            charged = replay_scratch(policy_name, 1125.0, ops, charged=True)
        region = replay_scratch(policy_name, 1125.0, ops, charged=False)
        assert crossings == [("bert-2", 50.0)]
        assert charged == region
        assert (50.0, "bert-2") in [
            (event[0], event[1]["owner"]) for event in charged[-1]["reclaims"]
        ]
        [record] = [r for r in charged[-1]["records"] if r[2] == 50.0]
        assert record[1] == "bert-2" and record[4] > 0


# ----------------------------------------------------------------------
# Keep-alive replay: two sorted deques vs scanning every live span
# ----------------------------------------------------------------------


def scan_replay_keepalive(timestamps, timeout, exec_time=1.0, horizon=None):
    """The per-arrival scan ``replay_keepalive`` replaced (list input)."""
    live = []
    finished = []
    cold_starts = 0
    for arrival in timestamps:
        still_live = []
        for span in live:
            if span.idle_since + timeout < arrival:
                span.ended_at = span.idle_since + timeout
                finished.append(span)
            else:
                still_live.append(span)
        live = still_live
        available = [span for span in live if span.idle_since <= arrival]
        if available:
            span = max(available, key=lambda s: s.idle_since)
            span.reused_intervals.append(arrival - span.idle_since)
        else:
            span = ContainerSpan(created_at=arrival, idle_since=arrival)
            live.append(span)
            cold_starts += 1
        span.requests += 1
        span.busy_time += exec_time
        span.idle_since = arrival + exec_time
    for span in live:
        expiry = span.idle_since + timeout
        if horizon is None:
            span.ended_at = expiry
        else:
            span.ended_at = min(expiry, max(horizon, span.idle_since))
        finished.append(span)
    finished.sort(key=lambda s: s.created_at)
    return KeepAliveReplay(
        timeout=timeout,
        exec_time=exec_time,
        containers=finished,
        cold_starts=cold_starts,
        total_requests=len(timestamps),
    )


_GAP = pt.one_of(
    # Duplicates and whole seconds: tied idle times and arrivals landing
    # exactly on a keep-alive expiry.
    pt.sampled_from([0.0, 0.0, 1.0, 2.0, 3.0, 5.0, 10.0]),
    # Gaps that vanish once exec_time is added: distinct arrivals, tied
    # idle times.
    pt.sampled_from([1e-17, 3e-17]),
    pt.floats(min_value=0.0, max_value=40.0),
)
_EXEC = pt.one_of(
    pt.sampled_from([1.0, 2.0, 3.0, 8.0]), pt.floats(min_value=0.01, max_value=30.0)
)
_TIMEOUT = pt.one_of(
    pt.sampled_from([0.5, 1.0, 2.0, 5.0, 10.0, 60.0]),
    pt.floats(min_value=1e-3, max_value=100.0),
)


def _arrivals(start, gaps):
    timestamps = [start]
    for gap in gaps:
        timestamps.append(timestamps[-1] + gap)
    return timestamps


class TestReplayMatchesScan:
    @pt.settings(max_examples=400)
    @pt.given(
        pt.sampled_from([0.0, 0.0, 3.0, 1000.0]),
        pt.lists(_GAP, min_size=0, max_size=60),
        _TIMEOUT,
        _EXEC,
        pt.sampled_from(["none", "before", "after"]),
        pt.floats(min_value=0.0, max_value=1.0),
    )
    def test_spans_equal_scan(self, start, gaps, timeout, exec_time, mode, where):
        timestamps = _arrivals(start, gaps)
        last = timestamps[-1]
        horizon = {
            "none": None,
            "before": last * where,
            "after": last + 100.0 * where,
        }[mode]
        got = replay_keepalive(timestamps, timeout, exec_time, horizon=horizon)
        ref = scan_replay_keepalive(timestamps, timeout, exec_time, horizon=horizon)
        # repr compares every ContainerSpan field bit for bit, in order.
        assert repr(got.containers) == repr(ref.containers)
        assert got.cold_starts == ref.cold_starts
        assert got.total_requests == ref.total_requests == len(timestamps)


# ----------------------------------------------------------------------
# Arrival generators: one array sort vs the per-element Python loops
# ----------------------------------------------------------------------


def loop_poisson(rng, rate_per_s, duration):
    if rate_per_s == 0:
        return []
    count = rng.poisson(rate_per_s * duration)
    return sorted(rng.uniform(0.0, duration, count).tolist())


def loop_periodic(rng, interval_s, duration, jitter_s=0.0, phase=None):
    start = rng.uniform(0.0, interval_s) if phase is None else phase
    points = np.arange(start, duration, interval_s)
    if jitter_s > 0:
        points = points + rng.uniform(-jitter_s, jitter_s, len(points))
    return sorted(float(t) for t in points if 0 <= t < duration)


def loop_bursty(
    rng, duration, burst_rate_per_s, mean_burst_s=30.0, mean_gap_s=300.0, min_gap_s=0.0
):
    gap_tail = mean_gap_s - min_gap_s

    def gap():
        return min_gap_s + float(rng.exponential(gap_tail))

    timestamps = []
    clock = gap()
    while clock < duration:
        burst_end = min(clock + float(rng.exponential(mean_burst_s)), duration)
        span = burst_end - clock
        if span > 0 and burst_rate_per_s > 0:
            count = rng.poisson(burst_rate_per_s * span)
            timestamps.extend(rng.uniform(clock, burst_end, count).tolist())
        clock = burst_end + gap()
    return sorted(timestamps)


def loop_diurnal(rng, mean_rate_per_s, duration, period_s=86400.0, depth=0.8):
    peak = mean_rate_per_s * (1 + depth)
    candidates = loop_poisson(rng, peak, duration)
    if not candidates:
        return []
    phase = rng.uniform(0, period_s)
    kept = []
    for timestamp in candidates:
        instantaneous = mean_rate_per_s * (
            1 + depth * np.sin(2 * np.pi * (timestamp + phase) / period_s)
        )
        if rng.random() < instantaneous / peak:
            kept.append(timestamp)
    return kept


def loop_surge(rng, duration, base_rate_per_s, surge_at, surge_len_s, surge_rate_per_s):
    base = loop_poisson(rng, base_rate_per_s, duration)
    surge_end = min(surge_at + surge_len_s, duration)
    count = rng.poisson(surge_rate_per_s * (surge_end - surge_at))
    return sorted(base + rng.uniform(surge_at, surge_end, count).tolist())


def loop_sample_function_trace(load, duration, seed):
    """``sample_function_trace``'s timestamps through the loop references."""
    rng = RandomStreams(seed=seed).get(f"trace-{load}")
    if load == "high":
        return sorted(
            loop_bursty(rng, duration, 1.2, mean_burst_s=90.0, mean_gap_s=180.0)
            + loop_poisson(rng, 0.05, duration)
        )
    if load == "low":
        return loop_poisson(rng, 1.0 / 100.0, duration)
    if load == "middle":
        return loop_poisson(rng, 1.0 / 15.0, duration)
    if load == "bursty":
        return loop_bursty(rng, duration, 2.0, mean_burst_s=400.0, mean_gap_s=450.0)
    return loop_surge(rng, duration, 1.0 / 90.0, duration * 0.4, 30.0, 3.0)


def _same_draws(generate, reference, seed):
    """Equal lists from equal generators, which end in equal states."""
    fast = np.random.default_rng(seed)
    slow = np.random.default_rng(seed)
    assert generate(fast) == reference(slow)
    assert fast.bit_generator.state == slow.bit_generator.state


_SEED = pt.integers(min_value=0, max_value=1 << 30)
_RATE = pt.one_of(pt.sampled_from([0.0, 1e-3, 0.05]), pt.floats(min_value=0.0, max_value=3.0))
_DURATION = pt.one_of(pt.sampled_from([1.0, 3600.0]), pt.floats(min_value=1.0, max_value=7200.0))


class TestGeneratorsMatchLoops:
    @pt.settings(max_examples=150)
    @pt.given(_SEED, _RATE, _DURATION)
    def test_poisson(self, seed, rate, duration):
        _same_draws(
            lambda rng: patterns.poisson_arrivals(rng, rate, duration),
            lambda rng: loop_poisson(rng, rate, duration),
            seed,
        )

    @pt.settings(max_examples=150)
    @pt.given(
        _SEED,
        pt.floats(min_value=0.5, max_value=600.0),
        _DURATION,
        pt.sampled_from([0.0, 0.5, 2.0, 30.0]),
        pt.one_of(pt.sampled_from([None, 0.0]), pt.floats(min_value=0.0, max_value=50.0)),
    )
    def test_periodic(self, seed, interval, duration, jitter, phase):
        _same_draws(
            lambda rng: patterns.periodic_arrivals(rng, interval, duration, jitter, phase),
            lambda rng: loop_periodic(rng, interval, duration, jitter, phase),
            seed,
        )

    @pt.settings(max_examples=150)
    @pt.given(
        _SEED,
        _DURATION,
        _RATE,
        pt.floats(min_value=1.0, max_value=400.0),
        pt.floats(min_value=10.0, max_value=900.0),
        pt.floats(min_value=0.0, max_value=0.9),
    )
    def test_bursty(self, seed, duration, rate, mean_burst, mean_gap, min_gap_share):
        min_gap = mean_gap * min_gap_share
        _same_draws(
            lambda rng: patterns.bursty_arrivals(
                rng, duration, rate, mean_burst, mean_gap, min_gap
            ),
            lambda rng: loop_bursty(rng, duration, rate, mean_burst, mean_gap, min_gap),
            seed,
        )

    @pt.settings(max_examples=150)
    @pt.given(
        _SEED,
        pt.one_of(pt.sampled_from([0.0, 1.0]), pt.floats(min_value=0.0, max_value=2000.0)),
        pt.one_of(pt.sampled_from([3600.0, 86400.0]), pt.floats(min_value=1.0, max_value=86400.0)),
        pt.one_of(pt.sampled_from([600.0, 86400.0]), pt.floats(min_value=1.0, max_value=1e5)),
        pt.one_of(pt.sampled_from([0.0, 0.8, 1.0]), pt.floats(min_value=0.0, max_value=1.0)),
    )
    def test_diurnal(self, seed, expected, duration, period, depth):
        rate = expected / duration
        _same_draws(
            lambda rng: patterns.diurnal_arrivals(rng, rate, duration, period, depth),
            lambda rng: loop_diurnal(rng, rate, duration, period, depth),
            seed,
        )

    @pt.settings(max_examples=150)
    @pt.given(
        _SEED,
        _DURATION,
        _RATE,
        pt.floats(min_value=0.0, max_value=0.99),
        pt.floats(min_value=0.0, max_value=600.0),
        pt.floats(min_value=0.0, max_value=10.0),
    )
    def test_surge(self, seed, duration, base_rate, at_share, surge_len, surge_rate):
        surge_at = duration * at_share
        _same_draws(
            lambda rng: patterns.surge_arrivals(
                rng, duration, base_rate, surge_at, surge_len, surge_rate
            ),
            lambda rng: loop_surge(rng, duration, base_rate, surge_at, surge_len, surge_rate),
            seed,
        )

    @pt.settings(max_examples=40)
    @pt.given(
        _SEED,
        pt.sampled_from([HOUR, 2 * HOUR, 6 * HOUR]),
    )
    def test_sample_function_trace_every_load(self, seed, duration):
        for load in ("high", "low", "middle", "bursty", "surge"):
            trace = sample_function_trace(load, duration=duration, seed=seed)
            assert trace.timestamps == loop_sample_function_trace(load, duration, seed)

    @pt.settings(max_examples=30)
    @pt.given(_SEED)
    def test_azure_population(self, seed):
        config = AzureTraceConfig(n_functions=40, seed=seed)
        fast = generate_azure_like(config)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(azure, "poisson_arrivals", loop_poisson)
            patch.setattr(azure, "periodic_arrivals", loop_periodic)
            patch.setattr(azure, "bursty_arrivals", loop_bursty)
            patch.setattr(azure, "diurnal_arrivals", loop_diurnal)
            slow = generate_azure_like(config)
        assert list(fast.functions) == list(slow.functions)
        for name, trace in fast.functions.items():
            assert trace.timestamps == slow.functions[name].timestamps
