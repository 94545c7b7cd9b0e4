"""Differential tests: each incremental hot-path structure against the scan it replaced.

* ``AddressSpace`` indexes and page counters vs a naive scan of the live
  regions, over random allocate/split/touch/free/offload/fetch sequences.
* ``FunctionProfiler``'s sorted-history percentile vs ``np.percentile``
  over the same samples, compared with ``==``.
* ``TmoPolicy``'s heap-picked victims vs a full sort of the candidates.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from repro.baselines.tmo import TmoPolicy
from repro.core.config import FaaSMemConfig
from repro.core.profiler import FunctionProfiler, sorted_percentile
from repro.mem.cgroup import Cgroup
from repro.mem.node import ComputeNode
from repro.mem.page import Location, Segment

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


def check_space_against_scan(space, live):
    ordered = sorted(live, key=lambda r: r.region_id)
    assert list(space.regions()) == ordered
    ids = [r.region_id for r in space.regions()]
    assert ids == sorted(ids)
    for segment in Segment:
        assert list(space.regions(segment)) == [r for r in ordered if r.segment is segment]
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
                cgroup.free(live.pop(pick % len(live)))
            elif op == "offload" and local:
                cgroup.mark_offloaded(local[pick % len(local)])
            elif op == "fetch" and remote:
                cgroup.mark_fetched(remote[pick % len(remote)])
            check_space_against_scan(space, live)
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
        for region in cgroup.local_regions(segment)
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
