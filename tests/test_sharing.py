"""Tests for FAASM-style shared runtime images (§9 discussion)."""

import pytest

from repro.baselines import NoOffloadPolicy
from repro.core import FaaSMemPolicy
from repro.errors import ReproError
from repro.faas import PlatformConfig, ServerlessPlatform
from repro.units import pages_from_mib
from repro.workloads import get_profile


def build(share=True, policy=None, keep_alive_s=600.0, qb=0):
    platform = ServerlessPlatform(
        policy or NoOffloadPolicy(),
        config=PlatformConfig(
            seed=3,
            share_runtime=share,
            keep_alive_s=keep_alive_s,
            max_queue_per_container=qb,
        ),
    )
    platform.register_function("json", get_profile("json"))
    return platform


def spawn_concurrent(platform, n=4):
    for index in range(n):
        platform.submit("json", 0.001 * index)
    platform.engine.run(until=30.0)
    return platform.controller.all_containers()


class TestSharedRuntimeRegistry:
    def test_one_image_for_many_containers(self):
        platform = build()
        containers = spawn_concurrent(platform, 4)
        assert len(containers) == 4
        assert len(platform.runtime_shares) == 1
        image = platform.runtime_shares.image_of("json")
        assert image.refcount == 4

    def test_node_counts_runtime_once(self):
        shared = build(share=True)
        spawn_concurrent(shared, 4)
        private = build(share=False)
        spawn_concurrent(private, 4)
        runtime_pages = pages_from_mib(
            get_profile("json").runtime.hot_mib + get_profile("json").runtime.cold_mib
        )
        saved = private.node.local_pages - shared.node.local_pages
        # Three private copies' worth of runtime memory disappears
        # (minus whatever the first-request reactive offload already
        # moved in the shared case).
        assert saved >= 2 * runtime_pages * 0.5

    def test_containers_share_the_same_regions(self):
        platform = build()
        containers = spawn_concurrent(platform, 2)
        assert containers[0].runtime_hot is containers[1].runtime_hot

    def test_image_freed_when_last_container_reclaimed(self):
        platform = build(keep_alive_s=20.0)
        spawn_concurrent(platform, 3)
        platform.engine.run()
        assert len(platform.runtime_shares) == 0
        assert platform.node.local_pages == 0
        assert platform.pool.used_pages == 0

    def test_over_release_rejected(self):
        platform = build()
        spawn_concurrent(platform, 1)
        platform.runtime_shares.release("json")
        with pytest.raises(ReproError):
            platform.runtime_shares.release("json")

    def test_release_unknown_rejected(self):
        platform = build()
        with pytest.raises(ReproError):
            platform.runtime_shares.release("nope")


class TestSharedColdOffload:
    def test_shared_cold_offloaded_after_first_request(self):
        platform = build()
        spawn_concurrent(platform, 2)
        image = platform.runtime_shares.image_of("json")
        assert image.first_request_done
        assert all(region.is_remote for region in image.cold)

    def test_hot_core_stays_local(self):
        platform = build()
        spawn_concurrent(platform, 2)
        image = platform.runtime_shares.image_of("json")
        assert image.hot.is_local

    def test_warm_requests_work_after_offload(self):
        platform = build()
        spawn_concurrent(platform, 2)
        platform.submit("json", 60.0)
        platform.engine.run(until=90.0)
        assert len(platform.records) == 3
        assert all(r.latency < 5.0 for r in platform.records)

    def test_request_touches_every_part_of_a_split_shared_region(self):
        # Shared regions live in the image's cgroup, not the
        # container's: their split-off siblings must be found there.
        platform = build()
        spawn_concurrent(platform, 1)
        image = platform.runtime_shares.image_of("json")
        sibling = image.cgroup.space.split(image.hot, 1)
        touches = (image.hot.access_count, sibling.access_count)
        platform.submit("json", 40.0)
        platform.engine.run(until=40.5)
        assert len(platform.records) == 2
        assert image.hot.last_access == sibling.last_access == 40.0
        assert image.hot.access_count == touches[0] + 1
        assert sibling.access_count == touches[1] + 1


class TestCombinedWithFaaSMem:
    def test_sharing_plus_faasmem_beats_either(self):
        duration = 600.0
        from repro.traces.azure import sample_function_trace

        trace = sample_function_trace("high", duration=duration, seed=8)

        def avg_mem(share, policy):
            platform = ServerlessPlatform(
                policy,
                config=PlatformConfig(seed=3, share_runtime=share),
            )
            platform.register_function("json", get_profile("json"))
            platform.run_trace((t, "json") for t in trace.timestamps)
            return platform.summarize("json", "t", window=duration).memory.average_mib

        baseline = avg_mem(False, NoOffloadPolicy())
        sharing_only = avg_mem(True, NoOffloadPolicy())
        faasmem_only = avg_mem(False, FaaSMemPolicy(reuse_priors={"json": [5.0] * 50}))
        combined = avg_mem(True, FaaSMemPolicy(reuse_priors={"json": [5.0] * 50}))
        assert sharing_only <= baseline
        assert combined <= sharing_only
        assert combined <= faasmem_only * 1.05

    def test_faasmem_ignores_shared_regions_cleanly(self):
        platform = build(policy=FaaSMemPolicy())
        containers = spawn_concurrent(platform, 2)
        # The per-container Runtime Pucket is empty under sharing; the
        # policy must not crash and must still handle init pages.
        policy = platform.policy
        ctl = policy._ctl[containers[0].container_id]
        assert ctl.state.runtime_pucket.inactive_pages == 0
