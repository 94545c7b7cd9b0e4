"""Unit tests for the container lifecycle."""

import pytest

from repro.errors import LifecycleError
from repro.faas.container import ContainerState
from repro.faas.request import Invocation
from repro.mem.page import Segment
from repro.units import pages_from_mib
from repro.workloads import get_profile

from tests.conftest import make_platform


@pytest.fixture
def platform():
    p = make_platform()
    p.register_function("web", get_profile("web"))
    p.register_function("json", get_profile("json"))
    return p


def run_one(platform, fn="web", at=0.0):
    platform.submit(fn, at)
    platform.engine.run(until=at + 60.0)
    return platform.controller.all_containers()[0]


class TestLifecycle:
    def test_cold_start_walks_stages(self, platform):
        profile = get_profile("web")
        platform.submit("web", 0.0)
        platform.engine.run(until=profile.runtime.launch_time_s / 2)
        container = platform.controller.all_containers()[0]
        assert container.state is ContainerState.LAUNCHING
        platform.engine.run(until=profile.runtime.launch_time_s + 0.01)
        assert container.state is ContainerState.INITIALIZING
        platform.engine.run(until=profile.cold_start_s + 0.01)
        assert container.state is ContainerState.BUSY
        platform.engine.run(until=60.0)
        assert container.state is ContainerState.IDLE

    def test_memory_segments_allocated(self, platform):
        container = run_one(platform)
        runtime_pages = container.cgroup.space.pages(Segment.RUNTIME)
        init_pages = container.cgroup.space.pages(Segment.INIT)
        assert runtime_pages > 0
        assert init_pages > 0
        # Exec scratch is freed after the request completes.
        assert container.cgroup.space.pages(Segment.EXEC) == 0

    def test_transient_init_memory_freed(self, platform):
        platform.register_function("bert", get_profile("bert"))
        platform.submit("bert", 0.0)
        profile = get_profile("bert")
        # During init the transient allocation is resident.
        platform.engine.run(until=profile.runtime.launch_time_s + 0.1)
        container = platform.controller.all_containers()[0]
        during = container.cgroup.space.pages(Segment.INIT)
        platform.engine.run(until=profile.cold_start_s + 0.1)
        after = container.cgroup.space.pages(Segment.INIT)
        assert during - after == pytest.approx(200 * 256)  # 200 MiB transient

    def test_request_record_fields(self, platform):
        run_one(platform)
        record = platform.records[0]
        assert record.cold_start
        assert record.latency >= get_profile("web").cold_start_s
        assert record.queue_wait > 0
        assert not record.semi_warm_start

    def test_warm_request_is_fast(self, platform):
        platform.submit("web", 0.0)
        platform.submit("web", 30.0)
        platform.engine.run(until=60.0)
        warm = platform.records[1]
        assert not warm.cold_start
        assert warm.latency < 0.5

    def test_reuse_interval_captured(self, platform):
        platform.submit("web", 0.0)
        platform.submit("web", 30.0)
        platform.engine.run(until=60.0)
        container = platform.controller.all_containers()[0]
        first_done = platform.records[0].completion
        assert container.last_reuse_interval == pytest.approx(30.0 - first_done)

    def test_queued_requests_serialize(self, platform):
        for at in (0.0, 0.05, 0.1):
            platform.submit("web", at)
        platform.engine.run(until=120.0)
        assert len(platform.records) == 3
        starts = sorted(r.start for r in platform.records)
        for earlier, later in zip(starts, starts[1:]):
            assert later >= earlier


class TestKeepAlive:
    def test_reclaim_after_timeout(self):
        platform = make_platform(keep_alive_s=30.0)
        platform.register_function("web", get_profile("web"))
        platform.submit("web", 0.0)
        platform.engine.run()
        assert platform.controller.all_containers() == []
        history = platform.container_history[0]
        assert history.reclaimed_at is not None

    def test_request_restarts_keepalive(self):
        platform = make_platform(keep_alive_s=30.0)
        platform.register_function("web", get_profile("web"))
        platform.submit("web", 0.0)
        platform.submit("web", 25.0)
        platform.engine.run(until=40.0)
        # Without the restart the container would be gone by now.
        assert len(platform.controller.all_containers()) == 1

    def test_reclaim_frees_all_memory(self):
        platform = make_platform(keep_alive_s=30.0)
        platform.register_function("web", get_profile("web"))
        platform.submit("web", 0.0)
        platform.engine.run()
        assert platform.node.local_pages == 0

    def test_cannot_reclaim_busy(self, platform):
        platform.submit("web", 0.0)
        profile = get_profile("web")
        platform.engine.run(until=profile.cold_start_s + 0.01)
        container = platform.controller.all_containers()[0]
        assert container.state is ContainerState.BUSY
        with pytest.raises(LifecycleError):
            container.reclaim()

    def test_enqueue_on_reclaimed_rejected(self):
        platform = make_platform(keep_alive_s=5.0)
        platform.register_function("web", get_profile("web"))
        platform.submit("web", 0.0)
        platform.engine.run()
        # Grab the (reclaimed) container via a fresh dispatch path check.
        # Build one manually instead:
        from repro.faas.container import Container

        container = Container(platform, platform.function("web"), "c-x")
        platform.engine.run(until=platform.engine.now + 60.0)
        container.reclaim()
        with pytest.raises(LifecycleError):
            container.enqueue(Invocation(function="web", arrival=0.0))

    def test_reclaim_idempotent(self):
        platform = make_platform(keep_alive_s=5.0)
        platform.register_function("web", get_profile("web"))
        platform.submit("web", 0.0)
        platform.engine.run()
        # All containers already reclaimed; calling again must not blow up.
        for history in platform.container_history:
            assert history.reclaimed_at is not None


class TestCrashReleasesExecScratch:
    """Exec scratch is a page charge, not a region, so ``free_all`` does
    not release it: ``crash`` must uncharge it exactly once."""

    def _busy(self, platform, fn="web"):
        profile = get_profile(fn)
        platform.submit(fn, 0.0)
        platform.engine.run(until=profile.cold_start_s + 0.01)
        [container] = platform.controller.all_containers()
        assert container.state is ContainerState.BUSY
        return container

    def test_mid_request_crash_releases_all_pages(self, platform):
        before = platform.node.local_pages
        container = self._busy(platform)
        space = container.cgroup.space
        assert space.pages(Segment.EXEC) == pages_from_mib(get_profile("web").exec_mib)
        orphans = container.crash()
        assert len(orphans) == 1
        assert platform.node.local_pages == before
        assert space.pages(Segment.EXEC) == 0
        assert container.cgroup.local_pages == 0

    def test_crash_after_completion_does_not_uncharge_again(self, platform):
        before = platform.node.local_pages
        container = run_one(platform)
        assert container.state is ContainerState.IDLE
        assert container.cgroup.space.pages(Segment.EXEC) == 0
        assert container.crash() == []
        assert platform.node.local_pages == before
        assert container.cgroup.local_pages == 0

    def test_crash_on_second_request_releases_its_charge(self, platform):
        before = platform.node.local_pages
        container = run_one(platform)
        platform.submit("web", platform.engine.now)
        platform.engine.run(until=platform.engine.now + 1e-3)
        assert container.state is ContainerState.BUSY
        container.crash()
        assert platform.node.local_pages == before
        assert container.cgroup.space.pages(Segment.EXEC) == 0


class TestHeartbeat:
    def test_heartbeat_touches_runtime_hot(self, platform):
        container = run_one(platform)
        before = container.runtime_hot.access_count
        platform.engine.run(until=platform.engine.now + 120.0)
        assert container.runtime_hot.access_count > before

    def test_heartbeat_disabled(self):
        from repro.faas import PlatformConfig
        from repro.baselines import NoOffloadPolicy
        from repro.faas.platform import ServerlessPlatform

        platform = ServerlessPlatform(
            NoOffloadPolicy(), config=PlatformConfig(heartbeat_s=0.0)
        )
        platform.register_function("web", get_profile("web"))
        platform.submit("web", 0.0)
        platform.engine.run(until=60.0)
        container = platform.controller.all_containers()[0]
        count = container.runtime_hot.access_count
        platform.engine.run(until=300.0)
        assert container.runtime_hot.access_count == count
