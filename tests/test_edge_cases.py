"""Edge-case coverage across subsystems."""

import pytest

from repro.baselines import NoOffloadPolicy
from repro.core import FaaSMemConfig, FaaSMemPolicy
from repro.faas import PlatformConfig, ServerlessPlatform
from repro.faas.container import ContainerState
from repro.mem.page import Location, Segment
from repro.sim.engine import Engine
from repro.units import pages_from_mib
from repro.workloads import get_profile


class TestSimultaneousEvents:
    def test_many_arrivals_at_same_instant(self):
        platform = ServerlessPlatform(NoOffloadPolicy(), config=PlatformConfig(seed=1))
        platform.register_function("json", get_profile("json"))
        for _ in range(10):
            platform.submit("json", 5.0)
        platform.engine.run(until=120.0)
        assert len(platform.records) == 10

    def test_request_at_time_zero(self):
        platform = ServerlessPlatform(NoOffloadPolicy(), config=PlatformConfig(seed=1))
        platform.register_function("json", get_profile("json"))
        platform.submit("json", 0.0)
        platform.engine.run(until=60.0)
        assert platform.records[0].arrival == 0.0

    def test_request_exactly_at_keepalive_expiry(self):
        # Request arriving at the exact keep-alive expiry instant: the
        # expiry event was scheduled first, so the container dies and
        # the request cold-starts — no crash, no lost request.
        platform = ServerlessPlatform(
            NoOffloadPolicy(), config=PlatformConfig(seed=1, keep_alive_s=30.0)
        )
        platform.register_function("json", get_profile("json"))
        platform.submit("json", 0.0)
        platform.engine.run(until=20.0)
        idle_since = platform.controller.all_containers()[0].idle_since
        platform.submit("json", idle_since + 30.0)
        platform.engine.run()
        assert len(platform.records) == 2


class TestFaaSMemEdges:
    def test_container_reclaimed_mid_semiwarm_drain(self):
        priors = {"bert": [1.0] * 50}
        policy = FaaSMemPolicy(reuse_priors=priors)
        platform = ServerlessPlatform(
            policy, config=PlatformConfig(seed=2, keep_alive_s=30.0)
        )
        platform.register_function("bert", get_profile("bert"))
        platform.submit("bert", 0.0)
        # Keep-alive (30 s) expires while the 1 %/s drain of a ~1 GiB
        # container is still in progress.
        platform.engine.run()
        assert platform.node.local_pages == 0
        assert platform.pool.used_pages == 0
        assert len(policy.reports) == 1

    def test_zero_request_container_never_exists(self):
        policy = FaaSMemPolicy()
        platform = ServerlessPlatform(policy, config=PlatformConfig(seed=2))
        platform.register_function("json", get_profile("json"))
        platform.engine.run()
        assert policy.reports == []

    def test_single_request_function_init_window_never_closes(self):
        config = FaaSMemConfig(enable_semiwarm=False, gradient_stable_rounds=3)
        policy = FaaSMemPolicy(config)
        platform = ServerlessPlatform(
            policy, config=PlatformConfig(seed=2, keep_alive_s=30.0)
        )
        platform.register_function("json", get_profile("json"))
        platform.submit("json", 0.0)
        platform.engine.run()
        report = policy.reports[0]
        # One request cannot close a 3-stable-rounds window.
        assert report.window_size is None
        # But the runtime Pucket still offloaded reactively.
        assert platform.fastswap.stats.offloaded_pages > 0

    def test_rollback_never_happens_without_offload(self):
        config = FaaSMemConfig(enable_semiwarm=False)
        policy = FaaSMemPolicy(config)
        platform = ServerlessPlatform(
            policy, config=PlatformConfig(seed=2, keep_alive_s=30.0)
        )
        platform.register_function("json", get_profile("json"))
        platform.submit("json", 0.0)
        platform.engine.run()
        assert policy.reports[0].max_rollback_s == 0.0


class TestStrictCapacity:
    def test_strict_node_raises_on_overflow(self):
        from repro.errors import CapacityError

        platform = ServerlessPlatform(
            NoOffloadPolicy(),
            config=PlatformConfig(
                seed=1, node_capacity_mib=64.0, strict_node_capacity=True
            ),
        )
        platform.register_function("bert", get_profile("bert"))
        platform.submit("bert", 0.0)
        with pytest.raises(CapacityError):
            platform.engine.run(until=60.0)


class TestExecSegment:
    @pytest.mark.parametrize("system", ["tmo", "damon", "faasmem"])
    def test_exec_regions_never_offloaded(self, system):
        """§3.3: offloading exec-segment memory is pointless; no policy
        ever targets it. Every request's scratch stays local while it
        runs and is gone once the container idles."""
        from repro.baselines import DamonPolicy, TmoPolicy

        policies = {
            "tmo": TmoPolicy,
            "damon": DamonPolicy,
            "faasmem": FaaSMemPolicy,
        }
        platform = ServerlessPlatform(
            policies[system](), config=PlatformConfig(seed=3)
        )
        profile = get_profile("image")
        platform.register_function("image", profile)
        scratch = pages_from_mib(profile.exec_mib)
        for index in range(5):
            arrival = index * 10.0
            platform.submit("image", arrival)
            startup = profile.cold_start_s if index == 0 else 0.0
            platform.engine.run(until=arrival + startup + 1e-3)
            [container] = platform.controller.all_containers()
            space = container.cgroup.space
            assert container.state is ContainerState.BUSY
            assert space.pages(Segment.EXEC, Location.LOCAL) == scratch
            assert space.pages(Segment.EXEC, Location.REMOTE) == 0
            platform.engine.run(until=arrival + 9.99)
            assert container.state is ContainerState.IDLE
            assert space.pages(Segment.EXEC) == 0
        platform.engine.run(until=120.0)
        assert space.pages(Segment.EXEC) == 0


class TestEngineEdges:
    def test_callback_exception_propagates(self):
        engine = Engine()

        def boom():
            raise RuntimeError("kaput")

        engine.schedule(1.0, boom)
        with pytest.raises(RuntimeError):
            engine.run()
        # Engine is usable again afterwards.
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.run()
        assert fired == [1]

    def test_zero_delay_event(self):
        engine = Engine()
        fired = []
        engine.schedule(0.0, lambda: fired.append(engine.now))
        engine.run()
        assert fired == [0.0]
