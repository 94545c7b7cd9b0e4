"""Integration-style tests for the FaaSMem policy on the platform."""


from repro.core import FaaSMemConfig, FaaSMemPolicy
from repro.faas import PlatformConfig, ServerlessPlatform
from repro.mem.page import Segment
from repro.workloads import get_profile


def build(benchmark="web", config=None, priors=None, keep_alive_s=600.0, seed=1):
    policy = FaaSMemPolicy(config=config, reuse_priors=priors)
    platform = ServerlessPlatform(
        policy, config=PlatformConfig(seed=seed, keep_alive_s=keep_alive_s)
    )
    platform.register_function(benchmark, get_profile(benchmark))
    return platform, policy


class TestVariantNames:
    def test_names(self):
        assert FaaSMemPolicy().name == "faasmem"
        assert FaaSMemPolicy(FaaSMemConfig(enable_pucket=False)).name == "faasmem-no-pucket"
        assert (
            FaaSMemPolicy(FaaSMemConfig(enable_semiwarm=False)).name
            == "faasmem-no-semiwarm"
        )
        assert (
            FaaSMemPolicy(
                FaaSMemConfig(enable_pucket=False, enable_semiwarm=False)
            ).name
            == "faasmem-disabled"
        )


class TestRuntimeReactiveOffload:
    def test_runtime_cold_offloaded_after_first_request(self):
        platform, policy = build("json")
        platform.submit("json", 0.0)
        platform.engine.run(until=30.0)
        container = platform.controller.all_containers()[0]
        cold = [
            r
            for r in container.cgroup.space.regions(Segment.RUNTIME)
            if r.name.startswith("runtime/cold")
        ]
        assert cold and all(r.is_remote for r in cold)

    def test_runtime_hot_stays_local(self):
        platform, policy = build("json")
        platform.submit("json", 0.0)
        platform.engine.run(until=30.0)
        container = platform.controller.all_containers()[0]
        assert container.runtime_hot.is_local

    def test_no_offload_before_first_request_completes(self):
        platform, policy = build("json")
        platform.submit("json", 0.0)
        profile = get_profile("json")
        platform.engine.run(until=profile.cold_start_s + 0.01)
        container = platform.controller.all_containers()[0]
        assert container.cgroup.remote_pages == 0


class TestInitWindowOffload:
    def test_init_cold_offloaded_after_window(self):
        platform, policy = build("json", config=FaaSMemConfig(enable_semiwarm=False))
        for index in range(8):
            platform.submit("json", index * 2.0)
        platform.engine.run(until=60.0)
        container = platform.controller.all_containers()[0]
        init_cold = [
            r
            for r in container.cgroup.space.regions(Segment.INIT)
            if r.name.startswith("init/cold")
        ]
        assert init_cold and all(r.is_remote for r in init_cold)

    def test_window_recorded_in_profiler(self):
        platform, policy = build("json", config=FaaSMemConfig(enable_semiwarm=False))
        for index in range(8):
            platform.submit("json", index * 2.0)
        platform.engine.run(until=60.0)
        assert policy.profiler.typical_window("json") is not None

    def test_init_hot_never_offloaded_by_pucket(self):
        platform, policy = build("json", config=FaaSMemConfig(enable_semiwarm=False))
        for index in range(8):
            platform.submit("json", index * 2.0)
        platform.engine.run(until=60.0)
        container = platform.controller.all_containers()[0]
        hot = container.cgroup.space.find("init/hot", Segment.INIT)
        assert hot and all(r.is_local for r in hot)


class TestSemiWarm:
    def test_drains_idle_container(self):
        priors = {"json": [1.0] * 50}  # tiny p99 -> semi-warm starts fast
        platform, policy = build("json", priors=priors, keep_alive_s=300.0)
        platform.submit("json", 0.0)
        platform.engine.run(until=200.0)
        container = platform.controller.all_containers()[0]
        # Nearly everything except the heartbeat-touched runtime core
        # should have drained by now.
        local_mib = container.cgroup.local_pages * 4096 / 2**20
        assert local_mib <= 15.0

    def test_request_cancels_drain_and_recalls(self):
        priors = {"json": [1.0] * 50}
        platform, policy = build("json", priors=priors, keep_alive_s=300.0)
        platform.submit("json", 0.0)
        platform.submit("json", 200.0)
        platform.engine.run(until=250.0)
        warm = platform.records[1]
        assert warm.fault_stall_s > 0  # semi-warm start paid a recall
        assert warm.semi_warm_start

    def test_no_semiwarm_when_disabled(self):
        platform, policy = build(
            "json",
            config=FaaSMemConfig(enable_semiwarm=False),
            keep_alive_s=300.0,
        )
        platform.submit("json", 0.0)
        platform.engine.run(until=250.0)
        container = platform.controller.all_containers()[0]
        # Only the Pucket cold pages are remote; init/runtime hot local.
        hot = container.cgroup.space.find("init/hot", Segment.INIT)
        assert all(r.is_local for r in hot)

    def test_semiwarm_without_pucket_drains_everything(self):
        priors = {"json": [1.0] * 50}
        platform, policy = build(
            "json",
            config=FaaSMemConfig(enable_pucket=False),
            priors=priors,
            keep_alive_s=300.0,
        )
        platform.submit("json", 0.0)
        platform.engine.run(until=250.0)
        container = platform.controller.all_containers()[0]
        assert container.cgroup.remote_pages > 0

    def test_reports_record_semiwarm_time(self):
        priors = {"json": [1.0] * 50}
        platform, policy = build("json", priors=priors, keep_alive_s=120.0)
        platform.submit("json", 0.0)
        platform.engine.run()
        assert len(policy.reports) == 1
        report = policy.reports[0]
        assert report.semiwarm_time_s > 0
        assert report.semiwarm_offloaded_pages > 0


class TestReports:
    def test_report_fields_complete(self):
        platform, policy = build("json", keep_alive_s=60.0)
        for index in range(6):
            platform.submit("json", index * 2.0)
        platform.engine.run()
        report = policy.reports[0]
        assert report.function == "json"
        assert report.requests_served == 6
        assert report.lifetime_s > 60.0
        assert report.runtime_init_barrier_s > 0
        assert report.init_exec_barrier_s > 0

    def test_request_faulting_offloaded_init_pages_counts_recalls(self):
        # Heartbeats touch only the runtime hot core, so init recalls
        # come from requests that found their init pages remote.
        platform, policy = build("web", seed=3)
        for index in range(12):
            platform.submit("web", index * 40.0)
        platform.engine.run()
        [report] = policy.reports
        assert report.init_recalls > 0
        assert sum(record.recalled_pages for record in platform.records) > 0

    def test_memory_fully_freed_after_reclaim(self):
        platform, policy = build("json", keep_alive_s=60.0)
        platform.submit("json", 0.0)
        platform.engine.run()
        assert platform.node.local_pages == 0
        assert platform.pool.used_pages == 0


class TestRollbackCycle:
    def test_rollback_happens_with_steady_requests(self):
        config = FaaSMemConfig(enable_semiwarm=False, rollback_min_interval_s=5.0)
        platform, policy = build("json", config=config, keep_alive_s=600.0)
        for index in range(40):
            platform.submit("json", index * 2.0)
        platform.engine.run()
        report = policy.reports[0]
        assert report.max_rollback_s > 0  # at least one rollback ran

    def test_rollback_respects_min_interval(self):
        config = FaaSMemConfig(enable_semiwarm=False, rollback_min_interval_s=10_000.0)
        platform, policy = build("json", config=config, keep_alive_s=600.0)
        for index in range(40):
            platform.submit("json", index * 2.0)
        platform.engine.run()
        report = policy.reports[0]
        assert report.max_rollback_s == 0.0
