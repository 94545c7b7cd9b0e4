"""The fault injector: deterministic, engine-scheduled failure events.

``FaultInjector.attach()`` wires one :class:`FaultSchedule` into a
running :class:`~repro.faas.platform.ServerlessPlatform`:

* **Link windows** toggle the interconnect down (outage) or to a
  fraction of its bandwidth (degradation) for the window's span, and
  trip the offload circuit breaker so policies fall back to
  local-only operation.
* **Pool crashes** instantly lose every page resident in the remote
  pool; the affected containers are cold-restarted and their in-flight
  and queued invocations re-dispatched (the restart penalty lands on
  the victim request's end-to-end latency).
* **Container crashes** kill one deterministic victim mid-request.
* **Page-in loss** makes recalls attempted inside a degraded window
  fail probabilistically; the datapath retries with exponential
  backoff (:class:`~repro.faults.breaker.RecoveryConfig`).

With an empty schedule the injector schedules no events, draws no
random numbers, and contributes exactly ``+ 0.0`` to every page-in —
a provable no-op (``tests/test_fault_differential.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.faults.breaker import CLOSED, CircuitBreaker, RecoveryConfig
from repro.faults.spec import (
    CONTAINER_CRASH,
    LINK_DOWN,
    POOL_CRASH,
    FaultSchedule,
    FaultWindow,
)
from repro.obs.trace import EventKind
from repro.sim.process import PeriodicTask

if TYPE_CHECKING:  # pragma: no cover
    from repro.faas.container import Container
    from repro.faas.platform import ServerlessPlatform
    from repro.faas.request import Invocation


@dataclass
class FaultStats:
    """What the injector did to one run."""

    link_outages: int = 0
    link_degradations: int = 0
    pool_crashes: int = 0
    container_crashes: int = 0
    containers_crashed: int = 0
    invocations_redispatched: int = 0
    page_in_retries: int = 0
    pages_lost: int = 0
    crash_noops: int = 0


class FaultInjector:
    """Drives one fault schedule against one platform."""

    def __init__(
        self,
        platform: "ServerlessPlatform",
        schedule: Optional[FaultSchedule] = None,
        config: Optional[RecoveryConfig] = None,
    ) -> None:
        self.platform = platform
        self.schedule = schedule or FaultSchedule()
        self.config = config or RecoveryConfig()
        self.stats = FaultStats()
        self.tracer = platform.tracer
        self.breaker = CircuitBreaker(
            self.config, clock=lambda: platform.engine.now, tracer=platform.tracer
        )
        # A dedicated forked stream: loss draws and victim picks never
        # perturb the platform's own streams (and are never exercised
        # at all under an empty schedule).
        self.rng = platform.streams.fork(0xFA17).get("faults")
        self._probe: Optional[PeriodicTask] = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attach(self) -> "FaultInjector":
        """Register with the datapath and schedule every fault event."""
        self.platform.fastswap.injector = self
        engine = self.platform.engine
        for window in self.schedule.windows:
            engine.schedule_at(
                window.start,
                lambda w=window: self._on_window_start(w),
                name=f"fault:{window.kind}",
            )
            engine.schedule_at(
                window.end,
                lambda w=window: self._on_window_end(w),
                name="fault:clear",
            )
        for point in self.schedule.points:
            if point.kind == POOL_CRASH:
                engine.schedule_at(
                    point.at, self._on_pool_crash, name="fault:pool_crash"
                )
            else:
                engine.schedule_at(
                    point.at, self._on_container_crash, name="fault:container_crash"
                )
        return self

    # ------------------------------------------------------------------
    # Link windows
    # ------------------------------------------------------------------

    def _on_window_start(self, window: FaultWindow) -> None:
        now = self.platform.engine.now
        # Fabric-wide: every link of the datapath (one per pool shard)
        # shares the window.
        if window.kind == LINK_DOWN:
            for link in self.platform.pool.links():
                link.set_up(False)
            self.stats.link_outages += 1
        else:
            for link in self.platform.pool.links():
                link.set_degradation(window.factor)
            self.stats.link_degradations += 1
        if self.tracer is not None:
            self.tracer.emit(
                EventKind.FAULT_INJECTED,
                "link",
                fault=window.kind,
                start=window.start,
                end=window.end,
                factor=window.factor,
            )
        self.breaker.trip(now, reason=window.kind)
        self._ensure_probe()

    def _on_window_end(self, window: FaultWindow) -> None:
        if window.kind == LINK_DOWN:
            for link in self.platform.pool.links():
                link.set_up(True)
        else:
            for link in self.platform.pool.links():
                link.set_degradation(1.0)
        if self.tracer is not None:
            self.tracer.emit(EventKind.FAULT_CLEARED, "link", fault=window.kind)

    def _ensure_probe(self) -> None:
        """Run periodic health probes while the breaker is not closed.

        Probes are what re-close the breaker on an otherwise idle node:
        without traffic there would be no successes to observe, and the
        offload path would stay suspended forever.
        """
        if self._probe is None:
            self._probe = PeriodicTask(
                self.platform.engine,
                self.config.probe_interval_s,
                self._probe_tick,
                name="fault:probe",
            )

    def _probe_tick(self) -> None:
        now = self.platform.engine.now
        if self.breaker.state == CLOSED:
            if self._probe is not None:
                self._probe.stop()
                self._probe = None
            return
        if self.schedule.healthy_at(now) and self.breaker.allow(now):
            self.breaker.record_success(now)

    # ------------------------------------------------------------------
    # Page-in retry / loss (called from Fastswap.fault)
    # ------------------------------------------------------------------

    def page_in_penalty(self, subject: str) -> float:
        """Stall accrued by timeouts, backoff and outage waits.

        Returns exactly ``0.0`` whenever the current instant is
        healthy and loss-free, so the zero-fault path adds a float
        zero and nothing else. Termination: an outage wait jumps past
        the (finite) down window, and loss retries are capped at
        ``max_retries`` before the transfer is forced through.
        """
        schedule = self.schedule
        config = self.config
        now = self.platform.engine.now
        stall = 0.0
        attempt = 0
        while True:
            t = now + stall
            if not schedule.link_up_at(t):
                # The attempt times out against a dead link; the
                # datapath then waits out the remainder of the outage.
                wait = config.page_in_timeout_s + (schedule.next_link_up(t) - t)
                stall += wait
                self._note_retry(subject, attempt, "link-down", wait, t)
                attempt += 1
                continue
            if (
                schedule.lossy_at(t)
                and attempt < config.max_retries
                and float(self.rng.random()) < schedule.page_in_loss_prob
            ):
                # Lost on the degraded wire: timeout, back off, retry.
                wait = config.page_in_timeout_s + config.backoff_for(attempt)
                stall += wait
                self._note_retry(subject, attempt, "lost", wait, t)
                attempt += 1
                continue
            return stall

    def _note_retry(
        self, subject: str, attempt: int, reason: str, wait: float, at: float
    ) -> None:
        self.stats.page_in_retries += 1
        self.breaker.record_failure(at)
        self._ensure_probe()
        if self.tracer is not None:
            self.tracer.emit(
                EventKind.PAGE_IN_RETRY,
                subject,
                attempt=attempt,
                reason=reason,
                wait=wait,
            )

    def note_page_in_success(self) -> None:
        """A recall completed; feeds the breaker's hysteresis."""
        self.breaker.record_success(self.platform.engine.now)

    # ------------------------------------------------------------------
    # Pool crashes
    # ------------------------------------------------------------------

    def _on_pool_crash(self) -> None:
        platform = self.platform
        fastswap = platform.fastswap
        self.stats.pool_crashes += 1
        # One pool *node* crashes: every shard is its own crash domain
        # and a deterministic draw picks the victim. A single-shard
        # pool draws nothing, so its runs with the same schedule are
        # unperturbed.
        shards = platform.pool.all_shards()
        shard = shards[0]
        if len(shards) > 1:
            shard = shards[int(self.rng.integers(0, len(shards)))]
        lost_names = set()
        total_lost = 0
        for cgroup in fastswap.attached_cgroups():
            regions = fastswap.regions_on_shard(cgroup, shard)
            lost = fastswap.declare_lost(cgroup, regions)
            if lost:
                lost_names.add(cgroup.name)
                total_lost += lost
        platform.pool.drop(shard, total_lost)
        self.stats.pages_lost += total_lost
        if self.tracer is not None:
            self.tracer.emit(
                EventKind.POOL_CRASH,
                shard.name,
                pages_lost=total_lost,
                cgroups=len(lost_names),
            )
        # Cold-restart every container whose resident remote pages are
        # gone (including sharers of a lost shared-runtime cgroup).
        victims: List["Invocation"] = []
        for container in platform.controller.all_containers():
            affected = container.cgroup.name in lost_names
            shared = container._shared_runtime
            if not affected and shared is not None:
                affected = shared.cgroup.name in lost_names
            if affected:
                victims.extend(self._crash_container(container, reason="pool-crash"))
        self._redispatch(victims)

    # ------------------------------------------------------------------
    # Container crashes
    # ------------------------------------------------------------------

    def _on_container_crash(self) -> None:
        from repro.faas.container import ContainerState

        containers = self.platform.controller.all_containers()
        busy = [c for c in containers if c.state is ContainerState.BUSY]
        candidates = busy or containers
        if not candidates:
            self.stats.crash_noops += 1
            return
        victim = candidates[int(self.rng.integers(0, len(candidates)))]
        self.stats.container_crashes += 1
        if self.tracer is not None:
            self.tracer.emit(
                EventKind.FAULT_INJECTED,
                victim.container_id,
                fault=CONTAINER_CRASH,
            )
        self._redispatch(self._crash_container(victim, reason="injected"))

    def _crash_container(self, container: "Container", reason: str) -> List["Invocation"]:
        orphans = container.crash(reason=reason)
        self.stats.containers_crashed += 1
        return orphans

    def _redispatch(self, orphans: List["Invocation"]) -> None:
        """Send crash-orphaned invocations back through the controller.

        All victims are collected before any is re-dispatched so a
        multi-container crash never routes an orphan onto a container
        that is about to be crashed in the same sweep.
        """
        for invocation in sorted(
            orphans, key=lambda inv: (inv.arrival, inv.invocation_id)
        ):
            invocation.restarts += 1
            self.stats.invocations_redispatched += 1
            if self.tracer is not None:
                self.tracer.emit(
                    EventKind.CONTAINER_RESTART,
                    invocation.function,
                    invocation=invocation.invocation_id,
                    restarts=invocation.restarts,
                )
            self.platform.controller.dispatch(invocation)
