"""The serverless controller: routing and scale-out.

One container serves one request at a time. An invocation goes to the
most-recently-idle warm container of its function (MRU keeps the
working set of containers small); when none is warm, the controller
scales out — the invocation suffers a cold start on a new container.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.faas.container import Container, ContainerState
from repro.faas.request import Invocation

if TYPE_CHECKING:  # pragma: no cover
    from repro.faas.platform import ServerlessPlatform
    from repro.faas.function import FunctionSpec


class Controller:
    """Routes invocations and manages the container fleet."""

    def __init__(self, platform: "ServerlessPlatform") -> None:
        self.platform = platform
        self._containers: Dict[str, List[Container]] = {}
        self._ids = itertools.count(1)
        self.cold_start_count = 0
        self.total_containers_created = 0
        self.pressure_evictions = 0
        # Quota committed to live containers (what a scheduler admits
        # against; actual resident memory materializes later).
        self.committed_mib = 0.0

    def containers_of(self, function: str) -> List[Container]:
        """Live containers of ``function`` (all states)."""
        return [c for c in self._containers.get(function, []) if c.alive]

    def all_containers(self) -> List[Container]:
        return [c for pool in self._containers.values() for c in pool if c.alive]

    def dispatch(self, invocation: Invocation) -> Optional[Container]:
        """Route one invocation; returns the chosen container.

        Order of preference: most-recently-idle warm container, then a
        busy/launching container with backlog below the queue bound
        (scale-out hysteresis), then a fresh cold start. Under memory
        pressure a governor may intercept the cold start (queue or
        shed the invocation), in which case None is returned.
        """
        spec = self.platform.function(invocation.function)
        # The raw fleet, not containers_of: an IDLE container is alive,
        # so only the queueable filter needs the liveness check.
        containers = self._containers.get(invocation.function, ())
        warm = [c for c in containers if c.state is ContainerState.IDLE]
        if warm:
            # Most-recently idle first: concentrates load on few
            # containers and lets the rest age toward reclaim.
            target = max(warm, key=lambda c: c.idle_since or 0.0)
            target.enqueue(invocation)
            return target
        queue_bound = self.platform.config.max_queue_per_container
        queueable = [
            c for c in containers if c.alive and len(c.pending) < queue_bound
        ]
        if queueable:
            target = min(queueable, key=lambda c: (len(c.pending), c.created_at))
            target.enqueue(invocation)
            return target
        governor = self.platform.governor
        if governor is not None and governor.gate_launch(invocation):
            return None
        invocation.cold = True
        self.cold_start_count += 1
        target = self._create_container(spec)
        target.enqueue(invocation)
        return target

    def _create_container(self, spec: "FunctionSpec") -> Container:
        if self.platform.config.evict_on_pressure:
            self._make_room(spec.quota_mib)
        container_id = f"{spec.name}-{next(self._ids)}"
        container = Container(self.platform, spec, container_id)
        self._containers.setdefault(spec.name, []).append(container)
        self.total_containers_created += 1
        self.committed_mib += spec.quota_mib
        self.platform.note_container_created(container)
        return container

    def forget(self, container: Container) -> None:
        """Drop a reclaimed container from the routing tables."""
        pool = self._containers.get(container.function.name, [])
        if container in pool:
            pool.remove(container)
            self.committed_mib -= container.function.quota_mib
        self.platform.note_container_reclaimed(container)

    def prewarm(self, function: str) -> Optional[Container]:
        """Launch a container proactively, with no request attached.

        The container walks launch + init and then idles warm; the
        next invocation finds it (or attaches to it mid-launch) and
        skips the cold start. Returns None when a pressure governor
        (degradation tier 2+) refuses the launch.
        """
        governor = self.platform.governor
        if governor is not None and governor.deny_prewarm(function):
            return None
        spec = self.platform.function(function)
        return self._create_container(spec)

    def _make_room(self, quota_mib: float) -> None:
        """Evict least-recently-idle containers until the quota fits.

        Early reclaim is exactly what a memory-stranded invoker does;
        the evicted containers' next request pays a cold start, which
        is the trade-off memory pooling (FaaSMem) avoids by shrinking
        quotas instead.
        """
        capacity = self.platform.config.node_capacity_mib
        while capacity - self.committed_mib < quota_mib:
            idle = [
                c
                for c in self.all_containers()
                if c.state is ContainerState.IDLE and not c.pending
            ]
            if not idle:
                return  # nothing evictable; allocation may overcommit
            victim = min(idle, key=lambda c: c.idle_since or 0.0)
            victim.reclaim()
            self.pressure_evictions += 1

    def drain(self) -> None:
        """Reclaim every idle container (end-of-run cleanup)."""
        for container in list(self.all_containers()):
            if container.state is ContainerState.IDLE:
                container.reclaim()
