"""The serverless container lifecycle state machine.

A container walks through the stages of Fig. 3: **launch** (runtime
segment allocated), **init** (init segment allocated, transient init
scratch freed at the end), then alternating **execution** and
**keep-alive**. Exec-segment scratch lives only while a request runs:
no policy tracks or moves it, so it is a page charge on the cgroup
rather than a region. Requests that touch offloaded regions stall on
the swap datapath and the stall is charged to their service time.
"""

from __future__ import annotations

import enum
import zlib
from collections import deque
from typing import TYPE_CHECKING, Collection, Deque, List, Optional, Tuple

import numpy as np

from repro.errors import LifecycleError
from repro.faas.request import Invocation, RequestRecord
from repro.mem.cgroup import Cgroup
from repro.mem.page import PageRegion, Segment
from repro.obs.trace import EventKind
from repro.sim.process import PeriodicTask, Timer
from repro.units import pages_from_mib
from repro.workloads.profile import InitState

if TYPE_CHECKING:  # pragma: no cover
    from repro.faas.platform import ServerlessPlatform
    from repro.faas.function import FunctionSpec


class ContainerState(enum.Enum):
    LAUNCHING = "launching"
    INITIALIZING = "initializing"
    IDLE = "idle"
    BUSY = "busy"
    RECLAIMED = "reclaimed"


class Container:
    """One function container on the compute node."""

    def __init__(
        self,
        platform: "ServerlessPlatform",
        function: "FunctionSpec",
        container_id: str,
    ) -> None:
        self.platform = platform
        self.function = function
        self.container_id = container_id
        self.profile = function.profile
        self.engine = platform.engine
        self.cgroup = Cgroup(container_id, platform.node, lambda: self.engine.now)
        platform.fastswap.attach(self.cgroup)
        # zlib.crc32 rather than hash(): str hashing is salted per
        # process, which would break cross-process determinism.
        salt = zlib.crc32(container_id.encode("utf-8"))
        self.rng: np.random.Generator = platform.streams.fork(salt).get("container")

        self.state: Optional[ContainerState] = None
        self._transition(ContainerState.LAUNCHING)
        self.created_at = self.engine.now
        self.reclaimed_at: Optional[float] = None
        self.idle_since: Optional[float] = None
        self.requests_served = 0
        self.last_reuse_interval: Optional[float] = None
        self.pending: Deque[Invocation] = deque()

        self.runtime_hot: Optional[PageRegion] = None
        self.runtime_cold: List[PageRegion] = []
        self._shared_runtime = None
        self.init_state: Optional[InitState] = None
        self._exec_pages = 0  # exec scratch charged for the running request
        self._keep_alive = Timer(
            self.engine, self._on_keep_alive_expired, name=f"ka:{container_id}"
        )
        self._heartbeat: Optional[PeriodicTask] = None

        # In-flight request bookkeeping, needed so a crash can cancel
        # the pending completion and re-dispatch the victim.
        self._inflight: Optional[Invocation] = None
        self._exec_event = None
        self._exec_name = f"exec:{container_id}"
        self._stage_event = None

        platform.policy.on_container_created(self)
        self._stage_event = self.engine.schedule(
            self.profile.runtime.launch_time_s,
            self._finish_launch,
            name=f"launch:{container_id}",
        )

    def _transition(self, new_state: ContainerState, **data) -> None:
        """Move to ``new_state``, tracing the lifecycle edge.

        Extra ``data`` fields ride along on the trace event (e.g.
        ``crash=True`` marks a fault-injected teardown, which the
        auditor exempts from the normal lifecycle DAG).
        """
        old = self.state.value if self.state is not None else ""
        self.state = new_state
        tracer = self.platform.tracer
        if tracer is not None:
            tracer.emit(
                EventKind.CONTAINER_STATE,
                self.container_id,
                **{"from": old, "to": new_state.value, **data},
            )

    # ------------------------------------------------------------------
    # Launch / init
    # ------------------------------------------------------------------

    def _finish_launch(self) -> None:
        """Runtime image loaded: allocate (or share) the runtime segment."""
        self._stage_event = None
        if self.state is ContainerState.RECLAIMED:
            return  # crashed mid-launch
        if self.platform.config.share_runtime:
            self._shared_runtime = self.platform.runtime_shares.acquire(
                self.function.name, self.profile.runtime
            )
            self.runtime_hot = self._shared_runtime.hot
            self.runtime_cold = list(self._shared_runtime.cold)
        else:
            self._shared_runtime = None
            self.runtime_hot = self.cgroup.allocate(
                "runtime/hot",
                Segment.RUNTIME,
                pages_from_mib(self.profile.runtime.hot_mib),
            )
            for index, chunk_mib in enumerate(self.profile.runtime.cold_chunks()):
                self.runtime_cold.append(
                    self.cgroup.allocate(
                        f"runtime/cold-{index}",
                        Segment.RUNTIME,
                        pages_from_mib(chunk_mib),
                    )
                )
        self.platform.policy.on_runtime_loaded(self)
        self._transition(ContainerState.INITIALIZING)
        # Init-segment memory is allocated across the init stage; the
        # simulation allocates it up front (peak behaviour, Fig. 6)
        # and frees the transient share when init finishes.
        self.init_state = self.profile.init_layout.allocate(self.cgroup, self.rng)
        self._init_transient = None
        if self.profile.init_transient_mib > 0:
            self._init_transient = self.cgroup.allocate(
                "init/transient",
                Segment.INIT,
                pages_from_mib(self.profile.init_transient_mib),
            )
        self._stage_event = self.engine.schedule(
            self.profile.init_time_s,
            self._finish_init,
            name=f"init:{self.container_id}",
        )

    def _finish_init(self) -> None:
        """Function initialization done: container becomes warm."""
        self._stage_event = None
        if self.state is ContainerState.RECLAIMED:
            return  # crashed mid-init
        if self._init_transient is not None:
            self.cgroup.free(self._init_transient)
            self._init_transient = None
        self._transition(ContainerState.IDLE)
        self.platform.policy.on_init_complete(self)
        if self.pending:
            self._start_next()
        else:
            self._enter_idle()

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------

    def enqueue(self, invocation: Invocation) -> None:
        """Hand an invocation to this container."""
        if self.state is ContainerState.RECLAIMED:
            raise LifecycleError(
                f"container {self.container_id} is reclaimed; cannot enqueue"
            )
        self.pending.append(invocation)
        if self.state is ContainerState.IDLE:
            self._start_next()

    def _start_next(self) -> None:
        if not self.pending:
            raise LifecycleError("start_next with empty queue")
        was_idle = self.state is ContainerState.IDLE and self.idle_since is not None
        # How long this container idled before being reused — the raw
        # material of the paper's "container reused interval" CDF (§6.1).
        self.last_reuse_interval: Optional[float] = (
            self.engine.now - self.idle_since if was_idle else None
        )
        self._keep_alive.cancel()
        self._stop_heartbeat()
        self._transition(ContainerState.BUSY)
        invocation = self.pending.popleft()
        self.platform.policy.on_request_start(self)

        touched = self._request_working_set()
        remote = [region for region in touched if region.is_remote]
        remote_ids = {region.region_id for region in remote}
        recalled_pages = 0
        stall = 0.0
        if remote:
            recalled_pages = sum(region.pages for region in remote)
            for owner, victims in self._group_by_owner(remote).items():
                stall += self.platform.fastswap.fault(
                    owner, victims, cpu_share=self.profile.cpu_share
                )
        self._touch(touched, remote_ids)
        exec_pages = pages_from_mib(self.profile.exec_mib)
        self.cgroup.charge(Segment.EXEC, exec_pages)
        self._exec_pages = exec_pages
        # Memory-pressure stalls: direct-reclaim waits charged to this
        # container by the governor plus any memory.high throttle.
        governor = self.platform.governor
        reclaim_stall = governor.request_stall(self) if governor is not None else 0.0
        service = self.profile.sample_exec_time(self.rng) + stall + reclaim_stall
        start = self.engine.now
        self._inflight = invocation
        self._exec_event = self.engine.schedule(
            service,
            lambda: self._complete(invocation, start, stall, recalled_pages, reclaim_stall),
            name=self._exec_name,
        )

    def _request_working_set(self) -> List[PageRegion]:
        """Regions this request touches (runtime + init segments)."""
        touched: List[PageRegion] = []
        if self.runtime_hot is not None:
            touched.append(self.runtime_hot)
        # Rare stray into a cold runtime chunk (Fig. 8: 0-3 recalls).
        prob = self.profile.runtime.cold_touch_prob
        if self.runtime_cold and prob > 0 and self.rng.random() < prob:
            index = int(self.rng.integers(0, len(self.runtime_cold)))
            touched.append(self.runtime_cold[index])
        if self.init_state is not None:
            touched.extend(
                self.profile.init_layout.request_regions(self.init_state, self.rng)
            )
        return self._expand_families([region for region in touched if not region.freed])

    def _touch(self, regions: List[PageRegion], remote_ids: Collection[int]) -> None:
        """Touch ``regions`` in their owners, then report them to the policy.

        ``remote_ids`` names the regions that were faulted in for this
        touch. Touching emits no trace event and each owner's state is
        its own, so touching every region before any hook runs leaves
        the hooks' events in the order a per-region walk emits them.
        """
        for owner, group in self._group_by_owner(regions).items():
            owner.touch_many(group)
        self.platform.policy.on_regions_touched(self, regions, remote_ids)

    def _owner_cgroup(self, region: PageRegion) -> Cgroup:
        """The cgroup a region belongs to (shared runtime vs own)."""
        if self._shared_runtime is not None and region in self._shared_runtime.cgroup.space:
            return self._shared_runtime.cgroup
        return self.cgroup

    def _group_by_owner(self, regions: List[PageRegion]) -> dict:
        """``{owner cgroup: its regions in list order}``."""
        if self._shared_runtime is None:
            return {self.cgroup: regions}
        grouped: dict = {}
        for region in regions:
            grouped.setdefault(self._owner_cgroup(region), []).append(region)
        return grouped

    def _expand_families(self, regions) -> List[PageRegion]:
        """Add split-off siblings (same name and segment) of each region.

        Gradual offloaders split regions into slices; semantically a
        request that touches a buffer touches all of its pages, so the
        working set must cover every live slice of the same region.
        Siblings live in the region's owner cgroup (the shared runtime
        for shared regions). Only families with more than one live
        member are expanded; the rest contribute just their base.
        """
        expanded = {}
        split = None
        own_space = self.cgroup.space
        shared = self._shared_runtime
        for region in regions:
            expanded[region.region_id] = region
            space = own_space if shared is None else self._owner_cgroup(region).space
            members = space.family(region.name, region.segment)
            if len(members) > 1:
                if split is None:
                    split = {}
                split[(region.name, region.segment)] = members
        if split is None:
            return list(expanded.values())
        # Siblings follow in (name, segment) order, ids ascending within
        # each family: the order every pinned digest and fingerprint
        # was recorded with.
        for family in sorted(split, key=lambda ns: (ns[0], ns[1].value)):
            for sibling in split[family].values():
                expanded.setdefault(sibling.region_id, sibling)
        return list(expanded.values())

    def _complete(
        self,
        invocation: Invocation,
        start: float,
        stall: float,
        recalled_pages: int,
        reclaim_stall: float = 0.0,
    ) -> None:
        if self._exec_pages:
            self.cgroup.uncharge(Segment.EXEC, self._exec_pages)
            self._exec_pages = 0
        self._inflight = None
        self._exec_event = None
        self.requests_served += 1
        record = RequestRecord(
            function=self.function.name,
            container_id=self.container_id,
            invocation_id=invocation.invocation_id,
            arrival=invocation.arrival,
            start=start,
            completion=self.engine.now,
            cold_start=invocation.cold,
            fault_stall_s=stall,
            recalled_pages=recalled_pages,
            restarts=invocation.restarts,
            reclaim_stall_s=reclaim_stall,
        )
        self.platform.record(record)
        self.platform.policy.on_request_complete(self, record)
        if self._shared_runtime is not None:
            self.platform.runtime_shares.note_request_complete(self.function.name)
        if self.pending:
            self._start_next()
        else:
            self._transition(ContainerState.IDLE)
            self._enter_idle()

    # ------------------------------------------------------------------
    # Keep-alive / reclaim
    # ------------------------------------------------------------------

    def _enter_idle(self) -> None:
        self.idle_since = self.engine.now
        timeout = self.platform.keep_alive.timeout_for(self)
        governor = self.platform.governor
        if governor is not None:
            # Degradation tier 1+: idle containers are let go sooner.
            timeout = governor.scale_keep_alive(timeout)
        self._keep_alive.start(timeout)
        heartbeat = self.platform.config.heartbeat_s
        if heartbeat > 0:
            # One task per container, restarted each idle period.
            if self._heartbeat is None:
                self._heartbeat = PeriodicTask(
                    self.engine,
                    heartbeat,
                    self._on_heartbeat,
                    name=f"hb:{self.container_id}",
                )
            elif not self._heartbeat.running:
                self._heartbeat.restart()
        self.platform.policy.on_container_idle(self)

    def _on_heartbeat(self) -> None:
        """Keep-alive health ping: the proxy's hot core gets touched."""
        if self.state is not ContainerState.IDLE or self.runtime_hot is None:
            return
        if self.runtime_hot.freed:
            return
        # The family is touched in runs that each start at a remote
        # slice, faulted back first (the ping is asynchronous so nobody
        # blocks on the stall, but the recall traffic is real). Each
        # fault's events thus follow the earlier runs' PROMOTEs and
        # precede its own run's, as fault, touch and hook per region
        # would emit them.
        run: List[PageRegion] = []
        remote_ids: Tuple[int, ...] = ()
        for region in self._expand_families([self.runtime_hot]):
            if region.is_remote:
                if run:
                    self._touch(run, remote_ids)
                self.platform.fastswap.fault(
                    self._owner_cgroup(region), [region], cpu_share=self.profile.cpu_share
                )
                run, remote_ids = [], (region.region_id,)
            run.append(region)
        self._touch(run, remote_ids)

    def _stop_heartbeat(self) -> None:
        if self._heartbeat is not None:
            self._heartbeat.stop()

    def _on_keep_alive_expired(self) -> None:
        self.reclaim()

    def reclaim(self) -> None:
        """Tear the container down and release all its memory."""
        if self.state is ContainerState.RECLAIMED:
            return
        if self.state is ContainerState.BUSY or self.pending:
            raise LifecycleError(
                f"cannot reclaim busy container {self.container_id}"
            )
        self._keep_alive.cancel()
        self._stop_heartbeat()
        self.platform.policy.on_container_reclaimed(self)
        self._transition(ContainerState.RECLAIMED)
        self.reclaimed_at = self.engine.now
        self.cgroup.free_all()
        if self._shared_runtime is not None:
            self.platform.runtime_shares.release(self.function.name)
            self._shared_runtime = None
        self.platform.controller.forget(self)

    def crash(self, reason: str = "injected") -> List[Invocation]:
        """Kill the container immediately, from any state.

        Unlike :meth:`reclaim`, a crash may hit a busy container: the
        in-flight request's completion event is cancelled and the
        orphaned invocations (in-flight plus queued) are returned for
        the caller — the fault injector — to re-dispatch. All memory
        is freed; the lifecycle event carries ``crash=True`` so the
        auditor can tell an injected teardown from a graceful one.
        """
        if self.state is ContainerState.RECLAIMED:
            return []
        orphans: List[Invocation] = []
        if self._inflight is not None:
            orphans.append(self._inflight)
            self._inflight = None
        orphans.extend(self.pending)
        self.pending.clear()
        if self._exec_event is not None:
            self._exec_event.cancel()
            self._exec_event = None
        if self._stage_event is not None:
            self._stage_event.cancel()
            self._stage_event = None
        self._keep_alive.cancel()
        self._stop_heartbeat()
        self.platform.policy.on_container_reclaimed(self)
        self._transition(ContainerState.RECLAIMED, crash=True, reason=reason)
        self.reclaimed_at = self.engine.now
        self.cgroup.free_all()
        if self._exec_pages:
            # A mid-request crash: the scratch is a charge, not a
            # region, so free_all left it.
            self.cgroup.uncharge(Segment.EXEC, self._exec_pages)
            self._exec_pages = 0
        if self._shared_runtime is not None:
            self.platform.runtime_shares.release(self.function.name)
            self._shared_runtime = None
        self.platform.controller.forget(self)
        return orphans

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def warm(self) -> bool:
        """Idle and able to take a request immediately."""
        return self.state is ContainerState.IDLE

    @property
    def alive(self) -> bool:
        return self.state is not ContainerState.RECLAIMED

    @property
    def idle_duration(self) -> float:
        """Seconds spent idle so far (0 when not idle)."""
        if self.state is not ContainerState.IDLE or self.idle_since is None:
            return 0.0
        return self.engine.now - self.idle_since

    @property
    def lifetime(self) -> float:
        end = self.reclaimed_at if self.reclaimed_at is not None else self.engine.now
        return end - self.created_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Container({self.container_id}, fn={self.function.name}, "
            f"state={self.state.value}, served={self.requests_served})"
        )
