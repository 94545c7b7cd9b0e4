"""The invariant auditor: online conservation-law checking.

Subscribes to a :class:`~repro.obs.trace.Tracer` and replays every
event into a set of ledgers, flagging a :class:`Violation` whenever a
conservation law breaks:

* **Page placement exclusivity** — a Pucket-managed region is in
  exactly one of {inactive, hot pool, offloaded} at any instant, and
  every promotion/demotion departs from the state the ledger has it in.
* **Swap conservation** — cumulatively,
  ``offloaded == recalled + remote-resident + freed-while-remote +
  lost-in-pool-crash``; no component ever goes negative, and at the
  end of a run the remote-resident balance equals the pool's used
  pages.
* **Time-barrier monotonicity** — Pucket barriers (MGLRU generation
  seals) of one cgroup carry non-decreasing timestamps.
* **Lifecycle legality** — container state transitions follow the
  legal DAG (launching → initializing → idle ⇄ busy, any non-busy
  state → reclaimed, nothing leaves reclaimed); only transitions
  flagged ``crash=True`` by the fault injector may reclaim from any
  live state.
* **Breaker legality** — the offload circuit breaker walks
  closed → open → half-open → {open, closed} and nothing else.
* **Link subscription** — same-direction transfers never overlap
  (FCFS) and never beat the wire: a transfer of ``n`` pages takes at
  least ``n * PAGE_SIZE / capacity`` seconds.
* **Clock monotonicity** — executed engine events never go back in
  time.

Violations are collected, not raised, so a single audited run reports
every broken law; :meth:`InvariantAuditor.assert_clean` turns them
into an :class:`~repro.errors.AuditError` at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.errors import AuditError
from repro.obs.trace import EventKind, TraceEvent, Tracer
from repro.units import PAGE_SIZE

# Epsilon for float comparisons on simulated timestamps.
_EPS = 1e-9

_LEGAL_TRANSITIONS = {
    ("", "launching"),
    ("launching", "initializing"),
    ("initializing", "idle"),
    ("idle", "busy"),
    # Back-to-back dispatch: _complete() pulls the next queued request
    # without the container ever passing through idle.
    ("busy", "busy"),
    ("busy", "idle"),
    ("launching", "reclaimed"),
    ("initializing", "reclaimed"),
    ("idle", "reclaimed"),
}


@dataclass
class Violation:
    """One broken invariant, with enough context to debug it."""

    time: float
    invariant: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"[t={self.time:.6f}] {self.invariant} ({self.subject}): {self.message}"


@dataclass
class _SwapLedger:
    """Cumulative page flow between node DRAM and the pool."""

    offloaded: int = 0
    recalled: int = 0
    remote_freed: int = 0
    remote_lost: int = 0
    aborted: int = 0
    in_flight: int = 0

    @property
    def remote_resident(self) -> int:
        return self.offloaded - self.recalled - self.remote_freed - self.remote_lost


@dataclass
class _TierLedger:
    """Cumulative page flow through one pool tier (repro.pool.tier).

    The per-tier conservation law generalises the flat swap identity:
    pages placed into (or demoted into) a tier leave it only by
    recall, free, crash loss or demotion — the balance is the tier's
    resident footprint, checked against its shard pools at finalize.
    """

    placed: int = 0
    demoted_in: int = 0
    recalled: int = 0
    freed: int = 0
    lost: int = 0
    demoted_out: int = 0

    @property
    def resident(self) -> int:
        return (
            self.placed
            + self.demoted_in
            - self.recalled
            - self.freed
            - self.lost
            - self.demoted_out
        )


class InvariantAuditor:
    """Checks conservation laws online over a trace-event stream."""

    def __init__(self, max_violations: int = 100) -> None:
        self.violations: List[Violation] = []
        self.checks = 0
        self.events_seen = 0
        self.max_violations = max_violations
        self.swap = _SwapLedger()
        # (cgroup, region_id) -> "inactive" | "hot" | "offloaded"
        self._placement: Dict[Tuple[str, int], str] = {}
        self._container_state: Dict[str, str] = {}
        self._breaker_state: Dict[str, str] = {}
        self._last_barrier: Dict[str, float] = {}
        self._last_engine_time = float("-inf")
        # direction -> (last_start, last_completion)
        self._link_busy: Dict[str, Tuple[float, float]] = {}
        # Memory-pressure governor legality (repro.pressure): the tier
        # ladder moves one rung at a time, shedding is only legal in
        # the top tier, and an OOM kill is only legal after a failed
        # direct reclaim.
        self._governor_tier = 0
        self._direct_reclaim_failed = False
        # Pool-tier conservation (repro.pool.tier): level -> ledger. Stays
        # empty unless tier.* events appear (hierarchical runs only).
        self._tier_ledgers: Dict[int, _TierLedger] = {}
        self._finalized = False

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attach(self, tracer: Tracer) -> "InvariantAuditor":
        tracer.subscribe(self.observe)
        return self

    # ------------------------------------------------------------------
    # Online checks
    # ------------------------------------------------------------------

    def observe(self, event: TraceEvent) -> None:
        """Consume one trace event (the tracer-subscriber entry point)."""
        self.events_seen += 1
        handler = _HANDLERS.get(event.kind)
        if handler is not None:
            handler(self, event)

    def _flag(self, event_time: float, invariant: str, subject: str, message: str) -> None:
        if len(self.violations) < self.max_violations:
            self.violations.append(
                Violation(time=event_time, invariant=invariant, subject=subject, message=message)
            )

    def _check(self, ok: bool, event_time: float, invariant: str, subject: str, message: str) -> None:
        self.checks += 1
        if not ok:
            self._flag(event_time, invariant, subject, message)

    # -- engine ---------------------------------------------------------

    def _on_engine_event(self, event: TraceEvent) -> None:
        self._check(
            event.time >= self._last_engine_time - _EPS,
            event.time,
            "engine.monotone-clock",
            event.subject,
            f"event at t={event.time} after t={self._last_engine_time}",
        )
        self._last_engine_time = max(self._last_engine_time, event.time)

    # -- container lifecycle --------------------------------------------

    def _on_container_state(self, event: TraceEvent) -> None:
        src = event.data.get("from", "")
        dst = event.data.get("to", "")
        known = self._container_state.get(event.subject, "")
        self._check(
            known == src,
            event.time,
            "container.lifecycle",
            event.subject,
            f"transition claims from={src!r} but ledger has {known!r}",
        )
        # A fault-injected crash may strike from any live state; it is
        # flagged on the event so only genuine crashes get the bypass.
        crash = bool(event.data.get("crash")) and dst == "reclaimed" and src != "reclaimed"
        self._check(
            crash or (src, dst) in _LEGAL_TRANSITIONS,
            event.time,
            "container.lifecycle",
            event.subject,
            f"illegal transition {src!r} -> {dst!r}",
        )
        self._container_state[event.subject] = dst

    # -- pucket placement -----------------------------------------------

    def _on_pucket_seal(self, event: TraceEvent) -> None:
        barrier_time = float(event.data.get("barrier_time", event.time))
        last = self._last_barrier.get(event.subject, float("-inf"))
        self._check(
            barrier_time >= last - _EPS,
            event.time,
            "pucket.barrier-monotone",
            event.subject,
            f"barrier at t={barrier_time} after barrier at t={last}",
        )
        self._last_barrier[event.subject] = max(last, barrier_time)
        for region_id in event.data.get("regions", ()):
            key = (event.subject, int(region_id))
            self._check(
                key not in self._placement,
                event.time,
                "pucket.exclusivity",
                event.subject,
                f"region {region_id} sealed while already {self._placement.get(key)!r}",
            )
            self._placement[key] = "inactive"

    def _on_pucket_promote(self, event: TraceEvent) -> None:
        self._move_region(event, expected=str(event.data.get("src")), to="hot")

    def _on_pucket_demote(self, event: TraceEvent) -> None:
        self._move_region(event, expected=str(event.data.get("src")), to="offloaded")

    def _move_region(self, event: TraceEvent, expected: str, to: str) -> None:
        key = (event.subject, int(event.data["region"]))
        current = self._placement.get(key)
        self._check(
            current == expected,
            event.time,
            "pucket.exclusivity",
            event.subject,
            f"region {key[1]} moved from {expected!r} but ledger has {current!r}",
        )
        self._placement[key] = to

    def _on_pucket_rollback(self, event: TraceEvent) -> None:
        # Also a generation seal: the rollback barrier must be monotone.
        last = self._last_barrier.get(event.subject, float("-inf"))
        self._check(
            event.time >= last - _EPS,
            event.time,
            "pucket.barrier-monotone",
            event.subject,
            f"rollback barrier at t={event.time} after barrier at t={last}",
        )
        self._last_barrier[event.subject] = max(last, event.time)
        for region_id in event.data.get("regions", ()):
            key = (event.subject, int(region_id))
            current = self._placement.get(key)
            self._check(
                current == "hot",
                event.time,
                "pucket.exclusivity",
                event.subject,
                f"rollback of region {region_id} which is {current!r}, not hot",
            )
            self._placement[key] = "inactive"

    def _on_pucket_forget(self, event: TraceEvent) -> None:
        self._placement.pop((event.subject, int(event.data["region"])), None)

    # -- swap conservation ----------------------------------------------

    def _on_offload_issue(self, event: TraceEvent) -> None:
        self.swap.in_flight += 1

    def _on_offload_complete(self, event: TraceEvent) -> None:
        self.swap.in_flight -= 1
        self.swap.offloaded += int(event.data["pages"])
        self._check_swap_balance(event)

    def _on_offload_abort(self, event: TraceEvent) -> None:
        self.swap.in_flight -= 1
        self.swap.aborted += 1
        self._check(
            self.swap.in_flight >= 0,
            event.time,
            "swap.conservation",
            event.subject,
            "more offload completions/aborts than issues",
        )

    def _on_recall(self, event: TraceEvent) -> None:
        self.swap.recalled += int(event.data["pages"])
        self._check_swap_balance(event)

    def _on_remote_freed(self, event: TraceEvent) -> None:
        self.swap.remote_freed += int(event.data["pages"])
        self._check_swap_balance(event)

    def _on_page_lost(self, event: TraceEvent) -> None:
        self.swap.remote_lost += int(event.data["pages"])
        self._check_swap_balance(event)

    def _check_swap_balance(self, event: TraceEvent) -> None:
        self._check(
            self.swap.remote_resident >= 0,
            event.time,
            "swap.conservation",
            event.subject,
            f"remote-resident balance went negative: offloaded={self.swap.offloaded} "
            f"recalled={self.swap.recalled} remote_freed={self.swap.remote_freed} "
            f"remote_lost={self.swap.remote_lost}",
        )

    # -- pool-tier conservation (repro.pool.tier)-----------------------

    def _tier_ledger(self, event: TraceEvent, key: str = "tier") -> _TierLedger:
        return self._tier_ledgers.setdefault(int(event.data[key]), _TierLedger())

    def _check_tier_balance(self, event: TraceEvent, level: int) -> None:
        ledger = self._tier_ledgers.setdefault(level, _TierLedger())
        self._check(
            ledger.resident >= 0,
            event.time,
            "tier.conservation",
            f"tier-{level}",
            f"tier resident balance went negative: placed={ledger.placed} "
            f"demoted_in={ledger.demoted_in} recalled={ledger.recalled} "
            f"freed={ledger.freed} lost={ledger.lost} "
            f"demoted_out={ledger.demoted_out}",
        )

    def _on_tier_place(self, event: TraceEvent) -> None:
        self._tier_ledger(event).placed += int(event.data["pages"])
        self._check_tier_balance(event, int(event.data["tier"]))

    def _on_tier_recall(self, event: TraceEvent) -> None:
        self._tier_ledger(event).recalled += int(event.data["pages"])
        self._check_tier_balance(event, int(event.data["tier"]))

    def _on_tier_free(self, event: TraceEvent) -> None:
        self._tier_ledger(event).freed += int(event.data["pages"])
        self._check_tier_balance(event, int(event.data["tier"]))

    def _on_tier_lost(self, event: TraceEvent) -> None:
        self._tier_ledger(event).lost += int(event.data["pages"])
        self._check_tier_balance(event, int(event.data["tier"]))

    def _on_tier_demote(self, event: TraceEvent) -> None:
        src = int(event.data["from_tier"])
        dst = int(event.data["to_tier"])
        pages = int(event.data["pages"])
        self._check(
            dst == src + 1,
            event.time,
            "tier.demote-step",
            event.subject,
            f"demotion skipped a level: tier {src} -> tier {dst}",
        )
        self._tier_ledgers.setdefault(src, _TierLedger()).demoted_out += pages
        self._tier_ledgers.setdefault(dst, _TierLedger()).demoted_in += pages
        self._check_tier_balance(event, src)

    def _on_tier_spill(self, event: TraceEvent) -> None:
        src = int(event.data["from_tier"])
        dst = int(event.data["to_tier"])
        self._check(
            dst == src + 1,
            event.time,
            "tier.spill-step",
            event.subject,
            f"spill skipped a level: tier {src} -> tier {dst}",
        )

    # -- circuit breaker -------------------------------------------------

    # Legal source states per breaker event (closed is the implicit
    # initial state; see repro.faults.breaker).
    _BREAKER_SOURCES = {
        EventKind.BREAKER_OPEN.value: {"closed", "half_open"},
        EventKind.BREAKER_HALF_OPEN.value: {"open"},
        EventKind.BREAKER_CLOSE.value: {"half_open"},
    }
    _BREAKER_TARGETS = {
        EventKind.BREAKER_OPEN.value: "open",
        EventKind.BREAKER_HALF_OPEN.value: "half_open",
        EventKind.BREAKER_CLOSE.value: "closed",
    }

    def _on_breaker_event(self, event: TraceEvent) -> None:
        src = str(event.data.get("from", ""))
        known = self._breaker_state.get(event.subject, "closed")
        self._check(
            known == src,
            event.time,
            "breaker.lifecycle",
            event.subject,
            f"breaker claims from={src!r} but ledger has {known!r}",
        )
        self._check(
            src in self._BREAKER_SOURCES[event.kind],
            event.time,
            "breaker.lifecycle",
            event.subject,
            f"illegal breaker transition {src!r} -> {self._BREAKER_TARGETS[event.kind]!r}",
        )
        self._breaker_state[event.subject] = self._BREAKER_TARGETS[event.kind]

    # -- link subscription ----------------------------------------------

    def _on_link_transfer(self, event: TraceEvent) -> None:
        start = float(event.data["start"])
        completion = float(event.data["completion"])
        pages = int(event.data["pages"])
        capacity = float(event.data.get("capacity", 0.0))
        _, last_completion = self._link_busy.get(event.subject, (float("-inf"), float("-inf")))
        self._check(
            start >= last_completion - _EPS,
            event.time,
            "link.oversubscribed",
            event.subject,
            f"transfer starting at t={start} overlaps one completing at t={last_completion}",
        )
        if capacity > 0 and pages > 0:
            wire_floor = pages * PAGE_SIZE / capacity
            self._check(
                completion - start >= wire_floor - _EPS,
                event.time,
                "link.oversubscribed",
                event.subject,
                f"{pages} pages moved in {completion - start:.3e}s, "
                f"below wire floor {wire_floor:.3e}s",
            )
        self._link_busy[event.subject] = (start, max(completion, last_completion))

    # -- memory-pressure governor ---------------------------------------

    def _on_pressure_tier(self, event: TraceEvent) -> None:
        src = int(event.data.get("from", -1))
        dst = int(event.data.get("to", -1))
        self._check(
            self._governor_tier == src,
            event.time,
            "pressure.tier",
            event.subject,
            f"tier change claims from={src} but ledger holds {self._governor_tier}",
        )
        self._check(
            abs(dst - src) == 1 and 0 <= dst <= 4,
            event.time,
            "pressure.tier",
            event.subject,
            f"degradation tier skipped a step: {src} -> {dst}",
        )
        self._governor_tier = dst

    def _on_admission_shed(self, event: TraceEvent) -> None:
        self._check(
            self._governor_tier == 4,
            event.time,
            "pressure.shed",
            event.subject,
            f"invocation shed in tier {self._governor_tier}; only the top "
            f"tier (4) may drop work",
        )
        self._check(
            bool(event.data.get("reason")),
            event.time,
            "pressure.shed",
            event.subject,
            "shed event carries no reason",
        )

    def _on_direct_reclaim(self, event: TraceEvent) -> None:
        needed = int(event.data.get("needed", 0))
        freed = int(event.data.get("freed", 0))
        self._direct_reclaim_failed = freed < needed

    def _on_oom_kill(self, event: TraceEvent) -> None:
        self._check(
            self._direct_reclaim_failed,
            event.time,
            "pressure.oom",
            event.subject,
            "OOM kill without a preceding failed direct reclaim",
        )
        self._check(
            bool(event.data.get("reason")),
            event.time,
            "pressure.oom",
            event.subject,
            "OOM kill carries no reason",
        )

    # ------------------------------------------------------------------
    # End-of-run checks
    # ------------------------------------------------------------------

    def finalize(self, platform: Any) -> None:
        """Cross-check the ledgers against the platform's own state.

        Safe to call more than once; each call re-runs the snapshot
        checks against current state.
        """
        self._finalized = True
        now = platform.engine.now
        stats = platform.fastswap.stats
        for counter in ("offloaded_pages", "recalled_pages", "remote_freed_pages",
                        "remote_lost_pages", "aborted_offloads",
                        "suppressed_offloads", "offload_ops", "fault_ops"):
            self._check(
                getattr(stats, counter) >= 0,
                now,
                "swap.conservation",
                "fastswap",
                f"SwapStats.{counter} is negative: {getattr(stats, counter)}",
            )
        for name, ledger_value in (
            ("offloaded_pages", self.swap.offloaded),
            ("recalled_pages", self.swap.recalled),
            ("remote_freed_pages", self.swap.remote_freed),
            ("remote_lost_pages", self.swap.remote_lost),
        ):
            self._check(
                getattr(stats, name) == ledger_value,
                now,
                "swap.conservation",
                "fastswap",
                f"SwapStats.{name}={getattr(stats, name)} disagrees with "
                f"trace ledger {ledger_value}",
            )
        self._check(
            stats.remote_resident_pages == platform.pool.used_pages,
            now,
            "swap.conservation",
            "fastswap",
            f"conservation identity broken: offloaded - recalled - remote_freed "
            f"- remote_lost = {stats.remote_resident_pages} but pool holds "
            f"{platform.pool.used_pages}",
        )
        self._check(
            stats.remote_lost_pages == platform.pool.lost_pages,
            now,
            "swap.conservation",
            "fastswap",
            f"SwapStats.remote_lost_pages={stats.remote_lost_pages} disagrees "
            f"with pool-dropped pages {platform.pool.lost_pages}",
        )
        # Per-tier conservation (repro.pool.tier): the ledger balance of
        # each tier must equal its shard pools' summed usage, and the
        # tier residents must sum to the flat remote-resident balance.
        if not platform.pool.degenerate:
            total_resident = 0
            for tier in platform.pool.tiers:
                ledger = self._tier_ledgers.setdefault(tier.level, _TierLedger())
                shard_used = tier.used_pages
                shard_lost = tier.lost_pages
                self._check(
                    ledger.resident == shard_used,
                    now,
                    "tier.conservation",
                    f"tier-{tier.level}",
                    f"tier resident balance {ledger.resident} != shard pool "
                    f"usage {shard_used} summed over {len(tier.shards)} shard(s)",
                )
                self._check(
                    ledger.lost == shard_lost,
                    now,
                    "tier.conservation",
                    f"tier-{tier.level}",
                    f"tier lost ledger {ledger.lost} != shard pool dropped "
                    f"pages {shard_lost}",
                )
                total_resident += ledger.resident
            self._check(
                total_resident == stats.remote_resident_pages,
                now,
                "tier.conservation",
                "tiered-pool",
                f"summed tier residents {total_resident} != flat "
                f"remote-resident balance {stats.remote_resident_pages}",
            )
        self._snapshot_policy_states(platform, now)
        governor = getattr(platform, "governor", None)
        if governor is not None and governor.enforcing:
            node = platform.node
            self._check(
                node.peak_pages <= node.capacity_pages,
                now,
                "node.capacity",
                node.name,
                f"peak local usage {node.peak_pages} pages exceeded capacity "
                f"{node.capacity_pages} under an enforcing governor",
            )
            self._check(
                node.overcommit_events == 0,
                now,
                "node.capacity",
                node.name,
                f"{node.overcommit_events} over-capacity allocation(s) under "
                f"an enforcing governor",
            )

    def _snapshot_policy_states(self, platform: Any, now: float) -> None:
        """Direct exclusivity scan of live Pucket state (FaaSMem only)."""
        ctls = getattr(platform.policy, "_ctl", None)
        if not isinstance(ctls, dict):
            return
        for container_id, ctl in ctls.items():
            state = getattr(ctl, "state", None)
            if state is None:
                continue
            self.check_memory_state(state, subject=container_id, now=now)

    def check_memory_state(self, state: Any, subject: str = "", now: float = 0.0) -> None:
        """Assert one ContainerMemoryState keeps its sets disjoint."""
        hot_ids = {region.region_id for region in state.hot_pool.regions}
        seen: Dict[int, str] = {}
        for pucket in (state.runtime_pucket, state.init_pucket):
            for label, regions in (
                ("inactive", pucket.inactive_regions),
                ("offloaded", pucket.offloaded_regions),
            ):
                for region in regions:
                    where = f"{pucket.name}.{label}"
                    previous = seen.get(region.region_id)
                    self._check(
                        previous is None,
                        now,
                        "pucket.exclusivity",
                        subject,
                        f"region {region.region_id} in both {previous} and {where}",
                    )
                    seen[region.region_id] = where
                    self._check(
                        region.region_id not in hot_ids,
                        now,
                        "pucket.exclusivity",
                        subject,
                        f"region {region.region_id} in both hot pool and {where}",
                    )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    @property
    def clean(self) -> bool:
        return not self.violations

    def report(self) -> str:
        """Human-readable audit summary."""
        lines = [
            f"audit: {self.checks} checks over {self.events_seen} events, "
            f"{len(self.violations)} violation(s)"
        ]
        lines.extend(str(violation) for violation in self.violations)
        if len(self.violations) >= self.max_violations:
            lines.append(f"(truncated at {self.max_violations} violations)")
        return "\n".join(lines)

    def assert_clean(self) -> None:
        """Raise :class:`AuditError` if any invariant was violated."""
        if self.violations:
            raise AuditError(self.report())


_HANDLERS = {
    EventKind.ENGINE_EVENT.value: InvariantAuditor._on_engine_event,
    EventKind.CONTAINER_STATE.value: InvariantAuditor._on_container_state,
    EventKind.PUCKET_SEAL.value: InvariantAuditor._on_pucket_seal,
    EventKind.PUCKET_PROMOTE.value: InvariantAuditor._on_pucket_promote,
    EventKind.PUCKET_DEMOTE.value: InvariantAuditor._on_pucket_demote,
    EventKind.PUCKET_ROLLBACK.value: InvariantAuditor._on_pucket_rollback,
    EventKind.PUCKET_FORGET.value: InvariantAuditor._on_pucket_forget,
    EventKind.OFFLOAD_ISSUE.value: InvariantAuditor._on_offload_issue,
    EventKind.OFFLOAD_COMPLETE.value: InvariantAuditor._on_offload_complete,
    EventKind.OFFLOAD_ABORT.value: InvariantAuditor._on_offload_abort,
    EventKind.RECALL.value: InvariantAuditor._on_recall,
    EventKind.REMOTE_FREED.value: InvariantAuditor._on_remote_freed,
    EventKind.PAGE_LOST.value: InvariantAuditor._on_page_lost,
    EventKind.LINK_TRANSFER.value: InvariantAuditor._on_link_transfer,
    EventKind.TIER_PLACE.value: InvariantAuditor._on_tier_place,
    EventKind.TIER_RECALL.value: InvariantAuditor._on_tier_recall,
    EventKind.TIER_FREE.value: InvariantAuditor._on_tier_free,
    EventKind.TIER_LOST.value: InvariantAuditor._on_tier_lost,
    EventKind.TIER_DEMOTE.value: InvariantAuditor._on_tier_demote,
    EventKind.TIER_SPILL.value: InvariantAuditor._on_tier_spill,
    EventKind.BREAKER_OPEN.value: InvariantAuditor._on_breaker_event,
    EventKind.BREAKER_HALF_OPEN.value: InvariantAuditor._on_breaker_event,
    EventKind.BREAKER_CLOSE.value: InvariantAuditor._on_breaker_event,
    EventKind.PRESSURE_TIER.value: InvariantAuditor._on_pressure_tier,
    EventKind.ADMISSION_SHED.value: InvariantAuditor._on_admission_shed,
    EventKind.DIRECT_RECLAIM.value: InvariantAuditor._on_direct_reclaim,
    EventKind.OOM_KILL.value: InvariantAuditor._on_oom_kill,
}
