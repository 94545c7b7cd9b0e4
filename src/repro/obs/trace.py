"""Structured event tracing: a low-overhead, typed event ring buffer.

Every load-bearing state change in the simulator — page offloads and
recalls, Pucket promotions and demotions, container lifecycle
transitions, link transfers — can emit a :class:`TraceEvent` into a
:class:`Tracer`. Components hold a ``tracer`` attribute that is
``None`` by default, and every emission site is guarded by a single
``is not None`` check, so tracing costs one attribute test per hook
when disabled.

The tracer keeps the most recent events in a bounded ring buffer (for
export) and maintains an incremental SHA-256 digest over the *entire*
emitted stream (for determinism checks: two runs of the same seeded
experiment must produce byte-identical streams). Subscribers — most
importantly :class:`repro.obs.audit.InvariantAuditor` — see every
event online, regardless of ring capacity.
"""

from __future__ import annotations

import enum
import hashlib
import itertools
import json
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional


class EventKind(str, enum.Enum):
    """The typed vocabulary of trace records."""

    # Discrete-event engine (repro.sim.engine)
    ENGINE_EVENT = "engine.event"

    # Container lifecycle (repro.faas.container)
    CONTAINER_STATE = "container.state"

    # Swap datapath (repro.pool.fastswap)
    OFFLOAD_ISSUE = "region.offload.issue"
    OFFLOAD_COMPLETE = "region.offload.complete"
    OFFLOAD_ABORT = "region.offload.abort"
    RECALL = "region.recall"
    REMOTE_FREED = "region.remote_freed"

    # Pucket machinery (repro.core.pucket)
    PUCKET_SEAL = "pucket.seal"
    PUCKET_PROMOTE = "pucket.promote"
    PUCKET_DEMOTE = "pucket.demote"
    PUCKET_ROLLBACK = "pucket.rollback"
    PUCKET_FORGET = "pucket.forget"

    # Semi-warm controller (repro.core.semiwarm)
    SEMIWARM_ENTER = "semiwarm.enter"
    SEMIWARM_CANCEL = "semiwarm.cancel"
    SEMIWARM_DRAIN = "semiwarm.drain"

    # Interconnect (repro.pool.link)
    LINK_TRANSFER = "link.transfer"

    # Fault injection & recovery (repro.faults)
    FAULT_INJECTED = "fault.injected"
    FAULT_CLEARED = "fault.cleared"
    POOL_CRASH = "fault.pool_crash"
    PAGE_IN_RETRY = "fault.pagein.retry"
    PAGE_LOST = "region.page_lost"
    OFFLOAD_SUPPRESSED = "region.offload.suppressed"
    CONTAINER_RESTART = "container.restart"
    BREAKER_OPEN = "breaker.open"
    BREAKER_HALF_OPEN = "breaker.half_open"
    BREAKER_CLOSE = "breaker.close"

    # Tiered pool hierarchy (repro.pool.tier). Only emitted for genuinely
    # hierarchical topologies: the degenerate one-tier/one-shard
    # configuration emits none of these, keeping its trace stream
    # byte-identical to the flat pool's.
    TIER_PLACE = "tier.place"
    TIER_RECALL = "tier.recall"
    TIER_FREE = "tier.free"
    TIER_LOST = "tier.lost"
    TIER_DEMOTE = "tier.demote"
    TIER_SPILL = "tier.spill"

    # Memory-pressure governor (repro.pressure)
    WATERMARK_LOW = "pressure.watermark.low"
    WATERMARK_RECOVERED = "pressure.watermark.recovered"
    BACKGROUND_RECLAIM = "pressure.reclaim.background"
    DIRECT_RECLAIM = "pressure.reclaim.direct"
    OOM_KILL = "pressure.oom_kill"
    PRESSURE_TIER = "pressure.tier"
    THROTTLE = "pressure.throttle"
    ADMISSION_QUEUE = "pressure.admission.queue"
    ADMISSION_DEQUEUE = "pressure.admission.dequeue"
    ADMISSION_SHED = "pressure.admission.shed"
    PREWARM_DENIED = "pressure.prewarm.denied"


class TraceEvent:
    """One typed trace record.

    ``data`` holds kind-specific scalar fields (plus the occasional
    list of region ids); values must be JSON-serializable so the
    stream can be exported and hashed canonically.
    """

    __slots__ = ("seq", "time", "kind", "subject", "data", "_encoded")

    def __init__(
        self, seq: int, time: float, kind: str, subject: str, data: Dict[str, Any]
    ) -> None:
        self.seq = seq
        self.time = time
        self.kind = kind
        self.subject = subject
        self.data = data
        self._encoded: Optional[bytes] = None

    def as_dict(self) -> Dict[str, Any]:
        """Flat dict form used by the JSON/CSV exporters."""
        out: Dict[str, Any] = {
            "seq": self.seq,
            "time": self.time,
            "kind": self.kind,
            "subject": self.subject,
        }
        out.update(self.data)
        return out

    def line(self) -> str:
        """Canonical one-line serialization (hashed for determinism)."""
        return self.encoded().decode("utf-8")

    def encoded(self) -> bytes:
        """The canonical line as UTF-8 bytes, serialized exactly once.

        The hash path and the export/``--tail`` paths share this
        cache, so an event is canonicalized at most once no matter how
        many sinks read it. Empty payloads — the engine's per-event
        heartbeat is the hottest case — skip ``json.dumps`` entirely;
        the literal ``"{}"`` is byte-identical to what ``json.dumps``
        produces for an empty dict.
        """
        encoded = self._encoded
        if encoded is None:
            data = self.data
            payload = (
                json.dumps(data, sort_keys=True, separators=(",", ":"), default=str)
                if data
                else "{}"
            )
            encoded = (
                f"{self.seq}|{self.time!r}|{self.kind}|{self.subject}|{payload}"
            ).encode("utf-8")
            self._encoded = encoded
        return encoded

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceEvent({self.line()})"


# Hash-input buffering: encoded lines accumulate until roughly this
# many bytes, then feed SHA-256 in one C call. The resulting digest is
# byte-identical to per-event updates (SHA-256 is sequential over the
# concatenated stream); batching only amortizes call overhead.
_HASH_CHUNK_BYTES = 1 << 16


class Tracer:
    """Bounded ring buffer of :class:`TraceEvent` with live subscribers.

    Args:
        clock: callable returning the current simulated time; every
            emitted event is stamped with it.
        capacity: ring-buffer size; older events fall off but remain
            counted in :attr:`emitted` and hashed into the digest.
        digest: maintain an incremental SHA-256 over the full stream.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        capacity: int = 1 << 16,
        digest: bool = True,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._clock = clock
        self.events: Deque[TraceEvent] = deque(maxlen=capacity)
        self._seq = itertools.count()
        self._subscribers: List[Callable[[TraceEvent], None]] = []
        self._hash = hashlib.sha256() if digest else None
        self._pending: List[bytes] = []
        self._pending_bytes = 0
        self.emitted = 0
        self.enabled = True

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------

    def emit(self, kind: EventKind, subject: str = "", **data: Any) -> Optional[TraceEvent]:
        """Record one event; returns it (or None when disabled).

        This is the simulator's hottest observability path (one call
        per engine event when tracing is on), so it stays lean: the
        canonical line is serialized lazily and exactly once (see
        :meth:`TraceEvent.encoded`), hash input is buffered and fed to
        SHA-256 in batched chunks with an identical final digest, and
        the subscriber loop is skipped outright when the ring (and
        digest) are the only sinks.
        """
        if not self.enabled:
            return None
        event = TraceEvent(
            next(self._seq),
            self._clock(),
            kind.value if type(kind) is EventKind else str(kind),
            subject,
            data,
        )
        self.events.append(event)
        self.emitted += 1
        if self._hash is not None:
            encoded = event.encoded()
            self._pending.append(encoded)
            self._pending_bytes += len(encoded) + 1
            if self._pending_bytes >= _HASH_CHUNK_BYTES:
                self._flush_hash()
        if self._subscribers:
            for subscriber in self._subscribers:
                subscriber(event)
        return event

    def subscribe(self, callback: Callable[[TraceEvent], None]) -> None:
        """Register an online consumer called for every emitted event."""
        self._subscribers.append(callback)

    # ------------------------------------------------------------------
    # Introspection / export
    # ------------------------------------------------------------------

    def _flush_hash(self) -> None:
        """Feed buffered canonical lines into the running SHA-256."""
        pending = self._pending
        if pending:
            self._hash.update(b"\n".join(pending))
            self._hash.update(b"\n")
            pending.clear()
            self._pending_bytes = 0

    def digest(self) -> str:
        """SHA-256 hex digest of the canonical full event stream."""
        if self._hash is None:
            raise ValueError("tracer was built with digest=False")
        self._flush_hash()
        return self._hash.hexdigest()

    @property
    def dropped(self) -> int:
        """Events that have fallen off the ring buffer."""
        return self.emitted - len(self.events)

    def snapshot(self) -> List[TraceEvent]:
        """The buffered events, oldest first."""
        return list(self.events)

    def to_json(self, path: Optional[str] = None) -> str:
        from repro.metrics.export import events_to_json

        return events_to_json(self.snapshot(), path)

    def to_csv(self, path: Optional[str] = None) -> str:
        from repro.metrics.export import events_to_csv

        return events_to_csv(self.snapshot(), path)

    def __len__(self) -> int:
        return len(self.events)
