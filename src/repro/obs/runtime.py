"""Observability switches and the session registry.

Whether new platforms are traced and audited is part of the run
context (:mod:`repro.context`); :func:`enable` and :func:`disable` are
thin setters of its ``trace``, ``audit`` and ``trace_capacity``
fields. Every traced platform registers an :class:`ObsSession` here so
the CLI (``--audit``) and tests can collect digests and violations
after the run.

The switches default to off; with them off the only cost in the
simulator is a ``tracer is None`` check per hook.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import List, Optional

from repro import context
from repro.obs.audit import InvariantAuditor
from repro.obs.trace import Tracer


@dataclass
class ObsSession:
    """One traced platform run: its tracer and (optional) auditor."""

    label: str
    tracer: Tracer
    auditor: Optional[InvariantAuditor] = None


_SESSIONS: List[ObsSession] = []


def enable(
    trace: bool = True,
    audit: bool = True,
    capacity: int = context.DEFAULT_TRACE_CAPACITY,
) -> None:
    """Turn on tracing (and optionally auditing) for new platforms."""
    context.install(
        replace(
            context.current(),
            trace=trace or audit,  # auditing needs the event stream
            audit=audit,
            trace_capacity=capacity,
        )
    )


def disable() -> None:
    """Turn both switches off and restore the default ring capacity."""
    enable(trace=False, audit=False)


def register_session(session: ObsSession) -> ObsSession:
    """Record a platform's tracer/auditor for later collection."""
    _SESSIONS.append(session)
    return session


class _FrozenTracer:
    """Read-only stand-in for a tracer that lived in a worker process.

    The ring buffer stayed behind in the worker, so :meth:`snapshot`
    is empty; the digest and counters — everything the audit report
    and combined digest read — are preserved.
    """

    def __init__(self, digest: Optional[str], emitted: int, dropped: int) -> None:
        self._digest = digest
        self.emitted = emitted
        self.dropped = dropped

    def digest(self) -> str:
        if self._digest is None:
            raise ValueError("tracer was built with digest=False")
        return self._digest

    def snapshot(self) -> list:
        return []

    def __len__(self) -> int:
        return 0


class _FrozenAuditor:
    """Read-only stand-in for a worker session's invariant auditor."""

    def __init__(self, checks: int, events_seen: int, violations: List[str]) -> None:
        self.checks = checks
        self.events_seen = events_seen
        self.violations = list(violations)


def adopt_session(snapshot) -> ObsSession:
    """Register a worker session summary (:mod:`repro.perf.sweep`).

    Parallel sweeps run platforms in worker processes whose sessions
    never touch this registry; adopting their picklable summaries —
    in grid order — keeps ``combined_digest`` and ``audit_report``
    identical to a serial run.
    """
    auditor = (
        _FrozenAuditor(snapshot.checks, snapshot.events_seen, snapshot.violations)
        if snapshot.audited
        else None
    )
    session = ObsSession(
        label=snapshot.label,
        tracer=_FrozenTracer(snapshot.digest, snapshot.emitted, snapshot.dropped),
        auditor=auditor,
    )
    return register_session(session)


def sessions() -> List[ObsSession]:
    """Sessions registered since the last :func:`reset_sessions`."""
    return list(_SESSIONS)


def reset_sessions() -> None:
    _SESSIONS.clear()


def trim_sessions(count: int) -> None:
    """Drop sessions registered after the first ``count``.

    Lets a caller (e.g. perfbench's audited replay) run audited
    platforms without leaking their sessions into an enclosing
    registry scope.
    """
    del _SESSIONS[count:]


def combined_digest() -> str:
    """One digest over every session's full event stream, in order."""
    digest = hashlib.sha256()
    for session in _SESSIONS:
        digest.update(session.tracer.digest().encode("ascii"))
    return digest.hexdigest()


def total_violations() -> int:
    return sum(
        len(session.auditor.violations)
        for session in _SESSIONS
        if session.auditor is not None
    )


def audit_report() -> str:
    """Aggregate report across all registered sessions."""
    audited = [s for s in _SESSIONS if s.auditor is not None]
    if not audited:
        return "audit: no audited sessions"
    checks = sum(s.auditor.checks for s in audited)
    events = sum(s.auditor.events_seen for s in audited)
    violations = total_violations()
    lines = [
        f"audit: {len(audited)} session(s), {checks} checks over "
        f"{events} events, {violations} violation(s)"
    ]
    for session in audited:
        if session.auditor.violations:
            lines.append(f"-- session {session.label}:")
            lines.extend(f"   {v}" for v in session.auditor.violations)
    return "\n".join(lines)
