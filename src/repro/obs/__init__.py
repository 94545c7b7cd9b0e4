"""Structured observability and self-auditing (``repro.obs``).

* :class:`Tracer` / :class:`TraceEvent` / :class:`EventKind` — a
  low-overhead typed event ring buffer wired into the simulation
  engine, the Pucket machinery, the semi-warm controller, the swap
  datapath, the interconnect and the container lifecycle;
* :class:`InvariantAuditor` — an online checker of conservation laws
  (page placement exclusivity, swap-flow conservation, barrier
  monotonicity, the container lifecycle DAG, link subscription);
* :mod:`repro.obs.runtime` — the session registry every traced
  platform joins, and `enable` / `disable`, setters of the run
  context's (:mod:`repro.context`) obs fields that make every
  subsequently-built platform traced and audited, turning whole
  experiment suites into standing correctness tests.
"""

from repro.obs.audit import InvariantAuditor, Violation
from repro.obs.runtime import (
    ObsSession,
    audit_report,
    combined_digest,
    disable,
    enable,
    register_session,
    reset_sessions,
    sessions,
    total_violations,
)
from repro.obs.trace import EventKind, TraceEvent, Tracer

__all__ = [
    "Tracer",
    "TraceEvent",
    "EventKind",
    "InvariantAuditor",
    "Violation",
    "ObsSession",
    "enable",
    "disable",
    "register_session",
    "reset_sessions",
    "sessions",
    "combined_digest",
    "total_violations",
    "audit_report",
]
