"""Parallel sweep execution: fan independent experiment points out.

Every large experiment in this repo is a grid of *independent* seeded
simulations — fig12 is loads x systems x benchmarks, tiering sweeps
the near-tier share, overload sweeps warm-set multipliers. Each point
builds its own :class:`~repro.faas.platform.ServerlessPlatform` (which
resets the process-global region/invocation id sequences), so points
share no mutable state and can run in separate processes.

:class:`SweepGrid` is the carved-out abstraction: an ordered list of
:class:`SweepPoint` (a picklable module-level function plus kwargs,
keyed by its grid coordinates) executed either serially in-process
(``jobs=1``, the provable baseline) or over a
``concurrent.futures.ProcessPoolExecutor``. Results always come back
**in grid order**, and each point's trace digest is captured, so a
differential test can assert that serial and parallel execution
produce byte-identical per-point streams and identical merged rows.

The parent's run context (:mod:`repro.context`: tracing, auditing,
the fault, pressure and pool-topology defaults) is installed in every
worker, and each worker's observability sessions are shipped back and
adopted into the parent registry in grid order — so ``repro run fig12
--audit --jobs 4`` reports the same digests and violations as a
serial run.
"""

from __future__ import annotations

import hashlib
import os
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import context
from repro.errors import SweepError

#: Environment variable consulted when no explicit job count is given.
JOBS_ENV = "REPRO_JOBS"


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a worker count: explicit value, ``$REPRO_JOBS``, else 1.

    ``0`` (or ``REPRO_JOBS=0``) means "one worker per CPU". The
    default of 1 keeps serial execution the provable baseline: nothing
    forks unless asked to.
    """
    if jobs is None:
        env = os.environ.get(JOBS_ENV, "").strip()
        if not env:
            return 1
        try:
            jobs = int(env)
        except ValueError:
            raise SweepError(
                None, f"{JOBS_ENV}={env!r} is not an integer"
            ) from None
    if jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise SweepError(None, f"jobs must be >= 0, got {jobs}")
    return jobs


@dataclass(frozen=True)
class SweepPoint:
    """One independent simulation point of a sweep grid.

    ``fn`` must be a module-level (picklable) callable and ``kwargs``
    must contain only picklable values; ``fn(**kwargs)``'s return
    value is the point's payload and must be picklable too. ``key``
    is the point's grid coordinate, used for ordering, error
    reporting and differential testing.
    """

    key: Tuple[Any, ...]
    fn: Callable[..., Any]
    kwargs: Dict[str, Any] = field(default_factory=dict)


@dataclass
class SessionSnapshot:
    """Picklable summary of one observability session (worker-side)."""

    label: str
    digest: Optional[str]
    emitted: int
    dropped: int
    audited: bool
    checks: int
    events_seen: int
    violations: List[str] = field(default_factory=list)


@dataclass
class PointResult:
    """One executed point: its payload plus observability evidence."""

    key: Tuple[Any, ...]
    value: Any
    #: SHA-256 over the digests of the sessions this point registered
    #: (None when the point ran untraced). Byte-identical between
    #: serial and parallel execution of the same grid.
    digest: Optional[str]
    sessions: List[SessionSnapshot] = field(default_factory=list)


@dataclass
class _PointFailure:
    """Worker-side exception, serialized defensively (always picklable)."""

    key: Tuple[Any, ...]
    message: str
    traceback: str


def _worker_init(run_context: context.RunContext) -> None:
    """Give a fresh worker the parent's run context and no sessions."""
    from repro.obs import runtime as obs_runtime

    obs_runtime.reset_sessions()
    context.install(run_context)


def _snapshot_sessions(sessions: List[Any]) -> List[SessionSnapshot]:
    """Freeze live obs sessions into picklable summaries."""
    out: List[SessionSnapshot] = []
    for session in sessions:
        tracer = session.tracer
        try:
            digest = tracer.digest()
        except ValueError:  # tracer built with digest=False
            digest = None
        auditor = session.auditor
        out.append(
            SessionSnapshot(
                label=session.label,
                digest=digest,
                emitted=tracer.emitted,
                dropped=tracer.dropped,
                audited=auditor is not None,
                checks=0 if auditor is None else auditor.checks,
                events_seen=0 if auditor is None else auditor.events_seen,
                violations=(
                    [] if auditor is None else [str(v) for v in auditor.violations]
                ),
            )
        )
    return out


def _point_digest(snapshots: List[SessionSnapshot]) -> Optional[str]:
    """Combined digest over a point's session digests (grid-stable)."""
    digests = [s.digest for s in snapshots if s.digest is not None]
    if not digests:
        return None
    combined = hashlib.sha256()
    for digest in digests:
        combined.update(digest.encode("ascii"))
    return combined.hexdigest()


def _execute_point(point: SweepPoint) -> PointResult:
    """Run one point in the current process, capturing its sessions."""
    from repro.obs import runtime as obs_runtime

    before = len(obs_runtime.sessions())
    value = point.fn(**point.kwargs)
    snapshots = _snapshot_sessions(obs_runtime.sessions()[before:])
    return PointResult(
        key=point.key,
        value=value,
        digest=_point_digest(snapshots),
        sessions=snapshots,
    )


def _worker_execute(point: SweepPoint):
    """Worker entry: never lets an exception cross the pickle boundary."""
    try:
        return _execute_point(point)
    except BaseException as exc:  # noqa: BLE001 - serialized for the parent
        return _PointFailure(
            key=point.key,
            message=f"{type(exc).__name__}: {exc}",
            traceback=traceback.format_exc(),
        )


class SweepGrid:
    """An ordered grid of independent sweep points.

    >>> grid = SweepGrid("demo", [SweepPoint(key=(i,), fn=abs, kwargs={"x": -i})
    ...                           for i in range(3)])  # doctest: +SKIP
    """

    def __init__(self, name: str, points: List[SweepPoint]) -> None:
        self.name = name
        self.points = list(points)
        seen = set()
        for point in self.points:
            if point.key in seen:
                raise SweepError(point.key, f"duplicate sweep key in {name!r}")
            seen.add(point.key)

    def __len__(self) -> int:
        return len(self.points)

    def run(self, jobs: Optional[int] = None) -> List[PointResult]:
        """Execute every point; results come back in grid order.

        ``jobs=1`` (the default, see :func:`resolve_jobs`) runs each
        point serially in this process. ``jobs>1`` fans points out
        over worker processes, then adopts their observability
        sessions into this process's registry in grid order — so the
        combined digest and audit report match a serial run.
        """
        jobs = resolve_jobs(jobs)
        if not self.points:
            return []
        if jobs == 1 or len(self.points) == 1:
            return [_execute_point(point) for point in self.points]
        return self._run_parallel(jobs)

    def _run_parallel(self, jobs: int) -> List[PointResult]:
        from repro.obs import runtime as obs_runtime

        workers = min(jobs, len(self.points))
        results: List[PointResult] = []
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_worker_init,
            initargs=(context.current(),),
        ) as pool:
            futures = [pool.submit(_worker_execute, point) for point in self.points]
            for point, future in zip(self.points, futures):
                try:
                    outcome = future.result()
                except BrokenProcessPool as exc:
                    raise SweepError(
                        point.key,
                        f"sweep {self.name!r} point {point.key!r}: "
                        f"worker process died ({exc})",
                    ) from exc
                if isinstance(outcome, _PointFailure):
                    raise SweepError(
                        outcome.key,
                        f"sweep {self.name!r} point {outcome.key!r} failed: "
                        f"{outcome.message}",
                        worker_traceback=outcome.traceback,
                    )
                results.append(outcome)
        # Adopt worker sessions in grid order so the parent's audit
        # report and combined digest match a serial run.
        for result in results:
            for snapshot in result.sessions:
                obs_runtime.adopt_session(snapshot)
        return results
