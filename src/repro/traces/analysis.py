"""Analytic keep-alive replay and trace statistics.

The paper's motivational numbers (Fig. 1, Fig. 5, §8.4) come from
replaying invocation timestamps against a keep-alive rule without the
full memory simulation. This module implements that replay: greedy
MRU container assignment, single request per container at a time.

The replay keeps the live containers in two deques, each sorted by
``idle_since`` (the time a container's last request finishes):

* ``busy`` holds containers still serving a request. Each arrival
  appends the container it picks with ``idle_since = arrival +
  exec_time``; arrivals are sorted and ``exec_time`` is fixed, so the
  deque is sorted by construction.
* ``idle`` holds containers whose request has finished. Containers
  move onto its back from the front of ``busy`` once ``idle_since <=
  arrival``. Every container already in ``idle`` went idle by the
  previous arrival and every one still in ``busy`` after it, so
  ``idle`` is sorted too.

An arrival moves the finished containers from ``busy`` to ``idle``,
expires the front of ``idle`` while its keep-alive has lapsed
(``idle_since + timeout < arrival``), and reuses the back of ``idle``:
the most recently idle container. With no idle container it cold-starts
a new one. Each container enters and leaves each deque at most once per
request it serves, so a replay of ``n`` arrivals costs O(n), not the
O(n x live containers) of scanning every live container per arrival.

The tie rules are those of that scan. Among idle containers sharing the
largest ``idle_since`` the earliest created wins; containers expired at
one arrival, and those still live at the end, are listed in creation
order; the result is stably sorted by ``created_at``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Deque, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TraceError


@dataclass
class ContainerSpan:
    """One container's life in an analytic replay."""

    created_at: float
    requests: int = 0
    busy_time: float = 0.0
    idle_since: float = 0.0  # start of current idle period
    reused_intervals: List[float] = field(default_factory=list)
    ended_at: float = 0.0

    @property
    def lifetime(self) -> float:
        return self.ended_at - self.created_at

    @property
    def idle_time(self) -> float:
        return max(0.0, self.lifetime - self.busy_time)


@dataclass
class KeepAliveReplay:
    """Aggregate outcome of replaying one function's timestamps."""

    timeout: float
    exec_time: float
    containers: List[ContainerSpan]
    cold_starts: int
    total_requests: int

    @property
    def cold_start_ratio(self) -> float:
        if self.total_requests == 0:
            return 0.0
        return self.cold_starts / self.total_requests

    @property
    def total_lifetime(self) -> float:
        return sum(span.lifetime for span in self.containers)

    @property
    def total_idle_time(self) -> float:
        return sum(span.idle_time for span in self.containers)

    @property
    def memory_inactive_fraction(self) -> float:
        """Share of container lifetime spent idle (Fig. 1 left axis)."""
        lifetime = self.total_lifetime
        if lifetime <= 0:
            return 0.0
        return self.total_idle_time / lifetime

    @property
    def requests_per_container(self) -> List[int]:
        return [span.requests for span in self.containers]

    @property
    def reused_intervals(self) -> List[float]:
        return [
            interval
            for span in self.containers
            for interval in span.reused_intervals
        ]


_Entry = Tuple[float, int, ContainerSpan]
_CREATION = itemgetter(1)


def replay_keepalive(
    timestamps: Iterable[float],
    timeout: float,
    exec_time: float = 1.0,
    horizon: Optional[float] = None,
) -> KeepAliveReplay:
    """Greedy single-function keep-alive replay.

    Containers serve one request at a time; an idle container expires
    ``timeout`` seconds after going idle; arrivals pick the
    most-recently-idle available container, else cold-start a new one.
    ``timestamps`` may be any iterable of sorted times; NaN counts as
    unsorted.
    """
    if timeout <= 0:
        raise TraceError(f"timeout must be positive, got {timeout}")
    if exec_time <= 0:
        raise TraceError(f"exec_time must be positive, got {exec_time}")
    # Entries are (idle_since, creation index, span).
    idle: Deque[_Entry] = deque()
    busy: Deque[_Entry] = deque()
    finished: List[ContainerSpan] = []
    cold_starts = 0
    total_requests = 0
    last_arrival = 0.0
    for arrival in timestamps:
        if not arrival >= last_arrival:
            raise TraceError("timestamps must be sorted")
        last_arrival = arrival
        total_requests += 1
        while busy and busy[0][0] <= arrival:
            idle.append(busy.popleft())
        # Expire idle containers whose keep-alive lapsed before now.
        if idle and idle[0][0] + timeout < arrival:
            expired = [idle.popleft()]
            while idle and idle[0][0] + timeout < arrival:
                expired.append(idle.popleft())
            expired.sort(key=_CREATION)
            for _, _, span in expired:
                span.ended_at = span.idle_since + timeout
                finished.append(span)
        if idle:
            entry = idle.pop()
            if idle and idle[-1][0] == entry[0]:
                entry = _pop_earliest_tied(idle, entry)
            since, index, span = entry
            span.reused_intervals.append(arrival - since)
        else:
            index = cold_starts
            span = ContainerSpan(created_at=arrival)
            cold_starts += 1
        span.requests += 1
        span.busy_time += exec_time
        span.idle_since = idle_since = arrival + exec_time
        busy.append((idle_since, index, span))
    live = sorted((*idle, *busy), key=_CREATION)
    for _, _, span in live:
        expiry = span.idle_since + timeout
        if horizon is None:
            # No horizon: containers live out their full keep-alive.
            span.ended_at = expiry
        else:
            span.ended_at = min(expiry, max(horizon, span.idle_since))
        finished.append(span)
    finished.sort(key=lambda s: s.created_at)
    return KeepAliveReplay(
        timeout=timeout,
        exec_time=exec_time,
        containers=finished,
        cold_starts=cold_starts,
        total_requests=total_requests,
    )


def _pop_earliest_tied(idle: Deque[_Entry], last: _Entry) -> _Entry:
    """Take the earliest-created entry among those tied with ``last``.

    ``last`` was just popped from the back of ``idle``; the entries
    sharing its ``idle_since`` form the back of ``idle``. If one of them
    was created earlier, it leaves and ``last`` goes back on the back,
    where it still ties.
    """
    position = len(idle)
    while position and idle[position - 1][0] == last[0]:
        position -= 1
    best = min(range(position, len(idle)), key=lambda i: idle[i][1])
    if idle[best][1] > last[1]:
        return last
    winner = idle[best]
    del idle[best]
    idle.append(last)
    return winner


def requests_per_container(
    timestamps: Sequence[float], timeout: float, exec_time: float = 1.0
) -> List[int]:
    """Requests served by each container (Fig. 5 input)."""
    return replay_keepalive(timestamps, timeout, exec_time).requests_per_container


def reused_intervals(
    timestamps: Sequence[float], timeout: float, exec_time: float = 1.0
) -> List[float]:
    """Idle durations preceding each warm reuse (§6.1 CDF input)."""
    return replay_keepalive(timestamps, timeout, exec_time).reused_intervals


def classify_load(rate_per_day: float) -> str:
    """Paper §8.4 classes: high > 512/day, low < 64/day, else middle."""
    if rate_per_day > 512:
        return "high"
    if rate_per_day < 64:
        return "low"
    return "middle"


def cdf(values: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Empirical CDF points (x sorted ascending, F in (0, 1])."""
    data = np.sort(np.asarray(list(values), dtype=float))
    if data.size == 0:
        return np.array([]), np.array([])
    fractions = np.arange(1, data.size + 1) / data.size
    return data, fractions


def percentile_or(values: Sequence[float], q: float, default: float) -> float:
    """Percentile with a fallback for empty inputs (sparse functions)."""
    data = list(values)
    if not data:
        return default
    return float(np.percentile(np.asarray(data, dtype=float), q))
