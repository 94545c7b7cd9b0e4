"""Trace data model."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from operator import le
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.errors import TraceError
from repro.units import DAY


@dataclass
class FunctionTrace:
    """All invocation timestamps of one function over a window."""

    name: str
    timestamps: List[float]
    duration: float

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise TraceError(f"duration must be positive, got {self.duration}")
        if self._sorted_within_duration():
            return
        # Some check fails: walk the list to name the first offender.
        previous = -float("inf")
        for timestamp in self.timestamps:
            if timestamp < previous:
                raise TraceError(f"trace {self.name!r} timestamps not sorted")
            if not 0 <= timestamp <= self.duration:
                raise TraceError(
                    f"trace {self.name!r}: timestamp {timestamp} outside "
                    f"[0, {self.duration}]"
                )
            previous = timestamp

    def _sorted_within_duration(self) -> bool:
        """Sorted, no NaN, and every timestamp in [0, duration].

        Compares neighbours with ``map(operator.le, ...)``, which runs
        in C over the list itself: as fast as a numpy check on long
        traces, without converting the list, and faster on short ones.
        Sorted, the range holds if the first and last timestamps are in
        it. NaN fails every comparison.
        """
        times = self.timestamps
        if not len(times):
            return True
        return bool(
            0 <= times[0]
            and times[-1] <= self.duration
            and all(map(le, times, islice(times, 1, None)))
        )

    @property
    def count(self) -> int:
        return len(self.timestamps)

    @property
    def rate_per_day(self) -> float:
        """Average invocations per day."""
        return self.count / self.duration * DAY

    @property
    def inter_arrival_times(self) -> np.ndarray:
        """Gaps between consecutive invocations."""
        if self.count < 2:
            return np.array([])
        return np.diff(np.asarray(self.timestamps))

    @property
    def iat_std(self) -> float:
        """Standard deviation of inter-arrival times (Fig. 16 x-axis)."""
        gaps = self.inter_arrival_times
        return float(np.std(gaps)) if gaps.size else 0.0

    def requests_per_minute(self) -> float:
        return self.count / (self.duration / 60.0)

    def slice(self, start: float, end: float) -> "FunctionTrace":
        """Re-based sub-trace covering [start, end)."""
        if not 0 <= start < end <= self.duration:
            raise TraceError(f"invalid slice [{start}, {end}) of {self.duration}")
        kept = [t - start for t in self.timestamps if start <= t < end]
        return FunctionTrace(name=self.name, timestamps=kept, duration=end - start)


@dataclass
class TraceSet:
    """A population of function traces (an Azure-like workload)."""

    functions: Dict[str, FunctionTrace] = field(default_factory=dict)
    duration: float = 0.0

    def add(self, trace: FunctionTrace) -> None:
        if trace.name in self.functions:
            raise TraceError(f"duplicate function {trace.name!r}")
        self.functions[trace.name] = trace
        self.duration = max(self.duration, trace.duration)

    def __iter__(self) -> Iterator[FunctionTrace]:
        return iter(self.functions.values())

    def __len__(self) -> int:
        return len(self.functions)

    @property
    def total_invocations(self) -> int:
        return sum(trace.count for trace in self)

    def merged(self) -> List[Tuple[float, str]]:
        """Globally time-sorted (timestamp, function) pairs."""
        events = [
            (timestamp, trace.name)
            for trace in self
            for timestamp in trace.timestamps
        ]
        events.sort()
        return events
