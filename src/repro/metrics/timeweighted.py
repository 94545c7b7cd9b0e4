"""Time-weighted averaging of a step function.

Memory usage in the simulation is a step function of time (it changes
only at events). The accumulator integrates the function exactly
between updates, which is how the paper reports "average local memory
usage".
"""

from __future__ import annotations

from typing import List, Optional, Tuple


class TimeWeightedAccumulator:
    """Integrates a piecewise-constant signal over simulated time.

    >>> acc = TimeWeightedAccumulator(start_time=0.0, value=10.0)
    >>> acc.update(5.0, 20.0)   # signal was 10 during [0, 5)
    >>> acc.update(15.0, 0.0)   # signal was 20 during [5, 15)
    >>> acc.average(15.0)
    16.666666666666668
    """

    def __init__(self, start_time: float = 0.0, value: float = 0.0) -> None:
        self._start = start_time
        self._last_time = start_time
        self._value = value
        self._area = 0.0
        self._peak = value
        self._samples: List[Tuple[float, float]] = [(start_time, value)]

    @property
    def value(self) -> float:
        """Current signal value."""
        return self._value

    @property
    def peak(self) -> float:
        """Maximum signal value observed."""
        return self._peak

    @property
    def samples(self) -> List[Tuple[float, float]]:
        """(time, value) change points, for plotting timelines."""
        return list(self._samples)

    def update(self, now: float, value: float) -> None:
        """Record that the signal changed to ``value`` at time ``now``."""
        if now < self._last_time:
            raise ValueError(
                f"time went backwards: {now} < {self._last_time}"
            )
        self._area += self._value * (now - self._last_time)
        self._last_time = now
        self._value = value
        if value > self._peak:
            self._peak = value
        if self._samples and self._samples[-1][0] == now:
            self._samples[-1] = (now, value)
        else:
            self._samples.append((now, value))

    def add(self, now: float, delta: float) -> None:
        """Shift the signal by ``delta`` at time ``now``."""
        self.update(now, self._value + delta)

    def average(self, now: Optional[float] = None) -> float:
        """Time-weighted mean over [start, now].

        ``now`` defaults to the last update time.
        """
        end = self._last_time if now is None else now
        if end < self._last_time:
            raise ValueError(f"now={end} precedes last update {self._last_time}")
        span = end - self._start
        if span <= 0:
            return self._value
        area = self._area + self._value * (end - self._last_time)
        return area / span

    def average_between(self, start: float, end: float) -> float:
        """Time-weighted mean over an arbitrary window [start, end].

        Computed from the recorded change points, so it works even
        after the signal has been updated past ``end`` (e.g. averaging
        memory usage over the trace window while the simulation ran to
        completion).
        """
        if end <= start:
            raise ValueError(f"window must have positive span: [{start}, {end}]")
        area = 0.0
        # Each change point holds until the next one; the last holds
        # through the window's end.
        samples = self._samples
        for (time, value), (next_time, _) in zip(samples, samples[1:] + [(end, 0.0)]):
            if time >= end:
                break  # this and every later piece starts past the window
            lo = max(time, start)
            hi = min(next_time, end)
            if hi > lo:
                area += value * (hi - lo)
        return area / (end - start)

    def peak_between(self, start: float, end: float) -> float:
        """Maximum signal value within [start, end]."""
        if end <= start:
            raise ValueError(f"window must have positive span: [{start}, {end}]")
        value_at_start = 0.0
        peak = None
        for time, value in self._samples:
            if time <= start:
                value_at_start = value
            elif time <= end:
                peak = value if peak is None else max(peak, value)
            else:
                break
        return value_at_start if peak is None else max(peak, value_at_start)
