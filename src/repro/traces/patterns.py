"""Arrival-pattern generators.

Each generator produces sorted timestamps in [0, duration). Azure-like
populations mix these: Poisson (HTTP-triggered), fixed-interval
(timer-triggered — a large share of real Azure functions), bursty
on/off (event-driven spikes) and diurnal (user-facing load).

Every generator draws its times as numpy arrays and sorts them once,
with ``np.sort``, before the single ``.tolist()`` that returns them.
``np.sort`` is not stable, but that cannot show: two floats that
compare equal are the same bits unless one is ``-0.0``, and no
generator here yields both ``0.0`` and ``-0.0``. The result equals
``sorted()`` over the same draws, bit for bit.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.errors import TraceError


def _validate(duration: float, rate: float) -> None:
    if duration <= 0:
        raise TraceError(f"duration must be positive, got {duration}")
    if rate < 0:
        raise TraceError(f"rate must be non-negative, got {rate}")


def _poisson_times(
    rng: np.random.Generator, rate_per_s: float, duration: float
) -> np.ndarray:
    """Unsorted Poisson arrival times (validated)."""
    _validate(duration, rate_per_s)
    if rate_per_s == 0:
        return np.empty(0)
    expected = rate_per_s * duration
    # Draw the count, then order-statistics uniforms: exact and fast.
    count = rng.poisson(expected)
    return rng.uniform(0.0, duration, count)


def poisson_arrivals(
    rng: np.random.Generator, rate_per_s: float, duration: float
) -> List[float]:
    """Homogeneous Poisson process."""
    return np.sort(_poisson_times(rng, rate_per_s, duration)).tolist()


def periodic_arrivals(
    rng: np.random.Generator,
    interval_s: float,
    duration: float,
    jitter_s: float = 0.0,
    phase: Optional[float] = None,
) -> List[float]:
    """Timer-triggered: fixed interval with optional jitter."""
    if interval_s <= 0:
        raise TraceError(f"interval must be positive, got {interval_s}")
    _validate(duration, 1.0 / interval_s)
    start = rng.uniform(0.0, interval_s) if phase is None else phase
    points = np.arange(start, duration, interval_s)
    if jitter_s > 0:
        points = points + rng.uniform(-jitter_s, jitter_s, len(points))
    return np.sort(points[(points >= 0) & (points < duration)]).tolist()


def _bursty_times(
    rng: np.random.Generator,
    duration: float,
    burst_rate_per_s: float,
    mean_burst_s: float,
    mean_gap_s: float,
    min_gap_s: float,
) -> np.ndarray:
    """Unsorted on/off arrival times (validated); see ``bursty_arrivals``."""
    _validate(duration, burst_rate_per_s)
    if mean_burst_s <= 0 or mean_gap_s <= 0:
        raise TraceError("burst and gap means must be positive")
    if min_gap_s < 0 or min_gap_s >= mean_gap_s:
        raise TraceError("min_gap_s must be in [0, mean_gap_s)")
    gap_tail = mean_gap_s - min_gap_s

    def gap() -> float:
        return min_gap_s + float(rng.exponential(gap_tail))

    bursts: List[np.ndarray] = []
    clock = gap()
    while clock < duration:
        burst_len = float(rng.exponential(mean_burst_s))
        burst_end = min(clock + burst_len, duration)
        span = burst_end - clock
        if span > 0 and burst_rate_per_s > 0:
            count = rng.poisson(burst_rate_per_s * span)
            bursts.append(rng.uniform(clock, burst_end, count))
        clock = burst_end + gap()
    return np.concatenate(bursts) if bursts else np.empty(0)


def bursty_arrivals(
    rng: np.random.Generator,
    duration: float,
    burst_rate_per_s: float,
    mean_burst_s: float = 30.0,
    mean_gap_s: float = 300.0,
    min_gap_s: float = 0.0,
) -> List[float]:
    """On/off process: silent gaps separated by high-rate bursts.

    Burst and gap lengths are exponential; within a burst arrivals are
    Poisson at ``burst_rate_per_s``. This produces the "sudden increase
    and decrease" invocation shape of the paper's high-load traces.
    ``min_gap_s`` puts a floor under the quiet gaps (e.g. beyond the
    keep-alive timeout, so each burst meets a cold fleet).
    """
    times = _bursty_times(
        rng, duration, burst_rate_per_s, mean_burst_s, mean_gap_s, min_gap_s
    )
    return np.sort(times).tolist()


def diurnal_arrivals(
    rng: np.random.Generator,
    mean_rate_per_s: float,
    duration: float,
    period_s: float = 86400.0,
    depth: float = 0.8,
) -> List[float]:
    """Sinusoidally modulated Poisson process (user-facing load).

    ``depth`` in [0, 1] controls peak-to-trough contrast. Implemented
    by thinning a homogeneous process at the peak rate.
    """
    _validate(duration, mean_rate_per_s)
    if not 0 <= depth <= 1:
        raise TraceError(f"depth must be in [0, 1], got {depth}")
    peak = mean_rate_per_s * (1 + depth)
    candidates = np.sort(_poisson_times(rng, peak, duration))
    if not candidates.size:
        return []
    phase = rng.uniform(0, period_s)
    instantaneous = mean_rate_per_s * (
        1 + depth * np.sin(2 * np.pi * (candidates + phase) / period_s)
    )
    # One vector draw is the same stream as one scalar draw per candidate.
    keep = rng.random(candidates.size) < instantaneous / peak
    return candidates[keep].tolist()


def surge_arrivals(
    rng: np.random.Generator,
    duration: float,
    base_rate_per_s: float,
    surge_at: float,
    surge_len_s: float,
    surge_rate_per_s: float,
) -> List[float]:
    """A steady trickle with one extreme short-term surge (Table 1 ID-5)."""
    _validate(duration, base_rate_per_s)
    if not 0 <= surge_at < duration:
        raise TraceError(f"surge_at {surge_at} outside [0, {duration})")
    base = _poisson_times(rng, base_rate_per_s, duration)
    surge_end = min(surge_at + surge_len_s, duration)
    count = rng.poisson(surge_rate_per_s * (surge_end - surge_at))
    surge = rng.uniform(surge_at, surge_end, count)
    return np.sort(np.concatenate((base, surge))).tolist()
