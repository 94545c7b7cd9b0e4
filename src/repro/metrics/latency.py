"""Latency statistics: percentile computations over request samples."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

import numpy as np


def percentile(samples: Iterable[float], q: float) -> float:
    """The ``q``-th percentile (0-100) of ``samples``.

    Uses linear interpolation, matching ``numpy.percentile`` defaults.
    Raises ValueError on an empty sample set — an experiment that
    produced no requests is a bug, not a zero.
    """
    data = np.asarray(list(samples), dtype=float)
    if data.size == 0:
        raise ValueError("percentile of empty sample set")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    return float(np.percentile(data, q))


@dataclass
class LatencyStats:
    """Accumulates per-request end-to-end latencies."""

    samples: List[float] = field(default_factory=list)

    def record(self, latency: float) -> None:
        """Add one request latency (seconds)."""
        if latency < 0:
            raise ValueError(f"latency must be non-negative, got {latency}")
        self.samples.append(latency)

    def extend(self, latencies: Iterable[float]) -> None:
        for latency in latencies:
            self.record(latency)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        if not self.samples:
            raise ValueError("no latency samples recorded")
        return float(np.mean(self.samples))

    def p(self, q: float) -> float:
        """Shorthand percentile accessor: ``stats.p(95)``."""
        return percentile(self.samples, q)

    def percentiles(self) -> Tuple[float, float, float]:
        """``(p50, p95, p99)`` from one ``np.percentile`` call.

        Bitwise equal to three separate :meth:`p` calls (numpy
        interpolates each q from the same sorted samples), at about a
        quarter of the cost; summaries read all three.
        """
        if not self.samples:
            raise ValueError("percentile of empty sample set")
        p50, p95, p99 = np.percentile(np.asarray(self.samples, dtype=float), (50, 95, 99))
        return float(p50), float(p95), float(p99)

    @property
    def p50(self) -> float:
        return self.p(50)

    @property
    def p95(self) -> float:
        return self.p(95)

    @property
    def p99(self) -> float:
        return self.p(99)

    def summary(self) -> Dict[str, float]:
        """Mean and standard percentiles as a plain dict."""
        p50, p95, p99 = self.percentiles()
        return {
            "count": float(self.count),
            "mean": self.mean,
            "p50": p50,
            "p95": p95,
            "p99": p99,
        }
