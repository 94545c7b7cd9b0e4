"""Per-function real-time profiling (§5.2, §6.1).

The profiler aggregates two kinds of history per function:

* **container reused intervals** — how long containers idle before the
  next request; their high percentile sets the semi-warm start timing.
  Historical priors (from the invocation trace) can seed the
  distribution, matching the paper's offline analysis; online reuse
  observations keep extending it.
* **request windows** — the Init Pucket window sizes containers
  discovered, reused as the rollback cadence and as the starting
  window for new containers of the same function.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import FaaSMemConfig


class FunctionProfiler:
    """History store shared by all containers of a platform."""

    def __init__(
        self,
        config: FaaSMemConfig,
        reuse_priors: Optional[Dict[str, Sequence[float]]] = None,
    ) -> None:
        self.config = config
        # Per function, every reuse sample (priors, online observations
        # and, when cold-start-aware, censored cold starts) kept sorted
        # so a percentile is an index lookup.
        self._reuse: Dict[str, List[float]] = {
            name: _sorted_priors(name, values)
            for name, values in (reuse_priors or {}).items()
        }
        self._windows: Dict[str, List[int]] = {}
        self._cold_starts: Dict[str, int] = {}

    # -- reused intervals -----------------------------------------------------

    def record_reuse(self, function: str, interval_s: float) -> None:
        """Record one observed container reuse interval."""
        bisect.insort(
            self._reuse.setdefault(function, []), _checked_interval(function, interval_s)
        )

    def record_cold_start(self, function: str) -> None:
        """Note a cold start (a reuse that *didn't* happen in time).

        With ``coldstart_aware_timing`` (§8.3.2) each cold start is
        also a right-censored reuse interval at the keep-alive bound,
        inserted into the reuse distribution.
        """
        self._cold_starts[function] = self._cold_starts.get(function, 0) + 1
        if self.config.coldstart_aware_timing:
            bisect.insort(
                self._reuse.setdefault(function, []), float(self.config.coldstart_censor_s)
            )

    def cold_start_count(self, function: str) -> int:
        return self._cold_starts.get(function, 0)

    def semiwarm_start_timing(self, function: str) -> float:
        """Semi-warm start delay after idle (§6.1).

        The pessimistic estimate: the ``semiwarm_percentile`` (99 %-ile
        by default) of the reused-interval distribution. Falls back to
        ``semiwarm_fallback_s`` until enough samples exist. With
        ``coldstart_aware_timing`` the distribution additionally
        carries one censored sample per observed cold start, lifting
        the percentile under bursty, cold-start-heavy load.
        """
        samples = self._reuse.get(function, ())
        if len(samples) < self.config.semiwarm_min_samples:
            return self.config.semiwarm_fallback_s
        return sorted_percentile(samples, self.config.semiwarm_percentile)

    # -- request windows --------------------------------------------------------

    def record_window(self, function: str, window: int) -> None:
        """Record an Init Pucket window a container converged to."""
        if window < 1:
            raise ValueError(f"window must be positive, got {window}")
        self._windows.setdefault(function, []).append(window)

    def typical_window(self, function: str) -> Optional[int]:
        """Median discovered window for the function, if any."""
        windows = self._windows.get(function)
        if not windows:
            return None
        return int(np.median(np.asarray(windows)))


def _checked_interval(function: str, interval_s: float) -> float:
    interval = float(interval_s)
    if not math.isfinite(interval) or interval < 0:
        raise ValueError(
            f"reuse interval of {function!r} must be finite and non-negative, "
            f"got {interval_s}"
        )
    return interval


def _sorted_priors(function: str, values: Sequence[float]) -> List[float]:
    # np.sort puts NaN last, so the two ends bound every sample.
    samples = np.sort(np.asarray(values, dtype=float))
    if samples.size and not (samples[0] >= 0 and math.isfinite(samples[-1])):
        raise ValueError(
            f"reuse priors of {function!r} must be finite and non-negative, "
            f"got values in [{samples[0]}, {samples[-1]}]"
        )
    return samples.tolist()


def sorted_percentile(values: Sequence[float], q: float) -> float:
    """``q``-th percentile of ascending ``values``, equal to ``np.percentile``.

    Reproduces numpy's default ``linear`` method bit for bit: virtual
    index ``(n - 1) * (q / 100)``, then the two-branch lerp numpy uses
    for stability (from the lower neighbour when the fraction is below
    0.5, from the upper one otherwise).
    """
    last = len(values) - 1
    index = last * (q / 100)
    if index >= last:
        return values[last]
    lower = int(index)
    t = index - lower
    a = values[lower]
    b = values[lower + 1]
    if t < 0.5:
        return a + (b - a) * t
    return b - (b - a) * (1 - t)
