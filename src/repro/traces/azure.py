"""Synthetic Azure-Functions-like trace population.

The Azure Functions Invocation Trace 2021 used by the paper (424
functions, 1,980,951 invocations) is not bundled here; this module
synthesizes a population with the same published characteristics:

* heavy-tailed per-function daily rates (log-normal);
* a large timer-triggered share with exact intervals;
* bursty on/off event-driven functions;
* ~60 % of containers serving at most two requests under a 10-minute
  keep-alive (emerges from the rate mixture, checked by tests).

Load classes follow §8.4: high ``> 512``/day, low ``< 64``/day.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import TraceError
from repro.sim.randomness import RandomStreams
from repro.traces.model import FunctionTrace, TraceSet
from repro.traces.patterns import (
    _bursty_times,
    _poisson_times,
    bursty_arrivals,
    diurnal_arrivals,
    periodic_arrivals,
    poisson_arrivals,
    surge_arrivals,
)
from repro.units import DAY, HOUR, MINUTE


@dataclass
class AzureTraceConfig:
    """Knobs for the synthetic population."""

    n_functions: int = 424
    duration: float = DAY
    seed: int = 2021
    # Log-normal daily-rate parameters. Calibrated jointly against the
    # paper's anchors: Fig. 1 (~70 % memory-inactive at a 1-minute
    # keep-alive, ~89 % at 10 minutes) and Fig. 5 (~60 % of containers
    # serve at most two requests). Median ~12 invocations/day with a
    # very heavy tail: a handful of functions dominate request volume,
    # as in the real Azure trace.
    log_rate_mu: float = 2.5
    log_rate_sigma: float = 3.2
    periodic_share: float = 0.25
    bursty_share: float = 0.35
    diurnal_share: float = 0.10  # remainder is plain Poisson

    def __post_init__(self) -> None:
        if self.n_functions <= 0:
            raise TraceError("n_functions must be positive")
        total = self.periodic_share + self.bursty_share + self.diurnal_share
        if total > 1.0 + 1e-9:
            raise TraceError(f"pattern shares sum to {total} > 1")


_PERIODIC_INTERVALS = [MINUTE, 5 * MINUTE, 15 * MINUTE, 30 * MINUTE, HOUR]


def generate_azure_like(config: Optional[AzureTraceConfig] = None) -> TraceSet:
    """Build the synthetic population."""
    config = config or AzureTraceConfig()
    streams = RandomStreams(seed=config.seed)
    rate_rng = streams.get("rates")
    pattern_rng = streams.get("patterns")
    trace_set = TraceSet()
    daily_rates = np.exp(
        rate_rng.normal(config.log_rate_mu, config.log_rate_sigma, config.n_functions)
    )
    for index in range(config.n_functions):
        name = f"fn-{index:04d}"
        rate_per_s = float(daily_rates[index]) / DAY
        rng = streams.fork(index).get("arrivals")
        dice = pattern_rng.random()
        if daily_rates[index] > 512 and dice < 0.6:
            # High-load functions in the Azure trace are dominated by
            # surge-driven event sources: long quiet gaps (beyond the
            # keep-alive) separated by intense bursts, which is what
            # creates their short-lived container cohorts (§8.4).
            mean_gap = float(pattern_rng.uniform(20 * MINUTE, 60 * MINUTE))
            mean_burst = float(pattern_rng.uniform(30.0, 90.0))
            duty = mean_burst / (mean_burst + mean_gap)
            timestamps = bursty_arrivals(
                rng,
                config.duration,
                burst_rate_per_s=rate_per_s / max(duty, 1e-6),
                mean_burst_s=mean_burst,
                mean_gap_s=mean_gap,
                # Quiet gaps outlast the 10-minute keep-alive: every
                # surge meets a cold fleet of short-lived containers.
                min_gap_s=12 * MINUTE,
            )
            trace_set.add(
                FunctionTrace(
                    name=name, timestamps=timestamps, duration=config.duration
                )
            )
            continue
        if dice < config.periodic_share:
            interval = min(
                _PERIODIC_INTERVALS[
                    int(pattern_rng.integers(0, len(_PERIODIC_INTERVALS)))
                ],
                max(1.0 / rate_per_s, MINUTE),
            )
            timestamps = periodic_arrivals(rng, interval, config.duration, jitter_s=2.0)
        elif dice < config.periodic_share + config.bursty_share:
            # Bursty: concentrate the same mean rate into on-periods.
            mean_gap = float(pattern_rng.uniform(5 * MINUTE, 40 * MINUTE))
            mean_burst = float(pattern_rng.uniform(10.0, 120.0))
            duty = mean_burst / (mean_burst + mean_gap)
            burst_rate = rate_per_s / max(duty, 1e-6)
            timestamps = bursty_arrivals(
                rng,
                config.duration,
                burst_rate_per_s=burst_rate,
                mean_burst_s=mean_burst,
                mean_gap_s=mean_gap,
            )
        elif dice < config.periodic_share + config.bursty_share + config.diurnal_share:
            timestamps = diurnal_arrivals(rng, rate_per_s, config.duration)
        else:
            timestamps = poisson_arrivals(rng, rate_per_s, config.duration)
        trace_set.add(
            FunctionTrace(name=name, timestamps=timestamps, duration=config.duration)
        )
    return trace_set


# ----------------------------------------------------------------------
# Single-function traces for benchmark-driven experiments (§8.2, §8.3)
# ----------------------------------------------------------------------


def sample_function_trace(
    load: str,
    duration: float = HOUR,
    seed: int = 0,
    name: str = "trace",
) -> FunctionTrace:
    """A 1-hour-style single-function trace of a given character.

    ``load`` selects the shape:

    * ``"high"`` — bursty, ~0.4-1.5 requests/s overall (sudden
      increases and decreases, many keep-alive containers stranded);
    * ``"low"`` — sparse Poisson, roughly one request every 1-3 min;
    * ``"middle"`` — steady Poisson, a few requests per minute;
    * ``"bursty"`` — extreme on/off (the §8.3.2 bursty case);
    * ``"surge"`` — steady trickle plus one extreme surge (Table 1
      ID-5 behaviour).
    """
    rng = RandomStreams(seed=seed).get(f"trace-{load}")
    if load == "high":
        bursts = _bursty_times(
            rng,
            duration,
            burst_rate_per_s=1.2,
            mean_burst_s=90.0,
            mean_gap_s=180.0,
            min_gap_s=0.0,
        )
        background = _poisson_times(rng, 0.05, duration)
        timestamps = np.sort(np.concatenate((bursts, background))).tolist()
    elif load == "low":
        timestamps = poisson_arrivals(rng, 1.0 / 100.0, duration)
    elif load == "middle":
        timestamps = poisson_arrivals(rng, 1.0 / 15.0, duration)
    elif load == "bursty":
        # Long intense bursts over a small container fleet: cross-burst
        # reuse intervals are just under 1 % of all reuse samples, so
        # the pessimistic 99 %-ile start timing sits at the edge of
        # misestimation (the §8.3.2 failure mode).
        timestamps = bursty_arrivals(
            rng,
            duration,
            burst_rate_per_s=2.0,
            mean_burst_s=400.0,
            mean_gap_s=450.0,
        )
    elif load == "surge":
        timestamps = surge_arrivals(
            rng,
            duration,
            base_rate_per_s=1.0 / 90.0,
            surge_at=duration * 0.4,
            surge_len_s=30.0,
            surge_rate_per_s=3.0,
        )
    else:
        raise TraceError(f"unknown load class {load!r}")
    return FunctionTrace(name=name, timestamps=timestamps, duration=duration)
