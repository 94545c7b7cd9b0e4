"""Property tests: the pressure governor contains any random overload.

Uses the in-repo deterministic property harness (tests/proptest.py).
Each example runs a full seeded platform simulation on a deliberately
small node — random capacity, arrival schedule, pool size, and queue
bounds — under an enforcing governor, and requires:

* local usage never exceeds ``capacity_pages`` (no overcommits, peak
  bounded) — the headline acceptance invariant;
* degradation tiers never skip a step (checked both by the online
  auditor and directly against the traced transitions);
* every shed and every OOM kill carries a typed, non-empty reason,
  and OOM only ever follows a failed direct reclaim.
"""

from __future__ import annotations

import random

from repro.baselines import NoOffloadPolicy
from repro.core import FaaSMemPolicy
from repro.faas import PlatformConfig, ServerlessPlatform
from repro.obs.trace import EventKind
from repro.pressure import DegradationTier, PressureConfig
from repro.workloads import get_profile

from tests.proptest import (
    booleans,
    floats,
    given,
    integers,
    one_of,
    settings,
    tuples,
)

_DURATION = 90.0
_PROFILE = get_profile("web")


def _arrivals(arrival_seed: int, n_functions: int, mean_iat_s: float):
    """Seeded per-function Poisson-ish arrival schedule."""
    rng = random.Random(arrival_seed)
    events = []
    for index in range(n_functions):
        t = 0.0
        while True:
            t += rng.expovariate(1.0 / mean_iat_s)
            if t >= _DURATION:
                break
            events.append((t, f"fn-{index}"))
    events.sort()
    return events


@settings(max_examples=100)
@given(
    tuples(
        integers(min_value=0, max_value=10_000),  # arrival seed
        integers(min_value=1, max_value=4),  # platform seed
        integers(min_value=2, max_value=6),  # functions
        floats(min_value=6.0, max_value=40.0),  # mean inter-arrival
        floats(min_value=500.0, max_value=1200.0),  # node capacity MiB
        # Pool either too small to absorb write-back (forces OOM) or
        # comfortable (reclaim succeeds): both arms must stay clean.
        one_of(
            floats(min_value=8.0, max_value=64.0),
            floats(min_value=256.0, max_value=1024.0),
        ),
        integers(min_value=2, max_value=8),  # admission queue limit
        booleans(),  # FaaSMem vs. baseline policy
    )
)
def test_governor_contains_random_overload(params):
    (
        arrival_seed,
        platform_seed,
        n_functions,
        mean_iat_s,
        capacity_mib,
        pool_mib,
        queue_limit,
        use_faasmem,
    ) = params
    events = _arrivals(arrival_seed, n_functions, mean_iat_s)
    if not events:
        return
    policy = FaaSMemPolicy() if use_faasmem else NoOffloadPolicy()
    platform = ServerlessPlatform(
        policy,
        config=PlatformConfig(
            seed=platform_seed,
            audit_events=True,
            node_capacity_mib=capacity_mib,
            pool_capacity_mib=pool_mib,
            keep_alive_s=60.0,
            pressure=PressureConfig(
                admission_queue_limit=queue_limit,
                per_function_queue_limit=max(1, queue_limit // 2),
            ),
        ),
    )
    for index in range(n_functions):
        platform.register_function(f"fn-{index}", _PROFILE)
    platform.run_trace(events)

    governor = platform.governor
    assert governor is not None and governor.enforcing
    assert platform.auditor is not None
    assert platform.auditor.clean, platform.auditor.report()

    # Local usage never exceeds capacity.
    node = platform.node
    assert node.peak_pages <= node.capacity_pages
    assert node.overcommit_events == 0

    # Tiers never skip a step; sheds and OOM kills carry reasons.
    assert platform.tracer is not None
    failed_reclaim_seen = False
    for event in platform.tracer.snapshot():
        if event.kind == EventKind.PRESSURE_TIER:
            assert abs(event.data["to"] - event.data["from"]) == 1
            assert 0 <= event.data["to"] <= DegradationTier.SHED.value
        elif event.kind == EventKind.DIRECT_RECLAIM:
            failed_reclaim_seen = failed_reclaim_seen or event.data["failed"]
        elif event.kind == EventKind.ADMISSION_SHED:
            assert event.data["reason"]
        elif event.kind == EventKind.OOM_KILL:
            assert event.data["reason"]
            assert failed_reclaim_seen, "OOM without a prior failed direct reclaim"
    for record in governor.shed_records:
        assert record.reason.value

    # Accounting closes: every submitted invocation was either served
    # or shed, and stall charges never went negative.
    assert len(platform.records) + governor.stats.shed == len(events)
    for record in platform.records:
        assert record.reclaim_stall_s >= 0.0


@settings(max_examples=100)
@given(
    tuples(
        floats(min_value=0.0, max_value=0.3),
        floats(min_value=0.0, max_value=0.3),
        floats(min_value=0.0, max_value=0.39),
    )
)
def test_any_ordered_watermarks_accepted(params):
    lo, mid, hi = sorted(params)
    config = PressureConfig(
        min_watermark_frac=lo, low_watermark_frac=mid, high_watermark_frac=hi
    )
    config.validate()
