"""DAMON-style sampling-based offloading (Park et al.).

DAMON monitors access bits continuously and offloads every page whose
region has stayed unaccessed for an age threshold — *regardless of the
container's stage*. During keep-alive nothing is accessed, so the hot
pages needed by the next request are misidentified as cold and
offloaded; the next request then faults its whole working set back
in, inflating tail latency by up to ~14x (Fig. 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.baselines.scanning import PeriodicScanPolicy
from repro.mem.page import Segment


@dataclass
class DamonConfig:
    """DAMON knobs."""

    aggregation_interval_s: float = 5.0
    cold_age_intervals: int = 2  # unaccessed for >= 2 scans -> cold


class DamonPolicy(PeriodicScanPolicy):
    """Constant access-bit sampling; immediate cold-page offload."""

    name = "damon"

    def __init__(self, config: Optional[DamonConfig] = None) -> None:
        self.config = config or DamonConfig()
        super().__init__(interval_s=self.config.aggregation_interval_s)
        # (container_id, region_id) -> consecutive unaccessed scans.
        self._ages: Dict[str, Dict[int, int]] = {}

    def on_container_reclaimed(self, container) -> None:
        self._ages.pop(container.container_id, None)

    def scan_container(self, container) -> None:
        ages = self._ages.setdefault(container.container_id, {})
        victims = []
        for segment in (Segment.RUNTIME, Segment.INIT):
            for region in container.cgroup.local_regions(segment):
                if region.clear_access_bit():
                    ages[region.region_id] = 0
                    continue
                age = ages.get(region.region_id, 0) + 1
                ages[region.region_id] = age
                if age >= self.config.cold_age_intervals:
                    victims.append(region)
                    ages.pop(region.region_id, None)
        if victims:
            self.platform.fastswap.offload(container.cgroup, victims)
