"""TMO-style feedback-based offloading (Weiner et al., ASPLOS'22).

TMO offloads memory slowly — about 0.05 % of a workload's memory every
6 seconds (§2.2) — and backs off when its pressure signal (PSI) shows
the workload stalling on reclaimed memory. Over a 10-minute keep-alive
that caps the offload at ~3 % of memory, which is why it barely helps
transient serverless containers (§8.2).

Each step takes its victims, coldest first, from the age index the
container's :class:`~repro.mem.address_space.AddressSpace` keeps
(:meth:`~repro.mem.address_space.AddressSpace.coldest_local`), so a
step costs O(victims · log n) instead of ordering every local region.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.baselines.scanning import PeriodicScanPolicy
from repro.mem.page import PageRegion


@dataclass
class TmoConfig:
    """TMO knobs (paper-reported defaults)."""

    interval_s: float = 6.0
    step_fraction: float = 0.0005  # 0.05 % of memory per step
    # PSI proxy: back off when a request recently stalled on faults
    # for more than this fraction of its service time.
    pressure_stall_s: float = 0.005
    backoff_s: float = 60.0


class TmoPolicy(PeriodicScanPolicy):
    """Slow, feedback-gated cold-memory offloading."""

    name = "tmo"

    def __init__(self, config: Optional[TmoConfig] = None) -> None:
        self.config = config or TmoConfig()
        super().__init__(interval_s=self.config.interval_s)
        self._backoff_until: Dict[str, float] = {}

    # -- feedback signal -------------------------------------------------------

    def on_request_complete(self, container, record) -> None:
        if record.fault_stall_s > self.config.pressure_stall_s:
            # Pressure detected: stop offloading this container for a
            # while (TMO's PSI feedback loop).
            self._backoff_until[container.container_id] = (
                self.platform.engine.now + self.config.backoff_s
            )

    def on_container_reclaimed(self, container) -> None:
        self._backoff_until.pop(container.container_id, None)

    # -- offload step --------------------------------------------------------

    def scan_container(self, container) -> None:
        now = self.platform.engine.now
        if now < self._backoff_until.get(container.container_id, -1.0):
            return
        cgroup = container.cgroup
        budget = max(1, int(cgroup.total_pages * self.config.step_fraction))
        victims = self._coldest_victims(container, budget)
        if victims:
            self.platform.fastswap.offload(cgroup, victims)

    def _coldest_victims(self, container, budget_pages: int) -> List[PageRegion]:
        """Coldest-first victims, splitting the last region to fit."""
        space = container.cgroup.space
        victims = space.coldest_local(budget_pages)
        excess = sum(region.pages for region in victims) - budget_pages
        if excess > 0:
            last = victims[-1]
            victims[-1] = space.split(last, last.pages - excess)
        return victims
