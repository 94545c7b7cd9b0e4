"""Interconnect model: a full-duplex, bandwidth-limited pipe.

Defaults approximate the paper's testbed: Mellanox FDR InfiniBand at
56 Gbps with a few microseconds of per-page fault overhead. Transfers
in the same direction queue FCFS behind each other, which is how
bandwidth contention (the reason FaaSMem offloads gradually, §6.2)
manifests.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.obs.trace import EventKind
from repro.units import PAGE_SIZE


class LinkDirection(enum.Enum):
    """Transfer direction relative to the compute node."""

    OUT = "out"  # offload: compute node -> pool
    IN = "in"  # recall / fault: pool -> compute node

    # Identity hashing, as for ``Segment`` and ``Location``: ``transfer``
    # keys four dicts by direction, and Enum's default hash is Python
    # code that hashes the name.
    __hash__ = object.__hash__


@dataclass
class LinkConfig:
    """Interconnect parameters."""

    bandwidth_bytes_per_s: float = 56e9 / 8  # 56 Gbps FDR InfiniBand
    per_page_overhead_s: float = 2e-6  # fault/doorbell CPU cost per page
    base_latency_s: float = 3e-6  # one-way RTT contribution

    @classmethod
    def infiniband_fdr(cls) -> "LinkConfig":
        """The paper's testbed: Mellanox FDR at 56 Gbps."""
        return cls()

    @classmethod
    def cxl(cls) -> "LinkConfig":
        """A CXL-attached pool (§9 discussion).

        Higher bandwidth and far lower per-access latency than the
        RDMA swap path — page moves look like slow memcpy rather than
        pagefault + network round trips. FaaSMem's mechanism is
        unchanged; only the penalty constants shrink.
        """
        return cls(
            bandwidth_bytes_per_s=64e9,  # ~x8 CXL 2.0 link
            per_page_overhead_s=0.15e-6,  # load/store path, no doorbells
            base_latency_s=0.4e-6,
        )

    @classmethod
    def rdma_100g(cls) -> "LinkConfig":
        """A contemporary 100 Gbps RoCE/IB deployment."""
        return cls(bandwidth_bytes_per_s=100e9 / 8, per_page_overhead_s=1.5e-6)


class Link:
    """A full-duplex pipe with FCFS queueing per direction."""

    def __init__(self, config: Optional[LinkConfig] = None, name: str = "") -> None:
        self.config = config or LinkConfig()
        # Distinguishes links in trace subjects when several coexist
        # (the tiered pool's per-shard links). The empty default keeps
        # single-link trace streams byte-identical to older runs.
        self.name = name
        # Optional repro.obs.Tracer; None keeps transfers untraced.
        self.tracer = None
        # Fault-injection state (repro.faults). The healthy defaults
        # are exact no-ops: bandwidth * 1.0 is bit-identical to
        # bandwidth, so an attached-but-empty fault schedule cannot
        # perturb any timestamp.
        self._up = True
        self._degrade_factor = 1.0
        self._busy_until: Dict[LinkDirection, float] = {
            LinkDirection.OUT: 0.0,
            LinkDirection.IN: 0.0,
        }
        # Per direction: completion times of the non-empty transfers,
        # non-decreasing because each starts no earlier than the last
        # one's completion, and the running byte total after each
        # (element 0 is the empty prefix), so a windowed byte count is
        # two bisects and an exact integer subtraction.
        self._completions: Dict[LinkDirection, List[float]] = {
            LinkDirection.OUT: [],
            LinkDirection.IN: [],
        }
        self._cumulative_bytes: Dict[LinkDirection, List[int]] = {
            LinkDirection.OUT: [0],
            LinkDirection.IN: [0],
        }

    def service_time(self, pages: int) -> float:
        """Pure wire+fault time for ``pages`` pages, ignoring queueing."""
        if pages < 0:
            raise ValueError(f"pages must be non-negative, got {pages}")
        if pages == 0:
            return 0.0
        bytes_moved = pages * PAGE_SIZE
        return (
            self.config.base_latency_s
            + pages * self.config.per_page_overhead_s
            + bytes_moved / self.effective_bandwidth_bytes_per_s
        )

    def transfer(self, now: float, pages: int, direction: LinkDirection) -> Tuple[float, float]:
        """Reserve the pipe for a transfer; return (start, completion).

        The transfer starts when the pipe frees up (FCFS) and runs for
        :meth:`service_time`. The reservation is recorded for
        bandwidth accounting.
        """
        start = max(now, self._busy_until[direction])
        completion = start + self.service_time(pages)
        self._busy_until[direction] = completion
        if pages > 0:
            self._completions[direction].append(completion)
            cumulative = self._cumulative_bytes[direction]
            cumulative.append(cumulative[-1] + pages * PAGE_SIZE)
            if self.tracer is not None:
                subject = (
                    f"{self.name}:{direction.value}" if self.name else direction.value
                )
                self.tracer.emit(
                    EventKind.LINK_TRANSFER,
                    subject,
                    pages=pages,
                    start=start,
                    completion=completion,
                    capacity=self.effective_bandwidth_bytes_per_s,
                )
        return start, completion

    def queue_delay(self, now: float, direction: LinkDirection) -> float:
        """How long a transfer issued now would wait before starting."""
        return max(0.0, self._busy_until[direction] - now)

    def bytes_moved(
        self,
        direction: LinkDirection,
        since: float = 0.0,
        until: float = float("inf"),
    ) -> int:
        """Total bytes whose transfer completed in [since, until]."""
        if not since <= until:
            return 0
        completions = self._completions[direction]
        cumulative = self._cumulative_bytes[direction]
        first = bisect_left(completions, since)
        last = bisect_right(completions, until)
        return cumulative[last] - cumulative[first]

    def average_bandwidth(
        self, direction: LinkDirection, since: float, until: float
    ) -> float:
        """Mean achieved bandwidth (bytes/s) over the window."""
        span = until - since
        if span <= 0:
            raise ValueError(f"window must have positive span, got {span}")
        return self.bytes_moved(direction, since, until) / span

    @property
    def capacity_bytes_per_s(self) -> float:
        return self.config.bandwidth_bytes_per_s

    # ------------------------------------------------------------------
    # Fault-injection hooks (repro.faults)
    # ------------------------------------------------------------------

    @property
    def up(self) -> bool:
        """Whether the link carries traffic at all."""
        return self._up

    @property
    def degrade_factor(self) -> float:
        return self._degrade_factor

    @property
    def effective_bandwidth_bytes_per_s(self) -> float:
        """Configured bandwidth scaled by the current degradation."""
        return self.config.bandwidth_bytes_per_s * self._degrade_factor

    @property
    def healthy(self) -> bool:
        return self._up and self._degrade_factor >= 1.0

    def set_up(self, up: bool) -> None:
        """Toggle an outage (transfers already reserved keep running)."""
        self._up = bool(up)

    def set_degradation(self, factor: float) -> None:
        """Scale effective bandwidth by ``factor`` (1.0 restores it)."""
        if not 0.0 < factor <= 1.0:
            raise ValueError(f"degrade factor must be in (0, 1], got {factor}")
        self._degrade_factor = float(factor)
