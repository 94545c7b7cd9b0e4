"""Workload profile model: segment sizes, access patterns, timings.

A profile describes a benchmark in terms the memory policies care
about (§3 of the paper):

* **runtime segment** — a hot core (the action proxy serving every
  request) plus cold chunks loaded at launch and hardly touched again;
* **init segment** — function-specific: uniformly hot/cold
  (:class:`UniformInit`), object cache with Pareto popularity
  (:class:`ParetoInit`, the Web benchmark), or fully re-scanned per
  request (:class:`FullScanInit`, the Graph benchmark);
* **exec segment** — scratch charged per request and released at
  completion.
"""

from __future__ import annotations

import abc
import functools
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.mem.cgroup import Cgroup
from repro.mem.page import PageRegion, Segment
from repro.units import pages_from_mib


@dataclass(frozen=True)
class RuntimeProfile:
    """The language runtime beneath a function (Fig. 4)."""

    name: str
    hot_mib: float
    cold_mib: float
    launch_time_s: float
    cold_chunk_mib: float = 1.0
    # Probability that a request strays into one cold runtime chunk
    # (Fig. 8 shows 0-3 recalled pages across benchmarks, i.e. rare).
    cold_touch_prob: float = 0.002

    def cold_chunks(self) -> List[float]:
        """Split the cold footprint into chunk sizes (MiB)."""
        if self.cold_mib <= 0:
            return []
        chunk = max(self.cold_chunk_mib, 1e-3)
        full, rem = divmod(self.cold_mib, chunk)
        chunks = [chunk] * int(full)
        if rem > 1e-9:
            chunks.append(rem)
        return chunks


class InitLayout(abc.ABC):
    """Strategy describing the init segment of one benchmark."""

    @abc.abstractmethod
    def allocate(self, cgroup: Cgroup, rng: np.random.Generator) -> "InitState":
        """Allocate init-segment regions; return per-container state."""

    @abc.abstractmethod
    def request_regions(
        self, state: "InitState", rng: np.random.Generator
    ) -> List[PageRegion]:
        """Init-segment regions one request touches."""

    @property
    @abc.abstractmethod
    def total_mib(self) -> float:
        """Resident init-segment size after initialization."""


@dataclass
class InitState:
    """Per-container handle onto allocated init regions."""

    hot: List[PageRegion] = field(default_factory=list)
    cold: List[PageRegion] = field(default_factory=list)
    objects: List[PageRegion] = field(default_factory=list)
    tail: List[PageRegion] = field(default_factory=list)


@dataclass
class UniformInit(InitLayout):
    """Hot part touched by every request; cold part never again.

    ``tail_chunks`` × ``tail_chunk_mib`` regions are each touched with
    ``tail_touch_prob`` per request — Bert's "different requests may
    access different nodes in the neural network" behaviour.
    """

    hot_mib: float
    cold_mib: float
    tail_chunks: int = 0
    tail_chunk_mib: float = 1.0
    tail_touch_prob: float = 0.0
    cold_chunk_mib: float = 4.0

    def allocate(self, cgroup: Cgroup, rng: np.random.Generator) -> InitState:
        state = InitState()
        if self.hot_mib > 0:
            state.hot.append(
                cgroup.allocate("init/hot", Segment.INIT, pages_from_mib(self.hot_mib))
            )
        for index, chunk_mib in enumerate(_chunks(self.cold_mib, self.cold_chunk_mib)):
            state.cold.append(
                cgroup.allocate(
                    f"init/cold-{index}", Segment.INIT, pages_from_mib(chunk_mib)
                )
            )
        for index in range(self.tail_chunks):
            state.tail.append(
                cgroup.allocate(
                    f"init/tail-{index}",
                    Segment.INIT,
                    pages_from_mib(self.tail_chunk_mib),
                )
            )
        return state

    def request_regions(
        self, state: InitState, rng: np.random.Generator
    ) -> List[PageRegion]:
        touched = list(state.hot)
        tail = state.tail
        if tail and self.tail_touch_prob > 0:
            # One vector draw: the same doubles, in the same order, and
            # the same generator state afterwards as one scalar
            # ``rng.random()`` per tail chunk.
            coins = rng.random(len(tail))
            prob = self.tail_touch_prob
            touched.extend(
                region for region, coin in zip(tail, coins.tolist()) if coin < prob
            )
        return touched

    @property
    def total_mib(self) -> float:
        return self.hot_mib + self.cold_mib + self.tail_chunks * self.tail_chunk_mib


@dataclass
class ParetoInit(InitLayout):
    """An object cache with Pareto-distributed popularity (Web, §8.1).

    Each request touches the common hot part plus one object selected
    by a Pareto-distributed index, so a few objects are hot and the
    long tail is effectively cold.
    """

    common_hot_mib: float
    cold_mib: float
    n_objects: int
    object_mib: float
    alpha: float = 1.16  # classic 80/20 shape

    def allocate(self, cgroup: Cgroup, rng: np.random.Generator) -> InitState:
        if self.n_objects <= 0:
            raise WorkloadError("ParetoInit needs at least one object")
        state = InitState()
        if self.common_hot_mib > 0:
            state.hot.append(
                cgroup.allocate(
                    "init/hot", Segment.INIT, pages_from_mib(self.common_hot_mib)
                )
            )
        for index, chunk_mib in enumerate(_chunks(self.cold_mib, 4.0)):
            state.cold.append(
                cgroup.allocate(
                    f"init/cold-{index}", Segment.INIT, pages_from_mib(chunk_mib)
                )
            )
        for index in range(self.n_objects):
            state.objects.append(
                cgroup.allocate(
                    f"init/object-{index}",
                    Segment.INIT,
                    pages_from_mib(self.object_mib),
                )
            )
        return state

    def request_regions(
        self, state: InitState, rng: np.random.Generator
    ) -> List[PageRegion]:
        touched = list(state.hot)
        touched.append(state.objects[self.sample_object(rng)])
        return touched

    def sample_object(self, rng: np.random.Generator) -> int:
        """Pareto-distributed object index in [0, n_objects)."""
        raw = rng.pareto(self.alpha)
        index = int(raw * self.n_objects / 8.0)
        return min(index, self.n_objects - 1)

    @property
    def total_mib(self) -> float:
        return self.common_hot_mib + self.cold_mib + self.n_objects * self.object_mib


@dataclass
class FullScanInit(InitLayout):
    """Every request traverses the whole dataset (Graph, §8.2.1)."""

    data_mib: float
    cold_mib: float
    data_chunks: int = 8

    def allocate(self, cgroup: Cgroup, rng: np.random.Generator) -> InitState:
        state = InitState()
        chunk_mib = self.data_mib / max(self.data_chunks, 1)
        for index in range(self.data_chunks):
            state.hot.append(
                cgroup.allocate(
                    f"init/data-{index}", Segment.INIT, pages_from_mib(chunk_mib)
                )
            )
        for index, cold_chunk in enumerate(_chunks(self.cold_mib, 4.0)):
            state.cold.append(
                cgroup.allocate(
                    f"init/cold-{index}", Segment.INIT, pages_from_mib(cold_chunk)
                )
            )
        return state

    def request_regions(
        self, state: InitState, rng: np.random.Generator
    ) -> List[PageRegion]:
        return list(state.hot)

    @property
    def total_mib(self) -> float:
        return self.data_mib + self.cold_mib


@dataclass(frozen=True)
class WorkloadProfile:
    """A full benchmark description."""

    name: str
    runtime: RuntimeProfile
    init_layout: InitLayout
    init_time_s: float
    exec_time_s: float
    exec_mib: float
    quota_mib: float
    cpu_share: float = 0.1
    exec_time_cv: float = 0.1  # coefficient of variation of service time
    init_transient_mib: float = 0.0  # allocated during init, freed at its end

    def sample_exec_time(self, rng: np.random.Generator) -> float:
        """Draw one service time (lognormal around the mean)."""
        if self.exec_time_cv <= 0:
            return self.exec_time_s
        mu, sigma = self._lognormal_params
        return float(rng.lognormal(mu, sigma))

    @functools.cached_property
    def _lognormal_params(self) -> Tuple[float, float]:
        """``(mu, sigma)`` of the service-time lognormal, computed once."""
        sigma = float(np.sqrt(np.log(1.0 + self.exec_time_cv**2)))
        mu = float(np.log(self.exec_time_s)) - sigma**2 / 2.0
        return mu, sigma

    @property
    def base_footprint_mib(self) -> float:
        """Resident footprint between requests (runtime + init)."""
        return (
            self.runtime.hot_mib + self.runtime.cold_mib + self.init_layout.total_mib
        )

    @property
    def cold_start_s(self) -> float:
        """Launch plus init time."""
        return self.runtime.launch_time_s + self.init_time_s


def _chunks(total_mib: float, chunk_mib: float) -> List[float]:
    """Split ``total_mib`` into chunk sizes of at most ``chunk_mib``."""
    if total_mib <= 0:
        return []
    chunk = max(chunk_mib, 1e-3)
    full, rem = divmod(total_mib, chunk)
    sizes = [chunk] * int(full)
    if rem > 1e-9:
        sizes.append(rem)
    return sizes
