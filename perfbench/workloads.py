"""The benchmark's workloads, the node replays they run, and the output checks.

A workload is a list of *cells* drawn from the workload seed. A cell is
one node replaying one invocation stream under each of the workload's
systems: the paper's baseline without a pool, TMO and FaaSMem. A *pass*
replays every cell once; the benchmark repeats passes (``run.py``).

Everything here drives the simulator from outside through public APIs.
Trace calls go through the ``repro.traces`` module attributes so that the
traced run (``layers.py``) can wrap them.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import repro.traces as traces
from repro.baselines import NoOffloadPolicy, TmoPolicy
from repro.core import FaaSMemPolicy
from repro.errors import MemoryError_
from repro.faas import PlatformConfig, ServerlessPlatform
from repro.metrics.summary import RunSummary, SystemComparison
from repro.pool.tier import TierTopology
from repro.pressure import PressureConfig
from repro.units import HOUR, MINUTE
from repro.workloads import (
    all_benchmarks,
    application_names,
    get_profile,
    micro_benchmark_names,
)

SYSTEMS = ("baseline", "tmo", "faasmem")
KEEP_ALIVE_S = 10 * MINUTE  # PlatformConfig's default keep-alive

# azure-high replays the first HIGH_REQUESTS invocations of each
# benchmark's high-load trace. A fixed request count, not a fixed
# duration: bursty traces differ by about 15 % in length between seeds,
# which would show up as seed-to-seed spread in wall_s. The trace is
# drawn over two hours because one hour falls short of 500 on rare seeds.
HIGH_REQUESTS = 500
HIGH_TRACE_S = 2 * HOUR
LOW_TRACE_S = 1 * HOUR
# History for the reuse-interval priors: a longer run of the same
# arrival process, as fig12 does (the paper profiles history, §6.1).
HISTORY_S = 6 * HOUR

# node-pressure replays windows of the repo's calibrated Azure-like
# population (424 functions over one day, AzureTraceConfig defaults): its
# POP_TOP busiest functions, mapped onto the 11 benchmarks, on a governed
# node with a CXL-near + RDMA-far pool, one cell per window start in
# POP_WINDOWS_AT. Within a window each function is thinned to at most
# POP_CAP arrivals by keeping every k-th one, so that a heavy-tail surge
# cannot turn the replay into an OOM storm. The seed picks each
# function's thinning phase: which of the k arrivals it keeps. Windows
# drawn at random from the day instead differ 2-3x in load, which spread
# mem_saving_pct by 40-70 % between seeds. Only baseline and FaaSMem
# run: TMO's host cost in these windows swings 2.3x between seeds at the
# same event count (3.2 s vs 7.4 s for one window), which alone spread
# wall_s by 30 %; TMO's scan path is measured on azure-low, where it
# dominates.
POP_SYSTEMS = ("baseline", "faasmem")
POP_TOP = 60
POP_CAP = 20
POP_WINDOWS_AT = (12 * HOUR, 12 * HOUR + 20 * MINUTE)
POP_WINDOW_S = 20 * MINUTE
POP_NODE_MIB = 8 * 1024.0
POP_POOL_MIB = 8 * 1024.0

# calibration_s() on the reference machine (2-vCPU x86 host, Python
# 3.11) when it is not slowed by other tenants. The shared host runs the
# same code up to 1.6x slower for seconds to minutes at a time; scaling
# each step by the loop's speed next to it cancels most of that.
REFERENCE_CALIBRATION_S = 1.3e-3


@dataclass(frozen=True)
class Cell:
    """One node replay: ``load``/``benchmark`` are set for fig12 cells,
    ``start_s`` (the population window's start) for node-pressure cells."""

    label: str
    seed: int
    load: str = ""
    benchmark: str = ""
    start_s: float = 0.0


@dataclass
class CellInputs:
    """What a cell feeds the simulator: deployments, arrivals, priors."""

    functions: Dict[str, str]  # function name -> benchmark profile
    events: List[Tuple[float, str]]
    window: float
    priors: Dict[str, List[float]]
    config: Callable[[], PlatformConfig]


@dataclass
class SystemRun:
    """One system's replay of one cell, with its simulated counters."""

    system: str
    summary: RunSummary
    events_processed: int
    submitted: int
    counters: Dict[str, float]
    failures: List[str]


@dataclass
class CellResult:
    cell: Cell
    runs: Dict[str, SystemRun]

    def comparison(self, system: str) -> SystemComparison:
        return SystemComparison(
            baseline=self.runs["baseline"].summary, candidate=self.runs[system].summary
        )


@dataclass
class PassResult:
    """Every cell replayed once, with the host time of each step.

    ``setup`` holds one entry per cell (``<label>/inputs``: traces and
    priors) and per system run (``<label>/<system>``: policy and platform
    construction); ``wall`` one per system run (``run_trace`` +
    ``summarize``). ``speed`` scales a step's host seconds to seconds at
    the reference machine speed (see ``calibration_s``).
    """

    cells: List[CellResult]
    setup: Dict[str, float]
    wall: Dict[str, float]
    speed: Dict[str, float]
    failures: List[str] = field(default_factory=list)

    @property
    def setup_s(self) -> float:
        return sum(self.setup.values())

    @property
    def wall_s(self) -> float:
        return sum(self.wall.values())

    def calibrated(self, steps: Dict[str, float]) -> Dict[str, float]:
        return {key: value * self.speed[key] for key, value in steps.items()}

    @property
    def submitted(self) -> int:
        return sum(run.submitted for c in self.cells for run in c.runs.values())

    @property
    def attempted(self) -> int:
        return sum(len(c.runs) for c in self.cells)

    @property
    def failed(self) -> int:
        """System runs with a failed check (a pass-level failure fails all)."""
        if self.failures:
            return self.attempted
        return sum(1 for c in self.cells for run in c.runs.values() if run.failures)

    def all_failures(self) -> List[str]:
        """Pass-level check failures, then each system run's."""
        return self.failures + [
            f"{c.cell.label}/{run.system}: {failure}"
            for c in self.cells
            for run in c.runs.values()
            for failure in run.failures
        ]

    def fingerprint(self) -> str:
        rows = [fingerprint_row(c.cell.label, run) for c in self.cells for run in c.runs.values()]
        blob = json.dumps(rows, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def fingerprint_row(label: str, run: SystemRun) -> list:
    """The simulated outputs pinned per (cell, system), floats exact."""
    s = run.summary
    return [
        label,
        run.system,
        s.requests,
        s.cold_starts,
        repr(s.memory.average_pages),
        repr(s.memory.peak_pages),
        repr(s.latency_p50),
        repr(s.latency_p95),
        repr(s.latency_p99),
        repr(s.offloaded_mib_total),
        repr(s.recalled_mib_total),
        run.events_processed,
    ]


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


def _fig12_cells(load: str, seed: int) -> List[Cell]:
    return [
        Cell(label=f"{load}/{benchmark}", seed=seed * 100 + index, load=load,
             benchmark=benchmark)
        for index, benchmark in enumerate(all_benchmarks())
    ]


def _fig12_inputs(cell: Cell) -> CellInputs:
    """One benchmark alone on a default node, as in fig12."""
    duration = HIGH_TRACE_S if cell.load == "high" else LOW_TRACE_S
    trace = traces.sample_function_trace(
        cell.load, duration=duration, seed=cell.seed, name=cell.label
    )
    history = traces.sample_function_trace(
        cell.load, duration=HISTORY_S, seed=cell.seed, name="history"
    )
    timestamps = trace.timestamps
    window = duration
    if cell.load == "high":
        if len(timestamps) < HIGH_REQUESTS:
            raise ValueError(
                f"{cell.label}: trace has {len(timestamps)} < {HIGH_REQUESTS} requests"
            )
        timestamps = timestamps[:HIGH_REQUESTS]
        window = timestamps[-1]
    profile = get_profile(cell.benchmark)
    priors = {
        cell.benchmark: traces.reused_intervals(
            history.timestamps, KEEP_ALIVE_S, profile.exec_time_s
        )
    }
    return CellInputs(
        functions={cell.benchmark: cell.benchmark},
        events=[(t, cell.benchmark) for t in timestamps],
        window=window,
        priors=priors,
        config=PlatformConfig,
    )


def _population_cells(seed: int) -> List[Cell]:
    return [
        Cell(label=f"node@{int(at // MINUTE)}m", seed=seed * 100 + index, start_s=at)
        for index, at in enumerate(POP_WINDOWS_AT)
    ]


def _population_inputs(cell: Cell) -> CellInputs:
    """The population window on a governed, tiered node."""
    population = traces.generate_azure_like(traces.AzureTraceConfig())
    bindings = traces.map_population(population, max_functions=POP_TOP)
    rng = np.random.default_rng(cell.seed)
    start, end = cell.start_s, cell.start_s + POP_WINDOW_S
    functions: Dict[str, str] = {}
    events: List[Tuple[float, str]] = []
    priors: Dict[str, List[float]] = {}
    for binding in bindings:
        timestamps = [
            t - start
            for t in population.functions[binding.function].timestamps
            if start <= t < end
        ]
        stride = math.ceil(len(timestamps) / POP_CAP) if timestamps else 1
        timestamps = timestamps[int(rng.integers(stride)) :: stride]
        functions[binding.function] = binding.benchmark
        events.extend((t, binding.function) for t in timestamps)
        # The replayed window doubles as the history, as in node_mixed.
        priors[binding.function] = traces.reused_intervals(
            timestamps, KEEP_ALIVE_S, get_profile(binding.benchmark).exec_time_s
        )
    events.sort()

    def config() -> PlatformConfig:
        return PlatformConfig(
            node_capacity_mib=POP_NODE_MIB,
            pool_capacity_mib=POP_POOL_MIB,
            pressure=PressureConfig(),
            tiers=TierTopology.cxl_rdma(POP_POOL_MIB),
        )

    return CellInputs(
        functions=functions,
        events=events,
        window=POP_WINDOW_S,
        priors=priors,
        config=config,
    )


# ----------------------------------------------------------------------
# Paper-shape checks (only those the code passes at these sizes)
# ----------------------------------------------------------------------


def _savings(results: List[CellResult], system: str) -> Dict[str, float]:
    return {
        r.cell.label: 100 * r.comparison(system).memory_saving for r in results
    }


def _fig12_shape(results: List[CellResult], low: float) -> List[str]:
    failures: List[str] = []
    faasmem = _savings(results, "faasmem")
    tmo = _savings(results, "tmo")
    load = results[0].cell.load
    for label, saving in faasmem.items():
        if not low <= saving <= 90:
            failures.append(f"{label}: FaaSMem saving {saving:.1f}% outside [{low}, 90]")
        if saving <= tmo[label]:
            failures.append(f"{label}: FaaSMem saving {saving:.1f}% <= TMO {tmo[label]:.1f}%")
    # Micro-benchmarks save >= 45 % on average; one 500-request cell can
    # read as low as 42 %.
    micro = statistics.fmean(faasmem[f"{load}/{m}"] for m in micro_benchmark_names())
    if micro < 45:
        failures.append(f"{load}: micro-benchmark mean saving {micro:.1f}% below 45%")
    apps = {app: faasmem[f"{load}/{app}"] for app in application_names()}
    if apps["web"] != max(apps.values()) or apps["graph"] != min(apps.values()):
        failures.append(f"{load}: application savings out of order {apps}")
    return failures


def _high_shape(results: List[CellResult]) -> List[str]:
    # Savings from 10 %: Graph's 500-request cell reads 14.9 % on one of
    # seeds 0-49. P95 stays near the baseline in the median cell (the
    # paper's "within ~10 %"); single cells are not bounded, as one
    # 500-request cell reads up to 1.44 on some seeds.
    failures = _fig12_shape(results, low=10)
    ratio = statistics.median(r.comparison("faasmem").p95_ratio for r in results)
    if ratio >= 1.10:
        failures.append(f"high: median FaaSMem P95 ratio {ratio:.3f} >= 1.10")
    return failures


def _low_shape(results: List[CellResult]) -> List[str]:
    # No P95 bound: a low-load cell holds ~35 requests, so one
    # semi-warm start moves its P95 by tens of percent.
    return _fig12_shape(results, low=5)


def _population_shape(results: List[CellResult]) -> List[str]:
    failures: List[str] = []
    for label, saving in _savings(results, "faasmem").items():
        if not 20 <= saving <= 90:
            failures.append(f"{label}: FaaSMem saving {saving:.1f}% outside [20, 90]")
    for r in results:
        label = r.cell.label
        if r.runs["baseline"].counters["pressure.reclaim_wakeups"] <= 0:
            failures.append(f"{label}: governor never reclaimed on baseline")
        if r.runs["faasmem"].counters["tier.demotions"] <= 0:
            failures.append(f"{label}: no tier demotions under FaaSMem")
    return failures


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cells: Callable[[int], List[Cell]]
    inputs: Callable[[Cell], CellInputs]
    shape: Callable[[List[CellResult]], List[str]]
    systems: Tuple[str, ...] = SYSTEMS


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="azure-high",
            why="fig12 high load: each benchmark alone, request path (invoke/exec) dominates",
            cells=lambda seed: _fig12_cells("high", seed),
            inputs=_fig12_inputs,
            shape=_high_shape,
        ),
        Workload(
            name="azure-low",
            why="fig12 low load: request path idle, periodic TMO scans and heartbeats dominate",
            cells=lambda seed: _fig12_cells("low", seed),
            inputs=_fig12_inputs,
            shape=_low_shape,
        ),
        Workload(
            name="node-pressure",
            why="mapped Azure population on a governed CXL+RDMA node: many live containers, "
            "reclaim, demotion, page-ins",
            cells=_population_cells,
            inputs=_population_inputs,
            shape=_population_shape,
            systems=POP_SYSTEMS,
        ),
    )
}


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------


def _policy(system: str, priors: Dict[str, List[float]]):
    if system == "baseline":
        return NoOffloadPolicy()
    if system == "tmo":
        return TmoPolicy()
    return FaaSMemPolicy(reuse_priors=priors)


def _counters(platform: ServerlessPlatform, summary: RunSummary) -> Dict[str, float]:
    """Simulated per-layer counters of one finished replay."""
    records = platform.records
    fastswap = platform.fastswap
    governor = platform.governor
    ledgers = getattr(fastswap, "tier_stats", {})
    return {
        "requests": len(records),
        "faas.cold_starts": summary.cold_starts,
        "faas.queue_wait_s": sum(r.queue_wait for r in records),
        "pool.offload_mib": fastswap.stats.offloaded_mib,
        "pool.recall_mib": fastswap.stats.recalled_mib,
        "pool.fault_stall_s": sum(r.fault_stall_s for r in records),
        "tier.demotions": getattr(fastswap, "demotions", 0),
        "tier.spills": sum(ledger.spills for ledger in ledgers.values()),
        "pressure.reclaim_wakeups": governor.stats.background_wakeups if governor else 0,
        "pressure.direct_reclaims": governor.stats.direct_reclaims if governor else 0,
        "pressure.oom_kills": governor.stats.oom_kills if governor else 0,
        "pressure.shed": governor.stats.shed if governor else 0,
        "pressure.reclaim_stall_s": sum(r.reclaim_stall_s for r in records),
    }


def _check_run(platform: ServerlessPlatform, counters: Dict[str, float],
               submitted: int) -> List[str]:
    failures: List[str] = []
    try:
        platform.fastswap.stats.check_conservation(platform.pool.used_pages)
    except MemoryError_ as exc:
        failures.append(f"swap conservation: {exc}")
    served = counters["requests"] + counters["pressure.shed"]
    if served != submitted:
        failures.append(
            f"{submitted} submitted but {counters['requests']} completed "
            f"+ {counters['pressure.shed']} shed"
        )
    node = platform.node
    if platform.governor is not None and node.peak_pages > node.capacity_pages:
        failures.append(f"governed node peaked at {node.peak_pages} > {node.capacity_pages} pages")
    return failures


def replay(
    system: str, label: str, inputs: CellInputs, config: Optional[PlatformConfig] = None
) -> Tuple[SystemRun, float, float]:
    """Build and run one system on a cell; returns (run, build_s, wall_s)."""
    started = time.perf_counter()
    platform = ServerlessPlatform(
        _policy(system, inputs.priors), config=config or inputs.config()
    )
    for function, benchmark in inputs.functions.items():
        platform.register_function(function, get_profile(benchmark))
    built = time.perf_counter()
    platform.run_trace(inputs.events)
    summary = platform.summarize(label, window=inputs.window)
    done = time.perf_counter()
    submitted = len(inputs.events)
    counters = _counters(platform, summary)
    run = SystemRun(
        system=system,
        summary=summary,
        events_processed=platform.engine.events_processed,
        submitted=submitted,
        counters=counters,
        failures=_check_run(platform, counters, submitted),
    )
    return run, built - started, done - built


def calibration_s() -> float:
    """Host time of a fixed pure-Python loop (best of two), ~1.3 ms."""
    best = math.inf
    for _ in range(2):
        started = time.perf_counter()
        total = 0
        for i in range(20_000):
            total += i * i % 7
        best = min(best, time.perf_counter() - started)
    return best


def run_pass(workload: Workload, cells: List[Cell], on_cell=None) -> PassResult:
    """Replay every cell once under every system.

    Every timed step is bracketed by the calibration loop, and the step's
    ``speed`` is REFERENCE_CALIBRATION_S over the mean of the two
    readings. ``on_cell(index)`` is called before each cell (the traced
    run uses it to tag spans with the cell they belong to).
    """
    results: List[CellResult] = []
    setup: Dict[str, float] = {}
    wall: Dict[str, float] = {}
    speed: Dict[str, float] = {}
    before = calibration_s()

    def calibrate(key: str) -> None:
        nonlocal before
        after = calibration_s()
        speed[key] = 2 * REFERENCE_CALIBRATION_S / (before + after)
        before = after

    for index, cell in enumerate(cells):
        if on_cell is not None:
            on_cell(index)
        key = f"{cell.label}/inputs"
        started = time.perf_counter()
        inputs = workload.inputs(cell)
        setup[key] = time.perf_counter() - started
        calibrate(key)
        runs: Dict[str, SystemRun] = {}
        for system in workload.systems:
            key = f"{cell.label}/{system}"
            runs[system], setup[key], wall[key] = replay(system, cell.label, inputs)
            calibrate(key)
        results.append(CellResult(cell=cell, runs=runs))
    return PassResult(
        cells=results, setup=setup, wall=wall, speed=speed,
        failures=workload.shape(results),
    )
