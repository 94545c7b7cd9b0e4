"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload azure-high --seed 1 --seconds 30 --trace 0

``--trace 0`` repeats passes over the workload's cells for ``--seconds``
with all tracing off and reports the end-to-end metrics (host times sum
each step's fastest replay over the passes). ``--trace 1`` runs one untraced and one traced pass, an audited
cell and the audited fig12 sentinel, and reports the per-layer metrics.
Both check the simulated outputs. Human-readable tables go to stdout
first; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. A record with the run manifest
is written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
PINNED_PATH = Path(__file__).resolve().parent / "pinned.json"

DEFAULT_SEED = 1
MIN_PASSES = 3

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "us_per_request": "us",
    "peak_rss_mib": "MiB",
    "mem_saving_pct": "%",
    "p95_ratio": "ratio",
    "completed_frac": "fraction",
}


def _import_simulator() -> None:
    """Put the checkout's ``src`` first on the path; fail without it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: simulator source not found under {src}\n")
        sys.exit(2)
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.stderr.write(f"perfbench: imported repro from {repro.__file__}, not {src}\n")
        sys.exit(2)


def per_layer_units() -> Dict[str, str]:
    """Per-layer metrics: name -> unit, in report order."""
    from perfbench.layers import CATEGORIES

    units: Dict[str, str] = {"traces.generate_s": "s", "traces.priors_s": "s"}
    units.update({"sim.events": "count", "sim.run_s": "s", "sim.loop_self_s": "s"})
    for cat in CATEGORIES + ("other",):
        units[f"sim.{cat}_n"] = "count"
        units[f"sim.{cat}_s"] = "s"
    units.update({
        "faas.dispatch_n": "count", "faas.dispatch_s": "s", "faas.build_s": "s",
        "faas.cold_starts": "count", "faas.queue_wait_s": "s",
        "core.request_complete_n": "count", "core.request_complete_s": "s",
        "core.region_touched_n": "count", "core.region_touched_s": "s",
        "core.semiwarm_timing_n": "count", "core.semiwarm_timing_s": "s",
        "baselines.scan_n": "count", "baselines.scan_s": "s",
        "mem.find_n": "count", "mem.find_s": "s",
        "mem.regions_n": "count", "mem.regions_s": "s",
        "mem.pages_n": "count", "mem.pages_s": "s",
        "pool.offload_n": "count", "pool.offload_s": "s",
        "pool.fault_n": "count", "pool.fault_s": "s", "pool.writeback_n": "count",
        "pool.offload_mib": "MiB", "pool.recall_mib": "MiB", "pool.fault_stall_s": "s",
        "tier.demotions": "count", "tier.spills": "count",
        "pressure.direct_reclaims": "count", "pressure.oom_kills": "count",
        "pressure.shed": "count", "pressure.reclaim_stall_s": "s",
        "metrics.summarize_s": "s",
        "obs.audit_wall_ratio": "ratio", "bench.trace_overhead_ratio": "ratio",
    })
    return units


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------


def git_rev() -> Optional[str]:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def manifest(workload: str, seed: int, trace: bool, sizes: Dict[str, Any]) -> Dict[str, Any]:
    import numpy

    from perfbench.workloads import REFERENCE_CALIBRATION_S, calibration_s

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_rev": git_rev(),
        "calibration_s": statistics.median(calibration_s() for _ in range(21)),
        "reference_calibration_s": REFERENCE_CALIBRATION_S,
        **sizes,
    }


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------


def load_pinned() -> Dict[str, Any]:
    return json.loads(PINNED_PATH.read_text())


def fingerprint_failures(workload: str, seed: int, fingerprints: List[str], pinned) -> List[str]:
    """Every pass must reproduce the first, and the first the pinned value."""
    reference = fingerprints[0]
    failures = [
        f"pass {i} fingerprint {fingerprint[:12]} != pass 0 {reference[:12]}"
        for i, fingerprint in enumerate(fingerprints[1:], start=1)
        if fingerprint != reference
    ]
    expected = pinned["fingerprints"].get(workload, {}).get(str(seed))
    if expected is not None and expected != reference:
        failures.append(f"fingerprint {reference[:12]} != pinned {expected[:12]} for seed {seed}")
    return failures


def pin_status(workload: str, seed: int, fingerprint: str, pinned) -> str:
    expected = pinned["fingerprints"].get(workload, {}).get(str(seed))
    if expected is None:
        return "not pinned"
    return "match" if expected == fingerprint else "MISMATCH"


# ----------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ----------------------------------------------------------------------


def simulated_metrics(result) -> Dict[str, float]:
    """mem_saving_pct (mean over cells), p95_ratio (median over cells) and
    completed_frac.

    The P95 ratio is a median, not the worst cell: a low-load cell holds
    about 35 requests, so one semi-warm start can move its P95 by half,
    and the worst of 11 such cells swings 1.1-2.8 between seeds.
    """
    comparisons = [c.comparison("faasmem") for c in result.cells]
    completed = sum(
        run.counters["requests"] for c in result.cells for run in c.runs.values()
    )
    return {
        "mem_saving_pct": 100 * statistics.fmean(c.memory_saving for c in comparisons),
        "p95_ratio": statistics.median(c.p95_ratio for c in comparisons),
        "completed_frac": completed / result.submitted,
    }


def fastest(samples: List[Dict[str, float]]) -> float:
    """Sum over steps of each step's fastest calibrated time across passes.

    Calibration removes most of the host's speed swings; what remains is
    slowdown only, so each step's minimum over passes spread in time is
    its cost.
    """
    return sum(min(sample[key] for sample in samples) for key in samples[0])


def end_to_end(workload, seed: int, seconds: float, pinned) -> Tuple[Dict, Dict, List[str]]:
    """Repeat passes for ``seconds`` (at least MIN_PASSES) with tracing off.

    Only the first pass is kept whole (for the simulated metrics), so that
    peak RSS does not grow with the number of passes a machine fits in.
    """
    from perfbench.workloads import run_pass

    cells = workload.cells(seed)
    first = None
    setups: List[Dict[str, float]] = []
    walls: List[Dict[str, float]] = []
    raw_walls: List[float] = []
    fingerprints: List[str] = []
    failures: List[str] = []
    attempted = failed = 0
    started = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - started < seconds:
        gc.collect()
        result = run_pass(workload, cells)
        first = first or result
        setups.append(result.calibrated(result.setup))
        walls.append(result.calibrated(result.wall))
        raw_walls.append(result.wall_s)
        fingerprints.append(result.fingerprint())
        failures += result.all_failures()
        attempted += result.attempted
        failed += result.failed
        del result
    wall = fastest(walls)
    values = {
        "setup_s": fastest(setups),
        "wall_s": wall,
        "us_per_request": 1e6 * wall / first.submitted,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **simulated_metrics(first),
    }
    mismatch = fingerprint_failures(workload.name, seed, fingerprints, pinned)
    info = {
        "passes": len(walls),
        "cells": len(cells),
        "invocations_per_pass": first.submitted,
        "fingerprint": fingerprints[0],
        "pinned": pin_status(workload.name, seed, fingerprints[0], pinned),
        "pass_wall_s_uncalibrated": raw_walls,
        "pass_wall_s": [sum(w.values()) for w in walls],
        "pass_setup_s": [sum(s.values()) for s in setups],
        "attempted": attempted,
        "failed": attempted if mismatch else failed,
    }
    return values, info, mismatch + failures


# ----------------------------------------------------------------------
# Traced run: per-layer metrics
# ----------------------------------------------------------------------


def audited_cell(workload, cell) -> Tuple[float, int, List[str]]:
    """Replay ``cell`` plain and audited; (wall ratio, violations, failures)."""
    from repro.obs import runtime as obs_runtime
    from perfbench.workloads import fingerprint_row, replay

    inputs = workload.inputs(cell)
    failures: List[str] = []
    walls = {False: 0.0, True: 0.0}
    violations = 0
    sessions_before = len(obs_runtime.sessions())
    try:
        for system in workload.systems:
            rows = {}
            for audited in (False, True):
                config = inputs.config()
                if audited:
                    config = dataclasses.replace(config, trace_events=True, audit_events=True)
                run, _, wall = replay(system, cell.label, inputs, config=config)
                walls[audited] += wall
                rows[audited] = fingerprint_row(cell.label, run)
                failures += [f"audited {cell.label}/{system}: {f}" for f in run.failures]
            if rows[False] != rows[True]:
                failures.append(f"audited {cell.label}/{system} diverged from the plain run")
        sessions = obs_runtime.sessions()[sessions_before:]
        violations = sum(len(s.auditor.violations) for s in sessions if s.auditor is not None)
    finally:
        obs_runtime.trim_sessions(sessions_before)
    if violations:
        failures.append(f"audited {cell.label}: {violations} invariant violation(s)")
    return walls[True] / walls[False], violations, failures


def sentinel(pinned) -> Tuple[Dict[str, Any], List[str]]:
    """The pinned audited fig12 digest (web / high / 300 s, seed 3)."""
    from repro.experiments import fig12_azure_eval
    from repro.obs import runtime as obs_runtime

    config = pinned["sentinel"]
    obs_runtime.reset_sessions()
    obs_runtime.enable(trace=True, audit=True)
    try:
        fig12_azure_eval.run(
            benchmarks=config["benchmarks"],
            loads=tuple(config["loads"]),
            duration=config["duration"],
            seed=config["seed"],
            jobs=1,
        )
        digest = obs_runtime.combined_digest()
        violations = obs_runtime.total_violations()
    finally:
        obs_runtime.disable()
        obs_runtime.reset_sessions()
    failures = []
    if digest != config["digest"]:
        failures.append(f"sentinel digest {digest[:12]} != pinned {config['digest'][:12]}")
    if violations:
        failures.append(f"sentinel: {violations} invariant violation(s)")
    return {"digest": digest, "violations": violations}, failures


def layer_metrics(totals, result, audit_ratio: float, overhead: float) -> Dict[str, float]:
    from perfbench.layers import CATEGORIES

    def count(name: str) -> int:
        return totals.get(name, (0, 0.0, 0.0))[0]

    def total(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[1]

    runs = [run for c in result.cells for run in c.runs.values()]

    def summed(key: str) -> float:
        return sum(run.counters[key] for run in runs)

    requests = summed("requests")
    m: Dict[str, float] = {
        "traces.generate_s": total("traces.generate"),
        "traces.priors_s": total("traces.priors"),
        "sim.events": sum(count(f"sim.step.{c}") for c in CATEGORIES + ("other",)),
        "sim.run_s": total("sim.run"),
        "sim.loop_self_s": totals.get("sim.run", (0, 0.0, 0.0))[2],
    }
    for cat in CATEGORIES + ("other",):
        m[f"sim.{cat}_n"] = count(f"sim.step.{cat}")
        m[f"sim.{cat}_s"] = total(f"sim.step.{cat}")
    for name in ("faas.dispatch", "core.request_complete", "core.region_touched",
                 "core.semiwarm_timing", "baselines.scan", "mem.find", "mem.regions",
                 "mem.pages", "pool.offload", "pool.fault"):
        m[f"{name}_n"] = count(name)
        m[f"{name}_s"] = total(name)
    m.update({
        "faas.build_s": total("faas.build"),
        "faas.cold_starts": summed("faas.cold_starts"),
        "faas.queue_wait_s": summed("faas.queue_wait_s") / requests,
        "pool.writeback_n": count("pool.writeback"),
        "pool.offload_mib": summed("pool.offload_mib"),
        "pool.recall_mib": summed("pool.recall_mib"),
        "pool.fault_stall_s": summed("pool.fault_stall_s") / requests,
        "tier.demotions": summed("tier.demotions"),
        "tier.spills": summed("tier.spills"),
        "pressure.direct_reclaims": summed("pressure.direct_reclaims"),
        "pressure.oom_kills": summed("pressure.oom_kills"),
        "pressure.shed": summed("pressure.shed"),
        "pressure.reclaim_stall_s": summed("pressure.reclaim_stall_s") / requests,
        "metrics.summarize_s": total("metrics.summarize"),
        "obs.audit_wall_ratio": audit_ratio,
        "bench.trace_overhead_ratio": overhead,
    })
    return m


def per_layer(workload, seed: int, pinned) -> Tuple[Dict, Dict, List[str], Any]:
    from perfbench.layers import CATEGORIES, SpanRecorder, install
    from perfbench.workloads import run_pass

    cells = workload.cells(seed)
    gc.collect()
    plain = run_pass(workload, cells)
    recorder = SpanRecorder()

    def on_cell(index: int) -> None:
        recorder.current_cell = index

    gc.collect()
    restore = install(recorder)
    try:
        traced = run_pass(workload, cells, on_cell=on_cell)
    finally:
        restore()
    failures = fingerprint_failures(
        workload.name, seed, [plain.fingerprint(), traced.fingerprint()], pinned
    )
    failures += plain.all_failures() + traced.all_failures()
    totals = recorder.totals()
    audit_ratio, violations, audit_failures = audited_cell(workload, cells[0])
    sentinel_info, sentinel_failures = sentinel(pinned)
    failures += audit_failures + sentinel_failures
    overhead = (traced.setup_s + traced.wall_s) / (plain.setup_s + plain.wall_s)
    metrics = layer_metrics(totals, traced, audit_ratio, overhead)
    # Reconcile the engine spans: categories + loop self time == run time,
    # and one step span per executed engine event.
    steps = sum(metrics[f"sim.{c}_s"] for c in CATEGORIES + ("other",))
    gap = steps + metrics["sim.loop_self_s"] - metrics["sim.run_s"]
    if abs(gap) > 1e-6 or not recorder.step_parents_are_runs():
        failures.append(f"engine spans do not reconcile with sim.run_s (gap {gap:.3g} s)")
    events = sum(run.events_processed for c in traced.cells for run in c.runs.values())
    if metrics["sim.events"] != events:
        failures.append(f"{metrics['sim.events']} step spans != {events} engine events")
    # Plain and traced passes, the plain and audited replays of one cell,
    # and the sentinel.
    attempted = plain.attempted + traced.attempted + 2 * len(workload.systems) + 1
    failed = attempted if failures else 0
    info = {
        "cells": len(cells),
        "invocations_per_pass": plain.submitted,
        "fingerprint": plain.fingerprint(),
        "pinned": pin_status(workload.name, seed, plain.fingerprint(), pinned),
        "audit_violations": violations,
        "sentinel": sentinel_info,
        "spans": len(recorder.start),
        "span_totals": {k: list(v) for k, v in totals.items()},
        "attempted": attempted,
        "failed": failed,
    }
    return metrics, info, failures, recorder


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def render(metrics: Dict[str, float], units: Dict[str, str]) -> str:
    return "\n".join(
        f"  {name:<28} {metrics[name]:>16.6f} {units[name]}" for name in units
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_simulator()
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    pinned = load_pinned()

    started = time.perf_counter()
    recorder = None
    if args.trace:
        units = per_layer_units()
        metrics, info, failures, recorder = per_layer(workload, args.seed, pinned)
    else:
        units = END_TO_END
        metrics, info, failures = end_to_end(workload, args.seed, args.seconds, pinned)
    record = {
        "manifest": manifest(args.workload, args.seed, bool(args.trace), {
            "cells": info["cells"], "invocations_per_pass": info["invocations_per_pass"],
        }),
        "elapsed_s": time.perf_counter() - started,
        "info": info,
        "failures": failures,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if recorder is not None:
        recorder.save(str(OUT_DIR / f"{stem}-spans.npz"))

    kind = "per-layer (traced)" if args.trace else "end-to-end (untraced)"
    print(f"{args.workload} seed={args.seed}: {kind}")
    print(f"fingerprint {info['fingerprint']} ({info['pinned']})")
    print("manifest " + json.dumps(record["manifest"], sort_keys=True))
    print(render(metrics, units))
    if recorder is not None:
        print(f"  {'span':<28} {'count':>10} {'total_s':>12} {'self_s':>12}")
        for name, (count, total, own) in sorted(info["span_totals"].items()):
            print(f"  {name:<28} {count:>10} {total:>12.6f} {own:>12.6f}")
    for failure in dict.fromkeys(failures):
        print(f"FAILED: {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
