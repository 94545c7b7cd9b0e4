"""Command-line entry point: run paper experiments from the shell.

Usage::

    python -m repro list
    python -m repro run fig12 [--json out.json] [--quick] [--jobs 4]
    python -m repro run all --quick
    python -m repro run fig08 --quick --audit --faults 'seed=43,intensity=2'
    python -m repro trace fig04 --audit [--json e.json] [--csv e.csv]

``--audit`` and ``--faults`` set the run context (:mod:`repro.context`)
that every platform the experiment builds reads. Performance is
measured by ``perfbench/run.py``.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time
from typing import List, Optional

from repro.context import using
from repro.experiments import get_experiment, list_experiments, run_experiment
from repro.metrics.export import to_json
from repro.units import HOUR

# Reduced-scale kwargs for --quick runs (CI-friendly smoke scale).
_QUICK_KWARGS = {
    "fig01": {"duration": 6 * HOUR, "n_functions": 150},
    "fig02": {"duration": 900.0},
    "fig05": {"duration": 6 * HOUR, "n_functions": 150},
    "fig08": {"duration": 300.0},
    "fig12": {"duration": 1200.0},
    "table1": {"duration": 1200.0},
    "fig13": {"duration": 1800.0},
    "fig14": {"duration": 6 * HOUR, "n_functions": 150},
    "fig15": {"duration": 300.0},
    "fig16": {"duration": 600.0, "n_traces": 8},
    "cluster": {"duration": 900.0},
    "pressure": {"duration": 900.0},
    "node": {"duration": 1200.0, "n_functions": 40, "max_functions": 25},
    "overload": {"duration": 240.0, "multipliers": (0.5, 1.5, 3.0)},
    "replication": {"duration": 600.0, "seeds": (1, 2, 3)},
    "chaos": {"duration": 600.0, "intensities": (0.0, 2.0)},
    "tiering": {"duration": 300.0, "near_shares": (0.25,)},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="faasmem-repro",
        description="FaaSMem (ASPLOS'24) reproduction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list experiment ids")
    runner = sub.add_parser("run", help="run one experiment (or 'all')")
    runner.add_argument("experiment", help="experiment id, e.g. fig12, or 'all'")
    runner.add_argument("--json", help="write the result to this JSON file")
    runner.add_argument(
        "--quick",
        action="store_true",
        help="reduced-scale run (shorter traces, fewer functions)",
    )
    runner.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "fan independent sweep points out over N worker processes "
            "(0 = one per CPU; default $REPRO_JOBS or 1; byte-identical "
            "trace digests vs serial; only grid-based experiments "
            "parallelize)"
        ),
    )
    runner.add_argument(
        "--plot",
        action="store_true",
        help="also render the figure as a terminal plot",
    )
    runner.add_argument(
        "--audit",
        action="store_true",
        help="trace + audit invariants online; non-zero exit on violations",
    )
    runner.add_argument(
        "--faults",
        metavar="SPEC",
        help=(
            "inject a deterministic fault schedule into every platform, "
            "e.g. --faults 'seed=7,intensity=2' or a bare intensity "
            "number (see repro.faults.FaultSpec.parse)"
        ),
    )
    tracer = sub.add_parser(
        "trace", help="run one experiment with event tracing and export the stream"
    )
    tracer.add_argument("experiment", help="experiment id, e.g. fig12")
    tracer.add_argument(
        "--quick",
        action="store_true",
        help="reduced-scale run (shorter traces, fewer functions)",
    )
    tracer.add_argument("--json", help="write the buffered events to this JSON file")
    tracer.add_argument("--csv", help="write the buffered events to this CSV file")
    tracer.add_argument(
        "--audit",
        action="store_true",
        help="also audit invariants online; non-zero exit on violations",
    )
    tracer.add_argument(
        "--tail",
        type=int,
        default=0,
        metavar="N",
        help="print the last N buffered events per session",
    )
    return parser


def _run_one(
    name: str,
    quick: bool,
    json_path: Optional[str],
    plot: bool = False,
    jobs: Optional[int] = None,
) -> None:
    kwargs = dict(_QUICK_KWARGS.get(name, {})) if quick else {}
    if jobs is not None:
        # Only grid-based experiments accept a worker count; the rest
        # run serially regardless, so a --jobs flag is simply inert.
        if "jobs" in inspect.signature(get_experiment(name)).parameters:
            kwargs["jobs"] = jobs
        elif jobs not in (None, 1):
            print(f"[{name} has no parallel sweep grid; running serially]")
    started = time.time()
    result = run_experiment(name, **kwargs)
    elapsed = time.time() - started
    print(result.render())
    if plot:
        from repro.experiments.figures import render_figure

        print()
        print(render_figure(result))
    print(f"[{name} finished in {elapsed:.1f}s]")
    if json_path:
        to_json({"rows": result.rows, "series": result.series}, json_path)
        print(f"[wrote {json_path}]")


def _report_audit() -> int:
    """Print the aggregate audit report; return the violation count."""
    from repro.obs import runtime as obs

    print(obs.audit_report())
    return obs.total_violations()


def _trace_command(args) -> int:
    """``repro trace``: run one experiment with tracing enabled."""
    from repro.obs import runtime as obs

    obs.reset_sessions()
    with using(trace=True, audit=args.audit):
        _run_one(args.experiment, args.quick, None)
    sessions = obs.sessions()
    if not sessions:
        print("trace: experiment registered no traced platforms")
        return 1
    for session in sessions:
        tracer = session.tracer
        print(
            f"trace[{session.label}]: {tracer.emitted} events "
            f"({tracer.dropped} dropped from ring), digest {tracer.digest()}"
        )
        if args.tail > 0:
            for event in tracer.snapshot()[-args.tail :]:
                print(f"  {event.line()}")
    print(f"trace: combined digest {obs.combined_digest()}")
    all_events = [event for session in sessions for event in session.tracer.snapshot()]
    if args.json:
        from repro.metrics.export import events_to_json

        events_to_json(all_events, args.json)
        print(f"[wrote {len(all_events)} events to {args.json}]")
    if args.csv:
        from repro.metrics.export import events_to_csv

        events_to_csv(all_events, args.csv)
        print(f"[wrote {len(all_events)} events to {args.csv}]")
    if args.audit:
        return 1 if _report_audit() else 0
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name in list_experiments():
            print(name)
        return 0
    if args.command == "trace":
        return _trace_command(args)
    fields = {}
    if args.audit:
        from repro.obs import runtime as obs

        obs.reset_sessions()
        fields.update(trace=True, audit=True)
    if args.faults:
        from repro.faults import FaultSpec

        fields["faults"] = FaultSpec.parse(args.faults)
    with using(**fields):
        if args.experiment == "all":
            for name in list_experiments():
                _run_one(name, args.quick, None, plot=args.plot, jobs=args.jobs)
                print()
        else:
            _run_one(args.experiment, args.quick, args.json, plot=args.plot, jobs=args.jobs)
    if args.audit:
        return 1 if _report_audit() else 0
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
