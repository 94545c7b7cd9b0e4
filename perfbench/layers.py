"""Per-layer spans for the traced run.

The traced run wraps public calls into each layer of ``repro`` for its
duration only and restores the originals afterwards. Each wrapped call
records a span (name, start, end, parent span, cell id) into compact
in-memory arrays; the spans are written out once, at the end of the run.
A span's self time is its duration minus the durations of its children.

Engine events are attributed to a category taken from the name prefix of
the event that the per-platform wrapped ``engine.step`` returned
(``invoke:web`` -> ``invoke``).
"""

from __future__ import annotations

import functools
import time
from array import array
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

import repro.traces as traces
from repro.baselines import TmoPolicy
from repro.core import FaaSMemPolicy
from repro.core.profiler import FunctionProfiler
from repro.faas import ServerlessPlatform
from repro.faas.controller import Controller
from repro.mem.address_space import AddressSpace
from repro.pool.fastswap import Fastswap
from repro.sim.engine import Engine

#: Engine event categories reported one by one; the rest land in "other".
CATEGORIES = (
    "invoke", "exec", "launch", "init", "hb", "ka", "scan", "offload",
    "semiwarm", "semiwarm-drain", "pressure-reclaim", "tier",
)

#: (owner, attribute, span name) of every plain wrapped call.
TARGETS: Tuple[Tuple[Any, str, str], ...] = (
    (traces, "sample_function_trace", "traces.generate"),
    (traces, "generate_azure_like", "traces.generate"),
    (traces, "reused_intervals", "traces.priors"),
    (ServerlessPlatform, "__init__", "faas.build"),
    (ServerlessPlatform, "summarize", "metrics.summarize"),
    (Controller, "dispatch", "faas.dispatch"),
    (FaaSMemPolicy, "on_request_complete", "core.request_complete"),
    (FaaSMemPolicy, "on_region_touched", "core.region_touched"),
    (FunctionProfiler, "semiwarm_start_timing", "core.semiwarm_timing"),
    (TmoPolicy, "scan_container", "baselines.scan"),
    (AddressSpace, "find", "mem.find"),
    (AddressSpace, "pages", "mem.pages"),
    (Fastswap, "offload", "pool.offload"),
    (Fastswap, "fault", "pool.fault"),
    (Fastswap, "writeback", "pool.writeback"),
)
#: Wrapped with extra handling: Engine.run installs the step wrapper, and
#: AddressSpace.regions is a generator, so its wrapper materializes it to
#: time the work (the original iterates a snapshot list either way).
SPECIAL: Tuple[Tuple[Any, str], ...] = ((Engine, "run"), (AddressSpace, "regions"))

_MISSING = object()


def category(event_name: str) -> str:
    prefix = event_name.split(":", 1)[0]
    return prefix if prefix in CATEGORIES else "other"


class SpanRecorder:
    """Spans kept in parallel arrays: name id, start, end, parent, cell."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.cell = array("i")
        self.current_cell = -1
        self._stack: List[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.cell.append(self.current_cell)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        name_id = self.name_id(name)
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = open_(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close(index)

        return wrapper

    def wrap_step(self, step: Callable) -> Callable:
        """One engine's ``step``, named after the event it executed."""
        ids = {cat: self.name_id(f"sim.step.{cat}") for cat in CATEGORIES + ("other",)}
        open_, close, name = self.open, self.close, self.name

        def wrapped_step():
            index = open_(ids["other"])
            event = None
            try:
                event = step()
                return event
            finally:
                close(index)
                if event is not None:
                    name[index] = ids[category(event.name)]

        return wrapped_step

    def wrap_run(self, run: Callable) -> Callable:
        name_id = self.name_id("sim.run")
        open_, close, wrap_step = self.open, self.close, self.wrap_step

        @functools.wraps(run)
        def wrapped_run(engine, *args, **kwargs):
            engine.step = wrap_step(engine.step)
            index = open_(name_id)
            try:
                return run(engine, *args, **kwargs)
            finally:
                close(index)
                del engine.step

        return wrapped_run

    def wrap_regions(self, regions: Callable) -> Callable:
        timed = self.wrap("mem.regions", lambda *a, **k: list(regions(*a, **k)))

        @functools.wraps(regions)
        def wrapped_regions(*args, **kwargs):
            return iter(timed(*args, **kwargs))

        return wrapped_regions

    # ------------------------------------------------------------------

    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """Per span name: (count, total seconds, self seconds)."""
        n = len(self.start)
        if n == 0:
            return {}
        names = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        children = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=n
        )
        own = duration - children
        out: Dict[str, Tuple[int, float, float]] = {}
        for name_id, name in enumerate(self.names):
            mask = names == name_id
            out[name] = (int(mask.sum()), float(duration[mask].sum()), float(own[mask].sum()))
        return out

    def step_parents_are_runs(self) -> bool:
        """Every engine step span sits directly under an Engine.run span."""
        names = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        step_ids = [i for i, n in enumerate(self.names) if n.startswith("sim.step.")]
        steps = np.isin(names, step_ids)
        if not steps.any():
            return True
        run_id = self._ids.get("sim.run", -2)
        parents = parent[steps]
        return bool((parents >= 0).all() and (names[parents] == run_id).all())

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            cell=np.frombuffer(self.cell, dtype=np.int32),
        )


def install(recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap every target; returns the function that restores them."""
    saved: List[Tuple[Any, str, Any]] = []

    def replace(owner: Any, attr: str, wrapper: Callable) -> None:
        saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, wrapper)

    def restore() -> None:
        for owner, attr, original in reversed(saved):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        saved.clear()

    try:
        for owner, attr, name in TARGETS:
            replace(owner, attr, recorder.wrap(name, getattr(owner, attr)))
        replace(Engine, "run", recorder.wrap_run(Engine.run))
        replace(AddressSpace, "regions", recorder.wrap_regions(AddressSpace.regions))
    except BaseException:
        restore()
        raise
    return restore


def originals() -> Dict[Tuple[Any, str], Any]:
    """The current value of every wrapped attribute (for restore checks)."""
    pairs = [(owner, attr) for owner, attr, _ in TARGETS] + list(SPECIAL)
    return {(owner, attr): vars(owner).get(attr, _MISSING) for owner, attr in pairs}
