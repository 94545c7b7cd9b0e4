"""The discrete-event engine: an event heap plus a simulated clock."""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.obs.trace import EventKind

# Cache of dynamically-created wrapper exception types: one per
# original exception class, so isinstance checks against both
# SimulationError and the original type keep working.
_WRAPPER_TYPES: Dict[type, type] = {}


def _wrap_callback_error(exc: Exception, event: "Event", now: float) -> SimulationError:
    """Wrap an exception escaping an event callback with sim context.

    The wrapper type subclasses both :class:`SimulationError` and the
    original exception class, so existing ``except CapacityError``
    handlers still fire while the traceback carries the simulated time
    and event name. Falls back to a plain :class:`SimulationError`
    for exception classes that cannot be subclassed or constructed
    from a single message.
    """
    cls = type(exc)
    wrapper = _WRAPPER_TYPES.get(cls)
    if wrapper is None:
        try:
            wrapper = type(f"Simulation{cls.__name__}", (SimulationError, cls), {})
        except TypeError:
            wrapper = SimulationError
        _WRAPPER_TYPES[cls] = wrapper
    message = f"event {event.name!r} at t={now:.6f} raised {cls.__name__}: {exc}"
    try:
        wrapped = wrapper(message)
    except Exception:
        wrapped = SimulationError(message)
    wrapped.sim_time = now
    wrapped.event_name = event.name
    return wrapped


class Event:
    """A scheduled callback.

    Events order by ``(time, seq)``: the sequence number makes ordering
    among same-timestamp events FIFO and therefore deterministic. The
    engine's heap holds ``(time, seq, event)`` tuples, so ``heapq``
    compares floats and ints in C; ``seq`` is unique per engine, so
    the tuple comparison never reaches the event itself.

    A slotted plain class rather than a dataclass: millions of these
    live on the heap during a long sweep, and ``__slots__`` removes
    the per-instance ``__dict__`` while the hand-written ``__lt__``
    compares exactly the two ordering fields.
    """

    __slots__ = ("time", "seq", "callback", "name", "cancelled")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[[], Any],
        name: str = "",
        cancelled: bool = False,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.name = name
        self.cancelled = cancelled

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped."""
        self.cancelled = True

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return self.time == other.time and self.seq == other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Event(time={self.time!r}, seq={self.seq}, name={self.name!r}, "
            f"cancelled={self.cancelled})"
        )


class Engine:
    """A deterministic discrete-event simulation engine.

    >>> engine = Engine()
    >>> fired = []
    >>> _ = engine.schedule(5.0, lambda: fired.append(engine.now))
    >>> engine.run()
    >>> fired
    [5.0]
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = start_time
        # (time, seq, event) entries: C-level tuple comparison.
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._running = False
        self._events_processed = 0
        # Optional repro.obs.Tracer; None keeps the hot loop untraced.
        self.tracer = None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (cancelled events excluded)."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of events still on the heap (including cancelled ones)."""
        return len(self._heap)

    def schedule(
        self, delay: float, callback: Callable[[], Any], name: str = ""
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, name)

    def schedule_at(
        self, time: float, callback: Callable[[], Any], name: str = ""
    ) -> Event:
        """Schedule ``callback`` at absolute simulated ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self._now}"
            )
        seq = next(self._seq)
        event = Event(time, seq, callback, name)
        heappush(self._heap, (time, seq, event))
        return event

    def _live_head(self) -> Optional[Event]:
        """The next non-cancelled event, with cancelled heads dropped.

        The single home of the cancelled-event skip logic: both
        :meth:`step` and :meth:`run` peek through this, so cancelled
        events are lazily popped in exactly one place.
        """
        heap = self._heap
        while heap:
            head = heap[0][2]
            if not head.cancelled:
                return head
            heappop(heap)
        return None

    def step(self) -> Optional[Event]:
        """Execute the next non-cancelled event; return it, or None if drained.

        An exception escaping the callback is re-raised wrapped in a
        :class:`SimulationError` subtype that also derives from the
        original exception class, with ``sim_time`` and ``event_name``
        attached. The failed event is already off the heap, so the
        queue stays consistent and the engine can keep stepping.
        """
        event = self._live_head()
        if event is None:
            return None
        heappop(self._heap)
        self._now = event.time
        self._events_processed += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.emit(EventKind.ENGINE_EVENT, event.name)
        try:
            event.callback()
        except SimulationError:
            raise
        except Exception as exc:
            raise _wrap_callback_error(exc, event, self._now) from exc
        return event

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events in order until the heap drains.

        Args:
            until: stop once the next event lies strictly beyond this
                time; the clock is advanced to ``until``.
            max_events: safety valve against runaway schedules.
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run())")
        self._running = True
        executed = 0
        # Local bindings keep the hot loop free of repeated attribute
        # lookups; step/_live_head are bound methods resolved once.
        live_head = self._live_head
        step = self.step
        bounded = max_events is not None
        try:
            while True:
                head = live_head()
                if head is None:
                    break
                if until is not None and head.time > until:
                    break
                if bounded and executed >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; runaway schedule?"
                    )
                step()
                executed += 1
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False

    def clear(self) -> None:
        """Drop every pending event without executing it."""
        self._heap.clear()
