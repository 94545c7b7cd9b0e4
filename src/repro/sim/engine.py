"""The discrete-event engine: an event heap plus a simulated clock."""

from __future__ import annotations

import itertools
from heapq import heappop, heappush, heapreplace
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

    ``_entry_time`` is the time of the one heap entry that will
    surface the event, or None while no entry is queued (it ran, its
    cancelled entry was dropped, or the engine was cleared). After
    :meth:`Engine.rearm` that entry may lie earlier than
    ``(time, seq)``; the engine re-files it when it reaches the head.
    """

    __slots__ = ("time", "seq", "callback", "name", "cancelled", "_entry_time")

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
        self._entry_time: Optional[float] = None

    @property
    def queued(self) -> bool:
        """Whether a heap entry will surface this event (cancelled or not)."""
        return self._entry_time is not None

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
        """Number of entries still on the heap (cancelled events included).

        An event moved by :meth:`rearm` keeps its one entry, so it
        counts once.
        """
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
        event._entry_time = time
        heappush(self._heap, (time, seq, event))
        return event

    def rearm(self, event: Event, time: float) -> Event:
        """Move ``event`` to absolute ``time``, un-cancelled; return the armed event.

        The sequence number is drawn now, exactly as :meth:`schedule_at`
        draws it, so the event runs under the same ``(time, seq)`` key
        as a cancel followed by a fresh schedule would give it. While
        the event's heap entry is still queued and no later than
        ``time``, that entry is reused: it surfaces first and
        :meth:`_live_head` re-files it under the new key. Otherwise a
        fresh entry is pushed; when the queued entry lies beyond
        ``time`` it cannot be reused, so the event stays cancelled and
        a new :class:`Event` with the same callback and name is
        returned in its place.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self._now}"
            )
        seq = next(self._seq)
        entry_time = event._entry_time
        if entry_time is not None and entry_time > time:
            event.cancelled = True
            event = Event(time, seq, event.callback, event.name)
        else:
            event.time = time
            event.seq = seq
            event.cancelled = False
            if entry_time is not None:
                return event
        event._entry_time = time
        heappush(self._heap, (time, seq, event))
        return event

    def _live_head(self) -> Optional[Event]:
        """The next non-cancelled event, with cancelled heads dropped.

        The single home of the cancelled-event skip logic: both
        :meth:`step` and :meth:`run` peek through this, so cancelled
        events are lazily popped in exactly one place. It is also where
        an entry :meth:`rearm` moved is re-filed under its event's
        current ``(time, seq)``: that neither advances the clock nor
        counts as an executed event. A moved entry's key is never later
        than its event's, so it surfaces before anything the event must
        follow, and since ``seq`` is unique per engine one integer
        comparison tells a moved entry from a settled one.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            head = entry[2]
            if head.cancelled:
                heappop(heap)
                head._entry_time = None
            elif entry[1] == head.seq:
                return head
            else:
                time = head.time
                head._entry_time = time
                heapreplace(heap, (time, head.seq, head))
        return None

    def step(self) -> Optional[Event]:
        """Execute the next non-cancelled event; return it, or None if drained.

        An exception escaping the callback is re-raised wrapped in a
        :class:`SimulationError` subtype that also derives from the
        original exception class, with ``sim_time`` and ``event_name``
        attached. The failed event is already off the heap, so the
        queue stays consistent and the engine can keep stepping. A
        callback that re-arms its own event (a periodic tick) leaves
        the returned event describing its next run; its name is kept.
        """
        event = self._live_head()
        if event is None:
            return None
        heappop(self._heap)
        event._entry_time = None
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

        Every event is executed through ``self.step``, looked up on the
        instance once per call: a profiler that replaces ``step`` on an
        engine instance sees each executed event exactly once, so the
        loop must never inline the step body.

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
        """Drop every pending event without executing it.

        A dropped event's entry is gone, so a later :meth:`rearm` of it
        pushes a fresh entry rather than waiting for one that never
        surfaces.
        """
        for _, _, event in self._heap:
            event._entry_time = None
        self._heap.clear()
