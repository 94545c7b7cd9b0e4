"""Timer and periodic-task helpers built on top of :class:`Engine`."""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.sim.engine import Engine, Event


class Timer:
    """A single-shot, restartable timer.

    Used for container keep-alive timeouts: every new request restarts
    the timer, and only an undisturbed expiry fires the callback. A
    cancelled timer keeps its event, so the next :meth:`start` re-arms
    it in place (:meth:`Engine.rearm`) instead of leaving a dead entry
    on the heap and allocating another.
    """

    def __init__(self, engine: Engine, callback: Callable[[], Any], name: str = "") -> None:
        self._engine = engine
        self._callback = callback
        self._name = name
        self._event: Optional[Event] = None

    @property
    def armed(self) -> bool:
        """Whether an expiry is currently scheduled."""
        return self._event is not None and not self._event.cancelled

    @property
    def deadline(self) -> Optional[float]:
        """Absolute expiry time, or None when disarmed."""
        if self.armed:
            assert self._event is not None
            return self._event.time
        return None

    def start(self, delay: float) -> None:
        """(Re)arm the timer to fire ``delay`` seconds from now."""
        engine = self._engine
        if self._event is None:
            self._event = engine.schedule(delay, self._fire, name=self._name)
        elif delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        else:
            self._event = engine.rearm(self._event, engine.now + delay)

    def cancel(self) -> None:
        """Disarm the timer if armed."""
        if self._event is not None:
            self._event.cancel()

    def _fire(self) -> None:
        self._event = None
        self._callback()


class PeriodicTask:
    """Invoke a callback every ``interval`` seconds until stopped.

    The callback may call :meth:`stop` to terminate the series; the
    period may also be changed between ticks via :attr:`interval`. A
    stopped task can be started again with :meth:`restart`, which
    re-arms its one event in place, as every tick does.
    """

    def __init__(
        self,
        engine: Engine,
        interval: float,
        callback: Callable[[], Any],
        name: str = "",
        start_delay: Optional[float] = None,
    ) -> None:
        if interval <= 0:
            raise SimulationError(f"interval must be positive, got {interval}")
        self._engine = engine
        self.interval = interval
        self._callback = callback
        self._name = name
        self._stopped = False
        self._event: Event = engine.schedule(
            interval if start_delay is None else start_delay, self._tick, name=name
        )

    @property
    def running(self) -> bool:
        """Whether another tick is scheduled."""
        return not self._stopped

    def stop(self) -> None:
        """Cancel all future ticks."""
        self._stopped = True
        self._event.cancel()

    def restart(self, start_delay: Optional[float] = None) -> None:
        """Begin a new series: the first tick ``start_delay`` seconds from now.

        ``start_delay`` defaults to :attr:`interval`, as in the
        constructor. The tick is scheduled exactly where a new task
        built at this instant would schedule it; any tick still pending
        is dropped.
        """
        delay = self.interval if start_delay is None else start_delay
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        engine = self._engine
        self._stopped = False
        self._event = engine.rearm(self._event, engine.now + delay)

    def _tick(self) -> None:
        self._callback()
        # The callback may have stopped the series, or stopped and
        # restarted it (which queued the event again).
        event = self._event
        if not self._stopped and not event.queued:
            engine = self._engine
            self._event = engine.rearm(event, engine.now + self.interval)
