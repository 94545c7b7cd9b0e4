"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.sim.engine import Engine
from repro.sim.process import PeriodicTask, Timer


class TestScheduling:
    def test_schedule_runs_at_time(self, engine):
        fired = []
        engine.schedule(5.0, lambda: fired.append(engine.now))
        engine.run()
        assert fired == [5.0]

    def test_schedule_at_absolute(self, engine):
        fired = []
        engine.schedule_at(3.0, lambda: fired.append(engine.now))
        engine.run()
        assert fired == [3.0]

    def test_negative_delay_rejected(self, engine):
        with pytest.raises(SimulationError):
            engine.schedule(-1.0, lambda: None)

    def test_schedule_in_past_rejected(self, engine):
        engine.schedule(5.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule_at(1.0, lambda: None)

    def test_events_run_in_time_order(self, engine):
        order = []
        engine.schedule(3.0, lambda: order.append("c"))
        engine.schedule(1.0, lambda: order.append("a"))
        engine.schedule(2.0, lambda: order.append("b"))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_fifo_among_equal_timestamps(self, engine):
        order = []
        for tag in ("first", "second", "third"):
            engine.schedule(1.0, lambda t=tag: order.append(t))
        engine.run()
        assert order == ["first", "second", "third"]

    def test_callback_can_schedule_more(self, engine):
        fired = []

        def chain():
            fired.append(engine.now)
            if len(fired) < 3:
                engine.schedule(1.0, chain)

        engine.schedule(1.0, chain)
        engine.run()
        assert fired == [1.0, 2.0, 3.0]

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
    def test_any_delays_execute_sorted(self, delays):
        engine = Engine()
        seen = []
        for delay in delays:
            engine.schedule(delay, lambda d=delay: seen.append(engine.now))
        engine.run()
        assert seen == sorted(seen)
        assert len(seen) == len(delays)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, engine):
        fired = []
        event = engine.schedule(1.0, lambda: fired.append(1))
        event.cancel()
        engine.run()
        assert fired == []

    def test_cancel_is_idempotent(self, engine):
        event = engine.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        engine.run()

    def test_cancelled_head_skipped_by_step(self, engine):
        """step() must lazily pop cancelled heads, not execute them."""
        doomed = engine.schedule(1.0, lambda: None, name="doomed")
        engine.schedule(2.0, lambda: None, name="live")
        doomed.cancel()
        event = engine.step()
        assert event is not None and event.name == "live"
        assert engine.events_processed == 1

    def test_cancelled_run_of_heads_all_skipped(self, engine):
        """A run of consecutive cancelled heads is drained in one peek."""
        fired = []
        doomed = [engine.schedule(t, lambda: fired.append(t)) for t in (1.0, 2.0, 3.0)]
        engine.schedule(4.0, lambda: fired.append("live"))
        for event in doomed:
            event.cancel()
        engine.run()
        assert fired == ["live"]
        assert engine.events_processed == 1
        assert engine.pending == 0

    def test_cancelled_events_do_not_count_toward_max_events(self, engine):
        for t in (1.0, 2.0, 3.0):
            engine.schedule(t, lambda: None).cancel()
        engine.schedule(4.0, lambda: None)
        engine.run(max_events=1)  # only the live event counts

    def test_run_until_ignores_cancelled_head_beyond_horizon(self, engine):
        """until compares against the next *live* event, not a cancelled one."""
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.schedule(3.0, lambda: fired.append(3)).cancel()
        engine.run(until=5.0)
        assert fired == [1]
        assert engine.now == 5.0
        assert engine.pending == 0  # the cancelled tail was dropped, not kept

    def test_event_ordering_and_equality(self):
        from repro.sim.engine import Event

        early = Event(time=1.0, seq=0, callback=lambda: None)
        later = Event(time=1.0, seq=1, callback=lambda: None)
        assert early < later  # seq breaks the timestamp tie
        assert not later < early
        assert early == Event(time=1.0, seq=0, callback=lambda: None)
        assert early != later
        assert not hasattr(early, "__dict__")  # slotted: no per-event dict

    def test_clear_drops_everything(self, engine):
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.schedule(2.0, lambda: fired.append(2))
        engine.clear()
        engine.run()
        assert fired == []


class TestRunControl:
    def test_run_until_stops_before_later_events(self, engine):
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.schedule(10.0, lambda: fired.append(10))
        engine.run(until=5.0)
        assert fired == [1]
        assert engine.now == 5.0
        engine.run()
        assert fired == [1, 10]

    def test_run_until_advances_clock_when_idle(self, engine):
        engine.run(until=42.0)
        assert engine.now == 42.0

    def test_max_events_guard(self, engine):
        def forever():
            engine.schedule(0.0, forever)

        engine.schedule(0.0, forever)
        with pytest.raises(SimulationError):
            engine.run(max_events=100)

    def test_step_returns_event_and_none_when_drained(self, engine):
        engine.schedule(1.0, lambda: None, name="only")
        event = engine.step()
        assert event is not None and event.name == "only"
        assert engine.step() is None

    def test_events_processed_counter(self, engine):
        engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        engine.run()
        assert engine.events_processed == 2

    def test_run_executes_every_event_through_instance_step(self, engine):
        """A profiler may replace ``step`` on one engine instance; ``run``
        must call it once per executed event, re-armed ones included."""
        calls = []
        step = engine.step

        def counting_step():
            event = step()
            calls.append(event.name)
            return event

        engine.step = counting_step
        timer = Timer(engine, lambda: None, name="ka")
        timer.start(1.5)
        # At t=1 the timer moves to t=3: its entry at 1.5 is re-filed,
        # which is not an event.
        engine.schedule(1.0, lambda: timer.start(2.0), name="request")
        engine.schedule(1.0, lambda: None, name="tie")
        task = PeriodicTask(engine, 1.0, lambda: None, name="hb")
        engine.schedule(3.5, task.stop, name="stop")
        engine.run(until=10.0)
        assert calls == ["request", "tie", "hb", "hb", "ka", "hb", "stop"]
        assert engine.events_processed == len(calls)

    def test_clock_never_goes_backwards(self, engine):
        times = []
        for d in (5.0, 1.0, 3.0):
            engine.schedule(d, lambda: times.append(engine.now))
        engine.run()
        assert times == sorted(times)


class TestCallbackErrorWrapping:
    """Exceptions escaping event callbacks surface as SimulationError
    with sim-time and event context, without corrupting the queue."""

    def test_wrapped_error_carries_context(self, engine):
        def boom():
            raise ValueError("kaput")

        engine.schedule(2.5, boom, name="exploding-event")
        with pytest.raises(SimulationError) as excinfo:
            engine.run()
        assert "exploding-event" in str(excinfo.value)
        assert "t=2.500000" in str(excinfo.value)
        assert "ValueError" in str(excinfo.value)
        assert excinfo.value.sim_time == 2.5
        assert excinfo.value.event_name == "exploding-event"

    def test_wrapper_is_also_original_type(self, engine):
        """pytest.raises(OriginalError) through engine.run must keep
        working: the wrapper inherits from both."""

        def boom():
            raise KeyError("gone")

        engine.schedule(1.0, boom)
        with pytest.raises(KeyError):
            engine.run()

    def test_original_is_chained_as_cause(self, engine):
        original = ValueError("kaput")

        def boom():
            raise original

        engine.schedule(1.0, boom)
        with pytest.raises(SimulationError) as excinfo:
            engine.run()
        assert excinfo.value.__cause__ is original

    def test_simulation_errors_not_double_wrapped(self, engine):
        def boom():
            raise SimulationError("already domain-level")

        engine.schedule(1.0, boom)
        with pytest.raises(SimulationError) as excinfo:
            engine.run()
        assert str(excinfo.value) == "already domain-level"

    def test_queue_survives_callback_error(self, engine):
        fired = []

        def boom():
            raise RuntimeError("kaput")

        engine.schedule(1.0, boom)
        engine.schedule(2.0, lambda: fired.append(engine.now))
        with pytest.raises(SimulationError):
            engine.run()
        # The failed event was consumed; the rest of the queue is
        # intact and the run can continue.
        engine.run()
        assert fired == [2.0]
        assert engine.now == 2.0
