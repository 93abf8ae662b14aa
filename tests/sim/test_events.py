"""Unit tests for the event loop and futures."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment


class TestEnvironment:
    def test_time_starts_at_zero(self):
        assert Environment().now == 0.0

    def test_schedule_runs_in_time_order(self):
        env = Environment()
        order = []
        env.schedule(5.0, lambda: order.append("b"))
        env.schedule(1.0, lambda: order.append("a"))
        env.schedule(10.0, lambda: order.append("c"))
        env.run()
        assert order == ["a", "b", "c"]
        assert env.now == 10.0

    def test_equal_times_run_fifo(self):
        env = Environment()
        order = []
        for tag in range(5):
            env.schedule(1.0, order.append, tag)
        env.run()
        assert order == [0, 1, 2, 3, 4]

    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.schedule(-1.0, lambda: None)

    def test_run_until_stops_at_deadline(self):
        env = Environment()
        fired = []
        env.schedule(5.0, lambda: fired.append("early"))
        env.schedule(50.0, lambda: fired.append("late"))
        env.run(until=10.0)
        assert fired == ["early"]
        assert env.now == 10.0
        env.run()
        assert fired == ["early", "late"]

    def test_run_until_in_past_rejected(self):
        env = Environment()
        env.schedule(5.0, lambda: None)
        env.run()
        with pytest.raises(SimulationError):
            env.run(until=1.0)

    def test_step_on_empty_queue_rejected(self):
        with pytest.raises(SimulationError):
            Environment().step()

    def test_nested_scheduling(self):
        env = Environment()
        seen = []

        def outer():
            seen.append(("outer", env.now))
            env.schedule(3.0, inner)

        def inner():
            seen.append(("inner", env.now))

        env.schedule(2.0, outer)
        env.run()
        assert seen == [("outer", 2.0), ("inner", 5.0)]

    def test_pending_events_counter(self):
        env = Environment()
        assert env.pending_events == 0
        env.schedule(1.0, lambda: None)
        env.schedule(2.0, lambda: None)
        assert env.pending_events == 2

    def test_pending_events_counts_zero_delay_events(self):
        env = Environment()
        env.schedule(0.0, lambda: None)
        env.schedule(1.0, lambda: None)
        assert env.pending_events == 2
        env.run()
        assert env.pending_events == 0

    def test_zero_delay_preserves_schedule_order_at_equal_times(self):
        """The immediate FIFO merges with the heap in (time, seq) order.

        An event already scheduled *for* time T runs before a zero-delay
        event scheduled *at* time T — exactly the order a pure-heap kernel
        with a global sequence counter produces.
        """
        env = Environment()
        order = []
        env.schedule(5.0, order.append, "delayed-at-5")

        def at_five():
            order.append("first-at-5")
            env.schedule(0.0, order.append, "zero-delay-at-5")

        env.schedule(5.0, at_five)
        # "delayed-at-5" was scheduled first, so it runs first; the
        # zero-delay event scheduled during at_five runs last.
        env.run()
        assert order == ["delayed-at-5", "first-at-5", "zero-delay-at-5"]

    def test_zero_delay_events_run_fifo(self):
        env = Environment()
        order = []
        for tag in range(5):
            env.schedule(0.0, order.append, tag)
        env.run()
        assert order == [0, 1, 2, 3, 4]
        assert env.now == 0.0

    def test_events_executed_counter_tracks_all_events(self):
        env = Environment()
        env.schedule(0.0, lambda: None)
        env.schedule(1.0, lambda: None)
        env.schedule(2.0, lambda: None)
        env.run()
        assert env.events_executed == 3

    def test_run_until_with_pending_immediate_events(self):
        """Zero-delay work scheduled before ``until`` still runs."""
        env = Environment()
        fired = []
        env.schedule(0.0, fired.append, "now")
        env.schedule(50.0, fired.append, "late")
        env.run(until=10.0)
        assert fired == ["now"]
        assert env.now == 10.0


class TestFuture:
    def test_succeed_resolves_value(self):
        env = Environment()
        future = env.future()
        assert not future.triggered
        future.succeed(42)
        assert future.triggered and future.ok
        assert future.value == 42

    def test_fail_records_exception(self):
        env = Environment()
        future = env.future()
        error = ValueError("boom")
        future.fail(error)
        assert future.triggered and not future.ok
        assert future.value is error

    def test_fail_requires_exception(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.future().fail("not an exception")

    def test_double_resolution_rejected(self):
        env = Environment()
        future = env.future()
        future.succeed(1)
        with pytest.raises(SimulationError):
            future.succeed(2)

    def test_value_before_resolution_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            _ = env.future().value

    def test_callback_after_resolution_still_fires(self):
        env = Environment()
        future = env.future()
        future.succeed("done")
        seen = []
        future.add_callback(lambda f: seen.append(f.value))
        env.run()
        assert seen == ["done"]

    def test_callbacks_fire_in_registration_order(self):
        env = Environment()
        future = env.future()
        seen = []
        future.add_callback(lambda f: seen.append(1))
        future.add_callback(lambda f: seen.append(2))
        future.succeed(None)
        env.run()
        assert seen == [1, 2]

    def test_run_until_complete_returns_value(self):
        env = Environment()
        future = env.future()
        env.schedule(7.0, lambda: future.succeed("ready"))
        assert env.run_until_complete(future) == "ready"
        assert env.now == 7.0

    def test_run_until_complete_raises_failure(self):
        env = Environment()
        future = env.future()
        env.schedule(1.0, lambda: future.fail(RuntimeError("bad")))
        with pytest.raises(RuntimeError):
            env.run_until_complete(future)

    def test_run_until_complete_detects_starvation(self):
        env = Environment()
        future = env.future()
        with pytest.raises(SimulationError):
            env.run_until_complete(future)

    def test_run_until_complete_stops_past_its_limit(self):
        env = Environment()
        future = env.future()
        env.schedule(5.0, lambda: None)
        env.schedule(50.0, lambda: future.succeed("late"))
        with pytest.raises(SimulationError, match="time limit"):
            env.run_until_complete(future, limit=20.0)
        assert not future.triggered


class TestTimeout:
    def test_timeout_resolves_after_delay(self):
        env = Environment()
        timeout = env.timeout(25.0, value="tick")
        env.run()
        assert timeout.ok and timeout.value == "tick"
        assert env.now == 25.0

    def test_zero_delay_timeout(self):
        env = Environment()
        timeout = env.timeout(0.0)
        env.run()
        assert timeout.ok

    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.timeout(-0.5)
