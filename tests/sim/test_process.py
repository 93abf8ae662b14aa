"""Unit tests for coroutine processes."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment
from repro.sim.process import all_of


class TestProcess:
    def test_process_runs_and_returns_value(self):
        env = Environment()

        def worker():
            yield env.timeout(3.0)
            yield env.timeout(4.0)
            return "done"

        process = env.process(worker())
        assert env.run_until_complete(process) == "done"
        assert env.now == 7.0

    def test_yielding_a_number_sleeps(self):
        env = Environment()

        def worker():
            yield 10.0
            return env.now

        assert env.run_until_complete(env.process(worker())) == 10.0

    def test_future_value_is_sent_back(self):
        env = Environment()
        future = env.future()
        env.schedule(2.0, lambda: future.succeed(99))

        def worker():
            value = yield future
            return value + 1

        assert env.run_until_complete(env.process(worker())) == 100

    def test_failed_future_raises_inside_process(self):
        env = Environment()
        future = env.future()
        env.schedule(1.0, lambda: future.fail(ValueError("nope")))

        def worker():
            try:
                yield future
            except ValueError:
                return "caught"
            return "missed"

        assert env.run_until_complete(env.process(worker())) == "caught"

    def test_uncaught_exception_fails_the_process(self):
        env = Environment()

        def worker():
            yield env.timeout(1.0)
            raise RuntimeError("exploded")

        process = env.process(worker())
        with pytest.raises(RuntimeError):
            env.run_until_complete(process)

    def test_process_waits_for_child_process(self):
        env = Environment()

        def child():
            yield env.timeout(5.0)
            return "child-result"

        def parent():
            result = yield env.process(child())
            return f"parent saw {result}"

        assert env.run_until_complete(env.process(parent())) == "parent saw child-result"

    def test_requires_a_generator(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.process(lambda: None)

    def test_yielding_garbage_is_an_error(self):
        env = Environment()

        def worker():
            yield "not a future"

        process = env.process(worker())
        with pytest.raises(SimulationError):
            env.run_until_complete(process)


class TestCombinators:
    def test_all_of_collects_values_in_order(self):
        env = Environment()
        futures = [env.timeout(delay, value=index)
                   for index, delay in enumerate([5.0, 1.0, 3.0])]
        combined = all_of(env, futures)
        assert env.run_until_complete(combined) == [0, 1, 2]
        assert env.now == 5.0

    def test_all_of_empty_list(self):
        env = Environment()
        assert env.run_until_complete(all_of(env, [])) == []

    def test_all_of_fails_fast(self):
        env = Environment()
        good = env.timeout(10.0, value="late")
        bad = env.future()
        env.schedule(1.0, lambda: bad.fail(RuntimeError("early failure")))
        combined = all_of(env, [good, bad])
        with pytest.raises(RuntimeError):
            env.run_until_complete(combined)
        assert env.now < 10.0
