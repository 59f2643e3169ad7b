"""Tests for the DES environment: clock, run horizons, event ordering."""

import pytest

from repro.sim import Environment, Event, StopSimulation, Timeout


def test_initial_time_defaults_to_zero():
    env = Environment()
    assert env.now == 0.0


def test_initial_time_configurable():
    env = Environment(initial_time=42.5)
    assert env.now == 42.5


def test_timeout_advances_clock():
    env = Environment()

    def proc():
        yield env.timeout(5)
        return env.now

    p = env.process(proc())
    assert env.run(p) == 5


def test_run_until_time_stops_exactly():
    env = Environment()
    log = []

    def proc():
        while True:
            yield env.timeout(1)
            log.append(env.now)

    env.process(proc())
    env.run(until=3.5)
    assert log == [1, 2, 3]
    assert env.now == 3.5


def test_run_until_past_raises():
    env = Environment(initial_time=10)
    with pytest.raises(ValueError):
        env.run(until=5)


def test_run_to_exhaustion_returns_none():
    env = Environment()

    def proc():
        yield env.timeout(1)

    env.process(proc())
    assert env.run() is None
    assert env.now == 1


def test_run_until_event_returns_value():
    env = Environment()
    ev = env.event()

    def proc():
        yield env.timeout(2)
        ev.succeed("done")

    env.process(proc())
    assert env.run(until=ev) == "done"


def test_run_until_already_processed_event():
    env = Environment()
    ev = env.event()

    def proc():
        yield env.timeout(1)
        ev.succeed(99)

    env.process(proc())
    env.run(until=10)
    assert env.run(until=ev) == 99


def test_run_until_never_triggered_event_raises():
    env = Environment()
    ev = env.event()

    def proc():
        yield env.timeout(1)

    env.process(proc())
    with pytest.raises(RuntimeError, match="ran out of events"):
        env.run(until=ev)


def test_events_at_same_time_fifo():
    env = Environment()
    order = []

    def proc(tag):
        yield env.timeout(1)
        order.append(tag)

    env.process(proc("a"))
    env.process(proc("b"))
    env.process(proc("c"))
    env.run()
    assert order == ["a", "b", "c"]


def test_len_counts_pending_events():
    env = Environment()
    assert len(env) == 0
    env.timeout(7)
    assert len(env) == 1


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_timeout_carries_value():
    env = Environment()

    def proc():
        got = yield env.timeout(1, value="payload")
        return got

    p = env.process(proc())
    assert env.run(p) == "payload"


def test_unhandled_process_crash_propagates():
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise ValueError("boom")

    env.process(bad())
    with pytest.raises(ValueError, match="boom"):
        env.run()


def test_crash_waited_on_is_rethrown_in_waiter():
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise KeyError("inner")

    def waiter():
        try:
            yield env.process(bad())
        except KeyError:
            return "caught"

    p = env.process(waiter())
    assert env.run(p) == "caught"


def test_process_return_value_propagates():
    env = Environment()

    def inner():
        yield env.timeout(3)
        return 123

    def outer():
        val = yield env.process(inner())
        return val * 2

    p = env.process(outer())
    assert env.run(p) == 246


def test_stop_simulation_is_exception():
    assert issubclass(StopSimulation, Exception)


def test_event_factory_binds_env():
    env = Environment()
    ev = env.event()
    assert isinstance(ev, Event)
    assert ev.env is env


def test_nested_processes_share_clock():
    env = Environment()
    times = {}

    def child():
        yield env.timeout(4)
        times["child"] = env.now

    def parent():
        yield env.timeout(1)
        yield env.process(child())
        times["parent"] = env.now

    env.process(parent())
    env.run()
    assert times == {"child": 5, "parent": 5}


def test_timeout_is_event_subclass():
    env = Environment()
    assert isinstance(env.timeout(0), Timeout)


def test_zero_delay_timeout_processes_same_time():
    env = Environment()

    def proc():
        yield env.timeout(0)
        return env.now

    p = env.process(proc())
    assert env.run(p) == 0.0
