"""Tests for the DES environment: clock, run horizons, timer ordering."""

import pytest

from repro.sim import Environment, StopSimulation


def test_initial_time_defaults_to_zero():
    env = Environment()
    assert env.now == 0.0


def test_initial_time_configurable():
    env = Environment(initial_time=42.5)
    assert env.now == 42.5


def test_timeout_advances_clock():
    env = Environment()
    seen = []
    env.call_later(5, lambda: seen.append(env.now))
    env.run()
    assert seen == [5]


def test_run_until_time_stops_exactly():
    env = Environment()
    log = []

    def tick():
        log.append(env.now)
        env.call_later(1, tick)

    env.call_later(1, tick)
    env.run(until=3.5)
    assert log == [1, 2, 3]
    assert env.now == 3.5


def test_run_until_past_raises():
    env = Environment(initial_time=10)
    with pytest.raises(ValueError):
        env.run(until=5)


def test_run_to_exhaustion_returns_none():
    env = Environment()
    env.call_later(1, lambda: None)
    assert env.run() is None
    assert env.now == 1


def test_events_at_same_time_fifo():
    env = Environment()
    order = []
    for tag in "abc":
        env.call_soon(env.call_later, 1, order.append, tag)
    env.run()
    assert order == ["a", "b", "c"]


def test_len_counts_pending_events():
    env = Environment()
    assert len(env) == 0
    env.call_later(7, lambda: None)
    assert len(env) == 1


def test_unhandled_process_crash_propagates():
    env = Environment()

    def bad():
        raise ValueError("boom")

    env.call_later(1, bad)
    with pytest.raises(ValueError, match="boom"):
        env.run()
    assert env.now == 1


def test_stop_simulation_is_exception():
    assert issubclass(StopSimulation, Exception)


def test_nested_processes_share_clock():
    env = Environment()
    times = {}

    def child():
        times["child"] = env.now

    def parent():
        env.call_soon(env.call_later, 4, child)
        times["parent"] = env.now

    env.call_later(1, parent)
    env.run()
    assert times == {"child": 5, "parent": 1}


def test_zero_delay_timeout_processes_same_time():
    env = Environment()
    seen = []
    env.call_later(0, lambda: seen.append(env.now))
    env.run()
    assert seen == [0.0]


# ----------------------------------------------------------------------
# the slot rule: how a loop's steps interleave with everything else due
# at the same instant
# ----------------------------------------------------------------------
def test_call_soon_runs_after_earlier_urgent_and_before_queued_normal():
    env = Environment()
    order = []

    def at_five():
        env.call_later(0, order.append, "normal queued at t=5")
        env.call_soon(order.append, "urgent 1")
        env.call_soon(order.append, "urgent 2")

    env.call_later(5, at_five)
    env.call_later(5, order.append, "normal queued at t=0")
    env.run()
    assert order == [
        "urgent 1", "urgent 2", "normal queued at t=0", "normal queued at t=5"
    ]


def test_call_later_zero_from_a_callback_runs_after_everything_queued_now():
    env = Environment()
    order = []

    def first():
        order.append("first")
        env.call_later(0, order.append, "continuation")

    env.call_later(3, first)
    env.call_later(3, order.append, "second")
    env.call_soon(env.call_later, 3, order.append, "third")
    env.run()
    assert order == ["first", "second", "third", "continuation"]
    assert env.now == 3
