"""Tests for event primitives: trigger semantics."""

import pytest

from repro.sim import Environment


def test_event_starts_pending():
    env = Environment()
    ev = env.event()
    assert not ev.triggered
    assert not ev.processed


def test_succeed_sets_value():
    env = Environment()
    ev = env.event().succeed(7)
    assert ev.triggered
    assert ev.ok
    assert ev.value == 7


def test_double_trigger_rejected():
    env = Environment()
    ev = env.event().succeed()
    with pytest.raises(RuntimeError):
        ev.succeed()
    with pytest.raises(RuntimeError):
        ev.fail(ValueError())


def test_fail_requires_exception():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")  # type: ignore[arg-type]


def test_value_before_trigger_raises():
    env = Environment()
    with pytest.raises(RuntimeError):
        _ = env.event().value
    with pytest.raises(RuntimeError):
        _ = env.event().ok


def test_failed_event_must_be_defused_or_crashes():
    env = Environment()
    ev = env.event()
    ev.fail(RuntimeError("nobody caught me"))
    with pytest.raises(RuntimeError, match="nobody caught me"):
        env.run()


def test_process_yield_on_failed_event_rethrows():
    env = Environment()
    ev = env.event()

    def proc():
        try:
            yield ev
        except RuntimeError as e:
            return str(e)

    p = env.process(proc())
    ev.fail(RuntimeError("delivered"))
    assert env.run(p) == "delivered"


def test_repr_shows_state():
    env = Environment()
    ev = env.event()
    assert "pending" in repr(ev)
    ev.succeed()
    assert "triggered" in repr(ev)
