"""Tests for event primitives: trigger semantics and ``AnyOf``."""

import pytest

from repro.sim import AnyOf, Environment


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


def test_anyof_fires_on_first():
    env = Environment()
    t1 = env.timeout(1, value="fast")
    t2 = env.timeout(5, value="slow")

    def proc():
        result = yield AnyOf(env, [t1, t2])
        assert t1 in result
        assert t2 not in result
        return (env.now, result[t1])

    p = env.process(proc())
    assert env.run(p) == (1, "fast")


def test_anyof_empty_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        AnyOf(env, [])


def test_condition_fails_if_subevent_fails():
    env = Environment()
    ev = env.event()
    t = env.timeout(10)

    def proc():
        try:
            yield AnyOf(env, [ev, t])
        except ValueError as e:
            return str(e)

    def failer():
        yield env.timeout(1)
        ev.fail(ValueError("sub failed"))

    p = env.process(proc())
    env.process(failer())
    assert env.run(p) == "sub failed"


def test_condition_rejects_mixed_environments():
    env1, env2 = Environment(), Environment()
    with pytest.raises(ValueError):
        AnyOf(env1, [env1.event(), env2.event()])


def test_condition_with_preprocessed_event():
    env = Environment()
    t1 = env.timeout(0, value=1)
    env.run(until=0.5)  # t1 is now processed
    t2 = env.timeout(1, value=2)

    def proc():
        result = yield AnyOf(env, [t1, t2])
        return (env.now, result[t1], t2 in result)

    p = env.process(proc())
    assert env.run(p) == (0.5, 1, False)


def test_repr_shows_state():
    env = Environment()
    ev = env.event()
    assert "pending" in repr(ev)
    ev.succeed()
    assert "triggered" in repr(ev)
