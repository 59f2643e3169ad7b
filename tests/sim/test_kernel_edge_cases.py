"""Edge-case tests for the DES kernel: races the protocols rely on."""

import pytest

from repro.sim import AnyOf, Environment


def test_process_failing_before_first_yield():
    env = Environment()

    def bad():
        raise RuntimeError("immediate")
        yield  # pragma: no cover

    env.process(bad())
    with pytest.raises(RuntimeError, match="immediate"):
        env.run()


def test_process_with_no_yield_finishes():
    env = Environment()

    def empty():
        return "done"
        yield  # pragma: no cover

    p = env.process(empty())
    assert env.run(p) == "done"


def test_condition_over_processes():
    env = Environment()

    def worker(d, v):
        yield env.timeout(d)
        return v

    p1 = env.process(worker(2, "a"))
    p2 = env.process(worker(5, "b"))

    def waiter():
        result = yield AnyOf(env, [p1, p2])
        return (result[p1], p2 in result, env.now)

    assert env.run(env.process(waiter())) == ("a", False, 2)


def test_anyof_loser_can_still_be_awaited():
    env = Environment()
    fast = env.timeout(1, value="fast")
    slow = env.timeout(9, value="slow")

    def proc():
        first = yield AnyOf(env, [fast, slow])
        assert fast in first
        late = yield slow
        return late

    assert env.run(env.process(proc())) == "slow"


def test_event_triggered_before_yield_resumes_immediately():
    env = Environment()
    ev = env.event()
    ev.succeed("early")

    def proc():
        value = yield ev
        return (value, env.now)

    env.run(until=1)  # ev is processed by now
    p = env.process(proc())
    assert env.run(p) == ("early", 1)


def test_timeout_ordering_with_equal_times_and_priorities():
    env = Environment()
    order = []

    def proc(tag, reps):
        for _ in range(reps):
            yield env.timeout(1)
        order.append(tag)

    env.process(proc("two-hops", 2))
    env.process(proc("one-hop-of-two", 1))
    env.run()
    assert set(order) == {"two-hops", "one-hop-of-two"}
    assert env.now == 2
