"""Edge-case tests for the DES kernel: races the protocols rely on."""

import pytest

from repro.sim import Environment


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
