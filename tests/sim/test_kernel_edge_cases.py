"""Edge-case tests for the DES kernel: races the protocols rely on."""

import pytest

from repro.sim import Environment


def test_process_failing_before_first_yield():
    env = Environment()

    def bad():
        raise RuntimeError("immediate")

    env.call_soon(bad)
    with pytest.raises(RuntimeError, match="immediate"):
        env.run()
    assert env.now == 0


def test_timeout_ordering_with_equal_times_and_priorities():
    env = Environment()
    order = []

    def hop(tag, reps):
        if reps:
            env.call_later(1, hop, tag, reps - 1)
        else:
            order.append(tag)

    env.call_soon(hop, "two-hops", 2)
    env.call_soon(hop, "one-hop-of-two", 1)
    env.run()
    assert order == ["one-hop-of-two", "two-hops"]
    assert env.now == 2
