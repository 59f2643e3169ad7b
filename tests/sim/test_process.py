"""Tests for process semantics: lifecycle and error handling."""

import pytest

from repro.sim import Environment


def test_non_generator_rejected():
    env = Environment()
    with pytest.raises(TypeError):
        env.process(lambda: None)  # type: ignore[arg-type]


def test_yield_non_event_crashes_process():
    env = Environment()

    def proc():
        yield 42  # type: ignore[misc]

    env.process(proc())
    with pytest.raises(RuntimeError, match="non-event"):
        env.run()


def test_process_name_comes_from_generator():
    env = Environment()

    def my_worker():
        yield env.timeout(0)

    p = env.process(my_worker())
    assert p.name == "my_worker"
    assert "my_worker" in repr(p)


def test_many_concurrent_processes():
    env = Environment()
    done = []

    def worker(k):
        yield env.timeout(k % 7)
        done.append(k)

    for k in range(200):
        env.process(worker(k))
    env.run()
    assert sorted(done) == list(range(200))


def test_process_waiting_on_process_chain():
    env = Environment()

    def level(n):
        if n == 0:
            yield env.timeout(1)
            return 1
        sub = yield env.process(level(n - 1))
        return sub + 1

    p = env.process(level(10))
    assert env.run(p) == 11
    assert env.now == 1
