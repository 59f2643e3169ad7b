"""Tests for model loops: a loop is a chain of timers."""

from repro.sim import Environment


def test_many_concurrent_processes():
    env = Environment()
    done = []

    def worker(k):
        done.append(k)

    for k in range(200):
        env.call_soon(env.call_later, k % 7, worker, k)
    env.run()
    assert sorted(done) == list(range(200))
    assert env.now == 6
