"""Tests for the pluggable scheduler layer: registry, ordering, timer
pooling, and the hooks facade."""

import pytest

from repro.sim import (
    Environment,
    HeapScheduler,
    SimHooks,
    available_schedulers,
    build_scheduler,
    register_scheduler,
)
from repro.sim.engine import _TIMER_POOL_MAX
from repro.sim.sched import SCHEDULERS, Scheduler


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtins_registered(self):
        names = available_schedulers()
        assert "heap" in names
        assert names == sorted(names)

    def test_build_by_name(self):
        assert isinstance(build_scheduler("heap"), HeapScheduler)

    def test_unknown_name_lists_choices(self):
        with pytest.raises(KeyError, match="heap"):
            build_scheduler("fibheap")

    def test_register_decorator_and_duplicate_rejection(self):
        @register_scheduler("test-custom")
        def _factory():
            return HeapScheduler()

        try:
            assert "test-custom" in available_schedulers()
            assert isinstance(build_scheduler("test-custom"), HeapScheduler)
            with pytest.raises(ValueError, match="already registered"):
                register_scheduler("test-custom", HeapScheduler)
        finally:
            del SCHEDULERS["test-custom"]

    def test_scheduler_base_is_abstract_contract(self):
        s = Scheduler()
        with pytest.raises(NotImplementedError):
            s.push((0.0, 1, 0, None))
        with pytest.raises(NotImplementedError):
            s.pop()
        with pytest.raises(NotImplementedError):
            s.peek_time()
        with pytest.raises(NotImplementedError):
            len(s)


# ----------------------------------------------------------------------
# pop-order equivalence
# ----------------------------------------------------------------------
def _drain(sched):
    out = []
    while len(sched):
        out.append(sched.pop())
    return out


class TestOrdering:
    ENTRIES = [
        # (time, priority, eid) tuples that tie on time, tie on
        # (time, priority), and arrive far out of order
        (25.0, 1, 0),
        (3.0, 1, 1),
        (3.0, 0, 2),
        (3.0, 1, 3),
        (0.0, 1, 4),
        (99.5, -1, 5),
        (10.0, 1, 6),
        (9.999, 1, 7),
        (10.0, 0, 8),
        (55.0, 1, 9),
        (0.0, 0, 10),
    ]

    def test_heap_pops_in_total_order(self):
        heap = HeapScheduler()
        items = [entry + (object(),) for entry in self.ENTRIES]
        for item in items:
            heap.push(item)
        assert _drain(heap) == sorted(items, key=lambda item: item[:3])

    def test_interleaved_push_pop(self, reference_scheduler):
        heap, ref = HeapScheduler(), reference_scheduler()
        for i, entry in enumerate(self.ENTRIES):
            item = entry + (None,)
            heap.push(item)
            ref.push(item)
            if i % 3 == 2:
                assert heap.pop() == ref.pop()
        assert _drain(heap) == _drain(ref)

    def test_peek_time(self):
        sched = HeapScheduler()
        assert sched.peek_time() == float("inf")
        sched.push((7.0, 1, 0, None))
        sched.push((2.0, 1, 1, None))
        assert sched.peek_time() == 2.0
        sched.pop()
        assert sched.peek_time() == 7.0

    def test_pop_empty_raises_index_error(self):
        with pytest.raises(IndexError):
            HeapScheduler().pop()


# ----------------------------------------------------------------------
# environment integration
# ----------------------------------------------------------------------
class TestEnvironmentSelection:
    def test_default_is_heap(self):
        assert Environment().scheduler.name == "heap"

    def test_by_name(self, reference_scheduler):
        env = Environment(scheduler=reference_scheduler.name)
        assert isinstance(env.scheduler, reference_scheduler)

    def test_by_instance(self, reference_scheduler):
        ref = reference_scheduler()
        assert Environment(scheduler=ref).scheduler is ref

    def test_equal_seed_trajectory_across_schedulers(self, reference_scheduler):
        def run(scheduler):
            env = Environment(scheduler=scheduler)
            log = []

            def tick(name, period):
                log.append((env.now, name))
                if env.now < 40:
                    env.call_later(period, tick, name, period)

            env.call_soon(env.call_later, 1.0, tick, "a", 1.0)
            env.call_soon(env.call_later, 2.5, tick, "b", 2.5)
            env.call_later(7.25, lambda: log.append((env.now, "timer")))
            env.run(until=45)
            return log

        assert run("heap") == run(reference_scheduler.name)


# ----------------------------------------------------------------------
# timers: pooling
# ----------------------------------------------------------------------
class TestTimers:
    def test_call_later_fires_with_args(self):
        env = Environment()
        seen = []
        env.call_later(4.0, seen.append, "x")
        env.run(until=10)
        assert seen == ["x"]

    def test_fired_timers_are_pooled_and_reused(self):
        env = Environment()
        first = env.call_later(1.0, lambda: None)
        env.run(until=2)
        assert env._timer_pool  # recycled after firing
        second = env.call_later(1.0, lambda: None)
        assert second is first  # same object, reinitialized
        env.run(until=4)

    def test_pool_is_bounded(self):
        env = Environment()
        for _ in range(_TIMER_POOL_MAX + 100):
            env.call_later(1.0, lambda: None)
        env.run(until=2)
        assert len(env._timer_pool) <= _TIMER_POOL_MAX


# ----------------------------------------------------------------------
# hooks facade
# ----------------------------------------------------------------------
class TestHooks:
    def test_hooks_present_and_empty(self):
        env = Environment()
        assert isinstance(env.hooks, SimHooks)
        assert env.hooks.tracer is None


# ----------------------------------------------------------------------
# memory layout
# ----------------------------------------------------------------------
class TestSlots:
    @pytest.mark.parametrize(
        "factory",
        [lambda env: env.call_later(1.0, lambda: None)],
        ids=["Timer"],
    )
    def test_hot_events_have_no_dict(self, factory):
        obj = factory(Environment())
        assert not hasattr(obj, "__dict__")
        with pytest.raises(AttributeError):
            obj.scratch = 1

    def test_message_has_no_dict(self):
        from repro.net.message import Message

        msg = Message(kind="packet", src="a", dst="b", body=None)
        assert not hasattr(msg, "__dict__")
