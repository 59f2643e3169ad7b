"""Tests for the pluggable scheduler layer: registry, ordering, timer
cancellation, and the hooks facade."""

import pytest

from repro.sim import (
    Environment,
    HeapScheduler,
    SimHooks,
    available_schedulers,
    build_scheduler,
    register_scheduler,
)
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
# timers: cancellation
# ----------------------------------------------------------------------
class TestTimers:
    def test_call_later_fires_with_args(self):
        env = Environment()
        seen = []
        env.call_later(4.0, seen.append, "x")
        env.run(until=10)
        assert seen == ["x"]

    def test_a_cancelled_timer_never_fires(self):
        env = Environment()
        seen = []
        env.call_later(1.0, seen.append, "kept")
        env.call_later(2.0, seen.append, "cancelled").cancel()
        soon = env.call_soon(seen.append, "cancelled soon")
        soon.cancel()
        env.run()
        assert seen == ["kept"]
        assert len(env) == 0  # dropped as it was popped

    def test_run_ends_at_the_last_live_timer(self):
        env = Environment()
        env.call_later(3.0, lambda: None)
        late = env.call_later(50.0, lambda: None)
        env.call_later(1.0, late.cancel)
        env.run()
        assert env.now == 3.0

    def test_a_dropped_entry_never_moves_the_clock_to_a_horizon(self):
        env = Environment()
        env.call_later(5.0, lambda: None).cancel()
        env.run(until=10)
        assert env.now == 10

    def test_cancelling_one_of_equal_entries_keeps_the_others_order(self):
        env = Environment()
        order = []
        timers = [env.call_later(2.0, order.append, tag) for tag in "abcde"]
        timers[2].cancel()
        env.call_soon(order.append, "first")
        env.run()
        assert order == ["first", "a", "b", "d", "e"]

    def test_a_callback_can_cancel_a_timer_due_at_its_own_instant(self):
        env = Environment()
        order = []

        def canceller():
            order.append("canceller")
            victim.cancel()

        env.call_later(1.0, canceller)
        victim = env.call_later(1.0, order.append, "victim")
        env.call_later(1.0, order.append, "after")
        env.run()
        assert order == ["canceller", "after"]

    def test_cancelling_after_the_timer_fired_does_nothing(self):
        env = Environment()
        seen = []
        timer = env.call_later(1.0, seen.append, "fired")
        env.run()
        timer.cancel()
        timer.cancel()  # and twice is the same as once
        env.call_later(1.0, seen.append, "next")
        env.run()
        assert seen == ["fired", "next"]
        assert env.now == 2.0

    def test_a_cancelled_timer_keeps_its_callback(self):
        # an instrumented scheduler counts an entry whose timer has no
        # callback as dead; the pops that step() skips count a cancelled
        # one already, so it must not be counted again
        env = Environment()
        timer = env.call_later(1.0, len, ())
        timer.cancel()
        assert timer.callbacks is len


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
