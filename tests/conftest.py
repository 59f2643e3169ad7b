"""Schedulers and protocols registered from outside the program.

The scheduler fixtures register a class with
:func:`repro.sim.sched.register_scheduler` for the duration of a test, the
way ``bench/`` does, and yield it; select it with
``SessionSpec(scheduler=cls.name)`` or ``Environment(scheduler=cls.name)``.
``register_protocol`` adds a protocol the registry does not ship (a
deliberately broken double) for one test.
"""

from bisect import insort

import pytest

from repro.sim.sched import SCHEDULERS, HeapScheduler, Scheduler, register_scheduler
from repro.streaming.spec import _REGISTRIES, ProtocolSpec


class SortedListScheduler(Scheduler):
    """Reference implementation of the contract: a sorted list."""

    name = "test-sorted-list"

    def __init__(self):
        self._entries = []

    def push(self, entry):
        insort(self._entries, entry)

    def pop(self):
        return self._entries.pop(0)

    def peek_time(self):
        return self._entries[0][0] if self._entries else float("inf")

    def __len__(self):
        return len(self._entries)


class CountingHeap(HeapScheduler):
    """The binary heap, counting pops and the deepest it ever got."""

    name = "test-counting-heap"

    def __init__(self):
        super().__init__()
        self.pops = 0
        self.peak = 0

    def push(self, entry):
        super().push(entry)
        self.peak = max(self.peak, len(self))

    def pop(self):
        self.pops += 1
        return super().pop()


def _registered(cls):
    register_scheduler(cls.name, cls)
    try:
        yield cls
    finally:
        del SCHEDULERS[cls.name]


@pytest.fixture
def reference_scheduler():
    yield from _registered(SortedListScheduler)


@pytest.fixture
def counting_heap():
    yield from _registered(CountingHeap)


@pytest.fixture
def register_protocol():
    """``register_protocol(name, cls)`` → the :class:`ProtocolSpec` naming
    ``cls``; the entry is gone after the test."""
    protocols = _REGISTRIES["protocol"]
    added = []

    def register(name, cls):
        protocols[name] = cls
        added.append(name)
        return ProtocolSpec(name)

    yield register
    for name in added:
        del protocols[name]
