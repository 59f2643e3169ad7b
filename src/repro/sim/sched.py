"""Pluggable event schedulers for the simulation kernel.

The :class:`~repro.sim.engine.Environment` keeps its pending timers in a
:class:`Scheduler`.  Entries are ``(time, priority, eid, timer)`` tuples —
the same total order the kernel has always used — and any scheduler
implementation must pop them in exactly that order, so the simulated
trajectory (and therefore every trace, receipt, and audit verdict) is
byte-identical across scheduler choices at equal seed.  That invariant is
pinned by ``tests/streaming/test_scheduler_equivalence.py``.

One implementation ships: :class:`HeapScheduler`, a single binary heap
(``heapq``) with O(log n) push/pop over the whole event set.  The
interface is the extension point: an instrumented or experimental
scheduler subclasses :class:`Scheduler`, registers under a name with
:func:`register_scheduler` (the same name→factory registry pattern as
latency/loss/detector models, see
:func:`repro.streaming.spec.available_factories`), and is selected with
``SessionSpec(scheduler=name)`` or ``Environment(scheduler=name)``.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Tuple

#: A scheduled entry: (time, priority, eid, timer).
Entry = Tuple[float, int, int, object]

_INF = float("inf")


class Scheduler:
    """Ordered container of pending simulation events.

    Subclasses must pop entries in ascending ``(time, priority, eid)``
    order — the kernel's total order — and may assume times pushed after
    a pop are never earlier than the popped time (the simulation clock
    only moves forward).
    """

    #: registry name (informational; set by the built-ins)
    name: str = "abstract"

    def push(self, entry: Entry) -> None:
        raise NotImplementedError

    def pop(self) -> Entry:
        """Remove and return the least entry; raise IndexError if empty."""
        raise NotImplementedError

    def peek_time(self) -> float:
        """Time of the least entry, or ``inf`` when empty."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} len={len(self)}>"


class HeapScheduler(Scheduler):
    """The classic single binary heap over all pending events."""

    name = "heap"

    __slots__ = ("_queue",)

    def __init__(self) -> None:
        self._queue: List[Entry] = []

    def push(self, entry: Entry) -> None:
        heappush(self._queue, entry)

    def pop(self) -> Entry:
        return heappop(self._queue)

    def peek_time(self) -> float:
        return self._queue[0][0] if self._queue else _INF

    def __len__(self) -> int:
        return len(self._queue)


# ----------------------------------------------------------------------
# name → factory registry (the spec layer aliases this dict so
# ``available_factories("scheduler")`` sees the same entries)
# ----------------------------------------------------------------------
SCHEDULERS: Dict[str, Callable[..., Scheduler]] = {}


def register_scheduler(name: str, factory: Optional[Callable] = None):
    """Register a scheduler factory under ``name`` (usable as decorator)."""

    def install(fn: Callable[..., Scheduler]):
        if name in SCHEDULERS:
            raise ValueError(f"scheduler {name!r} is already registered")
        SCHEDULERS[name] = fn
        return fn

    return install if factory is None else install(factory)


def available_schedulers() -> List[str]:
    """Sorted names of every registered scheduler."""
    return sorted(SCHEDULERS)


def build_scheduler(name: str) -> Scheduler:
    """Instantiate the scheduler registered under ``name``."""
    try:
        factory = SCHEDULERS[name]
    except KeyError:
        raise KeyError(
            f"unknown scheduler {name!r}; "
            f"available: {', '.join(available_schedulers())}"
        ) from None
    return factory()


register_scheduler("heap", HeapScheduler)
