"""Discrete-event simulation kernel.

The substrate for every timing experiment in this reproduction: a clock
and a heap of timers.  The paper's model is receipt-triggered handlers
plus δ timers (§3.3 acts *on receipt* of a control packet and paces each
sub-stream at its rate, §4 counts rounds), so the kernel keeps one kind
of event:

* :class:`Environment` — the clock and run loop.  ``call_later(d, fn,
  *args)`` runs ``fn(*args)`` ``d`` time units from now, after whatever
  is already due then; ``call_soon(fn, *args)`` runs it at the current
  instant, ahead of those.  A periodic loop is a callback that does one
  round and re-arms itself with ``call_later``; a wait that ends at the
  first of two things (an ack or its timeout) is one timer whose
  callback checks whether the other already happened.
* :class:`Timer` — one pending callback, one heap entry.
* :class:`Scheduler` — the pending-event container behind the clock.
* :class:`RandomStreams` — named, independently seeded random streams.

Nothing in this package knows about networks or streaming; it is
unit-tested in isolation.
"""

from repro.sim.engine import Environment, SimHooks, StopSimulation, Timer
from repro.sim.sched import (
    HeapScheduler,
    Scheduler,
    available_schedulers,
    build_scheduler,
    register_scheduler,
)
from repro.sim.rng import RandomStreams

__all__ = [
    "Environment",
    "HeapScheduler",
    "RandomStreams",
    "Scheduler",
    "SimHooks",
    "StopSimulation",
    "Timer",
    "available_schedulers",
    "build_scheduler",
    "register_scheduler",
]
