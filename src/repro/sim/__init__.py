"""Discrete-event simulation kernel.

The substrate for every timing experiment in this reproduction: a clock,
a heap of scheduled events, and generator processes that ``yield`` the
events they wait on.  The :class:`Environment` advances simulated time by
popping the least entry and running its callbacks.

The paper's model is receipt-triggered handlers plus δ timers (§3.3 acts
*on receipt* of a control packet, §4 counts rounds), so the surface is
exactly what that needs:

* :class:`Environment` — the event loop / clock.
* :class:`Event`, :class:`Timeout`, :class:`Process` — waitables.
* :class:`Timer` (``env.call_later``) — a delayed callback, one heap entry;
  a wait that ends at the first of two things (an ack or its timeout) is
  one timer whose callback checks whether the other already happened.
* :class:`Scheduler` — the pending-event container behind the clock.

Nothing in this package knows about networks or streaming; it is
unit-tested in isolation.
"""

from repro.sim.engine import Environment, SimHooks, StopSimulation
from repro.sim.events import Event, Timeout, Timer
from repro.sim.process import Process
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
    "Event",
    "HeapScheduler",
    "Process",
    "RandomStreams",
    "Scheduler",
    "SimHooks",
    "StopSimulation",
    "Timeout",
    "Timer",
    "available_schedulers",
    "build_scheduler",
    "register_scheduler",
]
