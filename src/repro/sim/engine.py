"""The simulation environment: clock, pluggable scheduler, and run loop."""

from __future__ import annotations

from itertools import count
from typing import Any, Generator, Optional, Union

from repro.sim.events import Event, NORMAL, Timeout, Timer
from repro.sim.process import Process
from repro.sim.sched import Scheduler, build_scheduler

#: Fired timers are recycled through a bounded free list; past this size
#: they are simply dropped for the garbage collector.
_TIMER_POOL_MAX = 512


class StopSimulation(Exception):
    """Raised internally to end :meth:`Environment.run` at an event."""

    @classmethod
    def callback(cls, event: Event) -> None:
        if event.ok:
            raise cls(event.value)
        event._defused = True
        raise event.value


class EmptySchedule(Exception):
    """Raised by :meth:`Environment.step` when no events remain."""


class SimHooks:
    """Instrumentation facade: the one opt-in slot the model checks.

    Every instrumented site reads ``env.hooks`` (always present) and
    guards on ``tracer`` being ``None``::

        tr = self.env.hooks.tracer
        if tr is not None:
            tr.emit("msg.send", src, dst=dst, kind=kind)

    so an uninstrumented run pays one attribute load plus one ``None``
    check per hook and builds no strings or kwargs.  ``tracer`` is a
    :class:`repro.obs.trace.TraceBus` when the owning session enables
    tracing.  It is a passive observer (no RNG draws, no scheduling), so
    traced trajectories are byte-identical to untraced ones.  The kernel
    itself checks no hook: host cost is measured from outside, by
    ``bench/run.py --trace 1``.
    """

    __slots__ = ("tracer",)

    def __init__(self) -> None:
        self.tracer = None


class Environment:
    """A discrete-event simulation environment.

    Time starts at ``initial_time`` and only advances through event
    processing; the unit is whatever the model chooses (this reproduction
    uses milliseconds throughout).

    ``scheduler`` selects the pending-event container: a
    :class:`~repro.sim.sched.Scheduler` instance, a name registered with
    :func:`~repro.sim.sched.register_scheduler`, or ``None`` for the
    binary heap.  Every scheduler pops in the same
    ``(time, priority, eid)`` total order, so the choice never changes a
    trajectory.
    """

    def __init__(
        self,
        initial_time: float = 0.0,
        scheduler: Union[None, str, Scheduler] = None,
    ) -> None:
        self._now = initial_time
        if scheduler is None:
            scheduler = "heap"
        if isinstance(scheduler, str):
            scheduler = build_scheduler(scheduler)
        self._sched: Scheduler = scheduler
        self._eid = count()
        #: instrumentation facade — always present; see :class:`SimHooks`
        self.hooks = SimHooks()
        self._timer_pool: list[Timer] = []

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def scheduler(self) -> Scheduler:
        """The scheduler holding this environment's pending events."""
        return self._sched

    def __len__(self) -> int:
        return len(self._sched)

    # ------------------------------------------------------------------
    # factories
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create a new pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` firing ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start a new :class:`Process` driving ``generator``."""
        return Process(self, generator)

    def call_later(self, delay: float, fn, *args) -> Timer:
        """Schedule ``fn(*args)`` to run ``delay`` time units from now.

        The cheap fire-and-forget path: one scheduled event, no generator
        machinery.  Returns the :class:`Timer`, which other processes may
        wait on like any event.  Fired timers nobody waited on are pooled
        and handed out again by later calls.
        """
        pool = self._timer_pool
        if pool:
            timer = pool.pop()
            timer._fn = fn
            timer._args = args
            timer.callbacks = [timer._fire]
            self._schedule(timer, NORMAL, delay)
            return timer
        return Timer(self, delay, fn, args)

    # ------------------------------------------------------------------
    # scheduling / execution
    # ------------------------------------------------------------------
    def _schedule(self, event: Event, priority: int, delay: float = 0.0) -> None:
        self._sched.push((self._now + delay, priority, next(self._eid), event))

    def step(self) -> None:
        """Process the next scheduled event.

        Raises :class:`EmptySchedule` when the queue is empty, and
        re-raises any *un-defused* event failure (a process crash nobody
        waited on) so model bugs surface instead of silently vanishing.
        """
        try:
            now, _, _, event = self._sched.pop()
        except IndexError:
            raise EmptySchedule() from None

        self._now = now
        callbacks, event.callbacks = event.callbacks, None
        assert callbacks is not None
        for callback in callbacks:
            callback(event)

        if not event._ok and not event._defused:
            exc = event._value
            raise exc
        if type(event) is Timer and len(callbacks) == 1:
            # nobody else held a wait on it — safe to reuse
            event._fn = None
            event._args = ()
            if len(self._timer_pool) < _TIMER_POOL_MAX:
                self._timer_pool.append(event)

    def run(self, until: Union[None, float, Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run to exhaustion), a number (run to that
        simulated time), or an :class:`Event` (run until it is processed and
        return its value).
        """
        at_event: Optional[Event] = None
        if until is None:
            pass
        elif isinstance(until, Event):
            at_event = until
            if at_event.callbacks is None:
                # Already processed.
                if at_event.ok:
                    return at_event.value
                raise at_event.value
            at_event.callbacks.append(StopSimulation.callback)
        else:
            horizon = float(until)
            if horizon < self._now:
                raise ValueError(
                    f"until={horizon} lies in the past (now={self._now})"
                )
            at_event = Event(self)
            at_event._ok = True
            at_event._value = None
            # Priority below NORMAL-scheduled events at the same time would
            # process them first; we want the horizon to win, so use a
            # priority that sorts ahead of everything at `horizon`.
            self._sched.push((horizon, -1, next(self._eid), at_event))
            at_event.callbacks.append(StopSimulation.callback)

        try:
            while True:
                self.step()
        except StopSimulation as stop:
            return stop.args[0] if stop.args else None
        except EmptySchedule:
            if at_event is not None and not at_event.triggered:
                if isinstance(until, Event):
                    raise RuntimeError(
                        "simulation ran out of events before "
                        f"{until!r} was triggered"
                    ) from None
            return None
