"""The simulation environment: clock, pluggable scheduler, and run loop."""

from __future__ import annotations

from itertools import count
from typing import Optional, Union

from repro.sim.sched import Scheduler, build_scheduler

#: Priority of :meth:`Environment.call_soon`: processed before ordinary
#: timers due at the same simulated time.
URGENT = 0
#: Priority of :meth:`Environment.call_later`.
NORMAL = 1


class StopSimulation(Exception):
    """Raised by the horizon timer to end :meth:`Environment.run`."""


class EmptySchedule(Exception):
    """Raised by :meth:`Environment.step` when no events remain."""


def _stop() -> None:
    raise StopSimulation()


class Timer:
    """A callback ``fn(*args)`` due at a simulated time: the kernel's one
    kind of event, one heap entry.

    Made by :meth:`Environment.call_later` and
    :meth:`Environment.call_soon`; whoever keeps one may :meth:`cancel` it.
    """

    __slots__ = ("fn", "args")

    def cancel(self) -> None:
        """Never fire: :meth:`Environment.step` drops the entry when it
        pops it, without moving the clock (lazy deletion).  A no-op on a
        timer that already fired or was cancelled."""
        self.args = None

    @property
    def callbacks(self):
        """The callback, kept through a cancel: an instrumented scheduler
        counts an entry with none as dead, and a cancelled one already
        counts once, as a pop that :meth:`Environment.step` skipped."""
        return self.fn


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

    def __len__(self) -> int:  # cancelled entries count until popped
        return len(self._sched)

    # ------------------------------------------------------------------
    # scheduling / execution
    # ------------------------------------------------------------------
    def call_later(self, delay: float, fn, *args) -> Timer:
        """Schedule ``fn(*args)`` to run ``delay`` time units from now.

        The timer sorts after everything already due at that instant,
        so ``call_later(0, …)`` runs once the current instant's queue
        has drained.
        """
        timer = Timer()
        timer.fn = fn
        timer.args = args
        self._sched.push((self._now + delay, NORMAL, next(self._eid), timer))
        return timer

    def call_soon(self, fn, *args) -> Timer:
        """Schedule ``fn(*args)`` at the current instant, ahead of every
        :meth:`call_later` timer due now (but after earlier
        ``call_soon`` ones): how a loop takes its first step."""
        timer = Timer()
        timer.fn = fn
        timer.args = args
        self._sched.push((self._now, URGENT, next(self._eid), timer))
        return timer

    def step(self) -> None:
        """Fire the next timer not cancelled (the cancelled ones before it
        are dropped and never move the clock); raise :class:`EmptySchedule`
        when none remain.  An exception out of the callback propagates."""
        try:
            when, _, _, timer = self._sched.pop()
            args = timer.args
            while args is None:
                when, _, _, timer = self._sched.pop()
                args = timer.args
        except IndexError:
            raise EmptySchedule() from None
        self._now = when
        timer.fn(*args)

    def run(self, until: Optional[float] = None) -> None:
        """Run until no timer remains, or up to the simulated time
        ``until``: a horizon timer that sorts ahead of everything due at
        that instant, so those stay pending."""
        if until is not None:
            horizon = float(until)
            if horizon < self._now:
                raise ValueError(
                    f"until={horizon} lies in the past (now={self._now})"
                )
            timer = Timer()
            timer.fn = _stop
            timer.args = ()
            self._sched.push((horizon, -1, next(self._eid), timer))
        try:
            while True:
                self.step()
        except (StopSimulation, EmptySchedule):
            pass
