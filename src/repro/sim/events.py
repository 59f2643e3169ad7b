"""Event primitives for the simulation kernel.

An :class:`Event` is a one-shot waitable: it starts *pending*, is *triggered*
exactly once (either successfully with a value or failed with an exception),
gets scheduled on the environment's heap, and is finally *processed* when the
environment pops it and runs its callbacks.  Processes (see
:mod:`repro.sim.process`) register themselves as callbacks on the events they
yield.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.engine import Environment

#: Sentinel for "event has not been triggered yet".
PENDING = object()

#: Scheduling priority for urgent events (processed before normal ones at
#: the same simulated time).  Used by process start-up, so a new process
#: runs to its first ``yield`` before ordinary events of the same instant.
URGENT = 0
#: Default scheduling priority.
NORMAL = 1


class Event:
    """A one-shot occurrence that processes can wait on.

    Parameters
    ----------
    env:
        The environment that will schedule and process this event.
    """

    # Events are the hottest allocation in any run; __slots__ removes the
    # per-instance dict, and every subclass declares its own.
    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        #: Set to True when a failure has been handled (a process waited
        #: on it); unhandled failures crash the simulation
        #: at processing time so programming errors are never silently lost.
        self._defused: bool = False

    # ------------------------------------------------------------------
    # state inspection
    # ------------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed` or :meth:`fail` has been called."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once the environment has run this event's callbacks."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        if not self.triggered:
            raise RuntimeError(f"{self!r} has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event succeeded with (or the failure exception)."""
        if self._value is PENDING:
            raise RuntimeError(f"{self!r} has not been triggered yet")
        return self._value

    # ------------------------------------------------------------------
    # triggering
    # ------------------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self, NORMAL)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with a failure carrying ``exception``."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env._schedule(self, NORMAL)
        return self

    def __repr__(self) -> str:
        state = (
            "pending"
            if not self.triggered
            else ("processed" if self.processed else "triggered")
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers ``delay`` units of simulated time from now."""

    __slots__ = ("_delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(env)
        self._delay = delay
        self._ok = True
        self._value = value
        env._schedule(self, NORMAL, delay)

    def __repr__(self) -> str:
        return f"<Timeout delay={self._delay} at {id(self):#x}>"


class Timer(Event):
    """A pre-triggered delayed callback: one heap entry, no generator.

    ``Timer`` is the cheap path for fire-and-forget work (channel
    deliveries, most of the media plane): where spawning a process to
    ``yield timeout(d)`` costs three scheduled events (the initializer,
    the timeout, and the process-end event that is dispatched with no
    callbacks — the kernel's "cancelled event" waste), a ``Timer`` costs
    exactly one.  Create via :meth:`Environment.call_later`; the
    environment recycles fired timers through an object pool.
    """

    __slots__ = ("_fn", "_args")

    def __init__(self, env: "Environment", delay: float, fn, args) -> None:
        # Hot path: bypass Event.__init__ and set the slots directly.
        self.env = env
        self.callbacks = [self._fire]
        self._value = None  # pre-triggered (ok, value None)
        self._ok = True
        self._defused = False
        self._fn = fn
        self._args = args
        env._schedule(self, NORMAL, delay)

    def _fire(self, _event: "Event") -> None:
        self._fn(*self._args)

