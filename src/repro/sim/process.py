"""Generator-driven simulation processes.

A :class:`Process` wraps a generator: every value the generator yields must
be an :class:`~repro.sim.events.Event`; the process suspends until that event
is processed, then resumes with the event's value (or has the failure
exception thrown into it).  When the generator returns, the process — itself
an event — succeeds with the return value, so processes can wait on each
other.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.sim.events import Event, NORMAL, URGENT

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment


class _Initialize(Event):
    """Immediate event that starts a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        self._ok = True
        self._value = None
        self.callbacks = [process._resume]
        env._schedule(self, URGENT)


class Process(Event):
    """A running simulation activity driven by a generator."""

    __slots__ = ("_generator",)

    def __init__(self, env: "Environment", generator: Generator) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        _Initialize(env, self)

    @property
    def name(self) -> str:
        return self._generator.__name__  # type: ignore[attr-defined]

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        env = self.env
        while True:
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    event._defused = True
                    exc = event._value
                    next_event = self._generator.throw(type(exc), exc, exc.__traceback__)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                env._schedule(self, NORMAL)
                break
            except BaseException as error:
                self._ok = False
                self._value = error
                self._defused = False
                env._schedule(self, NORMAL)
                break

            if not isinstance(next_event, Event):
                exc = RuntimeError(
                    f"process {self.name!r} yielded non-event {next_event!r}"
                )
                event = Event(env)
                event._ok = False
                event._value = exc
                event._defused = True
                continue

            if next_event.callbacks is not None:
                # Event still pending or triggered-but-unprocessed: suspend.
                next_event.callbacks.append(self._resume)
                break

            # Event already processed: feed its outcome straight back in.
            event = next_event

    def __repr__(self) -> str:
        state = "finished" if self.triggered else "alive"
        return f"<Process {self.name!r} {state} at {id(self):#x}>"
