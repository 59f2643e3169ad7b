"""Composable per-link fault injection: duplicate, reorder, stall, spike.

The paper's channel model only loses messages (:mod:`repro.net.loss`).
Real overlay links also *duplicate* (retransmitting middleboxes, route
flaps) and *delay* (multi-path, queue jitter, stalls).  A
:class:`LinkFault` is a per-send transformation on top of the loss model:
given the channel's RNG stream and the current simulation time it returns
one **extra delay per delivered copy**, at least one copy —

* ``(0.0,)``       — one copy, undisturbed (the no-fault outcome),
* ``(0.0, 0.0)``   — the link duplicated the message,
* ``(3.7,)``       — one copy, held back 3.7 ms (reordering jitter).

A link fault never loses a message: loss is the loss model's.  Faults
compose with :class:`CompositeFault`, which threads every copy produced
by one stage through the next, summing delays — so a duplicated copy can
itself be jittered.  Cuts (partitions, asymmetric failures) are scripted
on a :class:`~repro.streaming.faults.FaultPlan` and live on the overlay
(:meth:`repro.net.overlay.Overlay.sever_link`).

All randomness comes from the channel's dedicated RNG stream, so equal
seeds replay byte-identically; a channel without a fault draws exactly
the same sequence as before this layer existed.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = [
    "CompositeFault",
    "DuplicateFault",
    "LatencySpikeFault",
    "LinkFault",
    "ReorderFault",
    "StutterFault",
]


class LinkFault(ABC):
    """One per-link failure process applied to every send."""

    @abstractmethod
    def apply(
        self, rng: np.random.Generator, now: float
    ) -> Tuple[float, ...]:
        """Extra delay per delivered copy: one copy or more, never none."""
        raise NotImplementedError

    def apply_batch(
        self, rng: np.random.Generator, now: float, k: int
    ) -> list:
        """Per-packet fates for ``k`` packets of one media batch.

        Sequential by construction so stateful and composite faults keep
        their exact per-message evolution; each element is the usual
        extra-delays tuple.
        """
        return [self.apply(rng, now) for _ in range(k)]


@dataclass
class DuplicateFault(LinkFault):
    """With probability ``p`` the link delivers ``copies`` copies."""

    p: float
    copies: int = 2

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("duplication probability must be in [0, 1]")
        if self.copies < 2:
            raise ValueError("copies must be >= 2 (1 would be a no-op)")

    def apply(self, rng, now):
        if float(rng.random()) < self.p:
            return (0.0,) * self.copies
        return (0.0,)


@dataclass
class ReorderFault(LinkFault):
    """With probability ``p`` a copy is held back up to ``max_delay`` ms.

    Held-back messages overtake nothing themselves but are overtaken by
    later sends, which is exactly how queue-jitter reordering looks to
    the receiver.  ``max_delay`` bounds the jitter window (the issue's
    "reorder within a 2δ window" uses ``max_delay = 2·δ``).
    """

    p: float
    max_delay: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("reorder probability must be in [0, 1]")
        if self.max_delay <= 0:
            raise ValueError("max_delay must be positive")

    def apply(self, rng, now):
        draw = float(rng.random())
        if draw < self.p:
            return (float(rng.random()) * self.max_delay,)
        return (0.0,)


@dataclass
class StutterFault(LinkFault):
    """Periodic windowed stall: the link freezes for the first ``stall``
    ms of every ``period``-ms cycle and flushes at the window's end.

    A send landing inside a stall window is held back until the window
    closes (delay = time left in the window), so traffic arrives in
    bursts at every window boundary — the gray "stuttering link" that
    keeps a peer alive while wrecking its delivered throughput.
    Deterministic (no RNG draws), so composing it with probabilistic
    faults perturbs no other random sequence.
    """

    period: float
    stall: float
    start: float = 0.0

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError("period must be positive")
        if not 0 < self.stall < self.period:
            raise ValueError("stall must be in (0, period)")
        if self.start < 0:
            raise ValueError("start must be >= 0")

    def apply(self, rng, now):
        if now < self.start:
            return (0.0,)
        phase = (now - self.start) % self.period
        if phase < self.stall:
            return (self.stall - phase,)
        return (0.0,)


@dataclass
class LatencySpikeFault(LinkFault):
    """With probability ``p`` a copy is held back a full ``magnitude`` ms.

    Unlike :class:`ReorderFault`'s bounded uniform jitter, a spike is a
    fixed, typically large (multi-δ) inflation — the route-flap /
    bufferbloat excursion that drags a destination's RTT estimate up
    while everything still (eventually) arrives.
    """

    p: float
    magnitude: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("spike probability must be in [0, 1]")
        if self.magnitude <= 0:
            raise ValueError("magnitude must be positive")

    def apply(self, rng, now):
        if float(rng.random()) < self.p:
            return (self.magnitude,)
        return (0.0,)


@dataclass
class CompositeFault(LinkFault):
    """Apply ``stages`` in order, threading every copy through each stage.

    Stage delays add per copy.
    """

    stages: Tuple[LinkFault, ...]

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValueError("composite fault needs at least one stage")
        self.stages = tuple(self.stages)

    def apply(self, rng, now):
        copies: Tuple[float, ...] = (0.0,)
        for stage in self.stages:
            produced = []
            for base in copies:
                for extra in stage.apply(rng, now):
                    produced.append(base + extra)
            copies = tuple(produced)
        return copies
