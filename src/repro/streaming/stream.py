"""Transmission streams: phased packet plans with split-for-handoff.

A :class:`Stream` is what one contents peer is sending toward the leaf on
behalf of one assignment.  It is a queue of :class:`Phase` objects (packet
list + rate).  A *handoff* implements the paper's Mark/Esq/Div dance:

1. the parent will keep sending ``ceil(δ · rate)`` more packets from its
   current plan — everything up to the *marked* packet (§3.3's
   ``Mark(CP_j, pkt, t, δ, τ)``);
2. the remaining postfix is parity-enhanced and divided round-robin over
   ``1 + n_children`` parts;
3. the parent keeps part 0 (as a new phase at the reduced rate) and each
   child receives an :class:`~repro.core.base.Assignment` describing its
   part of the identical division.

Both sides divide one enhancement of one basis object
(:func:`repro.fec.shared_enhance`), so the handoff partitions the postfix
exactly: no packet is covered twice or dropped by the coordination itself
(losses come only from channels/faults).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import islice
from typing import Optional

from repro.core.base import (
    Assignment,
    HandoffPlan,
    divide_evenly,
    divide_weighted,
)
from repro.media.packet import Packet
from repro.media.sequence import PacketSequence


@dataclass
class Phase:
    """A run of packets transmitted at one rate."""

    packets: list[Packet]
    rate: float

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("phase rate must be positive")


class Stream:
    """One transmission plan on a contents peer."""

    def __init__(self, plan: PacketSequence, rate: float) -> None:
        if rate <= 0:
            raise ValueError("stream rate must be positive")
        self._phases: list[Phase] = [Phase(list(plan), rate)] if len(plan) else []
        self._pos = 0  # position within the first phase
        self.sent_count = 0
        #: the rate this stream is *supposed* to run at; ``scale_rate``
        #: (QoS degradation) changes the phases' actual rate but not this,
        #: so adaptation logic can detect the shortfall
        self.nominal_rate = rate

    @classmethod
    def from_assignment(cls, assignment: Assignment) -> "Stream":
        return cls(assignment.build_plan(), assignment.rate)

    # ------------------------------------------------------------------
    # transmit-side interface
    # ------------------------------------------------------------------
    def _normalize(self) -> None:
        """Drop fully consumed leading phases."""
        while self._phases and self._pos >= len(self._phases[0].packets):
            self._phases.pop(0)
            self._pos = 0

    @property
    def exhausted(self) -> bool:
        self._normalize()
        return not self._phases

    @property
    def current_rate(self) -> float:
        self._normalize()
        if not self._phases:
            raise RuntimeError("exhausted stream has no rate")
        return self._phases[0].rate

    def remaining(self) -> int:
        total = -self._pos
        for ph in self._phases:
            total += len(ph.packets)
        return total

    def future_packets(self) -> list[Packet]:
        """Packets not yet sent, across all phases."""
        if not self._phases:
            return []
        out = list(self._phases[0].packets[self._pos :])
        for ph in self._phases[1:]:
            out.extend(ph.packets)
        return out

    def future_data_seqs(self) -> set[int]:
        """Data sequence numbers among the packets not yet sent."""
        out: set[int] = set()
        start = self._pos
        for ph in self._phases:
            for pkt in islice(ph.packets, start, None):
                label = pkt.label
                if isinstance(label, int):  # a data packet
                    out.add(label)
            start = 0
        return out

    def pop_next(self) -> Optional[Packet]:
        """Take the next packet to transmit (None when exhausted)."""
        self._normalize()
        if not self._phases:
            return None
        pkt = self._phases[0].packets[self._pos]
        self._pos += 1
        self.sent_count += 1
        return pkt

    def pop_batch(self, limit: int) -> tuple:
        """Take up to ``limit`` packets from the *current* phase.

        The batched transmit loop's accessor: never crosses a phase
        boundary, so every packet of one batch shares one rate, and a
        handoff (which rewrites future phases) takes effect at the next
        batch exactly as it would at the next packet.
        """
        self._normalize()
        if not self._phases or limit <= 0:
            return ()
        packets = self._phases[0].packets
        end = min(self._pos + limit, len(packets))
        out = tuple(packets[self._pos:end])
        self.sent_count += len(out)
        self._pos = end
        return out

    # ------------------------------------------------------------------
    # handoff
    # ------------------------------------------------------------------
    def _mark(self, delta: float, keep_packets: Optional[int] = None):
        """§3.3's ``Mark``: the stream keeps sending ``ceil(δ · rate)`` more
        packets at its current rate and hands off what lies beyond.
        Returns ``(rate, head, tail)``, or ``None`` when no tail remains."""
        if self.exhausted:
            return None
        rate = self.current_rate
        keep = keep_packets if keep_packets is not None else math.ceil(delta * rate)
        keep = max(0, keep)
        future = self.future_packets()
        if len(future) <= keep:
            return None
        return rate, future[:keep], PacketSequence(future[keep:])

    def _rephase(self, head: list, rate: float, own, own_rate: float) -> None:
        """Become ``[head @ rate, own share of the division @ own_rate]``."""
        phases: list[Phase] = []
        if head:
            phases.append(Phase(head, rate))
        if len(own):
            phases.append(Phase(list(own), own_rate))
        self._phases = phases
        self._pos = 0
        self.nominal_rate = own_rate

    def handoff(
        self,
        n_children: int,
        fault_margin: int,
        delta: float,
        own_index: int = 0,
        keep_packets: Optional[int] = None,
    ) -> Optional[HandoffPlan]:
        """Split this stream with ``n_children`` new children.

        Returns ``None`` when there is nothing left to split (children get
        no assignment).  Otherwise mutates the stream to
        ``[kept-prefix @ old rate, own share @ new rate]`` and returns the
        children's assignments (the division indices other than
        ``own_index``, ascending).  ``own_index`` other than 0 is used by
        the broadcast baseline where every peer applies the same division
        locally and keeps its own rank's share.
        """
        if n_children < 1:
            raise ValueError("need at least one child to hand off to")
        if not 0 <= own_index <= n_children:
            raise ValueError("own_index outside the division")
        marked = self._mark(delta, keep_packets)
        if marked is None:
            return None
        rate, head, tail = marked
        plan = divide_evenly(tail, rate, n_children + 1, fault_margin)
        parts = plan.assignments
        # the children's assignments carry the same basis object, so their
        # build_plan() reads the enhancement computed here
        self._rephase(head, rate, parts[own_index].build_plan(), plan.child_rate)
        return replace(
            plan, assignments=parts[:own_index] + parts[own_index + 1:]
        )

    def handoff_weighted(
        self,
        weights: list[float],
        fault_margin: int,
        delta: float,
        own_rate: Optional[float] = None,
    ) -> Optional[list[PacketSequence]]:
        """Split the remainder proportionally to ``weights``.

        ``weights[0]`` is this stream's own share (typically its *actual*,
        possibly degraded, rate); ``weights[1:]`` are helpers'.  The tail
        is parity-enhanced as in :meth:`handoff`, then allocated with the
        §2 time-slot algorithm so each part's size is proportional to its
        weight and arrivals interleave in slot order.  Returns the
        helpers' explicit plans (``None`` when nothing remains); the
        caller assigns each helper its transmission rate (normally
        ``weights[i]`` scaled by the parity inflation).

        ``own_rate`` replaces this stream's rate for its kept share (the
        bandwidth-aware protocols slow the parent so the whole weighted
        division preserves the data timeline, like the paper's
        ``τ_j/(H_j+1)`` rule); ``None`` keeps the current rate.
        """
        if len(weights) < 2:
            raise ValueError("need own weight plus at least one helper")
        if any(w <= 0 for w in weights):
            raise ValueError("weights must be positive")
        marked = self._mark(delta)
        if marked is None:
            return None
        rate, head, tail = marked
        own, *helpers = divide_weighted(tail, rate, weights, fault_margin)
        self._rephase(
            head, rate, own.explicit, own_rate if own_rate is not None else rate
        )
        return [helper.explicit for helper in helpers]

    def scale_rate(self, factor: float) -> None:
        """Degrade/boost all remaining phases (QoS fault injection)."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        for ph in self._phases:
            ph.rate *= factor

    def __repr__(self) -> str:
        return (
            f"<Stream sent={self.sent_count} remaining={self.remaining()} "
            f"phases={len(self._phases)}>"
        )
