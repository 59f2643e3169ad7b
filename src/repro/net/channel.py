"""A logical point-to-point channel with latency, loss and a link fault."""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.net.latency import LatencyModel
from repro.net.linkfault import LinkFault
from repro.net.loss import LossModel
from repro.net.message import Message

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Node
    from repro.sim.engine import Environment


class Channel:
    """Unidirectional channel ``src → dst``.

    Serialization is negligible — the paper's "reliable high-speed
    communication like 10 Gbps Ethernet"; a finite uplink is a peer's
    :class:`~repro.net.capacity.UploadBudget`, not a channel's.  Delivery
    order is FIFO for equal sampled latencies; jittered latencies may
    reorder, as real UDP streams do.  A channel keeps no tallies: the
    overlay counts per kind and files every fault in its ledger.
    ``loss`` and ``fault`` are None on a reliable, fault-free link.
    """

    def __init__(
        self,
        env: "Environment",
        src: "Node",
        dst: "Node",
        latency: LatencyModel,
        loss: Optional[LossModel],
        rng: np.random.Generator,
        fault: Optional[LinkFault],
    ) -> None:
        self.env = env
        self.src = src
        self.dst = dst
        self.latency = latency
        self.loss = loss
        #: optional link fault (duplicate/reorder/stall) on top of ``loss``
        self.fault = fault
        self.rng = rng

    def send(self, message: Message) -> Tuple[float, ...]:
        """Fire-and-forget transmission (UDP-like, as in the paper): the
        extra delay of each delivered copy, ``()`` when it was lost."""
        if self.loss is not None and self.loss.drops(self.rng):
            return ()

        if self.fault is not None:
            extra_delays = self.fault.apply(self.rng, self.env.now)
        else:
            extra_delays = (0.0,)

        delay = self.latency.sample(self.rng)
        if delay < 0:  # pragma: no cover - models enforce this already
            raise ValueError("latency model produced a negative delay")

        for index, extra in enumerate(extra_delays):
            # one Timer per copy — the cheap fire-and-forget path (a
            # spawned generator would cost three scheduled events)
            self.env.call_later(delay + extra, self.dst.deliver, message, index > 0)
        return extra_delays

    def send_batch(self, message: Message) -> Tuple[int, int, int, Tuple[float, ...]]:
        """Transmit a whole media batch as one delivery event.

        ``message.body`` must be a :class:`~repro.media.batch.PacketBatch`
        whose ``offsets_ms`` give each packet's nominal send instant
        relative to *now*.  Per-packet fates are applied up front — loss
        (vectorized where the model allows), link faults (sequential, so
        stateful faults evolve exactly as if sent one by one) and latency
        (vectorized) — then a single timer fires at the last survivor's
        arrival carrying the delivered batch in modeled arrival order.
        Returns the ``delivered``, ``dropped`` and ``duplicated`` packet
        counts for the overlay's accounting, and the extra delay of every
        copy a link fault held back.
        """
        batch = message.body
        k = len(batch)
        now = self.env.now

        if self.loss is not None:
            lost = self.loss.drops_batch(self.rng, k)
            survivors = [i for i in range(k) if not lost[i]]
        else:
            survivors = range(k)
        dropped = k - len(survivors)

        if self.fault is not None:
            fates = self.fault.apply_batch(self.rng, now, len(survivors))
        else:
            fates = None
        delays = self.latency.sample_batch(self.rng, len(survivors))

        offsets = batch.offsets_ms
        packets = batch.packets
        duplicated = 0
        deliveries: list[tuple[float, bool, object]] = []
        for j, i in enumerate(survivors):
            extra_delays = (0.0,) if fates is None else fates[j]
            offset = offsets[i]
            delay = float(delays[j])
            duplicated += len(extra_delays) - 1
            for index, extra in enumerate(extra_delays):
                deliveries.append((offset + delay + extra, index > 0, packets[i]))

        held = () if fates is None else tuple(e for fate in fates for e in fate if e > 0)
        ship_batch(self.env, self.dst, message, deliveries)
        return (len(deliveries) - duplicated, dropped, duplicated, held)

    def __repr__(self) -> str:
        return f"<Channel {self.src.node_id}->{self.dst.node_id}>"


def ship_batch(
    env: "Environment", dst: "Node", message: Message, deliveries: list
) -> None:
    """Hand ``dst`` a media batch as one event at its last arrival.

    ``deliveries`` holds one ``(arrival offset, duplicate?, packet)`` per
    copy that survived; the batch arrives rebuilt from them in modeled
    arrival order.  Nothing is scheduled when none survived.
    """
    # the leaf reads each packet's batch wait off the send instant
    message.sent_at = env.now
    if deliveries:
        deliveries.sort(key=itemgetter(0))
        env.call_later(deliveries[-1][0], _deliver_batch, dst, message, deliveries)


def _deliver_batch(dst: "Node", message: Message, deliveries: list) -> None:
    from repro.media.batch import PacketBatch

    message.body = PacketBatch(
        tuple(pkt for _a, _d, pkt in deliveries),
        np.fromiter(
            (a for a, _d, _p in deliveries),
            dtype=np.float64,
            count=len(deliveries),
        ),
        dup=np.fromiter(
            (d for _a, d, _p in deliveries),
            dtype=bool,
            count=len(deliveries),
        ),
    )
    dst.deliver(message)
