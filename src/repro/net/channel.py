"""A logical point-to-point channel with bandwidth, latency and loss."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.net.latency import ConstantLatency, LatencyModel
from repro.net.linkfault import LinkFault
from repro.net.loss import LossModel, NoLoss
from repro.net.message import Message

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Node
    from repro.sim.engine import Environment


@dataclass
class ChannelStats:
    """Per-channel delivery accounting."""

    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    bytes_sent: int = 0
    latencies_sum: float = 0.0
    #: extra copies produced by a duplicating link fault
    duplicated: int = 0

    @property
    def loss_ratio(self) -> float:
        return self.dropped / self.sent if self.sent else 0.0

    @property
    def mean_latency(self) -> float:
        return self.latencies_sum / self.delivered if self.delivered else 0.0


class Channel:
    """Unidirectional channel ``src → dst``.

    ``bandwidth_bytes_per_ms`` of ``None`` (default) means serialization is
    negligible — the paper's "reliable high-speed communication like 10 Gbps
    Ethernet".  Delivery order is FIFO for equal sampled latencies; jittered
    latencies may reorder, as real UDP streams do.
    """

    def __init__(
        self,
        env: "Environment",
        src: "Node",
        dst: "Node",
        latency: Optional[LatencyModel] = None,
        loss: Optional[LossModel] = None,
        bandwidth_bytes_per_ms: Optional[float] = None,
        rng: Optional[np.random.Generator] = None,
        fault: Optional[LinkFault] = None,
    ) -> None:
        if bandwidth_bytes_per_ms is not None and bandwidth_bytes_per_ms <= 0:
            raise ValueError("bandwidth must be positive when given")
        self.env = env
        self.src = src
        self.dst = dst
        self.latency = latency if latency is not None else ConstantLatency(1.0)
        self.loss = loss if loss is not None else NoLoss()
        #: optional link fault (duplicate/reorder/sever) on top of ``loss``
        self.fault = fault
        self.bandwidth = bandwidth_bytes_per_ms
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.stats = ChannelStats()
        #: next time the link is free to begin serializing (bandwidth mode)
        self._link_free_at = 0.0

    def send(self, message: Message) -> Tuple[float, ...]:
        """Fire-and-forget transmission (UDP-like, as in the paper): the
        extra delay of each delivered copy, ``()`` when it was lost."""
        now = self.env.now
        message.sent_at = now
        self.stats.sent += 1
        self.stats.bytes_sent += message.size_bytes

        if self.loss.drops(self.rng):
            self.stats.dropped += 1
            return ()

        if self.fault is not None:
            extra_delays = self.fault.apply(self.rng, now)
            if not extra_delays:
                self.stats.dropped += 1
                return ()
        else:
            extra_delays = (0.0,)

        delay = self.latency.sample(self.rng)
        if delay < 0:  # pragma: no cover - models enforce this already
            raise ValueError("latency model produced a negative delay")

        if self.bandwidth is not None:
            start = max(now, self._link_free_at)
            serialization = message.size_bytes / self.bandwidth
            self._link_free_at = start + serialization
            delay += (start - now) + serialization

        self.stats.duplicated += len(extra_delays) - 1

        for index, extra in enumerate(extra_delays):
            # one Timer per copy — the cheap fire-and-forget path (a
            # spawned generator would cost three scheduled events)
            self.env.call_later(delay + extra, self._deliver, message, index > 0)
        return extra_delays

    def _deliver(self, message: Message, duplicate: bool) -> None:
        message.delivered_at = self.env.now
        self.stats.delivered += 1
        self.stats.latencies_sum += message.delivered_at - message.sent_at
        self.dst.deliver(message, duplicate=duplicate)

    def send_batch(self, message: Message) -> Tuple[int, int, int, Tuple[float, ...]]:
        """Transmit a whole media batch as one delivery event.

        ``message.body`` must be a :class:`~repro.media.batch.PacketBatch`
        whose ``offsets_ms`` give each packet's nominal send instant
        relative to *now*.  Per-packet fates are applied up front — loss
        (vectorized where the model allows), link faults (sequential, so
        stateful faults evolve exactly as if sent one by one), latency
        (vectorized), and bandwidth serialization — then a single timer
        fires at the last survivor's arrival carrying the delivered batch
        in modeled arrival order.  Returns the ``delivered``, ``dropped``
        and ``duplicated`` packet counts for the overlay's accounting, and
        the extra delay of every copy a link fault held back.
        """
        batch = message.body
        k = len(batch)
        now = self.env.now
        message.sent_at = now
        self.stats.sent += k
        self.stats.bytes_sent += message.size_bytes

        lost = self.loss.drops_batch(self.rng, k)
        survivors = [i for i in range(k) if not lost[i]]
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
            if not extra_delays:
                dropped += 1
                continue
            offset = offsets[i]
            delay = float(delays[j])
            if self.bandwidth is not None:
                # serialize at the packet's nominal send instant
                nominal = now + offset
                start = max(nominal, self._link_free_at)
                serialization = (
                    message.size_bytes / k
                ) / self.bandwidth
                self._link_free_at = start + serialization
                delay += (start - nominal) + serialization
            duplicated += len(extra_delays) - 1
            for index, extra in enumerate(extra_delays):
                deliveries.append(
                    (offset + delay + extra, index > 0, packets[i], offset)
                )

        self.stats.dropped += dropped
        self.stats.duplicated += duplicated
        held = () if fates is None else tuple(e for fate in fates for e in fate if e > 0)
        if not deliveries:
            return (0, dropped, duplicated, held)

        deliveries.sort(key=lambda d: d[0])
        arrival = deliveries[-1][0]
        self.env.call_later(arrival, self._deliver_batch, message, deliveries)
        return (len(deliveries) - duplicated, dropped, duplicated, held)

    def _deliver_batch(self, message: Message, deliveries: list) -> None:
        from repro.media.batch import PacketBatch

        message.delivered_at = self.env.now
        self.stats.delivered += len(deliveries)
        # modeled per-copy one-way transit (nominal send offset -> arrival)
        self.stats.latencies_sum += sum(
            arrival - offset for arrival, _dup, _pkt, offset in deliveries
        )
        message.body = PacketBatch(
            tuple(pkt for _a, _d, pkt, _o in deliveries),
            np.fromiter(
                (a for a, _d, _p, _o in deliveries),
                dtype=np.float64,
                count=len(deliveries),
            ),
            dup=np.fromiter(
                (d for _a, d, _p, _o in deliveries),
                dtype=bool,
                count=len(deliveries),
            ),
        )
        self.dst.deliver(message)

    def __repr__(self) -> str:
        return f"<Channel {self.src.node_id}->{self.dst.node_id}>"
