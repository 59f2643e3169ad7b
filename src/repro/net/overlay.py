"""The overlay: nodes, lazily created channels, traffic statistics, and
the reliable control plane (ack + retransmit with backoff)."""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from repro.net.channel import Channel
from repro.net.latency import ConstantLatency, LatencyModel
from repro.net.linkfault import LinkFault
from repro.net.loss import LossModel, NoLoss
from repro.net.message import Message
from repro.net.node import Node
from repro.sim.events import AnyOf
from repro.sim.rng import RandomStreams

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment


@dataclass
class TrafficStats:
    """Global overlay traffic, broken down by message kind."""

    sent_by_kind: Counter = field(default_factory=Counter)
    delivered_by_kind: Counter = field(default_factory=Counter)
    dropped_by_kind: Counter = field(default_factory=Counter)
    #: retransmitted copies issued by the reliable control plane (each is
    #: also counted in ``sent_by_kind`` — the wire carried it)
    retransmissions_by_kind: Counter = field(default_factory=Counter)
    #: reliable sends abandoned after the retry budget ran out
    give_ups_by_kind: Counter = field(default_factory=Counter)
    #: duplicate reliable deliveries suppressed at the receiver
    duplicates_suppressed_by_kind: Counter = field(default_factory=Counter)
    #: extra copies produced by duplicating link faults (each copy also
    #: arrives at the destination and must be deduplicated there)
    duplicated_by_kind: Counter = field(default_factory=Counter)
    #: link-fault duplicates suppressed by the agents' uid dedup windows
    link_dupes_suppressed_by_kind: Counter = field(default_factory=Counter)
    #: (kind, time) log of sends for round analysis; cheap append-only list
    send_log: list = field(default_factory=list)

    def sent(self, kind: str) -> int:
        return self.sent_by_kind[kind]

    def total_sent(self) -> int:
        return sum(self.sent_by_kind.values())

    def control_packets(self, kinds: Tuple[str, ...] = ("request", "control", "confirm", "reject", "start")) -> int:
        """Sends of the ``kinds`` given — by default the five assignment
        kinds (``request``, ``control``, ``confirm``, ``reject``,
        ``start``), *not* every non-media kind: TCoP's peer ``offer``s,
        acks, heartbeats and the like are left out.  Every non-media
        send is ``SessionResult.control_packets_total``."""
        return sum(self.sent_by_kind[k] for k in kinds)


@dataclass(frozen=True)
class RetransmitPolicy:
    """Retry budget + exponential backoff for reliable control sends.

    A reliable send waits ``ack_timeout_deltas`` δ for an ack, then
    retransmits (same ``msg_id``) up to ``max_retries`` times; each wait
    is ``backoff`` times the previous one, spread by a *full* uniform
    jitter over ``[1 - jitter/2, 1 + jitter/2]`` drawn from the session's
    deterministic RNG streams so identical seeds replay identically (and
    equal-policy senders de-align instead of synchronizing retry storms).

    With ``adaptive=True`` the base timeout toward each destination is
    the Jacobson RTO (``SRTT + 4·RTTVAR``) from that destination's
    observed ack round-trips, clamped to
    ``[min_timeout_deltas, max_timeout_deltas]`` δ; ``ack_timeout_deltas``
    remains the cold-start value until the first RTT sample.
    """

    max_retries: int = 4
    ack_timeout_deltas: float = 2.5
    backoff: float = 2.0
    jitter: float = 0.25
    #: derive per-destination ack timeouts from measured RTTs
    adaptive: bool = False
    #: clamp for the adaptive RTO, in δ units
    min_timeout_deltas: float = 1.0
    max_timeout_deltas: float = 10.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.ack_timeout_deltas <= 0:
            raise ValueError("ack_timeout_deltas must be positive")
        if self.backoff < 1:
            raise ValueError("backoff must be >= 1")
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")
        if self.min_timeout_deltas <= 0:
            raise ValueError("min_timeout_deltas must be positive")
        if self.max_timeout_deltas < self.min_timeout_deltas:
            raise ValueError(
                "max_timeout_deltas must be >= min_timeout_deltas"
            )


@dataclass
class RttEstimator:
    """Jacobson/Karn smoothed RTT for one destination.

    ``observe()`` folds an ack round-trip into ``SRTT``/``RTTVAR`` with
    the classic gains (α=1/8, β=1/4); callers apply Karn's rule — a
    sample whose message was retransmitted is never fed in, since the
    ack cannot be attributed to a specific transmission.
    """

    alpha: float = 0.125
    beta: float = 0.25
    srtt: Optional[float] = None
    rttvar: float = 0.0
    samples: int = 0

    def observe(self, rtt: float) -> None:
        if rtt < 0:
            raise ValueError("rtt must be non-negative")
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2.0
        else:
            self.rttvar = (
                (1.0 - self.beta) * self.rttvar
                + self.beta * abs(self.srtt - rtt)
            )
            self.srtt = (1.0 - self.alpha) * self.srtt + self.alpha * rtt
        self.samples += 1

    def rto(self) -> Optional[float]:
        """``SRTT + 4·RTTVAR``, or None before the first sample."""
        if self.srtt is None:
            return None
        return self.srtt + 4.0 * self.rttvar


class ControlPlane:
    """Ack/retransmit wrapper over :meth:`Overlay.send` for control traffic.

    Any message kind can be sent reliably: the receiver acks the carried
    ``msg_id`` (and suppresses duplicates), the sender retransmits on ack
    timeout with exponential backoff + jitter, and gives up after the retry
    budget — reporting the destination through ``on_give_up`` so failure
    detection can treat an unreachable peer as crashed.  Media packets stay
    fire-and-forget; only coordination uses this path.
    """

    ACK_SIZE = 32

    def __init__(
        self,
        overlay: "Overlay",
        policy: RetransmitPolicy,
        delta: float,
    ) -> None:
        if delta <= 0:
            raise ValueError("delta must be positive")
        self.overlay = overlay
        self.policy = policy
        self.delta = delta
        self.env = overlay.env
        self._ids = itertools.count(1)
        #: msg_id -> ack event of in-flight reliable sends
        self._pending: Dict[int, object] = {}
        #: msg_id -> [dst, send time, retransmitted?] for RTT sampling
        self._meta: Dict[int, list] = {}
        #: per-destination smoothed RTT (always maintained; only *used*
        #: for timeouts when the policy is adaptive)
        self.rtt: Dict[str, RttEstimator] = {}
        #: msg_ids already delivered to a handler (duplicate suppression)
        self._seen: set[int] = set()
        self._rng = overlay.streams.get("retx/jitter")
        #: callback(src, dst, kind, body) fired when a send is abandoned
        self.on_give_up: Optional[Callable[[str, str, str, object], None]] = None
        #: coordination-context tag stamped on every send (and ack) this
        #: plane issues; swarm sessions set it to their leaf id so the
        #: shared contents-peer hubs can route replies (None otherwise)
        self.ctx: Optional[str] = None

    # ------------------------------------------------------------------
    def send(
        self, src: str, dst: str, kind: str, body=None, size_bytes: int = 64
    ) -> None:
        """Send ``kind`` reliably; retransmits run as their own process."""
        mid = next(self._ids)
        acked = self.env.event()
        self._pending[mid] = acked
        self._meta[mid] = [dst, self.env.now, False]
        self.overlay.send(
            src, dst, kind, body=body, size_bytes=size_bytes,
            msg_id=mid, ctx=self.ctx,
        )
        self.env.process(self._retry_loop(mid, acked, src, dst, kind, body, size_bytes))

    def _timeout_for(self, dst: str) -> float:
        """Base ack timeout toward ``dst`` (ms): fixed, or adaptive RTO."""
        pol = self.policy
        base = pol.ack_timeout_deltas * self.delta
        if not pol.adaptive:
            return base
        est = self.rtt.get(dst)
        rto = est.rto() if est is not None else None
        if rto is None:
            return base  # cold start: no sample toward dst yet
        lo = pol.min_timeout_deltas * self.delta
        hi = pol.max_timeout_deltas * self.delta
        return min(max(rto, lo), hi)

    def srtt_of(self, dst: str) -> Optional[float]:
        """Smoothed RTT toward ``dst`` in ms (None before any sample)."""
        est = self.rtt.get(dst)
        return est.srtt if est is not None else None

    def _retry_loop(self, mid, acked, src, dst, kind, body, size_bytes):
        pol = self.policy
        wait = self._timeout_for(dst)
        for _attempt in range(pol.max_retries + 1):
            # full jitter: spread over [1 - j/2, 1 + j/2] so equal-policy
            # senders de-align instead of piling onto the lower edge
            jittered = wait * (
                1.0 + pol.jitter * (float(self._rng.random()) - 0.5)
            )
            yield AnyOf(self.env, [acked, self.env.timeout(jittered)])
            if acked.triggered:
                return
            if self.overlay.nodes[src].down:
                # a dead sender retries nothing
                self._pending.pop(mid, None)
                self._meta.pop(mid, None)
                return
            if _attempt == pol.max_retries:
                break
            self.overlay.traffic.retransmissions_by_kind[kind] += 1
            meta = self._meta.get(mid)
            if meta is not None:
                # Karn's rule: once retransmitted, the eventual ack can
                # no longer be attributed to one transmission — never
                # feed its round-trip into the estimator
                meta[2] = True
            if self.env.hooks.tracer is not None:
                self.env.hooks.tracer.emit(
                    "msg.retransmit", src, dst=dst, kind=kind,
                    attempt=_attempt + 1, mid=mid,
                )
            self.overlay.send(
                src, dst, kind, body=body, size_bytes=size_bytes,
                msg_id=mid, ctx=self.ctx,
            )
            wait *= pol.backoff
        self._pending.pop(mid, None)
        self._meta.pop(mid, None)
        self.overlay.traffic.give_ups_by_kind[kind] += 1
        if self.env.hooks.tracer is not None:
            self.env.hooks.tracer.emit(
                "msg.give_up", src, dst=dst, kind=kind, mid=mid
            )
        if self.on_give_up is not None:
            self.on_give_up(src, dst, kind, body)

    # ------------------------------------------------------------------
    def intercept(self, message: Message) -> bool:
        """Receiver-side hook; agents call this before handling a message.

        Returns True when the message is consumed by the control plane (an
        ack, or a duplicate of an already-delivered reliable message).
        Acks any reliable message — including duplicates, whose earlier ack
        may have been the lost copy.
        """
        if message.kind == "ack":
            acked = self._pending.pop(message.body, None)
            meta = self._meta.pop(message.body, None)
            if acked is not None and not acked.triggered:
                acked.succeed()
                if self.env.hooks.tracer is not None:
                    # close of the reliable exchange: the sender observed
                    # the first ack for this mid
                    self.env.hooks.tracer.emit(
                        "msg.ack", message.dst,
                        mid=message.body, src=message.src,
                    )
                if meta is not None and not meta[2]:
                    # first ack of a never-retransmitted send: a clean
                    # RTT sample (Karn's rule filtered the rest)
                    est = self.rtt.get(meta[0])
                    if est is None:
                        est = self.rtt[meta[0]] = RttEstimator()
                    est.observe(self.env.now - meta[1])
            return True
        if message.msg_id is None:
            return False
        # the ack inherits the message's coordination context so a swarm
        # hub can route it back to the originating leaf session's plane
        self.overlay.send(
            message.dst, message.src, "ack",
            body=message.msg_id, size_bytes=self.ACK_SIZE,
            ctx=message.ctx if message.ctx is not None else self.ctx,
        )
        if message.msg_id in self._seen:
            self.overlay.traffic.duplicates_suppressed_by_kind[message.kind] += 1
            return True
        self._seen.add(message.msg_id)
        return False


class Overlay:
    """Full logical mesh of peers.

    Latency may be customized per (src, dst) pair via ``latency_factory``;
    by default every channel shares the overlay's ``default_latency`` and
    gets a fresh loss model from ``default_loss_factory``, with an
    independent RNG stream per directed pair.
    """

    def __init__(
        self,
        env: "Environment",
        streams: Optional[RandomStreams] = None,
        default_latency: Optional[LatencyModel] = None,
        default_loss_factory: Optional[Callable[[], LossModel]] = None,
        bandwidth_bytes_per_ms: Optional[float] = None,
        latency_factory: Optional[Callable[[str, str], LatencyModel]] = None,
        control_loss_factory: Optional[Callable[[], LossModel]] = None,
        link_fault_factory: Optional[Callable[[], LinkFault]] = None,
    ) -> None:
        self.env = env
        self.streams = streams if streams is not None else RandomStreams(0)
        self.default_latency = (
            default_latency if default_latency is not None else ConstantLatency(1.0)
        )
        #: when given, called once per (src, dst) pair at channel creation —
        #: lets sessions model heterogeneous per-link delays
        self.latency_factory = latency_factory
        self.default_loss_factory = default_loss_factory or NoLoss
        #: extra loss applied to non-media ("control") messages only, one
        #: stateful model per directed pair — lets experiments stress the
        #: coordination plane while the data plane stays clean
        self.control_loss_factory = control_loss_factory
        #: when given, called once per (src, dst) pair at channel creation
        #: so every channel gets a *fresh* (stateful) fault instance
        self.link_fault_factory = link_fault_factory
        self.bandwidth = bandwidth_bytes_per_ms
        self.nodes: Dict[str, Node] = {}
        self.channels: Dict[Tuple[str, str], Channel] = {}
        self.traffic = TrafficStats()
        self._control_loss: Dict[Tuple[str, str], LossModel] = {}
        #: directed links currently cut (partitions, one-way failures)
        self._severed: set[Tuple[str, str]] = set()
        #: wire ids: one per physical send, shared by link-level duplicates
        self._uids = itertools.count(1)

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def add_node(
        self, node_id: str, on_deliver: Callable[[Message], None]
    ) -> Node:
        """Add a peer whose arriving messages go to ``on_deliver``."""
        if node_id in self.nodes:
            raise ValueError(f"node {node_id!r} already exists")
        node = Node(self.env, node_id, on_deliver)
        self.nodes[node_id] = node
        return node

    def channel(self, src: str, dst: str) -> Channel:
        """The (lazily created) channel ``src → dst``."""
        key = (src, dst)
        ch = self.channels.get(key)
        if ch is None:
            if src not in self.nodes or dst not in self.nodes:
                raise KeyError(f"unknown endpoint in {src}->{dst}")
            latency = (
                self.latency_factory(src, dst)
                if self.latency_factory is not None
                else self.default_latency
            )
            fault = (
                self.link_fault_factory()
                if self.link_fault_factory is not None
                else None
            )
            ch = Channel(
                self.env,
                self.nodes[src],
                self.nodes[dst],
                latency=latency,
                loss=self.default_loss_factory(),
                bandwidth_bytes_per_ms=self.bandwidth,
                rng=self.streams.get(f"channel/{src}->{dst}"),
                fault=fault,
            )
            self.channels[key] = ch
        return ch

    # ------------------------------------------------------------------
    # link cuts (partitions, asymmetric failures)
    # ------------------------------------------------------------------
    def sever_link(self, src: str, dst: str) -> None:
        """Cut the directed link ``src → dst``: nothing gets through.

        All traffic is affected — media, control *and* acks — so a
        reliable sender behind a cut exhausts its retry budget and the
        failure detector learns about the partition the honest way.
        """
        if src not in self.nodes or dst not in self.nodes:
            raise KeyError(f"unknown endpoint in {src}->{dst}")
        if (src, dst) not in self._severed:
            self._severed.add((src, dst))
            if self.env.hooks.tracer is not None:
                self.env.hooks.tracer.emit("link.sever", src, dst=dst)

    def heal_link(self, src: str, dst: str) -> None:
        """Restore a previously severed directed link (no-op if intact)."""
        if (src, dst) in self._severed:
            self._severed.discard((src, dst))
            if self.env.hooks.tracer is not None:
                self.env.hooks.tracer.emit("link.heal", src, dst=dst)

    def link_severed(self, src: str, dst: str) -> bool:
        return (src, dst) in self._severed

    # ------------------------------------------------------------------
    # traffic
    # ------------------------------------------------------------------
    def _control_drops(self, src: str, dst: str) -> bool:
        """Sample the control-plane loss process for one message."""
        if self.control_loss_factory is None:
            return False
        key = (src, dst)
        model = self._control_loss.get(key)
        if model is None:
            model = self.control_loss_factory()
            self._control_loss[key] = model
        return model.drops(self.streams.get(f"ctrl-loss/{src}->{dst}"))

    def send(
        self,
        src: str,
        dst: str,
        kind: str,
        body=None,
        size_bytes: int = 64,
        msg_id: Optional[int] = None,
        ctx: Optional[str] = None,
    ) -> Message:
        """Send one message and account for it globally."""
        tracer = self.env.hooks.tracer
        if self.nodes[src].down:
            # A crashed peer sends nothing; account as a suppressed send.
            self.traffic.dropped_by_kind[kind] += 1
            msg = Message(
                src=src, dst=dst, kind=kind, body=body,
                size_bytes=size_bytes, msg_id=msg_id, ctx=ctx,
            )
            if tracer is not None:
                tracer.emit(
                    "msg.drop", src, dst=dst, kind=kind, reason="sender_down"
                )
            return msg
        msg = Message(
            src=src, dst=dst, kind=kind, body=body,
            size_bytes=size_bytes, msg_id=msg_id, uid=next(self._uids),
            ctx=ctx,
        )
        self.traffic.sent_by_kind[kind] += 1
        self.traffic.send_log.append((kind, self.env.now, src, dst))
        # causal-linkage payload: the wire uid (and the control-plane mid
        # when the send is reliable) lets span builders stitch this send
        # to its receive/drop/ack without guessing by (src, dst, kind)
        link = {"mid": msg_id} if msg_id is not None else {}
        if tracer is not None:
            tracer.emit("msg.send", src, dst=dst, kind=kind, uid=msg.uid, **link)
        if (src, dst) in self._severed:
            self.traffic.dropped_by_kind[kind] += 1
            if tracer is not None:
                tracer.emit(
                    "msg.drop", src, dst=dst, kind=kind,
                    reason="link_severed", uid=msg.uid, **link,
                )
            return msg
        if kind != "packet" and self._control_drops(src, dst):
            self.traffic.dropped_by_kind[kind] += 1
            if tracer is not None:
                tracer.emit(
                    "msg.drop", src, dst=dst, kind=kind,
                    reason="control_loss", uid=msg.uid, **link,
                )
            return msg
        ch = self.channel(src, dst)
        before_drop = ch.stats.dropped
        before_dup = ch.stats.duplicated
        ch.send(msg)
        if ch.stats.dropped > before_drop:
            self.traffic.dropped_by_kind[kind] += 1
            if tracer is not None:
                tracer.emit(
                    "msg.drop", src, dst=dst, kind=kind,
                    reason="channel_loss", uid=msg.uid, **link,
                )
        else:
            self.traffic.delivered_by_kind[kind] += 1
            extra_copies = ch.stats.duplicated - before_dup
            if extra_copies:
                self.traffic.duplicated_by_kind[kind] += extra_copies
                if tracer is not None:
                    tracer.emit(
                        "link.duplicate", src, dst=dst, kind=kind,
                        copies=extra_copies + 1,
                    )
        return msg

    def send_media_batch(
        self, src: str, dst: str, batch, packet_size: int
    ) -> Optional[Message]:
        """Send a whole per-slot media batch as one delivery event.

        Traffic accounting stays per *packet* under the ``"packet"`` kind
        (so receipt/delivery metrics compare directly with the unbatched
        plane); the wire message's own kind is ``"packet_batch"`` and the
        leaf unbatches it into identical per-packet semantics.  Trace
        emissions carry a ``count`` payload instead of repeating one
        event per packet.
        """
        tracer = self.env.hooks.tracer
        k = len(batch)
        if self.nodes[src].down:
            self.traffic.dropped_by_kind["packet"] += k
            if tracer is not None:
                tracer.emit(
                    "msg.drop", src, dst=dst, kind="packet",
                    reason="sender_down", count=k,
                )
            return None
        msg = Message(
            src=src, dst=dst, kind="packet_batch", body=batch,
            size_bytes=packet_size * k, uid=next(self._uids),
        )
        self.traffic.sent_by_kind["packet"] += k
        self.traffic.send_log.append(("packet", self.env.now, src, dst))
        if tracer is not None:
            tracer.emit("msg.send", src, dst=dst, kind="packet", count=k, uid=msg.uid)
        if (src, dst) in self._severed:
            self.traffic.dropped_by_kind["packet"] += k
            if tracer is not None:
                tracer.emit(
                    "msg.drop", src, dst=dst, kind="packet",
                    reason="link_severed", count=k,
                )
            return msg
        ch = self.channel(src, dst)
        delivered, dropped, duplicated = ch.send_batch(msg)
        if dropped:
            self.traffic.dropped_by_kind["packet"] += dropped
            if tracer is not None:
                tracer.emit(
                    "msg.drop", src, dst=dst, kind="packet",
                    reason="channel_loss", count=dropped,
                )
        self.traffic.delivered_by_kind["packet"] += delivered
        if duplicated:
            self.traffic.duplicated_by_kind["packet"] += duplicated
            if tracer is not None:
                tracer.emit(
                    "link.duplicate", src, dst=dst, kind="packet",
                    copies=duplicated + 1,
                )
        return msg

    def __repr__(self) -> str:
        return (
            f"<Overlay {len(self.nodes)} nodes, "
            f"{len(self.channels)} channels, "
            f"{self.traffic.total_sent()} msgs>"
        )
