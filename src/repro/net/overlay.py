"""The overlay: nodes, lazily opened links, traffic statistics, and the
reliable control plane (ack + retransmit with backoff)."""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from repro.net.channel import Channel, ship_batch
from repro.net.latency import ConstantLatency, LatencyModel
from repro.net.ledger import FaultLedger
from repro.net.linkfault import LinkFault
from repro.net.loss import LossModel
from repro.net.message import Message
from repro.net.node import Node
from repro.sim.rng import RandomStreams

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment, Timer


@dataclass
class TrafficStats:
    """Global overlay traffic, counted per message kind.

    These tallies are the overlay's whole record of a message: results
    and ``bench/`` read them, and what happened to one message instance —
    lost, duplicated, held back — is a row of the run's
    :class:`~repro.net.ledger.FaultLedger`.  The one per-send datum kept
    is the instant of each coordination (non-``packet``) send, which
    ``SessionResult.control_packets_at_sync`` counts up to the sync time.
    """

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
    #: send instant of every non-``packet`` message, in clock order
    coordination_send_times: list = field(default_factory=list)

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
    ``[MIN_TIMEOUT_DELTAS, MAX_TIMEOUT_DELTAS]`` δ; ``ack_timeout_deltas``
    remains the cold-start value until the first RTT sample.
    """

    max_retries: int = 4
    ack_timeout_deltas: float = 2.5
    backoff: float = 2.0
    jitter: float = 0.25
    #: derive per-destination ack timeouts from measured RTTs
    adaptive: bool = False

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.ack_timeout_deltas <= 0:
            raise ValueError("ack_timeout_deltas must be positive")
        if self.backoff < 1:
            raise ValueError("backoff must be >= 1")
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")


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


@dataclass(slots=True)
class _InFlight:
    """One reliable send awaiting its ack: what its timer needs to
    retransmit it, and what the ack needs for an RTT sample."""

    src: str
    dst: str
    kind: str
    body: object
    size_bytes: int
    sent_at: float
    #: the current attempt's wait (ms) before jitter; grows by ``backoff``
    wait: float
    #: retransmissions issued so far.  Karn's rule: once retransmitted,
    #: the eventual ack can no longer be attributed to one transmission,
    #: so it yields no RTT sample
    attempt: int = 0
    #: the current attempt's timer, cancelled by the ack
    timer: Optional["Timer"] = None


#: clamp for the adaptive RTO, in δ units
MIN_TIMEOUT_DELTAS = 1.0
MAX_TIMEOUT_DELTAS = 10.0


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
        #: msg_id -> the in-flight reliable send
        self._pending: Dict[int, _InFlight] = {}
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
        """Send ``kind`` reliably: file it in ``_pending`` and arm the
        timer of its first attempt."""
        mid = next(self._ids)
        sent = self._pending[mid] = _InFlight(
            src, dst, kind, body, size_bytes, self.env.now, self._timeout_for(dst)
        )
        self.overlay.send(
            src, dst, kind, body=body, size_bytes=size_bytes,
            msg_id=mid, ctx=self.ctx,
        )
        self._arm(mid, sent)

    def _arm(self, mid: int, sent: _InFlight) -> None:
        """One timer for the attempt's wait, its jitter drawn now."""
        # full jitter: spread over [1 - j/2, 1 + j/2] so equal-policy
        # senders de-align instead of piling onto the lower edge
        jittered = sent.wait * (
            1.0 + self.policy.jitter * (float(self._rng.random()) - 0.5)
        )
        sent.timer = self.env.call_later(jittered, self._expire, mid)

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
        lo = MIN_TIMEOUT_DELTAS * self.delta
        hi = MAX_TIMEOUT_DELTAS * self.delta
        return min(max(rto, lo), hi)

    def srtt_of(self, dst: str) -> Optional[float]:
        """Smoothed RTT toward ``dst`` in ms (None before any sample)."""
        est = self.rtt.get(dst)
        return est.srtt if est is not None else None

    def _expire(self, mid: int) -> None:
        """An attempt's wait ran out unacked (the ack cancels the timer):
        retransmit, or give up."""
        sent = self._pending[mid]
        src, dst, kind = sent.src, sent.dst, sent.kind
        if self.overlay.nodes[src].down:
            # a dead sender retries nothing
            del self._pending[mid]
            return
        tracer = self.env.hooks.tracer
        if sent.attempt == self.policy.max_retries:
            del self._pending[mid]
            self.overlay.traffic.give_ups_by_kind[kind] += 1
            if tracer is not None:
                tracer.emit("msg.give_up", src, dst=dst, kind=kind, mid=mid)
            if self.on_give_up is not None:
                self.on_give_up(src, dst, kind, sent.body)
            return
        sent.attempt += 1
        self.overlay.traffic.retransmissions_by_kind[kind] += 1
        if tracer is not None:
            tracer.emit(
                "msg.retransmit", src, dst=dst, kind=kind,
                attempt=sent.attempt, mid=mid,
            )
        self.overlay.send(
            src, dst, kind, body=sent.body, size_bytes=sent.size_bytes,
            msg_id=mid, ctx=self.ctx,
        )
        sent.wait *= self.policy.backoff
        self._arm(mid, sent)

    # ------------------------------------------------------------------
    def intercept(self, message: Message) -> bool:
        """Receiver-side hook; agents call this before handling a message.

        Returns True when the message is consumed by the control plane (an
        ack, or a duplicate of an already-delivered reliable message).
        Acks any reliable message — including duplicates, whose earlier ack
        may have been the lost copy.
        """
        if message.kind == "ack":
            sent = self._pending.pop(message.body, None)
            if sent is not None:
                sent.timer.cancel()
                if self.env.hooks.tracer is not None:
                    # close of the reliable exchange: the sender observed
                    # the first ack for this mid
                    self.env.hooks.tracer.emit(
                        "msg.ack", message.dst,
                        mid=message.body, src=message.src,
                    )
                if sent.attempt == 0:
                    # first ack of a never-retransmitted send: a clean
                    # RTT sample (Karn's rule filtered the rest)
                    est = self.rtt.get(sent.dst)
                    if est is None:
                        est = self.rtt[sent.dst] = RttEstimator()
                    est.observe(self.env.now - sent.sent_at)
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

    A directed pair is opened at its first wire use, when its latency is
    drawn: from ``latency_factory`` per (src, dst) pair, else the shared
    ``default_latency``.  A pair with no state to keep — no loss factory,
    no link-fault factory and a :class:`ConstantLatency` — is that one
    delay, a float in ``delays``.  Any other pair gets a :class:`Channel`
    in ``channels`` with a fresh loss model and link fault from the
    factories and an independent RNG stream per directed pair.  Every
    lost, duplicated or held-back message and every link cut is filed in
    ``ledger``, the run's :class:`~repro.net.ledger.FaultLedger` (by
    default a private one).
    """

    def __init__(
        self,
        env: "Environment",
        streams: Optional[RandomStreams] = None,
        default_latency: Optional[LatencyModel] = None,
        default_loss_factory: Optional[Callable[[], LossModel]] = None,
        latency_factory: Optional[Callable[[str, str], LatencyModel]] = None,
        control_loss_factory: Optional[Callable[[], LossModel]] = None,
        link_fault_factory: Optional[Callable[[], LinkFault]] = None,
        ledger: Optional[FaultLedger] = None,
    ) -> None:
        self.env = env
        self.ledger = ledger if ledger is not None else FaultLedger(env)
        self.streams = streams if streams is not None else RandomStreams(0)
        self.default_latency = (
            default_latency if default_latency is not None else ConstantLatency(1.0)
        )
        #: when given, called once per (src, dst) pair as it opens —
        #: lets sessions model heterogeneous per-link delays
        self.latency_factory = latency_factory
        #: one fresh loss model per channel; None: links are reliable
        self.default_loss_factory = default_loss_factory
        #: extra loss applied to non-media ("control") messages only, one
        #: stateful model per directed pair — lets experiments stress the
        #: coordination plane while the data plane stays clean
        self.control_loss_factory = control_loss_factory
        #: when given, called once per (src, dst) pair as it opens so
        #: every channel gets a *fresh* (stateful) fault instance
        self.link_fault_factory = link_fault_factory
        self.nodes: Dict[str, Node] = {}
        #: the opened pairs with no state to keep: (src, dst) -> one-way delay
        self.delays: Dict[Tuple[str, str], float] = {}
        #: the opened pairs that keep state, and any built by :meth:`channel`
        self.channels: Dict[Tuple[str, str], Channel] = {}
        self.traffic = TrafficStats()
        #: (src, dst) -> its control-loss model and the stream it draws on
        self._control_loss: Dict[Tuple[str, str], Tuple[LossModel, object]] = {}
        #: directed links cut now (partitions, one-way failures), as filed
        self._cuts = self.ledger.cuts
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
        node = Node(self.env, node_id, on_deliver, self.ledger)
        self.nodes[node_id] = node
        return node

    def channel(self, src: str, dst: str) -> Channel:
        """The channel ``src → dst``, opening the pair if it is not yet;
        on a delay row, a channel over the recorded delay."""
        key = (src, dst)
        ch = self.channels.get(key)
        if ch is None:
            delay = self.delays.get(key)
            if delay is None:
                delay = self._open(src, dst)
            ch = self.channels.get(key) or self._build(src, dst, ConstantLatency(delay))
        return ch

    def _open(self, src: str, dst: str) -> Optional[float]:
        """Open ``src → dst`` at its first wire use and draw its latency:
        the delay of a new delay row, or None once its channel is built."""
        if src not in self.nodes or dst not in self.nodes:
            raise KeyError(f"unknown endpoint in {src}->{dst}")
        factory = self.latency_factory
        latency = factory(src, dst) if factory is not None else self.default_latency
        if isinstance(latency, ConstantLatency) and (
            self.default_loss_factory is None and self.link_fault_factory is None
        ):
            delay = self.delays[(src, dst)] = latency.delay
            return delay
        self._build(src, dst, latency)
        return None

    def _build(self, src: str, dst: str, latency: LatencyModel) -> Channel:
        loss, fault = self.default_loss_factory, self.link_fault_factory
        ch = self.channels[(src, dst)] = Channel(
            self.env, self.nodes[src], self.nodes[dst], latency,
            loss() if loss is not None else None,
            self.streams.get(f"channel/{src}->{dst}"),
            fault() if fault is not None else None,
        )
        return ch

    # ------------------------------------------------------------------
    # link cuts (partitions, asymmetric failures)
    # ------------------------------------------------------------------
    def sever_link(self, src: str, dst: str) -> int:
        """Open one cut of the directed link ``src → dst``; the cut's
        number, which :meth:`heal_link` takes.  Nothing gets through
        while any cut of the link is open.

        All traffic is affected — media, control *and* acks — so a
        reliable sender behind a cut exhausts its retry budget and the
        failure detector learns about the partition the honest way.
        """
        if src not in self.nodes or dst not in self.nodes:
            raise KeyError(f"unknown endpoint in {src}->{dst}")
        self.ledger.record("link.sever", src, dst=dst)
        return len(self.ledger.severs) - 1

    def heal_link(self, cut: int) -> None:
        """Close cut number ``cut`` (no-op if it is closed)."""
        sever = self.ledger.severs[cut]
        if sever in self._cuts.get((sever.src, sever.dst), ()):
            self.ledger.record("link.heal", sever.src, dst=sever.dst, cut=cut)

    # ------------------------------------------------------------------
    # traffic
    # ------------------------------------------------------------------
    def _control_drops(self, src: str, dst: str) -> bool:
        """Sample the control-plane loss process for one message."""
        if self.control_loss_factory is None:
            return False
        key = (src, dst)
        entry = self._control_loss.get(key)
        if entry is None:
            entry = self._control_loss[key] = (
                self.control_loss_factory(), self.streams.get(f"ctrl-loss/{src}->{dst}")
            )
        return entry[0].drops(entry[1])

    def _drop(self, src: str, dst: str, kind: str, reason: str, **fields) -> None:
        """Account one lost send (``count`` packets of a batch) and file it."""
        self.traffic.dropped_by_kind[kind] += fields.get("count", 1)
        self.ledger.record("msg.drop", src, dst=dst, kind=kind, reason=reason, **fields)

    def _link_effects(self, src, dst, kind: str, extra_copies: int, held, **fields) -> None:
        """File what a link fault did to a send that got through: the
        copies it added, and the longest of the hold-backs ``held``."""
        if extra_copies:
            self.traffic.duplicated_by_kind[kind] += extra_copies
            self.ledger.record(
                "link.duplicate", src, dst=dst, kind=kind, copies=extra_copies + 1, **fields
            )
        if held:
            self.ledger.record("link.delay", src, dst=dst, kind=kind, delay=max(held), **fields)

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
        if self.nodes[src].down:
            # A crashed peer sends nothing; account as a suppressed send.
            self._drop(src, dst, kind, "sender_down")
            return Message(
                src=src, dst=dst, kind=kind, body=body,
                size_bytes=size_bytes, msg_id=msg_id, ctx=ctx,
            )
        msg = Message(
            src=src, dst=dst, kind=kind, body=body,
            size_bytes=size_bytes, msg_id=msg_id, uid=next(self._uids),
            ctx=ctx,
        )
        traffic = self.traffic
        traffic.sent_by_kind[kind] += 1
        if kind != "packet":
            traffic.coordination_send_times.append(self.env.now)
        tracer = self.env.hooks.tracer
        if tracer is not None:
            # causal-linkage payload: the wire uid (and the control-plane
            # mid when the send is reliable) lets span builders stitch this
            # send to its receive/drop/ack without guessing by (src, dst, kind)
            link = {"mid": msg_id} if msg_id is not None else {}
            tracer.emit("msg.send", src, dst=dst, kind=kind, uid=msg.uid, **link)
        key = (src, dst)
        delay = self.delays.get(key)
        if delay is None or self._cuts or (
            kind != "packet" and self.control_loss_factory is not None
        ):
            link = {"mid": msg_id} if msg_id is not None else {}
            if key in self._cuts:
                self._drop(src, dst, kind, "link_severed", uid=msg.uid, **link)
                return msg
            if kind != "packet" and self._control_drops(src, dst):
                self._drop(src, dst, kind, "control_loss", uid=msg.uid, **link)
                return msg
            if delay is None and key not in self.channels:
                delay = self._open(src, dst)
            if delay is None:
                copies = self.channel(src, dst).send(msg)
                if not copies:
                    self._drop(src, dst, kind, "channel_loss", uid=msg.uid, **link)
                    return msg
                traffic.delivered_by_kind[kind] += 1
                if len(copies) > 1 or copies[0]:
                    held = [extra for extra in copies if extra > 0]
                    self._link_effects(src, dst, kind, len(copies) - 1, held, uid=msg.uid, **link)
                return msg
        # a delay row: the message arrives after the pair's one delay
        self.env.call_later(delay, self.nodes[dst].deliver, msg)
        traffic.delivered_by_kind[kind] += 1
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
        k = len(batch)
        if self.nodes[src].down:
            self._drop(src, dst, "packet", "sender_down", count=k)
            return None
        msg = Message(
            src=src, dst=dst, kind="packet_batch", body=batch,
            size_bytes=packet_size * k, uid=next(self._uids),
        )
        self.traffic.sent_by_kind["packet"] += k
        tracer = self.env.hooks.tracer
        if tracer is not None:
            tracer.emit("msg.send", src, dst=dst, kind="packet", count=k, uid=msg.uid)
        key = (src, dst)
        if key in self._cuts:
            self._drop(src, dst, "packet", "link_severed", count=k)
            return msg
        delay = self.delays.get(key)
        if delay is None and key not in self.channels:
            delay = self._open(src, dst)
        if delay is None:
            delivered, dropped, duplicated, held = self.channel(src, dst).send_batch(msg)
            if dropped:
                self._drop(src, dst, "packet", "channel_loss", count=dropped)
            self.traffic.delivered_by_kind["packet"] += delivered
            if duplicated or held:
                self._link_effects(src, dst, "packet", duplicated, held)
            return msg
        # a delay row: every packet arrives one delay after its offset
        ship_batch(self.env, self.nodes[dst], msg, [
            (offset + delay, False, pkt)
            for offset, pkt in zip(batch.offsets_ms, batch.packets)
        ])
        self.traffic.delivered_by_kind["packet"] += k
        return msg

    def __repr__(self) -> str:
        return (
            f"<Overlay {len(self.nodes)} nodes, "
            f"{len(self.channels)} channels, "
            f"{self.traffic.total_sent()} msgs>"
        )
