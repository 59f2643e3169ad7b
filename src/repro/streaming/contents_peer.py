"""A contents peer: protocol-driven coordination + transmit loops."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.core.base import Assignment, empty_assignment, pick
from repro.media.batch import PacketBatch
from repro.net.dedup import DedupWindow
from repro.net.message import Message
from repro.streaming.stream import Stream

if TYPE_CHECKING:  # pragma: no cover
    from repro.streaming.session import StreamingSession

HEARTBEAT = -1  #: the heartbeat chain's key in ``_timers``


class ContentsPeerAgent:
    """One contents peer ``CP_i``.

    All coordination behaviour is delegated to the session's protocol
    strategy; this class owns the mechanics every protocol shares:

    * the *view* ``VW_i`` (peers known to be active/selected);
    * activation bookkeeping;
    * one transmit chain per :class:`Stream`, pacing packets to the leaf
      at the stream's current rate, and a heartbeat chain; :meth:`crash`
      cancels each chain's pending timer;
    * random child selection from ``CP − VW_i − {self}``.
    """

    def __init__(self, session: "StreamingSession", peer_id: str) -> None:
        self.session = session
        self.peer_id = peer_id
        #: the physical peer's one node: already on the overlay when a
        #: swarm's PeerHub answers it (and dispatches here by coordination
        #: ctx), else this agent's own
        self.node = session.overlay.nodes.get(peer_id)
        if self.node is None:
            self.node = session.overlay.add_node(peer_id, self._on_deliver)
        self.view: set[str] = {peer_id}
        self.streams: list[Stream] = []
        self.activated_at: Optional[float] = None
        #: coordination round (hop count) at which this peer activated
        self.activation_hops: Optional[int] = None
        #: TCoP: id of the parent this peer has committed to (or "leaf")
        self.parent: Optional[str] = None
        #: protocol-private scratch space
        self.scratch: dict = {}
        self.rng = session.streams.get(f"select/{peer_id}")
        self._phase_rng = session.streams.get(f"phase/{peer_id}")
        #: finite upload budget (backpressure + shedding); None = the
        #: seed's infinite uplink.  Shared across leaf sessions in swarms.
        self.upload_budget = session.commons.budgets.get(peer_id)
        #: the run's packet ledger (None: an untraced run)
        self.packets = session.commons.packets
        #: duplicate-suppression for control traffic keyed on the wire
        #: uid (link duplicates share it; retransmissions do not — those
        #: are deduplicated by ``msg_id`` in the control plane), so a
        #: duplicated request/control/start/repair is applied exactly once
        self.dedup = DedupWindow()
        #: the pending timer of each chain: a stream id per transmit
        #: chain, :data:`HEARTBEAT` for the heartbeat chain
        self._timers: dict = {}

    # ------------------------------------------------------------------
    # basics
    # ------------------------------------------------------------------
    @property
    def env(self):
        return self.session.env

    @property
    def active(self) -> bool:
        return self.activated_at is not None

    @property
    def crashed(self) -> bool:
        return self.node.down

    def _on_deliver(self, message: Message) -> None:
        if self.node.down:  # defensive; Node already filters
            return  # pragma: no cover
        if self.session.intercept_control(message):
            return  # ack, or duplicate of a retransmitted control message
        if message.kind != "packet":
            if message.uid is not None and self.dedup.seen(message.uid):
                # link-fault duplicate of an already-applied physical
                # send: suppress before it double-assigns a subsequence
                # or double-serves a repair
                self.session.note_duplicate_suppressed(
                    self.peer_id, message
                )
                return
            self.session.note_control_applied(self.peer_id, message)
        if message.kind == "repair":
            # repair is protocol-agnostic (see repro.streaming.repair)
            from repro.streaming.repair import serve_repair

            serve_repair(self, message.body)
            return
        if message.kind == "adapt":
            from repro.streaming.adaptive import serve_adapt

            serve_adapt(self, message.body)
            return
        if message.kind == "probe":
            # half-open quarantine probe: answer with an immediate
            # heartbeat so the leaf observes fresh liveness end-to-end
            # (through the same possibly-gray link it is judging)
            self._send_heartbeat()
            return
        self.session.protocol.handle_peer_message(self, message)

    def merge_view(self, other: Sequence[str]) -> None:
        self.view.update(other)

    @property
    def view_full(self) -> bool:
        return len(self.view) >= self.session.config.n

    # ------------------------------------------------------------------
    # selection (the paper's Select / Aselect)
    # ------------------------------------------------------------------
    def select_children(self, m: int) -> list[str]:
        """Up to ``m`` random peers from ``CP − VW_i`` (deterministic rng).

        Returns fewer than ``m`` (possibly none) when the view already
        covers most peers — the paper's "|Select(…)| ≤ m".
        """
        if m < 0:
            raise ValueError("m must be non-negative")
        candidates = sorted(set(self.session.peer_ids) - self.view)
        if not candidates or m == 0:
            return []
        return pick(self.rng, candidates, min(m, len(candidates)))

    # ------------------------------------------------------------------
    # activation / transmission
    # ------------------------------------------------------------------
    def activate_with(self, assignment: Assignment, hops: int = 1) -> Stream:
        """Create (and start transmitting) a stream from an assignment.

        ``hops`` is the coordination round at which the triggering message
        arrived; recorded only for the first activation.
        """
        if self.activated_at is None:
            self.activated_at = self.env.now
            self.activation_hops = hops
            self.session.record_activation(self.peer_id, self.env.now, hops)
        stream = Stream.from_assignment(assignment)
        self.add_stream(stream)
        return stream

    def add_stream(self, stream: Stream) -> None:
        stream_id = len(self.streams)
        self.streams.append(stream)
        if not stream.exhausted:
            if self.env.hooks.tracer is not None:
                self.env.hooks.tracer.emit(
                    "peer.stream_start",
                    self.peer_id,
                    packets=stream.remaining(),
                    stream=stream_id,
                )
            self._start_transmit(stream, stream_id)
        self._start_heartbeat()

    def _start_transmit(self, stream: Stream, stream_id: int) -> None:
        """Start the transmit chain — batched when the session asks for it."""
        window = self.session.media_batch_window_ms
        if window > 0.0:
            self._timers[stream_id] = self.env.call_soon(
                self._arm_batch, stream, stream_id, window, True
            )
        else:
            self._timers[stream_id] = self.env.call_soon(
                self._arm_transmit, stream, stream_id, True
            )

    def _arm_transmit(
        self, stream: Stream, stream_id: int, first: bool = False
    ) -> None:
        """Wait one packet period of a stream, then send its next packet.

        The rate is re-read every packet so handoffs (which mutate the
        stream's phases) take effect at the next packet boundary — the
        packet-granular switch the Mark rule prescribes.
        """
        if stream.exhausted:
            return
        period = 1.0 / stream.current_rate
        if first:
            # random phase offset: streams created at the same instant
            # (e.g. a whole flooding wave) must not tick in lock-step,
            # or their packets arrive at the leaf as synchronized
            # bursts no real sender population would produce
            period *= float(self._phase_rng.random())
        self._timers[stream_id] = self.env.call_later(
            period, self._transmit, stream, stream_id
        )

    def _transmit(self, stream: Stream, stream_id: int, pkt=None) -> None:
        """Send a stream's next packet to the leaf (``pkt``: one the
        uplink held back), then arm the one after."""
        if pkt is None:
            pkt = stream.pop_next()
            if pkt is None:
                return
            budget = self.upload_budget
            if budget is not None:
                # finite uplink: book a send slot in the peer's shared
                # windowed budget.  Shed = the packet dies at the uplink
                # (parity sheds earlier than data — graceful degradation
                # sacrifices the fault margin before the content);
                # a positive wait is backpressure into a later window.
                wait = budget.reserve(self.env.now, parity=pkt.is_parity)
                if wait is None:
                    self._arm_transmit(stream, stream_id)
                    return
                if wait > 0.0:
                    self._timers[stream_id] = self.env.call_later(
                        wait, self._transmit, stream, stream_id, pkt
                    )
                    return
        if self.packets is not None:
            self.packets.record("media.tx", self.peer_id, label=pkt.label, stream=stream_id)
        self.session.overlay.send(
            self.peer_id,
            self.session.leaf.peer_id,
            "packet",
            body=pkt,
            size_bytes=self.session.config.packet_size,
        )
        self._arm_transmit(stream, stream_id)

    def _arm_batch(
        self,
        stream: Stream,
        stream_id: int,
        window: float,
        first: bool = False,
    ) -> None:
        """Wait one packet period of a stream, then send a whole
        per-slot subsequence as one batched send.

        Every batch pops up to ``window × rate`` packets from the
        current phase (at least two — a stream at rate ≪ 1 packet/window
        accumulates across windows rather than degenerating to
        per-packet sends) and ships them as one
        :class:`~repro.media.batch.PacketBatch` delivery event with
        per-packet send offsets ``0, period, 2·period, …``; the loop then
        sleeps out the remainder of the slot, so the average rate matches
        the unbatched loop exactly.  Rate changes (handoffs,
        degradations) take effect at batch boundaries — the batch window is
        the granularity knob (``SessionSpec.media_batch`` in δ units).
        Under a finite upload budget the batch additionally shrinks to
        the window's remaining slots and stalls (never sheds) when the
        window is spent.
        """
        if stream.exhausted:
            return
        rate = stream.current_rate
        period = 1.0 / rate
        delay = period
        if first:
            # same random de-phasing as the unbatched loop
            delay = period * float(self._phase_rng.random())
        # low-rate subsequence (rate ≪ 1 packet/window, e.g. a deeply
        # divided DCoP stream): accumulate across windows instead of
        # degenerating to per-packet sends — the loop sleeps out
        # (len−1)·period after the send, so a batch spanning several
        # windows keeps the same average rate
        count = max(int(window * rate), 2)
        self._timers[stream_id] = self.env.call_later(
            delay, self._batch, stream, stream_id, window, period, count
        )

    def _batch(
        self,
        stream: Stream,
        stream_id: int,
        window: float,
        period: float,
        count: int,
    ) -> None:
        """Send up to ``count`` packets of a stream as one batch."""
        budget = self.upload_budget
        if budget is not None:
            # finite uplink: shrink the batch to the current window's
            # remaining budget (pure backpressure — the batched plane
            # never queues into future windows, so it never sheds)
            allowed = budget.take(self.env.now, count)
            if allowed == 0:
                self._timers[stream_id] = self.env.call_later(
                    budget.next_window_wait(self.env.now), self._batch,
                    stream, stream_id, window, period, count,
                )
                return
            count = allowed
        pkts = stream.pop_batch(count)
        if not pkts:
            return
        cfg = self.session.config
        leaf_id = self.session.leaf.peer_id
        overlay = self.session.overlay
        packets = self.packets
        if packets is not None:
            # ``off`` is the packet's nominal send offset inside the
            # batch (j·period): span builders charge it to queueing
            # behind the batch rather than to the wire
            for j, pkt in enumerate(pkts):
                packets.record(
                    "media.tx", self.peer_id,
                    label=pkt.label, stream=stream_id, off=j * period,
                )
        if len(pkts) == 1:
            # a slot worth less than two packets (deeply divided
            # streams): the per-packet wire path is cheaper than a
            # one-element batch and semantically identical
            overlay.send(
                self.peer_id,
                leaf_id,
                "packet",
                body=pkts[0],
                size_bytes=cfg.packet_size,
            )
            self._arm_batch(stream, stream_id, window)
            return
        batch = PacketBatch(
            pkts, np.arange(len(pkts), dtype=np.float64) * period
        )
        overlay.send_media_batch(
            self.peer_id, leaf_id, batch, cfg.packet_size
        )
        # sleep out the rest of the slot the batch covered
        self._timers[stream_id] = self.env.call_later(
            (len(pkts) - 1) * period, self._arm_batch,
            stream, stream_id, window,
        )

    # ------------------------------------------------------------------
    # liveness (failure-detector support)
    # ------------------------------------------------------------------
    def residual_data_seqs(self) -> set[int]:
        """Data sequence numbers still in this peer's unexhausted streams."""
        out: set[int] = set()
        for stream in self.streams:
            if not stream.exhausted:
                out |= stream.future_data_seqs()
        return out

    def _send_heartbeat(self) -> set[int]:
        """One fire-and-forget heartbeat (residual + done) to the leaf.

        Returns the residual it reported so the periodic loop can stop
        once the peer owes nothing.  Also answers quarantine probes: a
        probed peer replies with an immediate heartbeat out of band of
        its regular cadence.
        """
        from repro.streaming.detector import Heartbeat

        session = self.session
        pending = self.residual_data_seqs()
        session.overlay.send(
            self.peer_id,
            session.leaf.peer_id,
            "heartbeat",
            body=Heartbeat(
                self.peer_id, tuple(sorted(pending)), done=not pending
            ),
            size_bytes=32,
        )
        return pending

    def _start_heartbeat(self) -> None:
        """Start the heartbeat chain if a detector watches and none runs."""
        if (
            self.session.detector is not None
            and self.active
            and HEARTBEAT not in self._timers
        ):
            self._timers[HEARTBEAT] = self.env.call_soon(self._heartbeat)

    def _heartbeat(self) -> None:
        """Emit periodic heartbeats to the leaf while this peer owes data.

        Each heartbeat carries the residual (the paper's ``SEQ_j`` tail as
        labels), so the leaf can re-coordinate it if this peer dies; the
        final heartbeat reports ``done`` and ends the leaf's expectations,
        and the chain.  Heartbeats are fire-and-forget — losing one only
        costs detection sharpness, never correctness.
        """
        if self._send_heartbeat():
            self._timers[HEARTBEAT] = self.env.call_later(
                self.session.detector.period, self._heartbeat
            )
        else:
            del self._timers[HEARTBEAT]

    def crash(self) -> None:
        """Fail-stop: cancel every chain's pending timer, then go down."""
        for timer in self._timers.values():
            timer.cancel()
        self._timers.clear()
        self.node.crash()

    def rejoin(self) -> None:
        """Crash-recover: come back up and resume the unsent residual.

        The peer's stream state survives (stable storage); its chains
        died with the crash, so fresh ones start here.
        """
        if not self.node.down:
            return
        self.node.recover()
        for stream_id, stream in enumerate(self.streams):
            if not stream.exhausted:
                self._start_transmit(stream, stream_id)
        self._start_heartbeat()

    def handoff_stream(
        self, stream: Stream, children: Sequence[str]
    ) -> tuple[Assignment, ...]:
        """Split ``stream`` for ``children``: one assignment each, empty
        ones when nothing remains to split."""
        cfg = self.session.config
        plan = stream.handoff(len(children), cfg.fault_margin, cfg.delta)
        if plan is None:
            n_parts = len(children) + 1
            return tuple(empty_assignment(n_parts, i) for i in range(1, n_parts))
        return plan.assignments

    # ------------------------------------------------------------------
    # outbound control traffic
    # ------------------------------------------------------------------
    def send_control(self, dst: str, kind: str, body) -> None:
        """Send coordination traffic — reliably when the session has a
        retransmit policy, fire-and-forget otherwise."""
        self.session.send_control(self.peer_id, dst, kind, body)

    def __repr__(self) -> str:
        return (
            f"<ContentsPeer {self.peer_id} "
            f"{'active' if self.active else 'dormant'} "
            f"streams={len(self.streams)} |view|={len(self.view)}>"
        )
