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


class ContentsPeerAgent:
    """One contents peer ``CP_i``.

    All coordination behaviour is delegated to the session's protocol
    strategy; this class owns the mechanics every protocol shares:

    * the *view* ``VW_i`` (peers known to be active/selected);
    * activation bookkeeping;
    * one transmit loop per :class:`Stream`, pacing packets to the leaf at
      the stream's current rate;
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
        #: bumped on rejoin so loops started before a crash stay dead
        self._epoch = 0
        self._heartbeat_running = False

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
        if (
            self.session.detector is not None
            and self.active
            and not self._heartbeat_running
        ):
            self._heartbeat_running = True
            self.env.process(self._heartbeat_loop(self._epoch))

    def _start_transmit(self, stream: Stream, stream_id: int) -> None:
        """Spawn the transmit loop — batched when the session asks for it."""
        window = self.session.media_batch_window_ms
        if window > 0.0:
            self.env.process(
                self._transmit_loop_batched(
                    stream, self._epoch, stream_id, window
                )
            )
        else:
            self.env.process(
                self._transmit_loop(stream, self._epoch, stream_id)
            )

    def _transmit_loop(self, stream: Stream, epoch: int, stream_id: int = 0):
        """Pace packets of one stream to the leaf.

        The rate is re-read every iteration so handoffs (which mutate the
        stream's phases) take effect at the next packet boundary — the
        packet-granular switch the Mark rule prescribes.
        """
        cfg = self.session.config
        leaf_id = self.session.leaf.peer_id
        first = True
        while not stream.exhausted:
            period = 1.0 / stream.current_rate
            if first:
                # random phase offset: streams created at the same instant
                # (e.g. a whole flooding wave) must not tick in lock-step,
                # or their packets arrive at the leaf as synchronized
                # bursts no real sender population would produce
                period *= float(self._phase_rng.random())
                first = False
            yield self.env.timeout(period)
            if self.node.down or epoch != self._epoch:
                return
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
                    continue
                if wait > 0.0:
                    yield self.env.timeout(wait)
                    if self.node.down or epoch != self._epoch:
                        return
            if self.packets is not None:
                self.packets.record("media.tx", self.peer_id, label=pkt.label, stream=stream_id)
            self.session.overlay.send(
                self.peer_id,
                leaf_id,
                "packet",
                body=pkt,
                size_bytes=cfg.packet_size,
            )

    def _transmit_loop_batched(
        self, stream: Stream, epoch: int, stream_id: int, window: float
    ):
        """Pace whole per-slot subsequences as single batched sends.

        Every iteration pops up to ``window × rate`` packets from the
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
        cfg = self.session.config
        leaf_id = self.session.leaf.peer_id
        overlay = self.session.overlay
        first = True
        while not stream.exhausted:
            rate = stream.current_rate
            period = 1.0 / rate
            delay = period
            if first:
                # same random de-phasing as the unbatched loop
                delay = period * float(self._phase_rng.random())
                first = False
            yield self.env.timeout(delay)
            if self.node.down or epoch != self._epoch:
                return
            count = int(window * rate)
            if count < 2:
                # low-rate subsequence (rate ≪ 1 packet/window, e.g. a
                # deeply divided DCoP stream): accumulate across windows
                # instead of degenerating to per-packet sends — the loop
                # sleeps out (len−1)·period after the send, so a batch
                # spanning several windows keeps the same average rate
                count = 2
            budget = self.upload_budget
            if budget is not None:
                # finite uplink: shrink the batch to the current window's
                # remaining budget (pure backpressure — the batched plane
                # never queues into future windows, so it never sheds)
                allowed = budget.take(self.env.now, count)
                while allowed == 0:
                    wait = budget.next_window_wait(self.env.now)
                    yield self.env.timeout(wait)
                    if self.node.down or epoch != self._epoch:
                        return
                    allowed = budget.take(self.env.now, count)
                count = allowed
            pkts = stream.pop_batch(count)
            if not pkts:
                return
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
                continue
            batch = PacketBatch(
                pkts, np.arange(len(pkts), dtype=np.float64) * period
            )
            overlay.send_media_batch(
                self.peer_id, leaf_id, batch, cfg.packet_size
            )
            if len(pkts) > 1:
                # sleep out the rest of the slot the batch covered
                yield self.env.timeout((len(pkts) - 1) * period)
                if self.node.down or epoch != self._epoch:
                    return

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

    def _heartbeat_loop(self, epoch: int):
        """Emit periodic heartbeats to the leaf while this peer owes data.

        Each heartbeat carries the residual (the paper's ``SEQ_j`` tail as
        labels), so the leaf can re-coordinate it if this peer dies; the
        final heartbeat reports ``done`` and ends the leaf's expectations.
        Heartbeats are fire-and-forget — losing one only costs detection
        sharpness, never correctness.
        """
        period = self.session.detector.period
        try:
            while not self.node.down and epoch == self._epoch:
                pending = self._send_heartbeat()
                if not pending:
                    return
                yield self.env.timeout(period)
        finally:
            self._heartbeat_running = False

    def rejoin(self) -> None:
        """Crash-recover: come back up and resume the unsent residual.

        The peer's stream state survives (stable storage); transmit loops
        died with the crash, so fresh ones are started under a new epoch —
        any loop from before the crash exits on its next tick.
        """
        if not self.node.down:
            return
        self.node.recover()
        self._epoch += 1
        for stream_id, stream in enumerate(self.streams):
            if not stream.exhausted:
                self._start_transmit(stream, stream_id)
        if (
            self.session.detector is not None
            and self.active
            and not self._heartbeat_running
        ):
            self._heartbeat_running = True
            self.env.process(self._heartbeat_loop(self._epoch))

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
