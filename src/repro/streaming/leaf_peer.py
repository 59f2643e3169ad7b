"""The leaf peer: packet sink, decoder, arrival counts, optional playback."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.fec import ParityDecoder
from repro.net.dedup import DedupWindow
from repro.net.message import Message
from repro.streaming.buffer import PlaybackBuffer

if TYPE_CHECKING:  # pragma: no cover
    from repro.streaming.session import StreamingSession


class LeafPeerAgent:
    """The requesting leaf peer ``LP_s``.

    Media packets feed the :class:`ParityDecoder` (so losses are recovered
    when parity allows) and, when playback is enabled, the
    :class:`PlaybackBuffer`.  Coordination messages (TCoP confirms etc.)
    are forwarded to the protocol strategy.
    """

    def __init__(
        self,
        session: "StreamingSession",
        peer_id: str = "leaf",
        playback: bool = False,
        max_receipt_rate: Optional[float] = None,
        receive_buffer_packets: float = 64.0,
    ) -> None:
        self.session = session
        self.peer_id = peer_id
        self.node = session.overlay.add_node(peer_id, self._on_deliver)
        n = session.config.content_packets
        self.decoder = ParityDecoder(n)
        #: the run's packet ledger (None: an untraced run)
        self.packets = session.commons.packets
        self.buffer = PlaybackBuffer(n)
        #: duplicate-suppression for control traffic keyed on the wire
        #: uid — link-level duplicates share it, so a duplicated confirm
        #: or heartbeat is applied exactly once
        self.dedup = DedupWindow()
        #: media packets received per source peer (health throughput)
        self.arrivals_by_src: dict[str, int] = {}
        #: data arrivals that jumped ahead of a gap — violations of §2's
        #: packet-allocation property (0 under a correct allocation)
        self.order_violations = 0
        self.data_arrivals = 0
        # §3.1's ρ_s: the leaf can absorb at most max_receipt_rate
        # packets/ms; bursts beyond a receive_buffer_packets backlog are
        # dropped before decoding (leaky bucket).  None = unbounded.
        self._rho = max_receipt_rate
        self._bucket_capacity = receive_buffer_packets
        self._bucket_level = 0.0
        self._bucket_updated = 0.0
        #: packets lost to receive-buffer overrun (ρ_s exceeded)
        self.receive_overruns = 0
        self.completed_at: Optional[float] = None
        if playback:
            # startup delay: two control delays plus one packet period
            cfg = session.config
            session.env.call_soon(
                session.env.call_later,
                2 * cfg.delta + 1.0 / cfg.tau,
                self._play,
            )

    @property
    def env(self):
        return self.session.env

    # ------------------------------------------------------------------
    def _on_deliver(self, message: Message) -> None:
        detector = self.session.detector
        if detector is not None and message.src in self.session.peers:
            # anything a peer sends us — media included — proves it alive
            detector.touch(message.src)
        if message.kind == "packet_batch":
            # batched media plane: unbatch into the identical per-packet
            # pipeline (admission, media.rx, arrival counts, decoder).
            # offsets_ms holds each copy's arrival time relative to the
            # batch send instant; the whole batch is delivered at the last
            # arrival, so (now - sent_at - offset) is the time this packet
            # spent coalesced behind slower batch-mates.
            now = self.env.now
            src = message.src
            batch = message.body
            offsets = batch.offsets_ms
            for i, pkt in enumerate(batch.packets):
                wait = now - (message.sent_at + float(offsets[i]))
                self._accept_media(pkt, src, now, wait=wait)
            return
        if message.kind != "packet":
            if self.session.intercept_control(message):
                return  # ack, or duplicate of a retransmitted message
            if message.uid is not None and self.dedup.seen(message.uid):
                # a link fault delivered this physical send twice; the
                # first copy was already applied
                self.session.note_duplicate_suppressed(
                    self.peer_id, message
                )
                return
            self.session.note_control_applied(self.peer_id, message)
            if message.kind == "heartbeat":
                if detector is not None:
                    detector.on_heartbeat(message.body)
                return
            self.session.protocol.handle_leaf_message(self.session, message)
            return
        self._accept_media(message.body, message.src, self.env.now)

    def _accept_media(
        self, pkt, src: str, now: float, wait: Optional[float] = None
    ) -> None:
        """One media packet through admission, stats, and the decoder —
        shared verbatim by the per-packet and batched delivery paths.

        ``wait`` (batched deliveries only) is the time the packet spent
        coalesced behind its batch-mates; it rides on the ``media.rx``
        payload so span builders can separate it from wire latency."""
        if self._rho is not None and not self._admit(now):
            self.receive_overruns += 1
            if self.env.hooks.tracer is not None:
                self.env.hooks.tracer.emit(
                    "buffer.overrun", self.peer_id, src=src
                )
            return
        if self.packets is not None:
            if wait is None:
                self.packets.record("media.rx", self.peer_id, label=pkt.label, src=src)
            else:
                self.packets.record(
                    "media.rx", self.peer_id, label=pkt.label, src=src, wait=wait
                )
        self.arrivals_by_src[src] = self.arrivals_by_src.get(src, 0) + 1
        self._feed_decoder(pkt)
        if self.completed_at is None and self.decoder.complete:
            self.completed_at = now

    def _admit(self, now: float) -> bool:
        """Leaky-bucket admission at rate ρ_s (§3.1's receipt capacity)."""
        drained = (now - self._bucket_updated) * self._rho
        self._bucket_level = max(0.0, self._bucket_level - drained)
        self._bucket_updated = now
        if self._bucket_level + 1.0 > self._bucket_capacity:
            return False
        self._bucket_level += 1.0
        return True

    def _feed_decoder(self, pkt) -> None:
        if not pkt.is_parity:
            self.data_arrivals += 1
            if pkt.seq > self.decoder.contiguous_prefix + 1:
                self.order_violations += 1
        # every newly held data seq (received or parity-recovered) becomes
        # available for playback
        newly = self.decoder.add(pkt)
        if self.packets is not None:
            direct = pkt.label if not pkt.is_parity else None
            for seq in sorted(newly):
                if seq != direct:
                    self.packets.record("fec.recover", self.peer_id, seq=seq)
        for seq in newly:
            self.buffer.offer(seq)

    # ------------------------------------------------------------------
    def _play(self) -> None:
        """One tick of the playback clock: play (or stall on) the next
        frame, then wait one packet period."""
        if self.buffer.finished:
            return
        played = self.buffer.play_next()
        if played is not None:
            if self.packets is not None:
                # playback consumed a frame: the tail event of a
                # packet's causal journey (tx → rx → play)
                self.packets.record("buffer.play", self.peer_id, seq=played)
        else:
            if self.env.hooks.tracer is not None:
                self.env.hooks.tracer.emit(
                    "buffer.underrun",
                    self.peer_id,
                    seq=self.buffer.next_needed,
                )
            # degrade, don't deadlock: after SKIP_AFTER_MISSES
            # consecutive stalls give the packet up and move on —
            # a partitioned leaf keeps (gappy) playback running
            if self.buffer.should_skip:
                skipped = self.buffer.skip()
                if self.env.hooks.tracer is not None:
                    self.env.hooks.tracer.emit(
                        "buffer.skip", self.peer_id, seq=skipped
                    )
        self.env.call_later(1.0 / self.session.config.tau, self._play)

    # ------------------------------------------------------------------
    # measurements
    # ------------------------------------------------------------------
    def receipt_rate(self) -> float:
        """Packets received per data packet of the content — Fig. 12's
        normalized receipt rate (1.0 = exactly the content rate)."""
        return self.decoder.received_count / self.session.config.content_packets

    def __repr__(self) -> str:
        return (
            f"<LeafPeer {self.peer_id} received={self.decoder.received_count} "
            f"held={len(self.decoder.data_seqs_held())}/{self.decoder.n_packets}>"
        )
