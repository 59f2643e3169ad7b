"""A single-leaf run's time series, read off its log.

:class:`TimeSeriesSampler` is an observer like the auditors and the span
builder: bound when the run is built, it reads the run's log once, at
finish (:func:`~repro.obs.trace.feed`), and schedules nothing.  Its
handlers keep six running values as the walk passes — send totals, the
active population, control messages on the wire, the playback buffer's
level, leaf arrivals — and every :data:`SAMPLE_PERIOD_DELTAS` δ of
simulated time it records them.  A sample at ``t`` counts every event
stamped ``≤ t``, so no value depends on how the scheduler ordered the
events of one instant.  The result is a
:class:`~repro.metrics.series.SweepSeries` (x = time in ms, one column
per value), so the harness's table/JSON machinery renders a run's
*trajectory* the same way it renders a sweep's end-state.
"""

from __future__ import annotations

from math import inf
from typing import TYPE_CHECKING, Optional

from repro.metrics.series import SweepSeries
from repro.obs.trace import CONTROL_KINDS, Observer, TraceEvent
from repro.streaming.buffer import PlaybackBuffer

if TYPE_CHECKING:  # pragma: no cover
    from repro.streaming.session import StreamingSession

#: the sampler's tick, in δ units
SAMPLE_PERIOD_DELTAS = 1.0
#: the sampler stops after this many ticks
MAX_SAMPLES = 2000

#: drop reasons that end an in-flight message (a ``sender_down`` drop
#: never entered a channel, so it settles nothing)
_IN_FLIGHT_DROPS = frozenset(
    {"control_loss", "channel_loss", "dst_down", "link_severed"}
)


class TimeSeriesSampler(Observer):
    """A single-leaf run's trajectory, one sample every
    :data:`SAMPLE_PERIOD_DELTAS` δ.

    The ticks are ``t += SAMPLE_PERIOD_DELTAS·δ`` from 0, and a tick
    closes once the walk passes an event stamped after it.  Sampling
    stops at the first tick that finds the content complete or is at or
    past the run's end (the walk's ``end``, or its last event if later),
    or after :data:`MAX_SAMPLES` ticks.  Columns:

    * ``ctrl_sends``/``media_sends`` — ``msg.send`` totals, control kinds
      (:data:`~repro.obs.trace.CONTROL_KINDS`) and the rest (a batch
      counts its packets);
    * ``active_peers`` — peers activated and not down;
    * ``in_flight_control`` — control sends not yet received (first copy)
      or lost on the wire, clamped at zero;
    * ``buffer_level`` — data seqs the leaf holds and has not played or
      skipped past;
    * ``receipt_rate`` — leaf arrivals over the last tick, normalised to τ.
    """

    result_field = "timeseries"

    def bind(self, session=None, **context):
        super().bind(session, **context)
        self.series = SweepSeries(
            "t_ms",
            ["active_peers", "buffer_level", "ctrl_sends",
             "in_flight_control", "media_sends", "receipt_rate"],
            title=f"{self.protocol} run timeseries",
        )
        self._period = SAMPLE_PERIOD_DELTAS * self.delta
        #: the next tick to close (inf: sampling is over)
        self._tick = self._period
        self._ctrl = self._media = self._in_flight = 0
        self._activated, self._down = set(), set()
        #: the leaf's buffer, replayed; every data seq the leaf obtained
        self._buffer, self._seqs = PlaybackBuffer(self.n_packets), set()
        #: leaf arrivals, and their count and time at the last sample
        self._arrivals, self._window = 0, (0, 0.0)
        return self

    # ------------------------------------------------------------------
    def _close(self, ts: float) -> None:
        """Sample every open tick before ``ts``."""
        while self._tick < ts:
            self._tick = inf if self._sample() else self._tick + self._period

    def _sample(self) -> bool:
        """Record the running values at the tick; whether sampling ends."""
        t, arrivals = self._tick, self._arrivals
        prev, prev_t = self._window
        self._window = (arrivals, t)
        self.series.add(
            t,
            active_peers=float(len(self._activated - self._down)),
            buffer_level=float(self._buffer.level),
            ctrl_sends=float(self._ctrl),
            in_flight_control=float(self._in_flight),
            media_sends=float(self._media),
            receipt_rate=(
                (arrivals - prev) / (t - prev_t) / self.tau if t > prev_t else 0.0
            ),
        )
        return len(self._seqs) == self.n_packets or len(self.series) >= MAX_SAMPLES

    # ------------------------------------------------------------------
    def _on_send(self, event: TraceEvent) -> None:
        ts, _, _, fields = event
        if ts > self._tick:
            self._close(ts)
        if fields["kind"] in CONTROL_KINDS:
            self._ctrl += 1
            self._in_flight += 1
        else:
            self._media += fields.get("count", 1)

    def _on_recv(self, event: TraceEvent) -> None:
        ts, _, _, fields = event
        if ts > self._tick:
            self._close(ts)
        # a link fault's extra copies (dup=1) were never sends
        if fields["kind"] in CONTROL_KINDS and not fields.get("dup"):
            self._in_flight = max(0, self._in_flight - 1)

    def _on_drop(self, event: TraceEvent) -> None:
        ts, _, _, fields = event
        if ts > self._tick:
            self._close(ts)
        if fields["kind"] in CONTROL_KINDS and fields["reason"] in _IN_FLIGHT_DROPS:
            self._in_flight = max(0, self._in_flight - 1)

    def _on_peer(self, event: TraceEvent) -> None:
        ts, kind, peer, _ = event
        if ts > self._tick:
            self._close(ts)
        if kind == "peer.activate":
            self._activated.add(peer)
        elif kind == "peer.crash":
            self._down.add(peer)
        else:  # peer.rejoin
            self._down.discard(peer)

    def _on_leaf(self, event: TraceEvent) -> None:
        ts, kind, leaf, fields = event
        if leaf != self.leaf_id:
            return
        if ts > self._tick:
            self._close(ts)
        if kind == "media.rx":
            self._arrivals += 1
            seq = fields["label"]  # a parity label is no data seq
        elif kind == "fec.recover":
            seq = fields["seq"]
        elif kind == "buffer.play":
            self._buffer.play_next()
            return
        else:  # buffer.skip
            self._buffer.skip()
            return
        if isinstance(seq, int):
            self._seqs.add(seq)
            self._buffer.offer(seq)

    handlers = {
        "msg.send": _on_send,
        "msg.recv": _on_recv,
        "msg.drop": _on_drop,
        **dict.fromkeys(("peer.activate", "peer.crash", "peer.rejoin"), _on_peer),
        **dict.fromkeys(
            ("media.rx", "fec.recover", "buffer.play", "buffer.skip"), _on_leaf
        ),
    }

    def finish(self, session: Optional["StreamingSession"] = None) -> SweepSeries:
        """Close the ticks left up to the run's end; the series."""
        end = max(self._walk.now, self.last_ts)
        while self._tick < inf and not self._sample() and self._tick < end:
            self._tick += self._period
        return self.series
