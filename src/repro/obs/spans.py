"""Causal spans: stitch trace events into typed spans and attribute latency.

The :class:`SpanBuilder` is an :class:`~repro.obs.trace.Observer` of the
trace bus (live, or offline via :func:`spans_from_jsonl`) that joins raw events
into a causal DAG keyed on the reliable-send ``mid``, the wire ``uid``, and
the media packet label:

* **coordination waves** — one span per flooding round, from the round's
  ``wave.start`` to its last ``peer.activate``;
* **control exchanges** — request → ack per reliable ``mid``, including
  every retransmit attempt and the backoff time burned between the first
  and the final transmission;
* **packet journeys** — source ``media.tx`` through the wire (and batch
  queueing/coalescing), leaf ``media.rx``, FEC recovery, and playback
  consumption (``buffer.play``).

From the DAG it computes three artifacts, packaged as a
:class:`SpanReport`:

1. a per-packet end-to-end latency decomposition into *retransmit/backoff*,
   *batch-queue*, *wire*, *batch-coalesce*, *FEC-recovery* and
   *playback-buffer* components that sums to the measured end-to-end
   latency by construction (the ``attributed_share`` headline pins this);
2. critical paths from session start to coordination completion and to
   last-packet playback, with per-phase/per-peer segments — failure
   detections, quarantine episodes and re-coordination reissues appear as
   named segments when they precede the delivering transmission;
3. per-leaf QoE timelines (receipt-ratio over time, stall events, stall
   *episodes* — i.e. deadline-miss runs — and skips) as
   :class:`~repro.metrics.series.SweepSeries` columns.

Span building is strictly passive: the builder only ever *reads* events,
so a span-enabled run follows a byte-identical trajectory to a span-off
run of the same seed (pinned in ``tests/obs/test_spans.py``).
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.metrics.series import SweepSeries
from repro.obs.exporters import tuplify
from repro.obs.trace import Observer, TraceEvent, replay

if TYPE_CHECKING:  # pragma: no cover
    from repro.streaming.session import StreamingSession

__all__ = [
    "ControlExchange",
    "PacketJourney",
    "PathSegment",
    "SpanBuilder",
    "SpanConfig",
    "SpanReport",
    "WaveSpan",
    "spans_from_jsonl",
]

#: milestone event kinds that become named critical-path segments when
#: they fall inside a packet's retransmit/handoff gap
_MILESTONE_SEGMENTS = {
    "detector.confirm": "failure_detect",
    "health.quarantine": "quarantine",
    "recoord.reissue": "reissue",
    # swarm admission-control decisions: a leaf stuck in the admission
    # queue shows up as named segments on its first packet's gap
    "admit.grant": "admit",
    "admit.reject": "admit_reject",
    "admit.retry": "admit_retry",
}


@dataclass(frozen=True)
class SpanConfig:
    """Tuning knobs for span construction (all read-only).

    ``qoe_bucket_deltas`` sets the QoE-timeline bucket width in δ units;
    ``max_qoe_points`` caps the number of timeline points per leaf (the
    bucket is widened when a long run would exceed it).  ``top_packets``
    bounds how many slowest journeys the report retains verbatim, as
    :data:`TOP_EXCHANGES` does for exchanges (aggregates always cover
    everything).
    """

    qoe_bucket_deltas: float = 1.0
    max_qoe_points: int = 2000
    top_packets: int = 20

    def __post_init__(self) -> None:
        if self.qoe_bucket_deltas <= 0:
            raise ValueError("qoe_bucket_deltas must be positive")
        if self.max_qoe_points < 1:
            raise ValueError("max_qoe_points must be >= 1")
        if self.top_packets < 0:
            raise ValueError("top_packets must be >= 0")


@dataclass(frozen=True)
class WaveSpan:
    """One flooding round: first ``wave.start`` to last ``peer.activate``."""

    round: int
    start_ms: float
    end_ms: float
    activated: int
    last_peer: str

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms

    def to_dict(self) -> Dict[str, Any]:
        out = asdict(self)
        out["duration_ms"] = self.duration_ms
        return out


@dataclass(frozen=True)
class ControlExchange:
    """One reliable control exchange keyed on its ``mid``.

    ``attempts`` counts retransmissions (0 = first try acked);
    ``backoff_ms`` is the time burned between the first and the final
    transmission — pure retransmit/backoff wait.
    """

    mid: int
    kind: str
    src: str
    dst: str
    sent_ms: float
    last_send_ms: float
    attempts: int
    acked_ms: Optional[float]
    gave_up_ms: Optional[float]

    @property
    def outcome(self) -> str:
        if self.acked_ms is not None:
            return "acked"
        if self.gave_up_ms is not None:
            return "gave_up"
        return "open"

    @property
    def backoff_ms(self) -> float:
        return self.last_send_ms - self.sent_ms

    @property
    def duration_ms(self) -> float:
        end = self.acked_ms
        if end is None:
            end = self.gave_up_ms if self.gave_up_ms is not None else self.last_send_ms
        return end - self.sent_ms

    def to_dict(self) -> Dict[str, Any]:
        out = asdict(self)
        out["outcome"] = self.outcome
        out["backoff_ms"] = self.backoff_ms
        out["duration_ms"] = self.duration_ms
        return out


@dataclass(frozen=True)
class PacketJourney:
    """One media packet's causal journey and its latency decomposition.

    The component fields sum to ``e2e_ms`` by construction whenever the
    journey is *timed* (``e2e_ms`` is not None)::

        e2e = retransmit + batch_offset + wire + batch_wait + fec + buffer

    ``retransmit_ms`` is the gap between the packet's first transmission
    and the transmission that actually delivered (handoffs/reissues land
    here); ``batch_offset_ms`` is nominal queueing behind earlier packets
    of the same media batch; ``batch_wait_ms`` is coalescing behind slower
    batch-mates at delivery; ``fec_ms`` is the wait until parity
    reconstruction for packets never received directly; ``buffer_ms`` is
    time parked in the playback buffer before consumption.
    """

    label: Any
    outcome: str  # "delivered" | "recovered" | "lost"
    src: Optional[str] = None
    tx_first_ms: Optional[float] = None
    tx_ms: Optional[float] = None
    rx_ms: Optional[float] = None
    recovered_ms: Optional[float] = None
    played_ms: Optional[float] = None
    end_ms: Optional[float] = None
    e2e_ms: Optional[float] = None
    retransmit_ms: float = 0.0
    batch_offset_ms: float = 0.0
    wire_ms: float = 0.0
    batch_wait_ms: float = 0.0
    fec_ms: float = 0.0
    buffer_ms: float = 0.0

    @property
    def queue_ms(self) -> float:
        """Total batch-induced queueing (offset behind the batch head
        plus coalescing behind slower batch-mates)."""
        return self.batch_offset_ms + self.batch_wait_ms

    @property
    def attributed_ms(self) -> float:
        return (
            self.retransmit_ms
            + self.batch_offset_ms
            + self.wire_ms
            + self.batch_wait_ms
            + self.fec_ms
            + self.buffer_ms
        )

    def to_dict(self) -> Dict[str, Any]:
        out = asdict(self)
        out["queue_ms"] = self.queue_ms
        out["attributed_ms"] = self.attributed_ms
        return out


@dataclass(frozen=True)
class PathSegment:
    """One named hop of a critical path, attributed to an actor."""

    name: str
    actor: str
    start_ms: float
    end_ms: float

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms

    def to_dict(self) -> Dict[str, Any]:
        out = asdict(self)
        out["duration_ms"] = self.duration_ms
        return out


def _label_key(label: Any) -> tuple:
    """Deterministic sort key over mixed int/nested-tuple packet labels."""
    from repro.media.packet import label_sort_key

    return label_sort_key(label)


def _path_length(segments: Tuple[PathSegment, ...]) -> float:
    return segments[-1].end_ms if segments else 0.0


@dataclass
class SpanReport:
    """Everything the span builder distilled from one run's trace."""

    protocol: str
    seed: int
    n_packets: Optional[int] = None
    delta: Optional[float] = None
    waves: Tuple[WaveSpan, ...] = ()
    #: slowest exchanges by duration (aggregates cover all of them)
    exchanges: Tuple[ControlExchange, ...] = ()
    exchange_stats: Dict[str, Any] = field(default_factory=dict)
    #: slowest timed journeys by e2e latency (aggregates cover all)
    packets: Tuple[PacketJourney, ...] = ()
    packet_stats: Dict[str, Any] = field(default_factory=dict)
    coordination_path: Tuple[PathSegment, ...] = ()
    playback_path: Tuple[PathSegment, ...] = ()
    #: per-leaf QoE timelines (receipt ratio, stalls, episodes, skips)
    qoe: Dict[str, SweepSeries] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def coordination_path_ms(self) -> float:
        return _path_length(self.coordination_path)

    @property
    def playback_path_ms(self) -> float:
        return _path_length(self.playback_path)

    @property
    def critical_path_deltas(self) -> Optional[float]:
        """Coordination critical-path length in δ units (the headline)."""
        if self.delta is None or self.delta <= 0:
            return None
        return self.coordination_path_ms / self.delta

    @property
    def attributed_share(self) -> float:
        return self.packet_stats.get("attributed_share", 1.0)

    def headline(self) -> Dict[str, Any]:
        """The deterministic scalars tier-1 pins (``tests/obs/test_spans.py``)."""
        return {
            "critical_path_deltas": self.critical_path_deltas,
            "coordination_path_ms": self.coordination_path_ms,
            "playback_path_ms": self.playback_path_ms,
            "attributed_share": self.attributed_share,
            "delivered": self.packet_stats.get("delivered", 0),
            "recovered": self.packet_stats.get("recovered", 0),
            "lost": self.packet_stats.get("lost", 0),
        }

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        from repro.metrics.io import series_to_dict

        return {
            "type": "span_report",
            "protocol": self.protocol,
            "seed": self.seed,
            "n_packets": self.n_packets,
            "delta": self.delta,
            "headline": self.headline(),
            "waves": [w.to_dict() for w in self.waves],
            "exchanges": [e.to_dict() for e in self.exchanges],
            "exchange_stats": dict(self.exchange_stats),
            "packets": [p.to_dict() for p in self.packets],
            "packet_stats": dict(self.packet_stats),
            "coordination_path": [s.to_dict() for s in self.coordination_path],
            "playback_path": [s.to_dict() for s in self.playback_path],
            "qoe": {
                leaf: series_to_dict(series)
                for leaf, series in sorted(self.qoe.items())
            },
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SpanReport":
        from repro.metrics.io import series_from_dict

        if data.get("type") != "span_report":
            raise ValueError("not a span_report payload")

        def _wave(d: Dict[str, Any]) -> WaveSpan:
            return WaveSpan(
                round=d["round"], start_ms=d["start_ms"], end_ms=d["end_ms"],
                activated=d["activated"], last_peer=d["last_peer"],
            )

        def _exchange(d: Dict[str, Any]) -> ControlExchange:
            return ControlExchange(
                mid=d["mid"], kind=d["kind"], src=d["src"], dst=d["dst"],
                sent_ms=d["sent_ms"], last_send_ms=d["last_send_ms"],
                attempts=d["attempts"], acked_ms=d["acked_ms"],
                gave_up_ms=d["gave_up_ms"],
            )

        def _journey(d: Dict[str, Any]) -> PacketJourney:
            keys = (
                "outcome", "src", "tx_first_ms", "tx_ms", "rx_ms",
                "recovered_ms", "played_ms", "end_ms", "e2e_ms",
                "retransmit_ms", "batch_offset_ms", "wire_ms",
                "batch_wait_ms", "fec_ms", "buffer_ms",
            )
            return PacketJourney(
                label=tuplify(d["label"]), **{k: d[k] for k in keys}
            )

        def _segment(d: Dict[str, Any]) -> PathSegment:
            return PathSegment(
                name=d["name"], actor=d["actor"],
                start_ms=d["start_ms"], end_ms=d["end_ms"],
            )

        return cls(
            protocol=data["protocol"],
            seed=data["seed"],
            n_packets=data.get("n_packets"),
            delta=data.get("delta"),
            waves=tuple(_wave(w) for w in data.get("waves", [])),
            exchanges=tuple(_exchange(e) for e in data.get("exchanges", [])),
            exchange_stats=dict(data.get("exchange_stats", {})),
            packets=tuple(_journey(p) for p in data.get("packets", [])),
            packet_stats=dict(data.get("packet_stats", {})),
            coordination_path=tuple(
                _segment(s) for s in data.get("coordination_path", [])
            ),
            playback_path=tuple(
                _segment(s) for s in data.get("playback_path", [])
            ),
            qoe={
                leaf: series_from_dict(payload)
                for leaf, payload in data.get("qoe", {}).items()
            },
        )

    def write(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True))
        return path

    # ------------------------------------------------------------------
    def summary(self, top: int = 5) -> str:
        """Human-readable digest: headline, waves, slowest packets."""
        ps = self.packet_stats
        lines = [
            f"span report · {self.protocol} seed={self.seed}",
            (
                f"  coordination critical path: {self.coordination_path_ms:.3f} ms"
                + (
                    f" ({self.critical_path_deltas:.2f} δ)"
                    if self.critical_path_deltas is not None
                    else ""
                )
                + f" over {len(self.waves)} waves"
            ),
            (
                f"  playback critical path:     {self.playback_path_ms:.3f} ms"
                f" ({len(self.playback_path)} segments)"
            ),
            (
                f"  packets: {ps.get('delivered', 0)} delivered, "
                f"{ps.get('recovered', 0)} recovered, {ps.get('lost', 0)} lost"
                f" · attributed share {self.attributed_share:.4f}"
            ),
            (
                f"  exchanges: {self.exchange_stats.get('total', 0)} total, "
                f"{self.exchange_stats.get('acked', 0)} acked, "
                f"{self.exchange_stats.get('gave_up', 0)} abandoned, "
                f"{self.exchange_stats.get('retransmit_attempts', 0)} retransmits"
            ),
        ]
        if ps.get("e2e_mean_ms") is not None:
            lines.append(
                f"  e2e latency: mean {ps['e2e_mean_ms']:.3f} ms, "
                f"max {ps['e2e_max_ms']:.3f} ms"
            )
        shown = self.packets[: max(0, top)]
        if shown:
            lines.append(f"  slowest {len(shown)} packets:")
            for j in shown:
                parts = [
                    f"{name}={value:.3f}"
                    for name, value in (
                        ("retx", j.retransmit_ms),
                        ("queue", j.queue_ms),
                        ("wire", j.wire_ms),
                        ("fec", j.fec_ms),
                        ("buffer", j.buffer_ms),
                    )
                    if value > 0.0
                ]
                lines.append(
                    f"    {j.label!r:>12} e2e={j.e2e_ms:.3f} ms "
                    f"[{' '.join(parts) or 'instant'}] via {j.src or '-'}"
                    f" ({j.outcome})"
                )
        return "\n".join(lines)

    def render_critical_path(self) -> str:
        """Both critical paths as indented segment listings."""
        lines: List[str] = []
        for title, segments in (
            ("coordination", self.coordination_path),
            ("playback", self.playback_path),
        ):
            lines.append(
                f"critical path · {title} "
                f"({_path_length(segments):.3f} ms, {len(segments)} segments)"
            )
            for seg in segments:
                lines.append(
                    f"  {seg.start_ms:10.3f} → {seg.end_ms:10.3f}  "
                    f"{seg.name:<18} +{seg.duration_ms:9.3f} ms  [{seg.actor}]"
                )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"<SpanReport {self.protocol} waves={len(self.waves)} "
            f"packets={sum(self.packet_stats.get(k, 0) for k in ('delivered', 'recovered', 'lost'))} "
            f"share={self.attributed_share:.3f}>"
        )


#: how many slowest control exchanges a report retains verbatim
TOP_EXCHANGES = 20


class SpanBuilder(Observer):
    """Streaming span construction over the trace-event firehose.

    An :class:`~repro.obs.trace.Observer`: the run binds and subscribes
    it when ``SessionSpec.spans`` is set, :func:`spans_from_jsonl`
    replays a recorded trace to it, or events are fed by hand;
    :meth:`finish` returns the :class:`SpanReport`.  The builder never
    emits events and never mutates simulation state.
    """

    result_field = "spans"

    def __init__(self, config: Optional[SpanConfig] = None) -> None:
        self.config = config or SpanConfig()
        # raw joins, keyed for O(1) stitching
        self._wave_starts: Dict[int, float] = {}
        self._activations: List[Tuple[float, str, int]] = []
        self._first_act: Dict[str, Tuple[float, int]] = {}
        self._exchanges: Dict[int, Dict[str, Any]] = {}
        #: label -> [(ts, sender, batch offset)] in emission order
        self._tx: Dict[Any, List[Tuple[float, str, float]]] = {}
        #: label -> [(ts, src, batch wait, receiving leaf)]
        self._rx: Dict[Any, List[Tuple[float, str, float, str]]] = {}
        self._recovered: Dict[Tuple[str, int], float] = {}
        self._played: Dict[Tuple[str, int], float] = {}
        self._underruns: List[Tuple[float, str, Any]] = []
        self._skips: List[Tuple[float, str]] = []
        self._milestones: List[Tuple[float, str, str]] = []

    def _on_tx(self, event: TraceEvent) -> None:
        payload = event.fields
        self._tx.setdefault(payload["label"], []).append(
            (event.ts, event.subject, float(payload.get("off", 0.0)))
        )

    def _on_rx(self, event: TraceEvent) -> None:
        payload = event.fields
        wait = float(payload.get("wait", 0.0))
        self._rx.setdefault(payload["label"], []).append(
            (event.ts, payload.get("src", ""), wait, event.subject)
        )

    def _on_send(self, event: TraceEvent) -> None:
        payload = event.fields
        mid = payload.get("mid")
        if mid is None:
            return
        ex = self._exchanges.get(mid)
        if ex is None:
            self._exchanges[mid] = dict(
                mid=mid, kind=payload.get("kind", ""), src=event.subject,
                dst=payload.get("dst", ""), sent=event.ts, last=event.ts,
                attempts=0, acked=None, gave_up=None,
            )
        else:
            ex["last"] = event.ts

    def _on_retransmit(self, event: TraceEvent) -> None:
        ex = self._exchanges.get(event.fields.get("mid"))
        if ex is not None:
            ex["attempts"] += 1

    def _on_ack(self, event: TraceEvent) -> None:
        ex = self._exchanges.get(event.fields.get("mid"))
        if ex is not None and ex["acked"] is None:
            ex["acked"] = event.ts

    def _on_give_up(self, event: TraceEvent) -> None:
        ex = self._exchanges.get(event.fields.get("mid"))
        if ex is not None and ex["gave_up"] is None:
            ex["gave_up"] = event.ts

    def _on_recover(self, event: TraceEvent) -> None:
        self._recovered.setdefault((event.subject, event.fields["seq"]), event.ts)

    def _on_play(self, event: TraceEvent) -> None:
        self._played.setdefault((event.subject, event.fields["seq"]), event.ts)

    def _on_underrun(self, event: TraceEvent) -> None:
        self._underruns.append((event.ts, event.subject, event.fields.get("seq")))

    def _on_skip(self, event: TraceEvent) -> None:
        self._skips.append((event.ts, event.subject))

    def _on_activate(self, event: TraceEvent) -> None:
        r = event.fields["round"]
        self._activations.append((event.ts, event.subject, r))
        self._first_act.setdefault(event.subject, (event.ts, r))

    def _on_wave_start(self, event: TraceEvent) -> None:
        self._wave_starts.setdefault(event.fields["round"], event.ts)

    def _on_milestone(self, event: TraceEvent) -> None:
        self._milestones.append((event.ts, event.kind, event.subject))

    #: kind -> handler: the kinds the builder reads, declared once in the
    #: form :meth:`on_event` dispatches on
    handlers = {
        "media.tx": _on_tx,
        "media.rx": _on_rx,
        "msg.send": _on_send,
        "msg.retransmit": _on_retransmit,
        "msg.ack": _on_ack,
        "msg.give_up": _on_give_up,
        "fec.recover": _on_recover,
        "buffer.play": _on_play,
        "buffer.underrun": _on_underrun,
        "buffer.skip": _on_skip,
        "peer.activate": _on_activate,
        "wave.start": _on_wave_start,
        **dict.fromkeys(_MILESTONE_SEGMENTS, _on_milestone),
    }

    # ------------------------------------------------------------------
    # span assembly
    # ------------------------------------------------------------------
    def _build_waves(self) -> Tuple[WaveSpan, ...]:
        first: Dict[int, float] = {}
        last: Dict[int, Tuple[float, str]] = {}
        count: Dict[int, int] = {}
        for ts, peer, r in self._activations:
            count[r] = count.get(r, 0) + 1
            if r not in first or ts < first[r]:
                first[r] = ts
            cur = last.get(r)
            if cur is None or ts > cur[0]:
                last[r] = (ts, peer)
        return tuple(
            WaveSpan(
                round=r,
                start_ms=self._wave_starts.get(r, first[r]),
                end_ms=last[r][0],
                activated=count[r],
                last_peer=last[r][1],
            )
            for r in sorted(last)
        )

    def _build_exchanges(self) -> Tuple[ControlExchange, ...]:
        return tuple(
            ControlExchange(
                mid=ex["mid"], kind=ex["kind"], src=ex["src"], dst=ex["dst"],
                sent_ms=ex["sent"], last_send_ms=ex["last"],
                attempts=ex["attempts"], acked_ms=ex["acked"],
                gave_up_ms=ex["gave_up"],
            )
            for _, ex in sorted(self._exchanges.items())
        )

    def _build_journey(self, label: Any) -> PacketJourney:
        leaf = self.leaf_id
        txs = sorted(self._tx.get(label, ()))
        rxs = sorted(r for r in self._rx.get(label, ()) if r[3] == leaf)
        tx_first = txs[0][0] if txs else None
        rec = (
            self._recovered.get((leaf, label))
            if isinstance(label, int)
            else None
        )
        play = (
            self._played.get((leaf, label)) if isinstance(label, int) else None
        )
        rx = rxs[0] if rxs else None

        retx = off = wire = wait = fec = buf = 0.0
        src = tx_ms = rx_ms = held = None
        if rx is not None and (rec is None or rx[0] <= rec):
            outcome = "delivered"
            rx_ms, src, wait = rx[0], rx[1], rx[2]
            held = rx_ms
            # match the delivering transmission: latest tx from the same
            # sender at or before the receive (falling back to any sender,
            # then to the first tx, for traces with partial linkage)
            match = None
            for t in txs:
                if t[0] <= rx_ms + 1e-9 and t[1] == src:
                    match = t
            if match is None:
                for t in txs:
                    if t[0] <= rx_ms + 1e-9:
                        match = t
            if match is None and txs:
                match = txs[0]
            if match is not None:
                tx_ms, _, off = match[0], match[1], match[2]
                retx = tx_ms - tx_first
                wire = rx_ms - tx_ms - off - wait
        elif rec is not None:
            outcome = "recovered"
            held = rec
            if tx_first is not None:
                # the packet itself never arrived: its whole latency is
                # the wait until parity reconstructed it
                fec = rec - tx_first
        else:
            outcome = "lost"

        end = held
        if play is not None and held is not None:
            buf = play - held
            end = play
        e2e = None
        if end is not None and tx_first is not None:
            e2e = end - tx_first
        return PacketJourney(
            label=label,
            outcome=outcome,
            src=src,
            tx_first_ms=tx_first,
            tx_ms=tx_ms,
            rx_ms=rx_ms,
            recovered_ms=rec,
            played_ms=play,
            end_ms=end,
            e2e_ms=e2e,
            retransmit_ms=retx,
            batch_offset_ms=off,
            wire_ms=wire,
            batch_wait_ms=wait,
            fec_ms=fec,
            buffer_ms=buf,
        )

    def _build_journeys(self) -> List[PacketJourney]:
        labels = set(self._tx) | set(self._rx)
        labels.update(
            seq for leaf, seq in self._recovered if leaf == self.leaf_id
        )
        return [
            self._build_journey(label)
            for label in sorted(labels, key=_label_key)
        ]

    # ------------------------------------------------------------------
    def _coordination_path(
        self, waves: Tuple[WaveSpan, ...]
    ) -> Tuple[PathSegment, ...]:
        """Monotone chain of wave segments: each round's boundary is the
        cumulative max of last-activation instants (a later round can only
        complete after the rounds that seeded it)."""
        segments: List[PathSegment] = []
        boundary = 0.0
        for w in waves:
            end = max(boundary, w.end_ms)
            # a round fully shadowed by an earlier boundary (its last
            # activation predates a predecessor's) adds no path time
            if end > boundary or not segments:
                segments.append(
                    PathSegment(
                        name=f"wave {w.round}",
                        actor=w.last_peer,
                        start_ms=boundary,
                        end_ms=end,
                    )
                )
                boundary = end
        return tuple(segments)

    def _playback_path(
        self, waves: Tuple[WaveSpan, ...], journeys: List[PacketJourney]
    ) -> Tuple[PathSegment, ...]:
        """Session start → activation of the delivering peer → transmit
        schedule → (retransmit gap with named quarantine/reissue
        milestones) → wire → playback for the *last-finishing* packet."""
        timed = [j for j in journeys if j.e2e_ms is not None]
        if not timed:
            return ()
        played = [j for j in timed if j.played_ms is not None]
        if played:
            # the path ends at the last *consumed* frame; a journey's
            # end_ms can postdate its playback (e.g. a straggling
            # transmission of a seq parity already recovered)
            target = max(
                played, key=lambda j: (j.played_ms, _label_key(j.label))
            )
        else:
            target = max(
                timed, key=lambda j: (j.end_ms, _label_key(j.label))
            )

        segments: List[PathSegment] = []
        boundary = 0.0

        def push(name: str, actor: str, end: float) -> None:
            nonlocal boundary
            end = max(boundary, end)
            if end > boundary or not segments:
                segments.append(
                    PathSegment(
                        name=name, actor=actor,
                        start_ms=boundary, end_ms=end,
                    )
                )
                boundary = end

        act = self._first_act.get(target.src) if target.src else None
        if act is not None:
            act_ts, act_round = act
            for w in waves:
                if w.round >= act_round or boundary >= act_ts:
                    break
                push(f"wave {w.round}", w.last_peer, min(w.end_ms, act_ts))
            push(f"activate {target.src}", target.src, act_ts)
        tx_first = target.tx_first_ms
        if target.outcome == "recovered":
            # the recovery is causally fed by the parity group's
            # arrivals — the seq's own transmission may even straggle in
            # *after* the decoder already reconstructed it
            push(
                "schedule",
                target.src or self.leaf_id,
                min(tx_first, target.recovered_ms),
            )
            push("fec_recover", self.leaf_id, target.recovered_ms)
        else:
            push("schedule", target.src or self.leaf_id, tx_first)
            if target.retransmit_ms > 0 and target.tx_ms is not None:
                # name any detection/quarantine/reissue milestones that
                # fall inside the gap before the delivering transmission
                inside = sorted(
                    m
                    for m in self._milestones
                    if boundary < m[0] <= target.tx_ms
                )
                for ts, mkind, msubject in inside:
                    push(_MILESTONE_SEGMENTS[mkind], msubject, ts)
                push("retransmit", target.src or "", target.tx_ms)
            if target.batch_offset_ms > 0:
                push(
                    "batch_queue",
                    target.src or "",
                    boundary + target.batch_offset_ms,
                )
            push(
                "wire",
                f"{target.src}->{self.leaf_id}",
                boundary + target.wire_ms,
            )
            if target.batch_wait_ms > 0:
                push(
                    "batch_coalesce",
                    self.leaf_id,
                    boundary + target.batch_wait_ms,
                )
        if target.played_ms is not None:
            push("playback_buffer", self.leaf_id, target.played_ms)
        return tuple(segments)

    # ------------------------------------------------------------------
    def _build_qoe(self) -> Dict[str, SweepSeries]:
        leaves = sorted(
            {r[3] for entries in self._rx.values() for r in entries}
            | {leaf for leaf, _ in self._recovered}
            | {leaf for _, leaf, _ in self._underruns}
            | {leaf for _, leaf in self._skips}
            | {leaf for leaf, _ in self._played}
        )
        out: Dict[str, SweepSeries] = {}
        end = self.last_ts
        bucket = self.config.qoe_bucket_deltas * (
            self.delta if self.delta else 1.0
        )
        n_points = max(1, int(end / bucket) + 1)
        if n_points > self.config.max_qoe_points:
            n_points = self.config.max_qoe_points
            bucket = end / n_points
        for leaf in leaves:
            held: Dict[int, float] = {}
            for label, entries in self._rx.items():
                if not isinstance(label, int):
                    continue
                for ts, _, _, subject in entries:
                    if subject == leaf and (
                        label not in held or ts < held[label]
                    ):
                        held[label] = ts
            for (rleaf, seq), ts in self._recovered.items():
                if rleaf == leaf and (seq not in held or ts < held[seq]):
                    held[seq] = ts
            held_ts = sorted(held.values())
            stalls = sorted(ts for ts, uleaf, _ in self._underruns if uleaf == leaf)
            episodes = []
            prev_seq: Any = object()
            for ts, uleaf, seq in self._underruns:
                if uleaf != leaf:
                    continue
                # consecutive underruns on the same missing seq are one
                # stall episode (a deadline-miss run)
                if seq != prev_seq:
                    episodes.append(ts)
                prev_seq = seq
            skips = sorted(ts for ts, sleaf in self._skips if sleaf == leaf)
            denom = self.n_packets or max(len(held), 1)
            series = SweepSeries(
                "t_ms",
                ["receipt_ratio", "stalls", "stall_episodes", "skips"],
                title=f"QoE timeline · {leaf}",
            )
            for i in range(n_points):
                t = bucket * (i + 1)
                series.add(
                    t,
                    receipt_ratio=bisect_right(held_ts, t) / denom,
                    stalls=bisect_right(stalls, t),
                    stall_episodes=bisect_right(episodes, t),
                    skips=bisect_right(skips, t),
                )
            out[leaf] = series
        return out

    # ------------------------------------------------------------------
    def finish(self, session: Optional["StreamingSession"] = None) -> SpanReport:
        """Assemble the :class:`SpanReport` from everything observed."""
        waves = self._build_waves()
        exchanges = self._build_exchanges()
        journeys = self._build_journeys()

        acked = [e for e in exchanges if e.acked_ms is not None]
        gave_up = [e for e in exchanges if e.outcome == "gave_up"]
        exchange_stats: Dict[str, Any] = {
            "total": len(exchanges),
            "acked": len(acked),
            "gave_up": len(gave_up),
            "open": len(exchanges) - len(acked) - len(gave_up),
            "retransmit_attempts": sum(e.attempts for e in exchanges),
            "backoff_total_ms": sum(e.backoff_ms for e in exchanges),
            "rtt_mean_ms": (
                sum(e.duration_ms for e in acked) / len(acked) if acked else None
            ),
            "rtt_max_ms": (
                max(e.duration_ms for e in acked) if acked else None
            ),
        }

        timed = [j for j in journeys if j.e2e_ms is not None]
        e2e_total = sum(j.e2e_ms for j in timed)
        attributed_total = sum(j.attributed_ms for j in timed)
        packet_stats: Dict[str, Any] = {
            "delivered": sum(1 for j in journeys if j.outcome == "delivered"),
            "recovered": sum(1 for j in journeys if j.outcome == "recovered"),
            "lost": sum(1 for j in journeys if j.outcome == "lost"),
            "timed": len(timed),
            "played": sum(1 for j in journeys if j.played_ms is not None),
            "e2e_total_ms": e2e_total,
            "attributed_total_ms": attributed_total,
            "attributed_share": (
                attributed_total / e2e_total if e2e_total > 0 else 1.0
            ),
            "e2e_mean_ms": e2e_total / len(timed) if timed else None,
            "e2e_max_ms": max((j.e2e_ms for j in timed), default=None),
            "retransmit_total_ms": sum(j.retransmit_ms for j in timed),
            "queue_total_ms": sum(j.queue_ms for j in timed),
            "wire_total_ms": sum(j.wire_ms for j in timed),
            "fec_total_ms": sum(j.fec_ms for j in timed),
            "buffer_total_ms": sum(j.buffer_ms for j in timed),
        }

        slowest_packets = tuple(
            sorted(
                timed,
                key=lambda j: (-j.e2e_ms, _label_key(j.label)),
            )[: self.config.top_packets]
        )
        slowest_exchanges = tuple(
            sorted(exchanges, key=lambda e: (-e.duration_ms, e.mid))[:TOP_EXCHANGES]
        )

        return SpanReport(
            protocol=self.protocol,
            seed=self.seed,
            n_packets=self.n_packets,
            delta=self.delta,
            waves=waves,
            exchanges=slowest_exchanges,
            exchange_stats=exchange_stats,
            packets=slowest_packets,
            packet_stats=packet_stats,
            coordination_path=self._coordination_path(waves),
            playback_path=self._playback_path(waves, journeys),
            qoe=self._build_qoe(),
        )


# ----------------------------------------------------------------------
# offline replay
# ----------------------------------------------------------------------
def spans_from_jsonl(
    source: Union[str, Path, Iterable[str]],
    config: Optional[SpanConfig] = None,
    leaf_id: str = "leaf",
    n_packets: Optional[int] = None,
    delta: Optional[float] = None,
    tau: Optional[float] = None,
    protocol: str = "replay",
    seed: int = -1,
) -> SpanReport:
    """Build a :class:`SpanReport` from a recorded JSONL trace.

    ``source`` is a path or an iterable of JSONL lines in the format
    :func:`~repro.obs.exporters.trace_to_jsonl` writes.  The trace must
    be unfiltered (``TraceConfig(categories=None)``) for the report to
    match the online one — a category-filtered dump is missing joins.
    """
    return replay(
        source, [SpanBuilder(config)], leaf_id=leaf_id, n_packets=n_packets,
        delta=delta, tau=tau, protocol=protocol, seed=seed,
    )[0]
