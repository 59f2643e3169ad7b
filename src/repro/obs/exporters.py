"""Trace and run-artifact exporters.

Three formats:

* **JSONL** — one event per line, keys sorted; byte-identical across
  equal-seed runs, so dumps diff cleanly and the determinism tests can
  compare them verbatim;
* **Chrome trace-event JSON** — loads in ``chrome://tracing`` and
  `Perfetto <https://ui.perfetto.dev>`_; every peer (and the leaf) gets
  its own named track, flooding waves render as duration slices on a
  dedicated ``waves`` track, and a span report's spans render as async
  span tracks;
* **run summary** — the :class:`SessionResult`, the sampled time series,
  trace statistics, and any audit/span report as one artifact document
  via :mod:`repro.metrics.io`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Iterable, Iterator, List, Optional, Union

from repro.obs.trace import TraceEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.spans import SpanReport
    from repro.obs.trace import TraceBus
    from repro.streaming.session import SessionResult

#: Perfetto wants integer microseconds; the sim clock runs in ms
_US_PER_MS = 1000


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def event_to_dict(event: "TraceEvent") -> Dict[str, Any]:
    """One event as a flat JSON object.

    ``msg.*`` payloads carry a ``kind`` field of their own (the message
    kind — ``request``, ``packet``, …) which would shadow the event kind
    in the flat record; it is exported as ``msg_kind`` and
    :func:`event_from_dict` maps it back.
    """
    data = event.payload()  # the one copy an exported event costs
    msg_kind = data.pop("kind", None)
    if msg_kind is not None:
        data["msg_kind"] = msg_kind
    data["ts"] = event.ts
    data["kind"] = event.kind
    data["subject"] = event.subject
    return data


def trace_to_dict(bus: "TraceBus") -> Dict[str, Any]:
    """The bus as one JSON-able document: what ``detach()`` ships."""
    return {
        "type": "trace",
        "events": [event_to_dict(e) for e in bus.events],
        "dropped_events": bus.dropped_events,
        "counts_by_kind": dict(bus.counts_by_kind),
        "participants": list(bus.participants),
    }


def tuplify(value: Any) -> Any:
    """JSON round-trip turns label tuples into lists; undo that."""
    if isinstance(value, list):
        return tuple(tuplify(v) for v in value)
    return value


def event_from_dict(record: Dict[str, Any]) -> TraceEvent:
    """The inverse of :func:`event_to_dict`, JSON round-trip included."""
    fields = {
        key: tuplify(value)
        for key, value in record.items()
        if key not in ("ts", "kind", "subject")
    }
    if "msg_kind" in fields:
        fields["kind"] = fields.pop("msg_kind")
    return TraceEvent(record["ts"], record["kind"], record["subject"], fields)


def read_jsonl(source: Union[str, Path, Iterable[str]]) -> Iterator[TraceEvent]:
    """The events of a JSONL trace: a path, or an iterable of its lines."""
    if isinstance(source, (str, Path)):
        source = Path(source).read_text().splitlines()
    for line in source:
        if line.strip():
            yield event_from_dict(json.loads(line))


def trace_to_jsonl(bus: "TraceBus") -> str:
    """One sorted-key JSON object per line; deterministic byte-for-byte."""
    lines = [
        json.dumps(event_to_dict(e), sort_keys=True, separators=(",", ":"))
        for e in bus.events
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def write_jsonl(bus: "TraceBus", path: Union[str, Path]) -> None:
    Path(path).write_text(trace_to_jsonl(bus))


# ----------------------------------------------------------------------
# Chrome trace_event format
# ----------------------------------------------------------------------
def trace_to_chrome(
    bus: "TraceBus",
    spans: Optional["SpanReport"] = None,
) -> Dict[str, Any]:
    """Convert to the Chrome ``trace_event`` JSON object format.

    Layout: pid 1 = the session; each participant (leaf + every contents
    peer) is a thread (track) holding its events as instants; tid 0 is a
    synthetic ``waves`` track where each flooding round ``r`` appears as a
    complete (``X``) slice spanning ``wave.start`` → ``wave.end``.

    With ``spans`` (a span-enabled run's
    :class:`~repro.obs.spans.SpanReport`), the report's wave spans,
    slowest control exchanges, slowest packet journeys, and critical-path
    segments are appended as Perfetto **async span tracks** (``ph:
    "b"``/``"e"``) via :func:`span_async_events`.
    """
    tids: Dict[str, int] = {}
    events: List[Dict[str, Any]] = []

    def tid_of(subject: str) -> int:
        tid = tids.get(subject)
        if tid is None:
            tid = len(tids) + 1  # tid 0 is reserved for the waves track
            tids[subject] = tid
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": tid,
                    "args": {"name": subject},
                }
            )
        return tid

    events.append(
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": "streaming session"},
        }
    )
    events.append(
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": "waves"},
        }
    )
    # every participant gets a track even if it never emitted an event —
    # Perfetto then shows the dormant peers too
    for subject in bus.participants:
        tid_of(subject)

    wave_starts: Dict[int, float] = {}
    for event in bus.events:
        if event.kind == "wave.start":
            wave_starts[event.fields["round"]] = event.ts
            continue
        payload = event.payload()
        if event.kind == "wave.end":
            r = payload["round"]
            start = wave_starts.pop(r, event.ts)
            events.append(
                {
                    "name": f"wave {r}",
                    "cat": "wave",
                    "ph": "X",
                    "pid": 1,
                    "tid": 0,
                    "ts": int(round(start * _US_PER_MS)),
                    "dur": max(1, int(round((event.ts - start) * _US_PER_MS))),
                    "args": payload,
                }
            )
            continue
        events.append(
            {
                "name": event.kind,
                "cat": event.category,
                "ph": "i",
                "s": "t",
                "pid": 1,
                "tid": tid_of(event.subject),
                "ts": int(round(event.ts * _US_PER_MS)),
                "args": payload,
            }
        )
    # waves that started but never closed (no activation landed) render
    # as zero-length slices so the attempt is still visible
    for r, start in sorted(wave_starts.items()):
        events.append(
            {
                "name": f"wave {r}",
                "cat": "wave",
                "ph": "X",
                "pid": 1,
                "tid": 0,
                "ts": int(round(start * _US_PER_MS)),
                "dur": 1,
                "args": {"round": r, "activated": 0},
            }
        )
    if spans is not None:
        events.extend(span_async_events(spans))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def span_async_events(report: "SpanReport") -> List[Dict[str, Any]]:
    """A span report's spans as Chrome/Perfetto async (``b``/``e``) events.

    Each span family gets its own category — ``span.wave`` (one async
    span per flooding round), ``span.ctrl`` (the report's slowest control
    exchanges, args carrying attempts/outcome), ``span.packet`` (the
    slowest packet journeys, args carrying the latency decomposition),
    and ``span.path`` (critical-path segments, coordination and
    playback) — so Perfetto renders each as a separate span track.
    Aggregates always cover every span; these tracks visualize the
    report-retained subset.
    """
    events: List[Dict[str, Any]] = []

    def span(
        cat: str,
        span_id: Union[int, str],
        name: str,
        start_ms: float,
        end_ms: float,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        begin: Dict[str, Any] = {
            "name": name,
            "cat": cat,
            "ph": "b",
            "id": str(span_id),
            "pid": 1,
            "tid": 0,
            "ts": int(round(start_ms * _US_PER_MS)),
        }
        if args:
            begin["args"] = args
        events.append(begin)
        events.append(
            {
                "name": name,
                "cat": cat,
                "ph": "e",
                "id": str(span_id),
                "pid": 1,
                "tid": 0,
                "ts": int(round(end_ms * _US_PER_MS)),
            }
        )

    for w in report.waves:
        span(
            "span.wave",
            w.round,
            f"wave {w.round}",
            w.start_ms,
            w.end_ms,
            {"activated": w.activated, "last_peer": w.last_peer},
        )
    for e in report.exchanges:
        end = e.acked_ms
        if end is None:
            end = e.gave_up_ms if e.gave_up_ms is not None else e.last_send_ms
        span(
            "span.ctrl",
            e.mid,
            f"{e.kind} {e.src}->{e.dst}",
            e.sent_ms,
            end,
            {"attempts": e.attempts, "outcome": e.outcome, "mid": e.mid},
        )
    for j in report.packets:
        if j.tx_first_ms is None or j.end_ms is None:
            continue
        span(
            "span.packet",
            f"pkt-{j.label}",
            f"packet {j.label}",
            j.tx_first_ms,
            j.end_ms,
            {
                "outcome": j.outcome,
                "src": j.src,
                "e2e_ms": j.e2e_ms,
                "retransmit_ms": j.retransmit_ms,
                "queue_ms": j.queue_ms,
                "wire_ms": j.wire_ms,
                "fec_ms": j.fec_ms,
                "buffer_ms": j.buffer_ms,
            },
        )
    for title, segments in (
        ("coordination", report.coordination_path),
        ("playback", report.playback_path),
    ):
        for i, seg in enumerate(segments):
            span(
                f"span.path.{title}",
                f"{title}-{i}",
                seg.name,
                seg.start_ms,
                seg.end_ms,
                {"actor": seg.actor},
            )
    return events


def write_chrome_trace(
    bus: "TraceBus",
    path: Union[str, Path],
    spans: Optional["SpanReport"] = None,
) -> None:
    Path(path).write_text(
        json.dumps(
            trace_to_chrome(bus, spans=spans),
            sort_keys=True,
            separators=(",", ":"),
        )
    )


# ----------------------------------------------------------------------
# run summary
# ----------------------------------------------------------------------
def run_summary(result: "SessionResult") -> Dict[str, Any]:
    """Everything a post-hoc analysis needs, as plain artifact dicts."""
    from repro.metrics.io import series_to_dict, session_result_to_dict

    summary: Dict[str, Any] = {"result": session_result_to_dict(result)}
    bus: Optional["TraceBus"] = result.trace
    if bus is not None:
        summary["trace_stats"] = {
            "type": "trace_stats",
            "events": len(bus.events),
            "dropped_events": bus.dropped_events,
            "counts_by_kind": dict(sorted(bus.counts_by_kind.items())),
        }
    if result.timeseries is not None:
        summary["timeseries"] = series_to_dict(result.timeseries)
    audit = result.audit
    if audit is not None:
        summary["audit"] = audit if isinstance(audit, dict) else audit.to_dict()
    spans = result.spans
    if spans is not None:
        summary["spans"] = spans if isinstance(spans, dict) else spans.to_dict()
    return summary


def write_run_summary(result: "SessionResult", path: Union[str, Path]) -> None:
    Path(path).write_text(
        json.dumps(run_summary(result), indent=2, sort_keys=True, default=str)
    )
