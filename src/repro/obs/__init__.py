"""Observability: trace bus, time-series metrics, exporters, auditors.

The subsystem is **opt-in and zero-overhead when off**: a session only
records anything when constructed with a :class:`TraceConfig`; every
instrumentation hook in the engine, overlay, protocols, and agents is a
single ``env.hooks.tracer is None`` check otherwise, so the tier-1 figures run
untouched.

* :mod:`repro.obs.trace` — :class:`TraceBus` + the typed event taxonomy,
  and the one :class:`Observer` lifecycle (bind, then finish) every
  run-level consumer below follows: the run's complete log is fed to
  them once, at finish, and :func:`replay` feeds a JSONL trace the same
  way;
* :mod:`repro.obs.metrics` — gauges sampled against sim-time into
  :class:`~repro.metrics.series.SweepSeries` columns by a single-leaf
  run's time-series sampler;
* :mod:`repro.obs.exporters` — JSONL, Chrome ``trace_event`` (Perfetto),
  and run-summary JSON;
* :mod:`repro.obs.timeline` — per-wave coordination timelines;
* :mod:`repro.obs.audit` — protocol auditors checking the paper's
  invariants against the run's event log, with JSON audit reports;
* :mod:`repro.obs.spans` — causal span construction over the event
  stream: per-packet latency decomposition, critical-path attribution,
  per-leaf QoE timelines, Perfetto async span export.
"""

from repro.obs.audit import (
    AllocationAuditor,
    AuditConfig,
    AuditReport,
    Auditor,
    CausalAuditor,
    DetectorAuditor,
    DuplicateEffectAuditor,
    ParityAuditor,
    TreeAuditor,
    Violation,
    available_auditors,
    build_auditors,
    register_auditor,
    replay_jsonl,
)
from repro.obs.metrics import Gauge, MetricsRegistry
from repro.obs.spans import (
    SpanBuilder,
    SpanConfig,
    SpanReport,
    spans_from_jsonl,
)
from repro.obs.trace import (
    CONTROL_KINDS,
    Observer,
    TraceBus,
    TraceConfig,
    TraceEvent,
    replay,
)
from repro.obs.timeline import wave_timeline
from repro.obs.exporters import (
    run_summary,
    span_async_events,
    trace_to_chrome,
    trace_to_jsonl,
    write_chrome_trace,
    write_jsonl,
    write_run_summary,
)

__all__ = [
    "CONTROL_KINDS",
    "AllocationAuditor",
    "AuditConfig",
    "AuditReport",
    "Auditor",
    "CausalAuditor",
    "DetectorAuditor",
    "DuplicateEffectAuditor",
    "Gauge",
    "MetricsRegistry",
    "Observer",
    "ParityAuditor",
    "SpanBuilder",
    "SpanConfig",
    "SpanReport",
    "TraceBus",
    "TraceConfig",
    "TraceEvent",
    "TreeAuditor",
    "Violation",
    "available_auditors",
    "build_auditors",
    "register_auditor",
    "replay",
    "replay_jsonl",
    "run_summary",
    "span_async_events",
    "spans_from_jsonl",
    "trace_to_chrome",
    "trace_to_jsonl",
    "wave_timeline",
    "write_chrome_trace",
    "write_jsonl",
    "write_run_summary",
]
