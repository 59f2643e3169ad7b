"""Causal spans: latency decomposition, critical paths, QoE, replay.

The pinned contracts:

* **passivity** — a span-enabled run follows the byte-identical
  trajectory of a span-off run with the same spec and seed;
* **exact attribution** — per-packet decomposition components sum to
  the measured end-to-end latency (the attributed share is >= 0.95 by
  the issue's acceptance bar; the builder achieves exactness);
* **replay equivalence** — ``spans_from_jsonl`` over an unfiltered
  JSONL dump reproduces the online report verbatim.
"""

import json

import pytest

from repro.core.base import ProtocolConfig
from repro.net.overlay import RetransmitPolicy
from repro.obs import (
    SpanConfig,
    SpanReport,
    TraceConfig,
    run_summary,
    span_async_events,
    spans_from_jsonl,
    trace_to_chrome,
    trace_to_jsonl,
)
from repro.streaming.spec import LossSpec, ProtocolSpec, SessionSpec

from tests.obs.test_artefact_pins import CELLS

SHARE_FLOOR = 0.95  # the issue's acceptance bar; exactness in practice
EXACT = 1e-6


def _lossy_spec(**overrides) -> SessionSpec:
    """DCoP with media + control loss: delivered, recovered, and lost
    journeys plus reliable-exchange retransmits, all in one small run."""
    base = dict(
        config=ProtocolConfig(
            n=12, H=4, fault_margin=1, seed=5, content_packets=100
        ),
        protocol=ProtocolSpec("dcop", {}),
        playback=True,
        loss=LossSpec("bernoulli", {"p": 0.05}),
        control_loss=LossSpec("bernoulli", {"p": 0.15}),
        retransmit_policy=RetransmitPolicy(),
        spans=SpanConfig(),
    )
    base.update(overrides)
    return SessionSpec(**base)


def _batched_spec(media_batch: float) -> SessionSpec:
    """Media-dominant single-source cell where real batches form."""
    return SessionSpec(
        config=ProtocolConfig(
            n=10, H=4, fault_margin=1, seed=3, content_packets=400
        ),
        protocol=ProtocolSpec("single_source", {}),
        playback=True,
        media_batch=media_batch,
        spans=SpanConfig(),
        trace=TraceConfig(),
    )


@pytest.fixture(scope="module")
def lossy_result():
    return _lossy_spec().run()


@pytest.fixture(scope="module")
def batched_result():
    return _batched_spec(2.0).run()


# ----------------------------------------------------------------------
# latency decomposition
# ----------------------------------------------------------------------
def test_decomposition_sums_to_e2e(lossy_result):
    report = lossy_result.spans
    ps = report.packet_stats
    assert ps["timed"] > 0
    assert (
        abs(ps["attributed_total_ms"] - ps["e2e_total_ms"])
        <= EXACT * max(1.0, ps["e2e_total_ms"])
    )
    assert report.attributed_share >= SHARE_FLOOR
    # the per-component totals are the attributed total, re-bucketed
    components = (
        ps["retransmit_total_ms"]
        + ps["queue_total_ms"]
        + ps["wire_total_ms"]
        + ps["fec_total_ms"]
        + ps["buffer_total_ms"]
    )
    assert abs(components - ps["attributed_total_ms"]) <= EXACT * max(
        1.0, ps["attributed_total_ms"]
    )
    # and per retained journey the same ledger holds
    for j in report.packets:
        assert abs(j.attributed_ms - j.e2e_ms) <= EXACT * max(1.0, j.e2e_ms)


def test_journey_outcomes_cover_loss_and_recovery(lossy_result):
    ps = lossy_result.spans.packet_stats
    assert ps["delivered"] > 0
    assert ps["recovered"] > 0  # parity reconstructed at least one seq
    assert ps["timed"] == ps["delivered"] + ps["recovered"]
    # slowest packets are retained in descending e2e order
    e2es = [j.e2e_ms for j in lossy_result.spans.packets]
    assert e2es == sorted(e2es, reverse=True)


def test_batched_decomposition_charges_queueing(batched_result):
    report = batched_result.spans
    ps = report.packet_stats
    # batch offsets/coalescing show up as queue time, and the ledger
    # stays exact under the coarser-grained trajectory
    assert ps["queue_total_ms"] > 0
    assert (
        abs(ps["attributed_total_ms"] - ps["e2e_total_ms"])
        <= EXACT * max(1.0, ps["e2e_total_ms"])
    )
    assert report.attributed_share >= SHARE_FLOOR
    assert ps["delivered"] >= 400  # data + parity, nothing lost


# ----------------------------------------------------------------------
# passivity: byte-identical trajectories
# ----------------------------------------------------------------------
@pytest.mark.parametrize("proto", ["dcop", "tcop", "broadcast"])
def test_span_runs_are_byte_identical(proto):
    def run(spans):
        return _lossy_spec(
            protocol=ProtocolSpec(proto, {}),
            trace=TraceConfig(),
            spans=spans,
        ).run()

    plain = run(None)
    spanned = run(SpanConfig())
    assert spanned.spans is not None and plain.spans is None
    assert plain.summary() == spanned.summary()
    assert trace_to_jsonl(plain.trace) == trace_to_jsonl(spanned.trace)


# ----------------------------------------------------------------------
# the two span-only cells ``artefact_digests.json`` pins: the headline
# numbers docs/observability.md and the CI span step quote
# ----------------------------------------------------------------------
def test_fig10_scale_headline():
    spanned = CELLS["spans/fig10"]().run()
    report, head = spanned.spans, spanned.spans.headline()
    # the coordination critical path spans both flooding rounds
    assert round(head["critical_path_deltas"], 4) == 1.8534
    assert round(head["coordination_path_ms"], 3) == 18.534
    assert head["playback_path_ms"] == 605.0
    assert len(report.waves) == 2
    # every packet (parity included) arrives and is fully attributed
    assert (head["delivered"], head["recovered"], head["lost"]) == (260, 4, 0)
    assert head["attributed_share"] == 1.0
    assert spanned.delivery_ratio == 1.0
    # span construction only reads the log at finish: identical trajectory
    plain = CELLS["spans/fig10"](spans=False).run()
    assert plain.spans is None and plain.summary() == spanned.summary()


def test_lossy_batched_cell_exercises_every_component():
    report = CELLS["spans/lossy"]().run().spans
    ps, head, exchanges = report.packet_stats, report.headline(), report.exchange_stats
    assert round(head["critical_path_deltas"], 4) == 25.9462
    assert (head["delivered"], head["recovered"]) == (1476, 459)
    assert round(ps["e2e_mean_ms"], 4) == 67.4271
    # batched media charges queue time, and the ledger stays exact
    assert ps["queue_total_ms"] == 49176.0
    assert abs(ps["attributed_total_ms"] - ps["e2e_total_ms"]) <= max(
        EXACT, 1e-9 * ps["e2e_total_ms"]
    )
    assert report.attributed_share >= SHARE_FLOOR
    # control loss forced reliable-exchange retransmits
    assert (exchanges["total"], exchanges["acked"]) == (1552, 1550)
    assert exchanges["retransmit_attempts"] == 601


# ----------------------------------------------------------------------
# control exchanges
# ----------------------------------------------------------------------
def test_exchange_spans_stitch_request_to_ack(lossy_result):
    report = lossy_result.spans
    es = report.exchange_stats
    assert es["total"] > 0
    assert es["total"] == es["acked"] + es["gave_up"] + es["open"]
    # 15% control loss forces retransmit attempts and backoff waits
    assert es["retransmit_attempts"] >= 1
    assert es["backoff_total_ms"] > 0
    assert es["rtt_mean_ms"] > 0
    assert es["rtt_max_ms"] >= es["rtt_mean_ms"]
    durations = [e.duration_ms for e in report.exchanges]
    assert durations == sorted(durations, reverse=True)
    for e in report.exchanges:
        assert e.sent_ms <= e.last_send_ms
        assert e.outcome in {"acked", "gave_up", "open"}
        if e.acked_ms is not None:
            assert e.outcome == "acked"
            assert e.acked_ms >= e.sent_ms
    # at least one retained exchange actually retransmitted
    assert any(e.attempts >= 1 for e in report.exchanges)


# ----------------------------------------------------------------------
# critical paths
# ----------------------------------------------------------------------
def test_critical_paths_are_contiguous(lossy_result):
    report = lossy_result.spans
    for segments in (report.coordination_path, report.playback_path):
        assert segments
        for seg in segments:
            assert seg.duration_ms > 0
        for a, b in zip(segments, segments[1:]):
            assert abs(a.end_ms - b.start_ms) <= 1e-9
    assert report.coordination_path_ms == pytest.approx(
        sum(s.duration_ms for s in report.coordination_path)
    )
    # coordination: one segment per flooding wave, ending at the last
    # activation; playback extends past it to the last consumed frame
    assert report.critical_path_deltas == pytest.approx(
        report.coordination_path_ms / lossy_result.config.delta
    )
    assert report.playback_path_ms >= report.coordination_path_ms
    names = {seg.name for seg in report.playback_path}
    assert "wire" in names or "playback_buffer" in names


# ----------------------------------------------------------------------
# QoE timelines
# ----------------------------------------------------------------------
def test_qoe_timeline_columns(lossy_result):
    report = lossy_result.spans
    assert set(report.qoe) == {"leaf"}
    series = report.qoe["leaf"]
    assert series.x_name == "t_ms"
    assert set(series.series_names) == {
        "receipt_ratio", "stalls", "stall_episodes", "skips"
    }
    assert series.x == sorted(series.x)
    ratio = series.columns["receipt_ratio"]
    assert all(0.0 <= v <= 1.0 for v in ratio)
    assert ratio == sorted(ratio)  # cumulative: receipts never un-arrive
    assert ratio[-1] >= SHARE_FLOOR  # the run delivers (almost) all data
    for name in ("stalls", "stall_episodes", "skips"):
        col = series.columns[name]
        assert col == sorted(col)
        assert all(v >= 0 for v in col)
    # stall episodes coalesce consecutive misses on one packet
    assert (
        series.columns["stall_episodes"][-1]
        <= series.columns["stalls"][-1]
    )


def test_qoe_point_cap_widens_buckets(monkeypatch):
    import repro.obs.spans as spans

    monkeypatch.setattr(spans, "MAX_QOE_POINTS", 7)
    series = _lossy_spec().run().spans.qoe["leaf"]
    assert len(series.x) <= 7


# ----------------------------------------------------------------------
# replay and serialization
# ----------------------------------------------------------------------
def test_replay_from_jsonl_equals_online():
    result = _lossy_spec(trace=TraceConfig()).run()
    online = result.spans
    replayed = spans_from_jsonl(
        trace_to_jsonl(result.trace).splitlines(),
        leaf_id="leaf",
        n_packets=result.config.content_packets,
        delta=result.config.delta,
        tau=result.config.tau,
        protocol=result.protocol,
        seed=result.config.seed,
    )
    assert replayed.to_dict() == online.to_dict()


def test_replay_from_file(tmp_path, lossy_result):
    path = tmp_path / "trace.jsonl"
    path.write_text(trace_to_jsonl(lossy_result.trace))
    report = spans_from_jsonl(path)
    # defaults: protocol/seed are placeholders, spans still stitch
    assert report.protocol == "replay"
    assert report.packet_stats["timed"] > 0
    assert report.attributed_share >= SHARE_FLOOR


def test_report_json_round_trip(lossy_result, tmp_path):
    report = lossy_result.spans
    doc = report.to_dict()
    assert doc["type"] == "span_report"
    # byte-stable under json (np.float64 timestamps included)
    text = json.dumps(doc, sort_keys=True)
    assert json.loads(text) == doc
    rebuilt = SpanReport.from_dict(json.loads(text))
    assert rebuilt.to_dict() == doc
    path = report.write(tmp_path / "spans.json")
    assert json.loads(path.read_text())["headline"] == report.headline()


def test_summary_and_critical_path_render(lossy_result):
    report = lossy_result.spans
    text = report.summary(top=3)
    assert "span report" in text and "critical path" in text
    assert report.protocol in text
    rendered = report.render_critical_path()
    assert "coordination" in rendered and "playback" in rendered


# ----------------------------------------------------------------------
# session wiring
# ----------------------------------------------------------------------
def test_spans_true_implies_default_trace():
    result = _lossy_spec(spans=SpanConfig(), trace=None).run()
    assert result.trace is not None
    assert isinstance(result.spans, SpanReport)


def test_detach_converts_report_to_dict(lossy_result):
    from repro.metrics.io import session_result_to_dict

    detached = _lossy_spec().run().detach()
    assert isinstance(detached.spans, dict)
    assert detached.spans["type"] == "span_report"
    # the serializer treats spans as a live handle, like trace/audit
    data = session_result_to_dict(lossy_result)["data"]
    assert "spans" not in data


def test_run_summary_embeds_span_report(lossy_result):
    summary = run_summary(lossy_result)
    assert summary["spans"]["type"] == "span_report"
    assert summary["spans"]["headline"] == lossy_result.spans.headline()


# ----------------------------------------------------------------------
# satellite: packet-accurate per-kind counters under batching
# ----------------------------------------------------------------------
def test_counts_by_kind_equal_batched_and_unbatched():
    batched = _batched_spec(2.0).run()
    plain = _batched_spec(0.0).run()
    b, p = batched.trace.counts_by_kind, plain.trace.counts_by_kind
    # one batched emit covers ``count`` packets; the counters stay
    # packet-accurate, so both planes report identical send totals
    assert b["msg.send"] == p["msg.send"]
    assert b["media.tx"] == p["media.tx"]
    assert b["media.rx"] == p["media.rx"]


# ----------------------------------------------------------------------
# Perfetto async span export
# ----------------------------------------------------------------------
def test_span_async_events_are_balanced(lossy_result):
    report = lossy_result.spans
    events = span_async_events(report)
    assert events
    opens, closes = {}, {}
    for e in events:
        assert e["ph"] in {"b", "e"}
        assert e["pid"] == 1 and e["tid"] == 0
        assert isinstance(e["ts"], int)
        key = (e["cat"], e["id"], e["name"])
        side = opens if e["ph"] == "b" else closes
        assert key not in side  # ids are unique within a category
        side[key] = e["ts"]
    assert set(opens) == set(closes)
    for key, start in opens.items():
        assert closes[key] >= start
    cats = {e["cat"] for e in events}
    assert {"span.wave", "span.ctrl", "span.packet"} <= cats
    assert {"span.path.coordination", "span.path.playback"} <= cats


def test_chrome_trace_embeds_span_tracks(lossy_result):
    doc = trace_to_chrome(lossy_result.trace, spans=lossy_result.spans)
    spans = [
        e for e in doc["traceEvents"] if e.get("cat", "").startswith("span.")
    ]
    assert spans == span_async_events(lossy_result.spans)
    plain = trace_to_chrome(lossy_result.trace)
    assert not [
        e
        for e in plain["traceEvents"]
        if e.get("cat", "").startswith("span.")
    ]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_spans_subcommand(tmp_path, capsys):
    from repro.experiments.cli import main

    report_path = tmp_path / "spans.json"
    trace_path = tmp_path / "trace.json"
    rc = main(
        [
            "spans",
            "--protocol", "dcop",
            "--n", "8",
            "--packets", "40",
            "--seed", "2",
            "--loss", "bernoulli:p=0.05",
            "--retransmit", "max_retries=4",
            "--top", "3",
            "--critical-path",
            "--report-out", str(report_path),
            "--trace-out", str(trace_path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "span report" in out and "critical path" in out
    report = json.loads(report_path.read_text())
    assert report["type"] == "span_report"
    assert report["headline"]["attributed_share"] >= SHARE_FLOOR
    chrome = json.loads(trace_path.read_text())
    assert any(
        e.get("cat", "").startswith("span.") for e in chrome["traceEvents"]
    )


def test_cli_spans_from_jsonl(tmp_path, capsys, lossy_result):
    from repro.experiments.cli import main

    path = tmp_path / "trace.jsonl"
    path.write_text(trace_to_jsonl(lossy_result.trace))
    assert main(["spans", "--from-jsonl", str(path), "--top", "2"]) == 0
    assert "span report" in capsys.readouterr().out
