"""Exporters: JSONL, Chrome trace-event (Perfetto), run summary, timeline."""

import json

import pytest

from repro.core import ProtocolConfig
from repro.obs import (
    TraceConfig,
    run_summary,
    trace_to_chrome,
    trace_to_jsonl,
    wave_timeline,
    write_chrome_trace,
    write_jsonl,
    write_run_summary,
)
from repro.obs.exporters import event_from_dict, event_to_dict, read_jsonl
from repro.streaming import ProtocolSpec, SessionSpec


@pytest.fixture(scope="module")
def traced_result():
    config = ProtocolConfig(n=12, H=4, fault_margin=1, content_packets=100, seed=5)
    return SessionSpec(config, ProtocolSpec("tcop"), trace=TraceConfig()).build().run()


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def test_jsonl_one_valid_object_per_event(traced_result, tmp_path):
    bus = traced_result.trace
    text = trace_to_jsonl(bus)
    lines = text.splitlines()
    assert len(lines) == len(bus.events)
    assert text.endswith("\n")
    first = json.loads(lines[0])
    assert {"ts", "kind", "subject"} <= set(first)
    # keys are sorted within each line — the byte-determinism contract
    for line in lines[:50]:
        assert line == json.dumps(
            json.loads(line), sort_keys=True, separators=(",", ":")
        )
    path = tmp_path / "trace.jsonl"
    write_jsonl(bus, path)
    assert path.read_text() == text


def test_event_from_dict_inverts_event_to_dict(traced_result):
    events = traced_result.trace.events
    # parity labels are (nested) tuples, which JSON flattens to lists
    assert any(isinstance(e.fields.get("label"), tuple) for e in events)
    assert any("kind" in e.fields for e in events)  # exported as msg_kind
    for event in events:
        record = event_to_dict(event)
        assert event_from_dict(record) == event
        assert event_from_dict(json.loads(json.dumps(record))) == event
    lines = trace_to_jsonl(traced_result.trace).splitlines()
    assert list(read_jsonl(lines)) == events


# ----------------------------------------------------------------------
# Chrome trace-event format
# ----------------------------------------------------------------------
def test_chrome_trace_structure(traced_result, tmp_path):
    bus = traced_result.trace
    doc = trace_to_chrome(bus)
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    # one named track (thread) per participant: the leaf + every peer,
    # plus the synthetic waves track at tid 0
    tracks = {
        e["args"]["name"]: e["tid"] for e in events if e["name"] == "thread_name"
    }
    assert tracks["waves"] == 0
    for subject in bus.participants:
        assert subject in tracks
    assert len(tracks) == len(bus.participants) + 1
    # every wave round became one complete slice on the waves track —
    # both rounds that opened (wave.start) and rounds that closed with
    # activations (wave.end); under TCoP the two sets legitimately differ
    # (handshake phases open waves, activations land a hop later)
    slices = [e for e in events if e["ph"] == "X"]
    started = {e.payload()["round"] for e in bus.of_kind("wave.start")}
    ended = {e.payload()["round"] for e in bus.of_kind("wave.end")}
    assert {s["args"]["round"] for s in slices} == started | ended
    for s in slices:
        assert s["tid"] == 0
        assert s["dur"] >= 1
    # instants carry integer-microsecond timestamps and a category
    instants = [e for e in events if e["ph"] == "i"]
    assert instants
    for e in instants[:100]:
        assert isinstance(e["ts"], int)
        assert e["cat"] == e["name"].split(".", 1)[0]
        assert e["s"] == "t"
    # the whole document survives a strict JSON round-trip to disk
    path = tmp_path / "trace.json"
    write_chrome_trace(bus, path)
    assert json.loads(path.read_text())["traceEvents"]


def test_chrome_trace_closes_abandoned_waves():
    """A wave with no activations still renders (as a 1-µs slice)."""
    from repro.obs import TraceBus
    from repro.sim.engine import Environment

    bus = TraceBus(TraceConfig(), Environment())
    bus.wave_start(1, "leaf", targets=4)
    bus.finalize()  # no activations: no wave.end recorded
    doc = trace_to_chrome(bus)
    (slice_,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert slice_["args"] == {"round": 1, "activated": 0}
    assert slice_["dur"] == 1


# ----------------------------------------------------------------------
# wave timeline
# ----------------------------------------------------------------------
@pytest.mark.parametrize("proto", ["dcop", "tcop"])
def test_timeline_rows_equal_result_rounds(proto):
    config = ProtocolConfig(n=12, H=4, fault_margin=1, content_packets=100, seed=5)
    result = SessionSpec(config, ProtocolSpec(proto), trace=TraceConfig()).build().run()
    table = wave_timeline(result.trace)
    assert len(table.rows) == result.rounds
    rounds = [row[0] for row in table.rows]
    assert rounds == list(range(1, result.rounds + 1))
    # the running population ends at n and never decreases
    cumulative = [row[2] for row in table.rows]
    assert cumulative == sorted(cumulative)
    assert cumulative[-1] == config.n
    # cumulative control traffic is monotone too
    ctrl = [row[5] for row in table.rows]
    assert ctrl == sorted(ctrl)


def test_timeline_includes_zero_activation_rounds():
    """TCoP's offer/confirm rounds move control traffic, not activations."""
    config = ProtocolConfig(n=12, H=4, fault_margin=1, content_packets=100, seed=5)
    result = SessionSpec(config, ProtocolSpec("tcop"), trace=TraceConfig()).build().run()
    table = wave_timeline(result.trace)
    assert any(row[1] == 0 for row in table.rows)


def test_timeline_of_empty_bus_is_empty():
    from repro.obs import TraceBus
    from repro.sim.engine import Environment

    table = wave_timeline(TraceBus(TraceConfig(), Environment()))
    assert table.rows == []


def test_timeline_renders_as_markdown(traced_result):
    table = wave_timeline(traced_result.trace)
    lines = table.to_markdown().splitlines()
    # bold title, blank, header, separator, one line per row
    assert lines[0] == "**coordination timeline**"
    assert lines[2].startswith("| round |")
    assert set(lines[3].replace("|", "").split()) == {"---"}
    assert len(lines) == 4 + len(table.rows)


# ----------------------------------------------------------------------
# run summary
# ----------------------------------------------------------------------
def test_run_summary_bundles_result_trace_stats_and_series(
    traced_result, tmp_path
):
    summary = run_summary(traced_result)
    assert summary["result"]["type"] == "session_result"
    assert summary["result"]["data"]["rounds"] == traced_result.rounds
    stats = summary["trace_stats"]
    assert stats["events"] == len(traced_result.trace.events)
    assert stats["counts_by_kind"]["peer.activate"] == 12
    assert summary["timeseries"]["type"] == "series"
    path = tmp_path / "summary.json"
    write_run_summary(traced_result, path)
    assert json.loads(path.read_text())["result"]["data"]["delivery_ratio"] == 1.0


def test_run_summary_without_trace_is_result_only():
    config = ProtocolConfig(n=8, H=4, fault_margin=1, content_packets=60, seed=2)
    result = SessionSpec(config, ProtocolSpec("dcop")).build().run()
    summary = run_summary(result)
    assert set(summary) == {"result"}


# ----------------------------------------------------------------------
# golden file: the full Chrome document, byte for byte
# ----------------------------------------------------------------------
def _golden_spec():
    return SessionSpec(
        config=ProtocolConfig(
            n=6, H=3, fault_margin=1, content_packets=40, seed=3
        ),
        protocol=ProtocolSpec("tcop", {}),
        trace=TraceConfig(categories=frozenset({"wave", "peer"})),
    )


def test_chrome_trace_matches_golden_file():
    """The committed golden pins the exporter's whole output format:
    metadata (process + one named track per participant + the waves
    track), wave slices, and instants.  A deliberate format change
    regenerates the file (see its sibling README); anything else failing
    here is a silent format or determinism regression.
    """
    from pathlib import Path

    golden_path = Path(__file__).parent / "data" / "golden_chrome_tcop.json"
    result = _golden_spec().run()
    doc = trace_to_chrome(result.trace)
    assert doc == json.loads(golden_path.read_text())


def _golden_batched_spec():
    """A media-dominant cell where per-slot batches really form, traced
    with the media/msg firehose so the batch payloads (``off``, ``wait``,
    ``count``) land in the export."""

    return SessionSpec(
        config=ProtocolConfig(
            n=6, H=3, fault_margin=1, content_packets=40, seed=3
        ),
        protocol=ProtocolSpec("single_source", {}),
        media_batch=2.0,
        trace=TraceConfig(
            categories=frozenset({"wave", "peer", "media", "msg"})
        ),
    )


@pytest.fixture(scope="module")
def batched_traced_result():
    return _golden_batched_spec().run()


def test_jsonl_under_batched_media(batched_traced_result):
    """Batched deliveries serialize byte-stably (the per-packet batch
    offsets are numpy floats) and carry the batch-plane payloads."""
    bus = batched_traced_result.trace
    text = trace_to_jsonl(bus)
    lines = text.splitlines()
    assert len(lines) == len(bus.events)
    for line in lines:
        assert line == json.dumps(
            json.loads(line), sort_keys=True, separators=(",", ":")
        )
    records = [json.loads(line) for line in lines]
    # every batched media.rx charges its coalescing wait; media.tx its
    # nominal in-batch send offset; batch sends cover >1 packet
    rx = [r for r in records if r["kind"] == "media.rx"]
    assert rx and all("wait" in r for r in rx)
    tx = [r for r in records if r["kind"] == "media.tx"]
    assert tx and all("off" in r for r in tx)
    assert any(r.get("count", 1) > 1 for r in records)
    # per-kind counters stay packet-accurate under batching
    assert bus.counts_by_kind["media.rx"] == len(rx)


def test_chrome_and_timeline_under_batched_media(batched_traced_result):
    result = batched_traced_result
    doc = trace_to_chrome(result.trace)
    instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
    assert instants
    for e in instants:
        assert isinstance(e["ts"], int)
    # the wave timeline covers the run's rounds, batched plane or not
    table = wave_timeline(result.trace)
    assert len(table.rows) == result.rounds


def test_chrome_trace_matches_golden_batched_file():
    """Same contract as the unbatched golden, for the batched media
    plane: pins the batch payload fields (``off``/``wait``/``count``)
    and the numpy-float timestamp serialization, byte for byte."""
    from pathlib import Path

    golden_path = (
        Path(__file__).parent / "data" / "golden_chrome_batched.json"
    )
    result = _golden_batched_spec().run()
    doc = trace_to_chrome(result.trace)
    assert doc == json.loads(golden_path.read_text())
