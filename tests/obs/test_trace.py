"""Trace bus behavior: emission, filtering, caps, and session wiring."""

import pytest

from repro.core import ProtocolConfig
from repro.net.ledger import PacketLedger
from repro.obs import (
    CONTROL_KINDS,
    Auditor,
    Observer,
    TraceBus,
    TraceConfig,
    TraceEvent,
)
from repro.obs.trace import feed
from repro.sim.engine import Environment
from repro.streaming import ProtocolSpec, SessionSpec

from tests.streaming.test_swarm import ALL_PROTOCOLS, protocol_case

from .test_artefact_pins import CELLS
from .test_metrics import SINGLE_LEAF, series_of


def run_traced(proto, trace=None, **cfg_kw):
    defaults = dict(n=12, H=4, fault_margin=1, content_packets=100, seed=5)
    defaults.update(cfg_kw)
    config = ProtocolConfig(**defaults)
    return SessionSpec(config, ProtocolSpec(proto), trace=trace or TraceConfig()).build().run()


# ----------------------------------------------------------------------
# unit-level bus behavior
# ----------------------------------------------------------------------
def test_emit_records_current_sim_time_and_sorted_payload():
    env = Environment()
    bus = TraceBus(TraceConfig(), env)
    bus.emit("msg.send", "p0", kind="control", dst="p1")
    (event,) = bus.events
    assert event.ts == env.now
    assert event.kind == "msg.send"
    assert event.subject == "p0"
    # payload tuples are key-sorted so serialization is deterministic
    assert event.data == (("dst", "p1"), ("kind", "control"))
    assert event.payload() == {"dst": "p1", "kind": "control"}
    assert event.category == "msg"


def test_payload_may_carry_kind_and_subject_keys():
    # emit's own parameters are positional-only precisely so the payload
    # can use these natural names
    bus = TraceBus(TraceConfig(), Environment())
    bus.emit("msg.drop", "p3", kind="offer", subject="unrelated")
    assert bus.events[0].payload()["kind"] == "offer"


def test_category_filter_suppresses_storage_not_counters():
    bus = TraceBus(TraceConfig(categories=frozenset({"peer"})), Environment())
    bus.emit("msg.send", "p0", kind="control")
    bus.emit("peer.activate", "p0", round=1)
    bus.finalize()
    assert [e.kind for e in bus.events] == ["peer.activate"]
    assert bus.counts_by_kind["msg.send"] == 1


def test_max_events_cap_counts_overflow():
    bus = TraceBus(TraceConfig(max_events=3), Environment())
    for i in range(10):
        bus.emit("peer.activate", f"p{i}", round=1)
    bus.finalize()
    assert len(bus.of_kind("peer.activate")) == 3
    assert bus.dropped_events == 7
    assert bus.counts_by_kind["peer.activate"] == 10


def test_in_flight_control_gauge_lifecycle():
    # the sampler's in_flight_control column, one tick per step
    series = series_of(
        (1.0, "msg.send", "a", {"kind": "request"}),
        (1.0, "msg.send", "a", {"kind": "offer"}),
        (1.0, "msg.send", "a", {"kind": "packet"}),  # media never counts
        (11.0, "msg.recv", "b", {"kind": "request"}),
        (11.0, "msg.recv", "b", {"kind": "offer", "dup": 1}),  # an extra copy
        (21.0, "msg.drop", "b", {"kind": "offer", "reason": "control_loss"}),
        # a sender_down drop never entered the channel: no decrement (and
        # the gauge clamps at zero regardless)
        (31.0, "msg.send", "a", {"kind": "start"}),
        (31.0, "msg.drop", "a", {"kind": "start", "reason": "sender_down"}),
        (41.0, "msg.recv", "b", {"kind": "start"}),
        (41.0, "msg.recv", "b", {"kind": "start"}),
        end=45.0,
    )
    assert series.columns["in_flight_control"] == [2.0, 1.0, 0.0, 1.0, 0.0]


def test_observers_are_never_truncated():
    # the trace config chooses what the export keeps; the run's observers
    # read the complete log all the same
    def run(trace):
        spec = CELLS["gauntlet/dcop"]().replace(trace=trace)
        return spec.run().detach()

    full = run(TraceConfig())
    kept = run(TraceConfig(categories=frozenset({"peer"}), max_events=50))
    assert kept.audit == full.audit
    assert kept.spans == full.spans
    events = kept.trace["events"]
    assert {e["kind"].split(".")[0] for e in events} == {"peer"}
    assert len(events) == 50
    # every peer.* event past the first 50 is counted as dropped
    peer = sum(1 for e in full.trace["events"] if e["kind"].startswith("peer."))
    assert kept.trace["dropped_events"] == peer - 50 > 0
    assert kept.trace["counts_by_kind"] == full.trace["counts_by_kind"]


def test_a_finding_follows_the_event_that_raised_it():
    # a finding recorded in a handler is logged right after the event
    # that raised it, at its time, and handed on to observers that read
    # audit.* kinds; a finish-time finding ends the log at the run's end
    class Echo(Auditor):
        name = "echo"

        def _on_activate(self, event: TraceEvent) -> None:
            self.warning("echo.seen", event.subject, "activated")

        def check(self, session=None) -> None:
            self.warning("echo.done", "leaf", "finished")

        handlers = {"peer.activate": _on_activate}

    class Reader(Observer):
        def __init__(self):
            self.seen = []

        def _on_warning(self, event: TraceEvent) -> None:
            self.seen.append(event.fields["code"])

        handlers = {"audit.warning": _on_warning}

    env = Environment()
    bus = TraceBus(TraceConfig(), env)
    bus.emit("peer.activate", "p0", round=1)
    env.timeout(5.0)
    env.run()
    bus.emit("peer.activate", "p1", round=1)
    echo, reader = Echo().bind(), Reader().bind()
    _, log = feed(bus.events, [echo, reader], PacketLedger(), end=9.0)
    assert [(e.ts, e.kind) for e in log] == [
        (0.0, "peer.activate"), (0.0, "audit.warning"),
        (5.0, "peer.activate"), (5.0, "audit.warning"),
        (9.0, "audit.warning"),
    ]
    assert reader.seen == ["echo.seen", "echo.seen", "echo.done"]
    # the finding itself carries the time of the run's last event
    assert [w.ts for w in echo.warnings] == [0.0, 5.0, 5.0]


def test_wave_start_dedupes_rounds():
    bus = TraceBus(TraceConfig(), Environment())
    bus.wave_start(1, "leaf", targets=4)
    bus.wave_start(1, "p2", targets=3)  # second sender of round 1: ignored
    bus.wave_start(2, "p2", targets=3)
    assert [e.payload()["round"] for e in bus.of_kind("wave.start")] == [1, 2]


def test_finalize_closes_waves_at_last_activation_and_is_idempotent():
    env = Environment()
    bus = TraceBus(TraceConfig(), env)
    bus.wave_start(1, "leaf")
    bus.emit("peer.activate", "p0", round=1)
    env.timeout(7.0)
    env.run()  # drains the timeout: now == 7.0
    bus.emit("peer.activate", "p1", round=1)
    bus.finalize()
    (end,) = bus.of_kind("wave.end")
    assert end.ts == 7.0
    assert end.payload() == {"activated": 2, "round": 1}
    bus.finalize()  # collect may run twice; no duplicate wave.end
    assert len(bus.of_kind("wave.end")) == 1


def _sorting_finalize(log, config):
    """What finalize() must give ``log``: every event counted by kind (a
    batched one as the ``count`` packets it covers); the wanted ones kept
    up to ``max_events`` and the rest counted dropped; one ``wave.end``
    per round of a kept activation, at its last one; and the kept log
    plus those rows stably sorted by time."""
    counts = {}
    for event in log:
        counts[event.kind] = counts.get(event.kind, 0) + event.fields.get("count", 1)
    wanted = [event for event in log if config.wants(event.kind)]
    kept = wanted[: config.max_events]
    last, activated = {}, {}
    for event in kept:
        if event.kind == "peer.activate":
            r = event.fields["round"]
            last[r] = max(last.get(r, event.ts), event.ts)
            activated[r] = activated.get(r, 0) + 1
    ends = [
        TraceEvent(last[r], "wave.end", "session", {"activated": activated[r], "round": r})
        for r in sorted(last)
        if config.wants("wave.end")
    ]
    return sorted(kept + ends, key=lambda e: e.ts), counts, len(wanted) - len(kept)


@pytest.mark.parametrize(
    "trace",
    [
        TraceConfig(),  # no filter, under the cap: the log is kept in place
        TraceConfig(categories=frozenset({"peer", "wave", "msg"}), max_events=300),
    ],
    ids=["unfiltered", "filtered_and_capped"],
)
def test_finalize_equals_the_sorting_reference(monkeypatch, trace):
    # a batched DCoP cell of three flooding rounds: each wave.end lands
    # among same-time events, and batched sends count as their packets
    seen = {}
    real = TraceBus.finalize

    def spy(bus):
        seen["list"], seen["log"] = bus.events, list(bus.events)
        real(bus)

    monkeypatch.setattr(TraceBus, "finalize", spy)
    config = ProtocolConfig(n=12, H=3, fault_margin=1, content_packets=100, seed=5)
    bus = SessionSpec(
        config, ProtocolSpec("dcop"), media_batch=5.0, trace=trace
    ).build().run().trace
    log = seen["log"]
    assert len({e.fields["round"] for e in log if e.kind == "peer.activate"}) >= 2
    assert any(e.fields.get("count", 1) > 1 for e in log)

    events, counts, dropped = _sorting_finalize(log, trace)
    assert bus.events == events
    assert bus.counts_by_kind == counts
    assert bus.dropped_events == dropped
    assert len(bus.of_kind("wave.end")) >= 2
    if trace.categories is None:
        assert bus.events is seen["list"]
    else:
        assert dropped > 0


def test_config_validation():
    with pytest.raises(ValueError):
        TraceConfig(max_events=0)


def test_trace_event_is_frozen():
    event = TraceEvent(ts=0.0, kind="msg.send", subject="p0")
    with pytest.raises(AttributeError):
        event.ts = 1.0


# ----------------------------------------------------------------------
# session wiring
# ----------------------------------------------------------------------
@pytest.mark.parametrize("proto", ["dcop", "tcop"])
def test_session_records_full_coordination(proto):
    result = run_traced(proto)
    bus = result.trace
    assert bus is not None
    # every live peer activated exactly once
    activations = bus.of_kind("peer.activate")
    assert len(activations) == len({e.subject for e in activations})
    assert {e.subject for e in activations} == set(result.activation_times)
    # the wave rounds recorded match the result's round count
    rounds = {e.payload()["round"] for e in activations}
    assert max(rounds) == result.rounds
    # control traffic flowed and the log is time-ordered
    assert any(
        e.payload().get("kind") in CONTROL_KINDS for e in bus.of_kind("msg.send")
    )
    assert [e.ts for e in bus.events] == sorted(e.ts for e in bus.events)
    # all in-flight control messages were accounted to completion
    assert result.timeseries.columns["in_flight_control"][-1] == 0


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_control_packets_at_sync_match_the_traced_sends(protocol):
    # an oracle independent of the overlay's send instants: the trace's
    # own non-media msg.send events up to the sync time
    config = ProtocolConfig(n=12, H=4, fault_margin=1, content_packets=100, seed=5)
    proto, uplinks = protocol_case(protocol, config.n)
    result = SessionSpec(
        config, proto, upload_capacity=uplinks, trace=TraceConfig()
    ).build().run()
    assert result.sync_time is not None
    at_sync = sum(
        1
        for e in result.trace.of_kind("msg.send")
        if e.payload()["kind"] != "packet" and e.ts <= result.sync_time + 1e-9
    )
    assert at_sync > 0
    assert result.control_packets_at_sync == at_sync


def test_untraced_session_has_no_observability_state():
    config = ProtocolConfig(n=12, H=4, fault_margin=1, content_packets=100, seed=5)
    result = SessionSpec(config, ProtocolSpec("dcop")).build().run()
    assert result.trace is None
    assert result.timeseries is None


#: the session cells above, and every pinned single-leaf cell, observed
OBSERVED = {
    **{
        proto: (lambda proto=proto: SessionSpec(
            ProtocolConfig(n=12, H=4, fault_margin=1, content_packets=100, seed=5),
            ProtocolSpec(proto), trace=TraceConfig(),
        ))
        for proto in ("dcop", "tcop")
    },
    **{cell: CELLS[cell] for cell in SINGLE_LEAF},
}


@pytest.mark.parametrize("cell", sorted(OBSERVED))
def test_tracing_does_not_perturb_the_simulation(cell):
    """The zero-overhead contract's stronger half: no observer schedules
    an event, so the run reports what it reports unobserved, its end
    included."""
    spec = OBSERVED[cell]()
    observed = spec.run()
    bare = spec.replace(trace=None, audit=None, spans=None).run()
    assert bare.trace is bare.timeseries is bare.audit is bare.spans is None
    assert observed.timeseries is not None
    assert observed == bare  # every scalar field; the handles do not compare


def test_category_filtered_session_still_tracks_messages():
    result = run_traced("dcop", trace=TraceConfig(categories=frozenset({"wave", "peer"})))
    bus = result.trace
    assert not bus.of_kind("msg.send")  # filtered from the log…
    assert bus.counts_by_kind["msg.send"] > 0  # …but still counted
    assert bus.of_kind("peer.activate")
