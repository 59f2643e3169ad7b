"""Trace bus behavior: emission, filtering, caps, and session wiring."""

import pytest

from repro.core import ProtocolConfig
from repro.obs import CONTROL_KINDS, TraceBus, TraceConfig, TraceEvent
from repro.sim.engine import Environment
from repro.streaming import ProtocolSpec, SessionSpec

from tests.streaming.test_swarm import ALL_PROTOCOLS, protocol_case


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
    assert [e.kind for e in bus.events] == ["peer.activate"]
    # live accounting still saw the filtered message
    assert bus.counts_by_kind["msg.send"] == 1
    assert bus.in_flight_control == 1


def test_max_events_cap_counts_overflow():
    bus = TraceBus(TraceConfig(max_events=3), Environment())
    for i in range(10):
        bus.emit("peer.activate", f"p{i}", round=1)
    assert len(bus.events) == 3
    assert bus.dropped_events == 7
    assert bus.counts_by_kind["peer.activate"] == 10


def test_in_flight_control_gauge_lifecycle():
    bus = TraceBus(TraceConfig(), Environment())
    bus.emit("msg.send", "a", kind="request")
    bus.emit("msg.send", "a", kind="offer")
    bus.emit("msg.send", "a", kind="media")  # media never counts
    assert bus.in_flight_control == 2
    bus.emit("msg.recv", "b", kind="request")
    assert bus.in_flight_control == 1
    bus.emit("msg.drop", "b", kind="offer", reason="control_loss")
    assert bus.in_flight_control == 0
    # a sender_down drop never entered the channel: no decrement (and
    # the gauge clamps at zero regardless)
    bus.emit("msg.send", "a", kind="start")
    bus.emit("msg.drop", "a", kind="start", reason="sender_down")
    assert bus.in_flight_control == 1


def test_subscribers_see_filtered_and_capped_events():
    # storage filters bound memory; subscribers are streaming observers
    # and must see the full firehose regardless
    bus = TraceBus(
        TraceConfig(categories=frozenset({"peer"}), max_events=1),
        Environment(),
    )
    seen = []
    bus.subscribe(lambda e: seen.append(e.kind))
    bus.emit("msg.send", "p0", kind="control")  # category-filtered
    bus.emit("peer.activate", "p0", round=1)    # stored
    bus.emit("peer.activate", "p1", round=1)    # over the cap
    assert [e.kind for e in bus.events] == ["peer.activate"]
    assert seen == ["msg.send", "peer.activate", "peer.activate"]


def test_unsubscribe_stops_delivery_and_tolerates_strangers():
    bus = TraceBus(TraceConfig(), Environment())
    seen = []
    cb = seen.append
    bus.subscribe(cb)
    bus.emit("peer.activate", "p0", round=1)
    bus.unsubscribe(cb)
    bus.unsubscribe(cb)  # double unsubscribe is a no-op
    bus.emit("peer.activate", "p1", round=1)
    assert len(seen) == 1


def test_subscriber_may_reenter_emit():
    # auditors publish audit.* events from inside their callbacks; the
    # dispatch snapshot must neither loop nor skip subscribers
    bus = TraceBus(TraceConfig(), Environment())
    seen = []

    def echo(event: TraceEvent) -> None:
        seen.append(event.kind)
        if event.category != "audit":
            bus.emit("audit.warning", "echo", about=event.subject)

    bus.subscribe(echo)
    bus.emit("peer.activate", "p0", round=1)
    assert seen == ["peer.activate", "audit.warning"]
    assert [e.kind for e in bus.events] == ["peer.activate", "audit.warning"]


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


def test_config_validation():
    with pytest.raises(ValueError):
        TraceConfig(max_events=0)
    with pytest.raises(ValueError):
        TraceConfig(sample_period_deltas=0)
    with pytest.raises(ValueError):
        TraceConfig(max_samples=0)


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
    assert bus.in_flight_control == 0


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


@pytest.mark.parametrize("proto", ["dcop", "tcop"])
def test_tracing_does_not_perturb_the_simulation(proto):
    """The zero-overhead contract's stronger half: identical trajectory."""
    traced = run_traced(proto)
    config = ProtocolConfig(n=12, H=4, fault_margin=1, content_packets=100, seed=5)
    bare = SessionSpec(config, ProtocolSpec(proto)).build().run()
    assert traced.summary() == bare.summary()
    assert traced.activation_times == bare.activation_times
    assert traced.elapsed == bare.elapsed


def test_category_filtered_session_still_tracks_messages():
    result = run_traced("dcop", trace=TraceConfig(categories=frozenset({"wave", "peer"})))
    bus = result.trace
    assert not bus.of_kind("msg.send")  # filtered from the log…
    assert bus.counts_by_kind["msg.send"] > 0  # …but still counted
    assert bus.of_kind("peer.activate")
