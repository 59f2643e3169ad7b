"""Tests for channels, nodes, and overlay traffic accounting."""

import pytest

from repro.net import (
    BernoulliLoss,
    ConstantLatency,
    Message,
    Overlay,
    UniformLatency,
)
from repro.sim import Environment, RandomStreams

from tests.net import ignore


def make_overlay(**kw):
    env = Environment()
    ov = Overlay(env, streams=RandomStreams(7), **kw)
    return env, ov


def test_message_validation():
    with pytest.raises(ValueError):
        Message("a", "b", kind="", body=None)
    with pytest.raises(ValueError):
        Message("a", "b", kind="x", size_bytes=-1)


def test_message_latency_requires_delivery():
    # a message's one-way delay is read at delivery, off the clock
    env, ov = make_overlay(default_latency=ConstantLatency(3.0))
    got = []
    ov.add_node("a", ignore)
    ov.add_node("b", lambda m: got.append(env.now))
    ov.send("a", "b", "x")
    assert got == []
    env.run()
    assert got == [3.0]


def test_send_delivers_after_latency():
    env, ov = make_overlay(default_latency=ConstantLatency(2.5))
    got = []
    ov.add_node("a", ignore)
    ov.add_node("b", lambda msg: got.append((env.now, msg.body)))
    ov.send("a", "b", "control", body="hi")
    env.run()
    assert got == [(2.5, "hi")]


def test_delivery_reaches_the_handler_exactly_once():
    env, ov = make_overlay()
    seen = []
    ov.add_node("a", ignore)
    ov.add_node("b", seen.append)
    sent = ov.send("a", "b", "control")
    env.run()
    assert seen == [sent]
    # a node nobody listens on cannot exist: there is no queue to park in
    with pytest.raises(TypeError):
        ov.add_node("c")


def test_traffic_stats_by_kind():
    env, ov = make_overlay()
    for nid in ("a", "b", "c"):
        ov.add_node(nid, ignore)
    ov.send("a", "b", "request")
    ov.send("a", "c", "control")
    ov.send("b", "c", "control")
    env.run()
    assert ov.traffic.sent_by_kind["request"] == 1
    assert ov.traffic.sent_by_kind["control"] == 2
    assert ov.traffic.total_sent() == 3
    assert ov.traffic.control_packets() == 3


def test_control_packets_excludes_media():
    env, ov = make_overlay()
    ov.add_node("a", ignore)
    ov.add_node("b", ignore)
    ov.send("a", "b", "packet")
    ov.send("a", "b", "control")
    env.run()
    assert ov.traffic.control_packets() == 1


def test_control_packets_counts_the_five_assignment_kinds_only():
    # the default is not "every non-media send": at n=100, H=30 TCoP's
    # 3 690 peer offers are left out.  bench/'s sim_ctrl_packets reads
    # this number; Fig. 11's table reads control_packets_at_sync
    from repro.core import ProtocolConfig
    from repro.streaming import ProtocolSpec, SessionSpec

    session = SessionSpec(
        config=ProtocolConfig(
            n=100, H=30, fault_margin=1, seed=0, content_packets=50
        ),
        protocol=ProtocolSpec("tcop"),
    ).build()
    result = session.run()
    traffic = session.overlay.traffic
    assert traffic.control_packets() == 3850
    assert traffic.sent_by_kind["offer"] == 3690
    assert result.control_packets_total == 7540


def test_loss_counted_and_not_delivered():
    env, ov = make_overlay(default_loss_factory=lambda: BernoulliLoss(1.0))
    got = []
    ov.add_node("a", ignore)
    ov.add_node("b", got.append)
    ov.send("a", "b", "control")
    env.run()
    assert ov.traffic.dropped_by_kind["control"] == 1
    assert got == []


def test_channel_stats():
    env, ov = make_overlay(default_latency=ConstantLatency(1.0))
    arrivals = []
    ov.add_node("a", ignore)
    ov.add_node("b", lambda m: arrivals.append((env.now, m.size_bytes)))
    ov.send("a", "b", "x", size_bytes=100)
    ov.send("a", "b", "x", size_bytes=50)
    env.run()
    traffic = ov.traffic
    assert traffic.sent_by_kind["x"] == 2
    assert traffic.delivered_by_kind["x"] == 2
    assert traffic.dropped_by_kind["x"] == 0
    assert arrivals == [(1.0, 100), (1.0, 50)]
    assert ov.ledger.rows == []


def test_crashed_node_discards_deliveries():
    env, ov = make_overlay()
    got = []
    ov.add_node("a", ignore)
    b = ov.add_node("b", got.append)
    b.crash()
    ov.send("a", "b", "control")
    env.run()
    # the crash, then the delivery it ate, each a row of the fault ledger
    assert [(r.kind, r.reason) for r in ov.ledger.rows] == [
        ("peer.crash", None), ("msg.drop", "dst_down")
    ]
    assert got == []
    b.recover()
    ov.send("a", "b", "control")
    env.run()
    assert len(got) == 1


def test_crashed_node_sends_nothing():
    env, ov = make_overlay()
    got = []
    a = ov.add_node("a", ignore)
    ov.add_node("b", got.append)
    a.crash()
    ov.send("a", "b", "control")
    env.run()
    assert got == []
    assert ov.traffic.sent_by_kind["control"] == 0
    assert ov.traffic.dropped_by_kind["control"] == 1


def test_duplicate_node_rejected():
    _, ov = make_overlay()
    ov.add_node("a", ignore)
    with pytest.raises(ValueError):
        ov.add_node("a", ignore)


def test_unknown_endpoint_rejected():
    _, ov = make_overlay()
    ov.add_node("a", ignore)
    with pytest.raises(KeyError):
        ov.channel("a", "nope")


def test_channel_is_cached_per_direction():
    _, ov = make_overlay()
    ov.add_node("a", ignore)
    ov.add_node("b", ignore)
    assert ov.channel("a", "b") is ov.channel("a", "b")
    assert ov.channel("a", "b") is not ov.channel("b", "a")


def test_per_pair_override():
    env, ov = make_overlay(
        latency_factory=lambda src, dst: ConstantLatency(
            9.0 if (src, dst) == ("a", "b") else 1.0
        )
    )
    arrivals = []
    ov.add_node("a", lambda m: arrivals.append(("a", env.now)))
    ov.add_node("b", lambda m: arrivals.append(("b", env.now)))
    ov.send("a", "b", "x")
    ov.send("b", "a", "x")
    env.run()
    assert arrivals == [("a", 1.0), ("b", 9.0)]


def test_jittered_latency_varies():
    env, ov = make_overlay(default_latency=UniformLatency(1, 5))
    ov.add_node("a", ignore)
    b = ov.add_node("b", ignore)
    arrivals = []
    # every send leaves at t=0, so the delivery time is the latency
    b.on_deliver = lambda m: arrivals.append(env.now)
    for _ in range(20):
        ov.send("a", "b", "x")
    env.run()
    assert len(set(arrivals)) > 5
    assert all(1 <= lat <= 5 for lat in arrivals)


def test_deterministic_given_seed():
    def run():
        env, ov = make_overlay(default_latency=UniformLatency(1, 5))
        ov.add_node("a", ignore)
        b = ov.add_node("b", ignore)
        arrivals = []
        b.on_deliver = lambda m: arrivals.append(env.now)
        for _ in range(5):
            ov.send("a", "b", "x")
        env.run()
        return arrivals

    assert run() == run()


def test_coordination_send_times_skip_media():
    env, ov = make_overlay()
    ov.add_node("a", ignore)
    ov.add_node("b", ignore)

    def proc():
        yield env.timeout(4)
        ov.send("a", "b", "control")
        ov.send("a", "b", "packet")
        yield env.timeout(2)
        ov.send("b", "a", "ack")

    env.process(proc())
    env.run()
    assert ov.traffic.coordination_send_times == [4, 6]
    assert ov.traffic.sent_by_kind["packet"] == 1


def test_overlay_repr():
    _, ov = make_overlay()
    ov.add_node("a", ignore)
    assert "1 nodes" in repr(ov)
