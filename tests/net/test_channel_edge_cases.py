"""Edge cases for channels: bandwidth queueing, loss interactions,
per-pair latency factories."""

import pytest

from repro.net import (
    BernoulliLoss,
    ConstantLatency,
    GilbertElliottLoss,
    Overlay,
)
from repro.sim import Environment, RandomStreams

from tests.net import ignore


def build(**kw):
    env = Environment()
    ov = Overlay(env, streams=RandomStreams(5), **kw)
    return env, ov


def test_bandwidth_rejects_nonpositive():
    from repro.net import Channel, Node

    env = Environment()
    a, b = Node(env, "a", ignore), Node(env, "b", ignore)
    with pytest.raises(ValueError):
        Channel(env, a, b, bandwidth_bytes_per_ms=0)


def test_bandwidth_idle_gap_resets_queue():
    """A message sent after the link drained doesn't inherit old queueing."""
    env, ov = build(
        default_latency=ConstantLatency(0.0), bandwidth_bytes_per_ms=100.0
    )
    ov.add_node("a", ignore)
    b = ov.add_node("b", ignore)
    arrivals = []
    b.on_deliver = lambda m: arrivals.append(env.now)

    def sender():
        ov.send("a", "b", "x", size_bytes=100)  # serialize 1ms → arrives t=1
        yield env.timeout(10)
        ov.send("a", "b", "x", size_bytes=100)  # arrives t=11, not t=2

    env.process(sender())
    env.run()
    assert arrivals == [1.0, 11.0]


def test_latency_factory_called_once_per_pair():
    calls = []

    def factory(src, dst):
        calls.append((src, dst))
        return ConstantLatency(2.0)

    env, ov = build(latency_factory=factory)
    ov.add_node("a", ignore)
    ov.add_node("b", ignore)
    ov.send("a", "b", "x")
    ov.send("a", "b", "x")
    ov.send("b", "a", "x")
    env.run()
    assert calls == [("a", "b"), ("b", "a")]


def test_per_pair_factory_beats_default():
    env, ov = build(
        default_latency=ConstantLatency(50.0),
        latency_factory=lambda s, d: ConstantLatency(1.0),
    )
    ov.add_node("a", ignore)
    b = ov.add_node("b", ignore)
    arrivals = []
    b.on_deliver = lambda m: arrivals.append(env.now)
    ov.send("a", "b", "x")
    env.run()
    assert arrivals == [1.0]


def test_loss_models_are_per_channel_instances():
    """Stateful loss models must not be shared between channels."""
    env, ov = build(
        default_loss_factory=lambda: GilbertElliottLoss(0.5, 0.0)
    )
    for nid in ("a", "b", "c"):
        ov.add_node(nid, ignore)
    ch1 = ov.channel("a", "b")
    ch2 = ov.channel("a", "c")
    assert ch1.loss is not ch2.loss


def test_loss_ratio_statistic():
    env, ov = build(default_loss_factory=lambda: BernoulliLoss(0.5))
    ov.add_node("a", ignore)
    ov.add_node("b", ignore)
    for _ in range(400):
        ov.send("a", "b", "x")
    env.run()
    st = ov.channel("a", "b").stats
    assert st.sent == 400
    assert st.loss_ratio == pytest.approx(0.5, abs=0.08)
    assert st.delivered + st.dropped == 400


def test_empty_channel_stats():
    env, ov = build()
    ov.add_node("a", ignore)
    ov.add_node("b", ignore)
    st = ov.channel("a", "b").stats
    assert st.loss_ratio == 0.0
    assert st.mean_latency == 0.0


def test_channel_repr():
    env, ov = build()
    ov.add_node("a", ignore)
    ov.add_node("b", ignore)
    assert "a->b" in repr(ov.channel("a", "b"))


def test_node_requires_id():
    from repro.net import Node

    with pytest.raises(ValueError):
        Node(Environment(), "", ignore)
