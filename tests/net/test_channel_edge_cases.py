"""Edge cases for channels: loss interactions, per-pair latency
factories."""

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
    traffic = ov.traffic
    assert traffic.sent_by_kind["x"] == 400
    assert traffic.dropped_by_kind["x"] / 400 == pytest.approx(0.5, abs=0.08)
    assert traffic.delivered_by_kind["x"] + traffic.dropped_by_kind["x"] == 400
    # every lost instance is one ledger row
    assert len(ov.ledger.rows) == traffic.dropped_by_kind["x"]


def test_channel_repr():
    env, ov = build()
    ov.add_node("a", ignore)
    ov.add_node("b", ignore)
    assert "a->b" in repr(ov.channel("a", "b"))


def test_node_requires_id():
    from repro.net import Node

    with pytest.raises(ValueError):
        Node(Environment(), "", ignore)
