"""Tests for HeteroDCoP (bandwidth-aware flooding) and capacity limits."""

import pytest

from repro.core import HeteroDCoP, ProtocolConfig
from repro.streaming import ProtocolSpec, SessionSpec


def ladder(n, lo=0.05, hi=0.45):
    return {
        f"CP{i}": lo + (hi - lo) * (i - 1) / (n - 1) for i in range(1, n + 1)
    }


def config(**kw):
    defaults = dict(
        n=16, H=5, fault_margin=1, tau=1.0, delta=5.0,
        content_packets=400, seed=4,
    )
    defaults.update(kw)
    return ProtocolConfig(**defaults)


def test_validation():
    with pytest.raises(ValueError):
        HeteroDCoP({"CP1": 0.0})
    with pytest.raises(ValueError):
        HeteroDCoP(default_capacity=0)


def test_capacity_throttles_transmission():
    """A capacity far below the assigned rate stretches completion."""
    cfg = config(n=4, H=4, fault_margin=0, content_packets=200)
    free = SessionSpec(cfg, ProtocolSpec("dcop")).build().run()
    capped = SessionSpec(
        cfg, ProtocolSpec("dcop"), peer_capacities={f"CP{i}": 0.05 for i in range(1, 5)}
    ).build().run()
    assert capped.completed_at > 2 * free.completed_at
    assert capped.delivery_ratio == 1.0


def test_uncapped_peers_unaffected():
    cfg = config(n=6, H=3, content_packets=200)
    a = SessionSpec(cfg, ProtocolSpec("dcop")).build().run()
    b = SessionSpec(cfg, ProtocolSpec("dcop"), peer_capacities={}).build().run()
    assert a.completed_at == b.completed_at


def test_same_coordination_cost_as_dcop():
    """Weighted division changes packet placement, not the protocol: same
    rounds, same control packets."""
    caps = ladder(16)
    cfg = config()
    d = SessionSpec(cfg, ProtocolSpec("dcop"), peer_capacities=caps).build().run()
    hetero = ProtocolSpec("hetero_dcop", {"capacities": caps})
    h = SessionSpec(cfg, hetero, peer_capacities=caps).build().run()
    assert h.rounds == d.rounds
    assert h.control_packets_total == d.control_packets_total


def test_weighted_division_beats_equal_under_capacity_limits():
    caps = ladder(16)
    cfg = config()
    d = SessionSpec(cfg, ProtocolSpec("dcop"), peer_capacities=caps).build().run()
    hetero = ProtocolSpec("hetero_dcop", {"capacities": caps})
    h = SessionSpec(cfg, hetero, peer_capacities=caps).build().run()
    assert h.delivery_ratio == d.delivery_ratio == 1.0
    assert h.completed_at < d.completed_at
    # weighted division lands on the content timeline (+ coordination lag)
    assert h.completed_at == pytest.approx(400, rel=0.1)


def test_full_coverage_with_weighted_divisions():
    """Every data packet still arrives exactly once."""
    from collections import Counter

    caps = ladder(12)
    cfg = config(n=12, H=4, content_packets=200)
    hetero = ProtocolSpec("hetero_dcop", {"capacities": caps})
    session = SessionSpec(cfg, hetero, peer_capacities=caps).build()
    seen = Counter()
    original = session.leaf.node.on_deliver

    def spy(msg):
        if msg.kind == "packet" and not msg.body.is_parity:
            seen[msg.body.label] += 1
        original(msg)

    session.leaf.node.on_deliver = spy
    r = session.run()
    assert r.delivery_ratio == 1.0
    assert set(seen) == set(range(1, 201))
    assert max(seen.values()) == 1


def test_fast_peers_carry_more():
    caps = ladder(10, lo=0.1, hi=1.0)
    cfg = config(n=10, H=10, content_packets=300)
    hetero = ProtocolSpec("hetero_dcop", {"capacities": caps})
    session = SessionSpec(cfg, hetero, peer_capacities=caps).build()
    session.run()
    sent = {
        pid: sum(st.sent_count for st in agent.streams)
        for pid, agent in session.peers.items()
    }
    assert sent["CP10"] > 3 * sent["CP1"]


def test_default_capacity_for_unlisted_peers():
    proto = HeteroDCoP({"CP1": 2.0}, default_capacity=0.5)
    assert proto.capacity_of("CP1") == 2.0
    assert proto.capacity_of("CP9") == 0.5
