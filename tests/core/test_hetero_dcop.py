"""Tests for weighted DCoP (bandwidth-aware flooding) and upload budgets."""

from collections import Counter

import pytest

from repro.core import ProtocolConfig
from repro.net.capacity import CapacityPolicy
from repro.streaming import JoinStormPlan, ProtocolSpec, SessionSpec, SwarmSpec

WEIGHTED = ProtocolSpec("dcop", {"weighted": True})


def ladder(n, lo=0.05, hi=0.45, delta=5.0):
    """Uplinks from ``lo`` to ``hi`` packets/ms, stated per δ over 10δ
    windows."""
    return CapacityPolicy(
        packets_per_delta=lo * delta,
        window_deltas=10.0,
        per_peer={
            f"CP{i}": (lo + (hi - lo) * (i - 1) / (n - 1)) * delta
            for i in range(1, n + 1)
        },
    )


def config(**kw):
    defaults = dict(
        n=16, H=5, fault_margin=1, tau=1.0, delta=5.0,
        content_packets=400, seed=4,
    )
    defaults.update(kw)
    return ProtocolConfig(**defaults)


def test_capacity_throttles_transmission():
    """An uplink far below the assigned rate stretches completion."""
    cfg = config(n=4, H=4, fault_margin=0, content_packets=200)
    free = SessionSpec(cfg, ProtocolSpec("dcop")).build().run()
    capped = SessionSpec(
        cfg, ProtocolSpec("dcop"),
        upload_capacity=CapacityPolicy(packets_per_delta=0.25, window_deltas=4.0),
    ).build().run()
    assert capped.completed_at > 2 * free.completed_at
    assert capped.delivery_ratio == 1.0


def test_uncapped_peers_unaffected():
    """Budgets that never bind leave the trajectory as it is."""
    cfg = config(n=6, H=3, content_packets=200)
    a = SessionSpec(cfg, ProtocolSpec("dcop")).build().run()
    b = SessionSpec(
        cfg, ProtocolSpec("dcop"),
        upload_capacity=CapacityPolicy(packets_per_delta=1000.0),
    ).build().run()
    assert a.completed_at == b.completed_at


def test_same_coordination_cost_as_dcop():
    """Weighted division changes packet placement, not the protocol: same
    rounds, same control packets."""
    cfg = config()
    d = SessionSpec(cfg, ProtocolSpec("dcop"), upload_capacity=ladder(16)).build().run()
    h = SessionSpec(cfg, WEIGHTED, upload_capacity=ladder(16)).build().run()
    assert h.rounds == d.rounds
    assert h.control_packets_total == d.control_packets_total


def test_weighted_division_beats_equal_under_capacity_limits():
    cfg = config()
    d = SessionSpec(cfg, ProtocolSpec("dcop"), upload_capacity=ladder(16)).build().run()
    h = SessionSpec(cfg, WEIGHTED, upload_capacity=ladder(16)).build().run()
    assert h.delivery_ratio == d.delivery_ratio == 1.0
    assert h.completed_at < d.completed_at
    # weighted division lands on the content timeline (+ coordination lag)
    assert h.completed_at == pytest.approx(400, rel=0.1)


def test_full_coverage_with_weighted_divisions():
    """Every data packet still arrives exactly once."""
    cfg = config(n=12, H=4, content_packets=200)
    session = SessionSpec(cfg, WEIGHTED, upload_capacity=ladder(12)).build()
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
    cfg = config(n=10, H=10, content_packets=300)
    session = SessionSpec(
        cfg, WEIGHTED, upload_capacity=ladder(10, lo=0.1, hi=1.0)
    ).build()
    session.run()
    sent = {
        pid: sum(st.sent_count for st in agent.streams)
        for pid, agent in session.peers.items()
    }
    assert sent["CP10"] > 3 * sent["CP1"]


@pytest.mark.parametrize("kind", ["dcop", "schedule_based"])
@pytest.mark.parametrize("run", ["single", "swarm"])
def test_weighted_without_uplinks_fails_at_build(kind, run):
    spec = SessionSpec(config(), ProtocolSpec(kind, {"weighted": True}))
    if run == "swarm":
        spec = SwarmSpec(session=spec, join_plan=JoinStormPlan(leaves=2))
    with pytest.raises(ValueError, match="upload budgets"):
        spec.build()


def test_uplinks_for_a_peer_the_run_lacks_are_refused():
    spec = SessionSpec(
        config(n=4, H=2), ProtocolSpec("dcop"),
        upload_capacity=CapacityPolicy(
            packets_per_delta=1.0, per_peer={"CP5": 2.0}
        ),
    )
    with pytest.raises(ValueError, match="unknown peer 'CP5'"):
        spec.build()
