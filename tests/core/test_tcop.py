"""Behavioural tests for TCoP: tree shape, handshake rounds, traffic."""

import pytest

from repro.core import ProtocolConfig
from repro.streaming import LossSpec, ProtocolSpec, SessionSpec


def make_session(n, H, **kw):
    defaults = dict(
        fault_margin=1, tau=1.0, delta=10.0, content_packets=300, seed=3
    )
    defaults.update(kw)
    cfg = ProtocolConfig(n=n, H=H, **defaults)
    return SessionSpec(cfg, ProtocolSpec("tcop")).build()


def run(n, H, **kw):
    return make_session(n, H, **kw).run()


def test_all_peers_activate():
    r = run(n=12, H=4)
    assert r.all_active
    assert r.delivery_ratio == 1.0


def test_h_equals_n_three_rounds():
    """The leaf's own selection is a 3-way handshake: offer/confirm/start."""
    r = run(n=10, H=10)
    assert r.rounds == 3


def test_rounds_are_multiples_of_three_per_wave():
    """Two waves (H >= n-H) → 6 rounds, matching the paper's H=60 point."""
    r = run(n=10, H=7)
    assert r.rounds == 6


def test_rounds_triple_dcop_for_same_coverage():
    for n, H in ((10, 7), (16, 10)):
        t = run(n=n, H=H)
        cfg = ProtocolConfig(
            n=n, H=H, fault_margin=1, delta=10.0, content_packets=300, seed=3
        )
        d = SessionSpec(cfg, ProtocolSpec("dcop")).build().run()
        assert t.rounds == 3 * d.rounds


def test_single_parent_invariant():
    """Every contents peer has at most one parent: one stream each."""
    session = make_session(20, 5)
    session.run()
    for agent in session.peers.values():
        assert len(agent.streams) <= 1
        assert agent.parent is not None or not agent.active


def test_tree_structure_rooted_at_leaf():
    """Parents form a forest rooted at the leaf (no cycles)."""
    session = make_session(20, 5)
    session.run()
    leaf_id = session.leaf.peer_id
    for agent in session.peers.values():
        seen = set()
        node = agent
        while node.parent is not None and node.parent != leaf_id:
            assert node.peer_id not in seen, "cycle in parent pointers"
            seen.add(node.peer_id)
            node = session.peers[node.parent]
        assert node.parent == leaf_id or node.parent is None


def test_more_control_traffic_than_dcop():
    t = run(n=30, H=10)
    cfg = ProtocolConfig(
        n=30, H=10, fault_margin=1, delta=10.0, content_packets=300, seed=3
    )
    d = SessionSpec(cfg, ProtocolSpec("dcop")).build().run()
    assert t.control_packets_total > d.control_packets_total


def test_offer_confirm_reject_accounting():
    """Each offered peer responds exactly once: offers = confirms+rejects
    (requests are the leaf's offers and are answered with confirms too)."""
    session = make_session(16, 5)
    r = session.run()
    kinds = r.messages_by_kind
    offers = kinds.get("offer", 0) + kinds.get("request", 0)
    responses = kinds.get("confirm", 0) + kinds.get("reject", 0)
    assert offers == responses


def test_starts_equal_confirms():
    """Every confirmed child receives exactly one start."""
    r = run(n=16, H=5)
    kinds = r.messages_by_kind
    assert kinds.get("start", 0) == kinds.get("confirm", 0)


def test_deterministic_given_seed():
    a = run(n=15, H=5, seed=9)
    b = run(n=15, H=5, seed=9)
    assert a.activation_times == b.activation_times
    assert a.control_packets_total == b.control_packets_total


def test_leaf_complete_content_no_parity():
    r = run(n=12, H=4, fault_margin=0)
    assert r.delivery_ratio == 1.0
    assert r.receipt_rate == pytest.approx(1.0)
    assert r.duplicate_packets == 0


def test_receipt_rate_above_dcop_at_moderate_h():
    """Fig. 12's ordering: TCoP's narrow splits cost more parity."""
    n, H = 50, 25
    t = run(n=n, H=H, content_packets=400)
    cfg = ProtocolConfig(
        n=n, H=H, fault_margin=1, delta=10.0, content_packets=400, seed=3
    )
    d = SessionSpec(cfg, ProtocolSpec("dcop")).build().run()
    assert t.receipt_rate > d.receipt_rate


def test_rejected_offers_present_with_small_h():
    """Selection collisions produce explicit rejects."""
    r = run(n=20, H=4)
    assert r.messages_by_kind.get("reject", 0) > 0


def test_lossy_channels_never_wedge_a_peer():
    """A child whose start message was lost releases its parent claim
    (watchdog), so after quiescence no peer is taken-but-inactive."""

    session = make_session(20, 5, content_packets=200)
    # rebuild with loss
    cfg = ProtocolConfig(
        n=20, H=5, fault_margin=1, delta=10.0, content_packets=200, seed=3
    )
    session = SessionSpec(
        cfg, ProtocolSpec("tcop"), loss=LossSpec("bernoulli", {"p": 0.25})
    ).build()
    session.run()
    for agent in session.peers.values():
        assert agent.active or agent.parent is None


def test_lossless_watchdog_never_fires():
    """On reliable channels every confirmed child gets its start before
    the watchdog expires: all peers activate normally."""
    r = run(n=20, H=5)
    assert r.all_active
