"""Tests for heterogeneous-rate streaming (§2 time-slot allocation live):
``schedule_based`` with ``weighted`` divides by the selected peers'
uplinks; without it the even division is held to the same uplinks."""

import pytest

from repro.core import ProtocolConfig
from repro.core.base import Assignment
from repro.experiments import first_picks
from repro.media import DataPacket, PacketSequence
from repro.net.capacity import CapacityPolicy
from repro.streaming import ProtocolSpec, SessionSpec


def config(**kw):
    defaults = dict(
        n=10, H=3, fault_margin=0, tau=1.0, delta=5.0,
        content_packets=300, seed=1,
    )
    defaults.update(kw)
    return ProtocolConfig(**defaults)


def run(bandwidths, weighted=True, **kw):
    """The leaf's picks get ``bandwidths`` packets per δ as uplinks."""
    cfg = config(H=len(bandwidths), **kw)
    picks = first_picks(cfg, ProtocolSpec("schedule_based"), cfg.H)
    uplinks = CapacityPolicy(
        packets_per_delta=1.0, per_peer=dict(zip(picks, bandwidths))
    )
    proto = ProtocolSpec("schedule_based", {"weighted": weighted})
    session = SessionSpec(cfg, proto, upload_capacity=uplinks).build()
    return session, session.run()


def test_complete_delivery():
    _, r = run([4, 2, 1])
    assert r.delivery_ratio == 1.0
    assert r.all_active
    assert len(r.activation_times) == 3


def test_shares_proportional_to_bandwidth():
    session, _ = run([4, 2, 1], content_packets=280)
    sent = {
        pid: sum(st.sent_count for st in session.peers[pid].streams)
        for pid in session.expected_active
    }
    counts = sorted(sent.values(), reverse=True)
    # 4:2:1 over 280 packets = 160:80:40
    assert counts == [160, 80, 40]


def test_equal_finish_times():
    """Proportional rates ⇒ all peers drain within one δ of each other."""
    session, r = run([5, 2, 1], content_packets=400)
    # every stream exhausted at completion; the slowest peer governs, but
    # because shares ∝ rate all finish ≈ together: completion ≈ duration
    assert r.completed_at == pytest.approx(400 + 2 * 5.0, rel=0.1)


def test_naive_division_finishes_late():
    _, slots = run([6, 1, 1], content_packets=300)
    _, naive = run([6, 1, 1], weighted=False, content_packets=300)
    assert naive.completed_at > 1.5 * slots.completed_at


def test_timeslots_preserve_order_better():
    s_slots, _ = run([4, 2, 1], content_packets=400)
    s_naive, _ = run([4, 2, 1], weighted=False, content_packets=400)
    assert s_slots.leaf.order_violations < s_naive.leaf.order_violations


def test_homogeneous_degenerates_to_even_split():
    session, r = run([1, 1, 1], content_packets=300)
    sent = [
        sum(st.sent_count for st in session.peers[pid].streams)
        for pid in session.expected_active
    ]
    assert sorted(sent) == [100, 100, 100]
    assert r.delivery_ratio == 1.0


def test_with_parity_recovers_slow_peer_tail():
    """Naive division + margin: parity from fast peers recovers the slow
    peer's outstanding packets before it finishes sending them."""
    session, r = run([6, 6, 1], weighted=False, fault_margin=1)
    assert r.delivery_ratio == 1.0
    # the slow peer needs 150 packets / 0.2 per ms = 750 ms for its share;
    # completion comes with the fast peers' shares instead: parity
    # recovered its packets eagerly (they later arrive as duplicates, so
    # `recovered` drains back to 0 by then)
    assert r.completed_at < 400
    assert r.duplicate_packets > 0


def test_explicit_assignment_roundtrip():
    plan = PacketSequence([DataPacket(2), DataPacket(5)])
    a = Assignment(
        basis=PacketSequence([DataPacket(1)]),
        n_parts=1,
        index=0,
        interval=0,
        rate=1.0,
        explicit=plan,
    )
    assert a.build_plan() is plan
