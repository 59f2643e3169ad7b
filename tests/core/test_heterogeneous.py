"""Tests for heterogeneous-rate streaming (§2 time-slot allocation live)."""

import pytest

from repro.core import HeterogeneousScheduleCoordination, ProtocolConfig
from repro.core.base import Assignment
from repro.media import DataPacket, PacketSequence
from repro.streaming import ProtocolSpec, SessionSpec


def config(**kw):
    defaults = dict(
        n=10, H=3, fault_margin=0, tau=1.0, delta=5.0,
        content_packets=300, seed=1,
    )
    defaults.update(kw)
    return ProtocolConfig(**defaults)


def run(bandwidths, use_timeslots=True, **kw):
    cfg = config(H=len(bandwidths), **kw)
    proto = ProtocolSpec(
        "hetero_schedule",
        {"bandwidths": bandwidths, "use_timeslots": use_timeslots},
    )
    session = SessionSpec(cfg, proto).build()
    return session, session.run()


def test_validation():
    with pytest.raises(ValueError):
        HeterogeneousScheduleCoordination([])
    with pytest.raises(ValueError):
        HeterogeneousScheduleCoordination([1, 0])
    proto = ProtocolSpec("hetero_schedule", {"bandwidths": [1, 2]})
    with pytest.raises(ValueError):
        SessionSpec(config(H=3), proto).build().run()


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
    _, naive = run([6, 1, 1], use_timeslots=False, content_packets=300)
    assert naive.completed_at > 1.5 * slots.completed_at


def test_timeslots_preserve_order_better():
    s_slots, _ = run([4, 2, 1], content_packets=400)
    s_naive, _ = run([4, 2, 1], use_timeslots=False, content_packets=400)
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
    cfg = config(H=3, fault_margin=1, content_packets=300)
    proto = ProtocolSpec(
        "hetero_schedule", {"bandwidths": [6, 6, 1], "use_timeslots": False}
    )
    session = SessionSpec(cfg, proto).build()
    r = session.run()
    assert r.delivery_ratio == 1.0
    # completion happens long before the slow peer drains its oversized
    # share: parity recovered its packets eagerly (they later arrive as
    # duplicates, so `recovered` drains back to 0 by then)
    assert r.completed_at < 300
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


def test_strawman_renamed():
    assert HeterogeneousScheduleCoordination([1], use_timeslots=False).name == "HeteroNaive"
    assert HeterogeneousScheduleCoordination([1]).name == "HeteroSchedule"
