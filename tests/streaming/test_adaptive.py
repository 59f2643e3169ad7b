"""Tests for rate adaptation (degraded peers recruit helpers)."""

import pytest

from repro.core import ProtocolConfig
from repro.media import DataPacket, PacketSequence
from repro.streaming import (
    FaultPlan,
    ProtocolSpec,
    RateAdaptationPolicy,
    SessionSpec,
    Stream,
)


def config(**kw):
    defaults = dict(
        n=10, H=4, fault_margin=0, tau=1.0, delta=5.0,
        content_packets=400, seed=2,
    )
    defaults.update(kw)
    return ProtocolConfig(**defaults)


def degraded_run(adaptation_policy=None, factor=0.25):
    cfg = config()
    probe = SessionSpec(cfg, ProtocolSpec("schedule_based")).build()
    victim = probe.leaf_select(4)[1]
    session = SessionSpec(
        cfg,
        ProtocolSpec("schedule_based"),
        fault_plan=FaultPlan().degrade(victim, 50.0, factor=factor),
        adaptation_policy=adaptation_policy,
    ).build()
    return session, session.run()


def test_weighted_handoff_splits_proportionally():
    s = Stream(PacketSequence(DataPacket(k) for k in range(1, 101)), rate=1.0)
    plans = s.handoff_weighted([1.0, 3.0], fault_margin=0, delta=2.0)
    own = len(s.future_packets()) - 2  # minus the kept head
    helper = len(plans[0])
    assert helper == pytest.approx(3 * own, abs=2)


def test_weighted_handoff_validation():
    s = Stream(PacketSequence([DataPacket(1)]), rate=1.0)
    with pytest.raises(ValueError):
        s.handoff_weighted([1.0], 0, 1.0)
    with pytest.raises(ValueError):
        s.handoff_weighted([1.0, 0.0], 0, 1.0)


def test_weighted_handoff_exhausted_returns_none():
    s = Stream(PacketSequence(), rate=1.0)
    assert s.handoff_weighted([1, 1], 0, 1.0) is None


def test_weighted_handoff_covers_everything():
    s = Stream(PacketSequence(DataPacket(k) for k in range(1, 61)), rate=1.0)
    plans = s.handoff_weighted([2.0, 1.0, 1.0], fault_margin=1, delta=3.0)
    covered = set()
    for p in s.future_packets():
        covered |= p.covered_seqs()
    for plan in plans:
        for p in plan:
            covered |= p.covered_seqs()
    assert covered == set(range(1, 61))


def test_nominal_rate_survives_degradation():
    s = Stream(PacketSequence([DataPacket(1), DataPacket(2)]), rate=2.0)
    s.scale_rate(0.5)
    assert s.current_rate == 1.0
    assert s.nominal_rate == 2.0


def test_degradation_without_adaptation_finishes_late():
    _, r = degraded_run(adaptation_policy=None)
    # victim at 25% speed: its quarter of the content takes ~4x longer
    assert r.completed_at > 1.8 * 400


def test_adaptation_recovers_completion_time():
    session, r = degraded_run(adaptation_policy=RateAdaptationPolicy())
    assert r.delivery_ratio == 1.0
    assert session.adaptation_monitor.adaptations >= 1
    _, r_plain = degraded_run(adaptation_policy=None)
    assert r.completed_at < 0.75 * r_plain.completed_at


def test_healthy_run_never_adapts():
    cfg = config()
    session = SessionSpec(
        cfg,
        ProtocolSpec("schedule_based"),
        adaptation_policy=RateAdaptationPolicy(),
    ).build()
    r = session.run()
    assert session.adaptation_monitor.adaptations == 0
    assert r.delivery_ratio == 1.0


def test_adapt_messages_counted_as_control():
    session, r = degraded_run(adaptation_policy=RateAdaptationPolicy())
    assert r.messages_by_kind.get("adapt", 0) == session.adaptation_monitor.adaptations


def test_each_stream_compensated_once():
    session, _ = degraded_run(adaptation_policy=RateAdaptationPolicy())
    assert session.adaptation_monitor.adaptations == 1
