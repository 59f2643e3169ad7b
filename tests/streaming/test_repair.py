"""Tests for leaf-driven repair (beyond-parity recovery)."""

from repro.core import ProtocolConfig
from repro.obs import TraceConfig
from repro.streaming import (
    DetectorSpec,
    FaultPlan,
    LossSpec,
    ProtocolSpec,
    RepairPolicy,
    SessionSpec,
)
from repro.streaming.repair import MAX_ROUNDS, RepairRequest


def config(**kw):
    defaults = dict(
        n=10, H=5, fault_margin=0, tau=1.0, delta=10.0,
        content_packets=300, seed=4,
    )
    defaults.update(kw)
    return ProtocolConfig(**defaults)


def repair_sends(session):
    """``(t, dst)`` of every traced ``repair`` send."""
    return [
        (e.ts, e.payload()["dst"])
        for e in session.commons.trace_bus.of_kind("msg.send")
        if e.payload()["kind"] == "repair"
    ]


def crashed_run(repair_policy=None, margin=0, crashes=1):
    cfg = config(fault_margin=margin)
    probe = SessionSpec(cfg, ProtocolSpec("schedule_based")).build()
    victims = probe.leaf_select(5)[:crashes]
    plan = FaultPlan()
    for v in victims:
        plan = plan.crash(v, 100.0)
    session = SessionSpec(
        cfg,
        ProtocolSpec("schedule_based"),
        fault_plan=plan,
        repair_policy=repair_policy,
    ).build()
    return session, session.run()


def test_without_repair_crash_loses_data():
    _, r = crashed_run(repair_policy=None)
    assert r.delivery_ratio < 1.0


def test_repair_restores_full_delivery():
    session, r = crashed_run(repair_policy=RepairPolicy())
    assert r.delivery_ratio == 1.0
    assert session.repair_monitor.rounds_issued >= 1
    assert not session.repair_monitor.gave_up


def test_repair_messages_counted_as_control():
    session, r = crashed_run(repair_policy=RepairPolicy())
    assert r.messages_by_kind.get("repair", 0) >= 1


def test_repair_with_payload_bytes_verified():
    cfg = config(with_payload=True, packet_size=64, content_packets=120)
    probe = SessionSpec(cfg, ProtocolSpec("schedule_based")).build()
    victim = probe.leaf_select(5)[0]
    session = SessionSpec(
        cfg,
        ProtocolSpec("schedule_based"),
        fault_plan=FaultPlan().crash(victim, 40.0),
        repair_policy=RepairPolicy(),
    ).build()
    r = session.run()
    assert r.delivery_ratio == 1.0
    assert session.leaf.decoder.verify_against(session.content)


def test_no_stall_no_repair():
    cfg = config()
    session = SessionSpec(
        cfg, ProtocolSpec("schedule_based"), repair_policy=RepairPolicy()
    ).build()
    r = session.run()
    assert r.delivery_ratio == 1.0
    assert session.repair_monitor.rounds_issued == 0


def test_repair_retries_until_live_peer_found():
    """Several crashed peers: repair rounds re-sample until live peers
    cover the gap."""
    session, r = crashed_run(repair_policy=RepairPolicy(), crashes=3)
    assert r.delivery_ratio == 1.0


def test_repair_gives_up_after_max_rounds():
    """If every peer is dead, the monitor stops instead of spinning."""
    cfg = config(n=4, H=4)
    plan = FaultPlan()
    for pid in ("CP1", "CP2", "CP3", "CP4"):
        plan = plan.crash(pid, 50.0)
    session = SessionSpec(
        cfg,
        ProtocolSpec("schedule_based"),
        fault_plan=plan,
        repair_policy=RepairPolicy(),
    ).build()
    r = session.run()
    assert r.delivery_ratio < 1.0
    assert session.repair_monitor.gave_up
    assert session.repair_monitor.rounds_issued == MAX_ROUNDS


def test_repair_under_loss_plus_no_parity():
    """Bernoulli loss with margin 0: repair mops up what parity would
    have handled."""
    cfg = config(fault_margin=0)
    session = SessionSpec(
        cfg,
        ProtocolSpec("dcop"),
        loss=LossSpec("bernoulli", {"p": 0.05}),
        repair_policy=RepairPolicy(),
    ).build()
    r = session.run()
    assert r.delivery_ratio == 1.0


def test_repair_request_slices_are_disjoint_cover():
    req = RepairRequest(seqs=[1, 5, 9], rate=0.5)
    assert req.seqs == [1, 5, 9]
    assert req.rate == 0.5


def test_repair_skips_detector_suspects():
    """With a failure detector present, repair rounds exclude peers the
    detector already considers dead — no repair request is wasted on a
    confirmed-crashed peer."""
    cfg = config(fault_margin=0)
    probe = SessionSpec(cfg, ProtocolSpec("schedule_based")).build()
    victim = probe.leaf_select(5)[0]
    session = SessionSpec(
        cfg,
        ProtocolSpec("schedule_based"),
        fault_plan=FaultPlan().crash(victim, 100.0),
        repair_policy=RepairPolicy(),
        detector_policy=DetectorSpec("fixed"),
        trace=TraceConfig(),
    ).build()
    # the confirm must not re-coordinate: repair alone mends the loss
    session.detector.on_confirm = None
    r = session.run()
    assert victim in r.confirmed_failures
    confirmed_at = session.detector.monitored[victim].confirmed_at
    assert repair_sends(session)  # the scan below is not vacuous
    late_repairs_to_victim = [
        (t, dst)
        for t, dst in repair_sends(session)
        if dst == victim and t > confirmed_at
    ]
    assert late_repairs_to_victim == []
    assert r.delivery_ratio == 1.0


def test_repair_fails_over_from_one_way_dead_peer(monkeypatch):
    """Repair requests that reach a peer whose *answers* vanish (one-way
    link failure toward the leaf) must not strand the leaf: later rounds
    re-sample and another serving peer covers the gap within the
    monitor's round budget."""
    import repro.streaming.repair as repair
    from repro.streaming.faults import LinkCut, PartitionPlan

    # one peer per round, so a round sent to a mute peer must fail over
    monkeypatch.setattr(repair, "FANOUT", 1)

    cfg = config(fault_margin=0)
    probe = SessionSpec(cfg, ProtocolSpec("schedule_based")).build()
    victim = probe.leaf_select(5)[0]
    # half the peers can hear repair requests but their replies vanish
    mute = [p for p in probe.peer_ids if p != victim][::2]

    session = SessionSpec(
        config=cfg,
        protocol=ProtocolSpec("schedule_based"),
        fault_plan=FaultPlan().crash(victim, 100.0),
        repair_policy=RepairPolicy(),
        partition_plan=PartitionPlan(
            cuts=tuple(LinkCut(p, "leaf", at=0.0) for p in mute)
        ),
        trace=TraceConfig(),
    ).build()
    r = session.run()
    assert r.delivery_ratio == 1.0
    assert not session.repair_monitor.gave_up
    repair_targets = [dst for _t, dst in repair_sends(session)]
    # the failover was actually exercised: at least one round landed on a
    # mute peer, and a later one reached a peer that could answer
    assert any(dst in mute for dst in repair_targets)
    assert any(dst not in mute for dst in repair_targets)


def test_repair_falls_back_when_everyone_suspected():
    """A false mass suspicion must not starve repair: with every peer
    suspected the monitor samples from the full list again."""
    cfg = config(fault_margin=0)
    session = SessionSpec(
        cfg,
        ProtocolSpec("schedule_based"),
        repair_policy=RepairPolicy(),
        detector_policy=DetectorSpec("fixed"),
        trace=TraceConfig(),
    ).build()
    det = session.detector
    for pid in session.peer_ids:
        det.touch(pid)
        det.monitored[pid].suspected_at = 0.0
    monitor = session.repair_monitor
    # force a round with everyone suspected; it must still send requests
    session.leaf.decoder  # noqa: B018 — decoder is empty, all seqs missing
    monitor._issue_round()
    assert repair_sends(session)
