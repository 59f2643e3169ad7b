"""Tests for fault injection and the paper's fault-tolerance claim."""

import pytest

from repro.core import ProtocolConfig
from repro.streaming import (
    ChurnPlan,
    CrashFault,
    DegradeFault,
    FaultPlan,
    ProtocolSpec,
    SessionSpec,
)


def config(**kw):
    defaults = dict(
        n=12, H=6, fault_margin=1, tau=1.0, delta=10.0,
        content_packets=300, seed=4,
    )
    defaults.update(kw)
    return ProtocolConfig(**defaults)


def test_fault_validation():
    with pytest.raises(ValueError):
        CrashFault("CP1", at=-1)
    with pytest.raises(ValueError):
        DegradeFault("CP1", at=-1, factor=0.5)
    with pytest.raises(ValueError):
        DegradeFault("CP1", at=1, factor=0)


def test_fault_plan_builder():
    plan = FaultPlan().crash("CP1", 5).degrade("CP2", 6, 0.5)
    assert len(plan.crashes) == 1
    assert len(plan.degradations) == 1


def test_fault_plan_refuses_a_speedup_and_a_duplicate_when_built():
    # plan-level checks run at construction, before any session exists
    with pytest.raises(ValueError, match="slow the peer down"):
        FaultPlan().degrade("CP1", 5, factor=1.5)
    with pytest.raises(ValueError, match="duplicate crash"):
        FaultPlan().crash("CP1", 5).crash("CP1", 5)


def test_crash_stops_transmission():
    cfg = config()
    # find which peer the leaf will pick (same seed → same selection)
    probe = SessionSpec(config(), ProtocolSpec("single_source")).build()
    server = probe.leaf_select(1)[0]
    plan = FaultPlan().crash(server, 30.0)
    session = SessionSpec(cfg, ProtocolSpec("single_source"), fault_plan=plan).build()
    r = session.run()
    assert r.delivery_ratio < 0.5  # most of the content never arrives
    assert [row.kind for row in session.commons.ledger.rows[:1]] == [
        "peer.crash"
    ]


def test_single_source_crash_kills_stream_dcop_survives():
    """The paper's core claim: multi-source + parity tolerates a peer
    crash; single-source does not."""
    # single source: crash the server mid-stream
    probe = SessionSpec(config(fault_margin=0), ProtocolSpec("single_source")).build()
    server = probe.leaf_select(1)[0]
    ss = SessionSpec(
        config(fault_margin=0),
        ProtocolSpec("single_source"),
        fault_plan=FaultPlan().crash(server, 100.0),
    ).build()
    r_ss = ss.run()

    # DCoP with margin 1: crash one of the initially selected peers after
    # it has synchronized
    probe = SessionSpec(config(), ProtocolSpec("dcop")).build()
    victim = probe.leaf_select(6)[0]
    dcop = SessionSpec(
        config(),
        ProtocolSpec("dcop"),
        fault_plan=FaultPlan().crash(victim, 100.0),
    ).build()
    r_dcop = dcop.run()

    assert r_ss.delivery_ratio < 0.6
    assert r_dcop.delivery_ratio > r_ss.delivery_ratio


def test_parity_recovers_crashed_peer_packets():
    """Schedule-based H senders, margin 1: one peer's death per recovery
    segment is fully recoverable."""
    cfg = config(n=10, H=5, fault_margin=1, content_packets=400)
    probe = SessionSpec(cfg, ProtocolSpec("schedule_based")).build()
    victim = probe.leaf_select(5)[2]
    session = SessionSpec(
        cfg,
        ProtocolSpec("schedule_based"),
        fault_plan=FaultPlan().crash(victim, 150.0),
    ).build()
    r = session.run()
    assert r.recovered_packets > 0
    assert r.delivery_ratio == 1.0


def test_no_parity_crash_loses_data():
    cfg = config(n=10, H=5, fault_margin=0, content_packets=400)
    probe = SessionSpec(cfg, ProtocolSpec("schedule_based")).build()
    victim = probe.leaf_select(5)[2]
    session = SessionSpec(
        cfg,
        ProtocolSpec("schedule_based"),
        fault_plan=FaultPlan().crash(victim, 150.0),
    ).build()
    r = session.run()
    assert r.delivery_ratio < 1.0


def test_degradation_slows_but_loses_nothing():
    cfg = config(n=10, H=5, fault_margin=0, content_packets=300)
    probe = SessionSpec(cfg, ProtocolSpec("schedule_based")).build()
    victim = probe.leaf_select(5)[0]
    slow = SessionSpec(
        cfg,
        ProtocolSpec("schedule_based"),
        fault_plan=FaultPlan().degrade(victim, 50.0, factor=0.25),
    ).build()
    r_slow = slow.run()
    clean = SessionSpec(cfg, ProtocolSpec("schedule_based")).build().run()
    assert r_slow.delivery_ratio == 1.0
    assert r_slow.completed_at > clean.completed_at


def test_crashed_peer_excluded_from_sync_metric():
    """Crashing a peer before coordination reaches it must not wedge the
    sync metric."""
    cfg = config(n=10, H=3)
    session = SessionSpec(
        cfg, ProtocolSpec("dcop"), fault_plan=FaultPlan().crash("CP9", 0.0)
    ).build()
    r = session.run()
    # CP9 is down from t=0; remaining peers still synchronize
    assert "CP9" not in r.activation_times or r.all_active


# ----------------------------------------------------------------------
# install-time validation
# ----------------------------------------------------------------------
def test_install_rejects_unknown_crash_target():
    plan = FaultPlan().crash("CP999", 10.0)
    with pytest.raises(ValueError, match="CP999"):
        SessionSpec(config(), ProtocolSpec("dcop"), fault_plan=plan).build()


def test_install_rejects_unknown_degrade_target():
    plan = FaultPlan().degrade("nope", 10.0, factor=0.5)
    with pytest.raises(ValueError, match="nope"):
        SessionSpec(config(), ProtocolSpec("dcop"), fault_plan=plan).build()


def test_install_accepts_valid_targets():
    plan = FaultPlan().crash("CP1", 10.0).degrade("CP2", 20.0, 0.5)
    SessionSpec(config(), ProtocolSpec("dcop"), fault_plan=plan).build()  # no raise


# ----------------------------------------------------------------------
# churn
# ----------------------------------------------------------------------
def test_churn_plan_validation():
    with pytest.raises(ValueError):
        ChurnPlan(rate_per_delta=-0.1)
    with pytest.raises(ValueError):
        ChurnPlan(mean_downtime_deltas=0)
    with pytest.raises(ValueError):
        ChurnPlan(storm_size=-1)
    with pytest.raises(ValueError):
        ChurnPlan(start_deltas=-1)
    with pytest.raises(ValueError):
        ChurnPlan(stop_deltas=0)
    with pytest.raises(ValueError):
        ChurnPlan(min_live=0)


def test_churn_crashes_and_rejoins_peers():
    cfg = config(n=10, H=4, content_packets=400, seed=2)
    plan = ChurnPlan(
        rate_per_delta=0.2, min_live=5, mean_downtime_deltas=3.0
    )
    session = SessionSpec(cfg, ProtocolSpec("dcop"), churn_plan=plan).build()
    session.run()
    kinds = {row.kind for row in session.commons.ledger.rows}
    assert "peer.crash" in kinds
    assert "peer.rejoin" in kinds


def test_churn_respects_min_live():
    cfg = config(n=6, H=3, content_packets=300, seed=1)
    plan = ChurnPlan(rate_per_delta=1.0, rejoin=False, min_live=4)
    session = SessionSpec(cfg, ProtocolSpec("dcop"), churn_plan=plan).build()
    session.run()
    live = [p for p in session.peer_ids if not session.peers[p].crashed]
    assert len(live) >= 4


def test_churn_storm_crashes_a_group_at_once():
    cfg = config(n=12, H=4, content_packets=300, seed=6)
    plan = ChurnPlan(
        rate_per_delta=0.0, rejoin=False, storm_at=60.0, storm_size=3
    )
    session = SessionSpec(cfg, ProtocolSpec("dcop"), churn_plan=plan).build()
    session.run()
    storm_events = [
        row for row in session.commons.ledger.rows
        if row.kind == "peer.crash"
    ]
    assert len(storm_events) == 3
    assert all(row.ts == 60.0 for row in storm_events)


def test_churn_terminates_without_completion():
    """Churn on a session that can never finish (all peers die, no
    rejoin) must still drain the event queue — the horizon bounds it."""
    cfg = config(n=4, H=2, content_packets=200, seed=8)
    plan = ChurnPlan(rate_per_delta=0.5, rejoin=False, min_live=1)
    session = SessionSpec(cfg, ProtocolSpec("dcop"), churn_plan=plan).build()
    r = session.run()  # until=None: returns only if everything terminates
    assert r.elapsed < 1e7


def test_rejoined_peer_resumes_residual():
    """A peer that crash-recovers finishes its own share: delivery
    completes even with parity off and no detector configured."""
    cfg = config(n=8, H=4, fault_margin=0, content_packets=300, seed=3)
    probe = SessionSpec(cfg, ProtocolSpec("dcop")).build()
    victim = probe.leaf_select(cfg.H)[0]
    session = SessionSpec(
        cfg, ProtocolSpec("dcop"), fault_plan=FaultPlan().crash(victim, 60.0)
    ).build()
    down = session.run()
    assert down.delivery_ratio < 1.0

    session = SessionSpec(
        cfg, ProtocolSpec("dcop"), fault_plan=FaultPlan().crash(victim, 60.0)
    ).build()

    def revive():
        yield session.env.timeout(90.0)
        session.peers[victim].rejoin()

    session.env.process(revive())
    assert session.run().delivery_ratio == 1.0
