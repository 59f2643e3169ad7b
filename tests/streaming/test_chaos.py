"""Chaos matrix: every combination of protocol × control loss × crashes ×
churn must terminate, and deliver everything whenever a capable survivor
exists.  Also pins down determinism (same seed + same plans ⇒ identical
results) and that the retransmission subsystem is load-bearing.
"""

import pytest

from repro.core import ProtocolConfig
from repro.net.overlay import RetransmitPolicy
from repro.streaming import (
    ChurnPlan,
    DetectorSpec,
    FaultPlan,
    LossSpec,
    ProtocolSpec,
    SessionSpec,
)

from tests.streaming.test_swarm import ALL_PROTOCOLS, protocol_case


def config(**kw):
    defaults = dict(
        n=10, H=4, fault_margin=1, tau=1.0, delta=8.0,
        content_packets=150, seed=13,
    )
    defaults.update(kw)
    return ProtocolConfig(**defaults)


def build(proto, loss, crashes, churn, seed=13, retransmit=True):
    cfg = config(seed=seed)
    plan = FaultPlan()
    # crash the peers the leaf contacts first — the worst case, since they
    # carry the biggest shares
    probe = SessionSpec(cfg, ProtocolSpec(proto)).build()
    first = probe.leaf_select(cfg.H)
    for i in range(crashes):
        plan = plan.crash(first[i], 50.0 + 20.0 * i)
    return SessionSpec(
        cfg,
        ProtocolSpec(proto),
        control_loss=LossSpec("bernoulli", {"p": loss}) if loss else None,
        fault_plan=plan if crashes else None,
        retransmit_policy=RetransmitPolicy() if retransmit else None,
        detector_policy=DetectorSpec("fixed") if retransmit else None,
        churn_plan=(
            ChurnPlan(rate_per_delta=0.03, min_live=6, mean_downtime_deltas=6.0)
            if churn
            else None
        ),
    ).build()


@pytest.mark.parametrize("proto", ["dcop", "tcop"])
@pytest.mark.parametrize("loss", [0.0, 0.05, 0.20])
@pytest.mark.parametrize("crashes", [0, 1, 2])
@pytest.mark.parametrize("churn", [False, True], ids=["stable", "churn"])
def test_chaos_matrix_terminates_and_delivers(proto, loss, crashes, churn):
    session = build(proto, loss, crashes, churn)
    result = session.run()  # until=None — termination is the first assert
    assert result.elapsed < 1e7
    survivors = [
        p for p in session.peer_ids if not session.peers[p].crashed
    ]
    # at least one survivor exists by construction (min_live, ≤2 crashes)
    assert survivors
    assert result.delivery_ratio == 1.0
    if crashes:
        assert result.confirmed_failures
        assert result.detection_latencies
    if loss and crashes:
        assert result.total_retransmissions > 0


@pytest.mark.parametrize("proto", ["dcop", "tcop"])
def test_retransmission_is_load_bearing(proto):
    """Same 20%-loss + crash scenario without the reliable control plane:
    coordination messages die silently and at least one live peer is
    stranded dormant forever — the subsystem is not decorative.  (DCoP's
    flooding redundancy plus parity may still save *delivery*; TCoP also
    loses data outright when a ``start`` dies.)"""
    bare_session = build(proto, 0.20, 1, False, retransmit=False)
    bare = bare_session.run()
    reliable = build(proto, 0.20, 1, False).run()
    assert reliable.delivery_ratio == 1.0
    assert bare.sync_time is None  # at least one peer stranded dormant
    stranded = [
        p
        for p in bare_session.peer_ids
        if not bare_session.peers[p].crashed
        and p not in bare.activation_times
    ]
    assert stranded
    if proto == "tcop":
        assert bare.delivery_ratio < 1.0


@pytest.mark.parametrize("proto", ["dcop", "tcop"])
def test_determinism_under_churn(proto):
    """Same seed + same ChurnPlan ⇒ identical SessionResult, field by
    field — all new randomness is drawn from named session streams."""
    results = []
    for _ in range(2):
        session = build(proto, 0.20, 1, True, seed=21)
        results.append(session.run())
    a, b = results
    assert a == b  # dataclass equality covers every metric


def test_determinism_includes_fault_log():
    sessions = [build("dcop", 0.05, 0, True, seed=9) for _ in range(2)]
    logs = []
    for s in sessions:
        s.run()
        logs.append(list(s.commons.ledger.rows))
    assert logs[0] and logs[0] == logs[1]


# ----------------------------------------------------------------------
# partitions + duplicating/reordering links, across every protocol
# ----------------------------------------------------------------------
def partition_chaos_spec(protocol, seed=13):
    """Mid-stream partition + 10% control duplication + reordering within
    a 2δ window — the full link-fault gauntlet, audited."""
    from repro.obs import AuditConfig
    from repro.streaming import FaultPlan, LinkFaultSpec, SessionSpec

    cfg = config(seed=seed)
    proto, uplinks = protocol_case(protocol, cfg.n)
    return SessionSpec(
        config=cfg,
        protocol=proto,
        upload_capacity=uplinks,
        link_fault=LinkFaultSpec(
            "chaos",
            {"dup_p": 0.1, "reorder_p": 0.2, "max_delay": 2 * cfg.delta},
        ),
        fault_plan=FaultPlan().partition((("CP7",),), at=60.0, heal_at=200.0),
        retransmit_policy=RetransmitPolicy(),
        detector_policy=DetectorSpec("fixed"),
        audit=AuditConfig(),
    )


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_partition_chaos_is_idempotent_across_all_protocols(protocol):
    """The acceptance gauntlet: every protocol terminates, stays at the
    parity bound in the reachable component (margin 1 covers the one
    isolated peer, so the full content still arrives), and applies no
    control message twice despite 10% duplication and reordering."""
    result = partition_chaos_spec(protocol).run()
    assert result.elapsed < 1e7
    assert result.delivery_ratio == 1.0
    report = result.audit
    duplicate_effect = [
        v for v in report.violations() if v.auditor == "duplicate_effect"
    ]
    assert duplicate_effect == []
    assert report.auditors["duplicate_effect"]["passed"]
    # the fault layer actually exercised the dedup path
    assert result.link_duplicates > 0
    assert result.link_duplicates_suppressed > 0


@pytest.mark.parametrize(
    "protocol", ["dcop", "tcop", "ams"], ids=["dcop", "tcop", "ams"]
)
def test_partition_chaos_is_byte_deterministic(protocol):
    """Equal seed + equal plans ⇒ field-identical SessionResult, link
    faults, partition schedule and all."""
    a = partition_chaos_spec(protocol, seed=29).run()
    b = partition_chaos_spec(protocol, seed=29).run()
    # strip the (unordered-identical) audit/trace handles; every scalar
    # and list field must match bit for bit
    assert a.summary() == b.summary()
    assert a == b
