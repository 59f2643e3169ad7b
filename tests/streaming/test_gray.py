"""Gray-failure gauntlet: flapping, degraded, and stuttering peers that
never cleanly die.  Pins down the quarantine circuit breaker's acceptance
bar — receipt with quarantine on is never worse than off, the quarantine
auditor finds no violations, touch() alone never readmits, and the whole
stack (accrual detection + adaptive timeouts + health) stays
byte-deterministic.
"""

import pytest

from repro.core import ProtocolConfig
from repro.net.overlay import RetransmitPolicy
from repro.obs import AuditConfig
from repro.streaming import (
    DetectorSpec,
    FaultPlan,
    HealthPolicy,
    LinkFaultSpec,
    LossSpec,
    ProtocolSpec,
    QuarantineRecord,
    RepairPolicy,
    SessionSpec,
)
from repro.streaming.health import MAX_QUARANTINED_FRACTION, PROBE_SUCCESSES

from tests.streaming.test_swarm import ALL_PROTOCOLS, protocol_case


def config(**kw):
    defaults = dict(
        n=10, H=4, fault_margin=1, tau=1.0, delta=8.0,
        content_packets=150, seed=13,
    )
    defaults.update(kw)
    return ProtocolConfig(**defaults)


def gray_spec(protocol, health=True, seed=13, audit=True, **cfg_kw):
    """One cell of the EX-N gauntlet: the leaf's first pick flaps, its
    second pick is degraded to a crawl, and every link stutters."""
    cfg = config(seed=seed, **cfg_kw)
    proto, uplinks = protocol_case(protocol, cfg.n)
    probe = SessionSpec(config=cfg, protocol=ProtocolSpec("dcop")).build()
    first = probe.leaf_select(cfg.H)
    plan = (
        FaultPlan()
        .flap(first[0], at=60.0, down_for=4 * cfg.delta,
              period=12 * cfg.delta, count=3)
        .degrade(first[1], at=40.0, factor=0.1)
    )
    return SessionSpec(
        config=cfg,
        protocol=proto,
        upload_capacity=uplinks,
        fault_plan=plan,
        link_fault=LinkFaultSpec(
            "stutter", {"period": 8 * cfg.delta, "stall": 2 * cfg.delta}
        ),
        retransmit_policy=RetransmitPolicy(adaptive=True),
        detector_policy=DetectorSpec("accrual"),
        repair_policy=RepairPolicy(),
        health_policy=HealthPolicy() if health else None,
        audit=AuditConfig() if audit else None,
    )


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_gray_gauntlet_quarantine_never_costs_receipt(protocol):
    """The acceptance bar: for every protocol, enabling the breaker keeps
    full delivery, never lowers the receipt rate, quarantines nobody
    falsely, and passes the quarantine audit."""
    on = gray_spec(protocol, health=True).run()
    off = gray_spec(protocol, health=False).run()
    assert on.elapsed < 1e7 and off.elapsed < 1e7
    assert on.delivery_ratio == 1.0
    assert off.delivery_ratio == 1.0
    assert on.receipt_rate >= off.receipt_rate
    assert on.false_quarantines == 0
    report = on.audit
    quarantine_violations = [
        v for v in report.violations() if v.auditor == "quarantine"
    ]
    assert quarantine_violations == []
    assert report.auditors["quarantine"]["passed"]


@pytest.mark.parametrize("protocol", ["dcop", "tcop"])
def test_lossy_channels_explain_quarantines(protocol):
    """Bursty media loss and control loss are injected faults too: a
    breaker that trips under them (the ``fault_gauntlet`` stack without
    churn) did not trip in a clean environment."""
    result = SessionSpec(
        config=ProtocolConfig(
            n=40, H=8, fault_margin=1, content_packets=600, seed=0
        ),
        protocol=ProtocolSpec(protocol),
        loss=LossSpec("bursty", {"rate": 0.05}),
        control_loss=LossSpec("bernoulli", {"p": 0.05}),
        retransmit_policy=RetransmitPolicy(adaptive=True),
        detector_policy=DetectorSpec("accrual"),
        repair_policy=RepairPolicy(),
        health_policy=HealthPolicy(),
        audit=AuditConfig(auditors=("quarantine",)),
    ).run()
    assert result.quarantines >= 1
    assert result.false_quarantines == 0
    assert result.audit.auditors["quarantine"]["passed"]


def test_gray_degraded_peer_is_quarantined_and_readmitted():
    """An alive-but-crawling peer (heartbeats fine, media at 10%) must be
    quarantined, its residual handed off, and — once drained — readmitted
    through successful probes, never through its own chatter."""
    result = gray_spec("dcop", health=True).run()
    assert result.quarantines >= 1
    assert result.readmissions >= 1
    assert result.false_quarantines == 0
    # the episode closed: nobody is still quarantined at collection
    assert result.quarantined_peers == []
    assert result.delivery_ratio == 1.0


@pytest.mark.parametrize(
    "protocol", ["dcop", "tcop", "ams"], ids=["dcop", "tcop", "ams"]
)
def test_gray_stack_is_byte_deterministic(protocol):
    """Accrual detection + adaptive timeouts + quarantine + audit on:
    equal seeds still produce field-identical results."""
    a = gray_spec(protocol, health=True, seed=29).run()
    b = gray_spec(protocol, health=True, seed=29).run()
    assert a.summary() == b.summary()
    assert a == b


@pytest.mark.parametrize(
    "protocol", ["dcop", "tcop", "ams"], ids=["dcop", "tcop", "ams"]
)
def test_touch_does_not_readmit_quarantined_peer(protocol):
    """Incoming traffic clears detector suspicion but must NOT close the
    breaker: only the half-open probe path readmits."""
    params = {}
    session = SessionSpec(
        config=config(),
        protocol=ProtocolSpec(protocol, params),
        retransmit_policy=RetransmitPolicy(adaptive=True),
        detector_policy=DetectorSpec("accrual"),
        health_policy=HealthPolicy(),
    ).build()
    hm = session.health
    det = session.detector
    pid = session.peer_ids[0]
    det.touch(pid)  # start monitoring
    hm.quarantined[pid] = QuarantineRecord(
        peer_id=pid, at=0.0, reasons=("phi",)
    )
    st = det.monitored[pid]
    st.suspected_at = 1.0
    for _ in range(5):
        det.touch(pid)
    # suspicion cleared — the peer is audibly alive —
    assert not st.suspected
    # — but the breaker stays open until probes succeed
    assert hm.is_quarantined(pid)
    # the probe path is the only door back in
    record = hm.quarantined[pid]
    hm._readmit(pid, record, probes=PROBE_SUCCESSES)
    assert not hm.is_quarantined(pid)
    assert record.readmitted_at is not None
    assert hm.readmissions == 1


def test_health_monitor_requires_a_detector():
    with pytest.raises(ValueError):
        SessionSpec(
            config=config(),
            protocol=ProtocolSpec("dcop"),
            health_policy=HealthPolicy(),
        ).build()


def test_quarantine_cap_limits_open_breakers():
    """The breaker never holds more than MAX_QUARANTINED_FRACTION of the
    live overlay: beyond the cap, strikes stand but nobody new is taken."""
    session = SessionSpec(
        config=config(n=4, H=2),
        protocol=ProtocolSpec("dcop"),
        detector_policy=DetectorSpec("accrual"),
        health_policy=HealthPolicy(),
    ).build()
    hm = session.health
    for pid in session.peer_ids:
        session.detector.touch(pid)
    # cap = max(1, int(0.5 * 4)) = 2
    assert MAX_QUARANTINED_FRACTION == 0.5
    hm._quarantine(session.peer_ids[0], ("phi",), None)
    hm._quarantine(session.peer_ids[1], ("rtt",), None)
    hm._quarantine(session.peer_ids[2], ("throughput",), None)
    assert len(hm.quarantined) == 2
    assert not hm.is_quarantined(session.peer_ids[2])
