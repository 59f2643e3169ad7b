"""Tests for the leaf-side heartbeat failure detector."""

import pytest

from repro.core import ProtocolConfig
from repro.streaming import (
    DetectorPolicy,
    DetectorSpec,
    FailureDetector,
    FaultPlan,
    Heartbeat,
    ProtocolSpec,
    SessionSpec,
)
from repro.net.overlay import RetransmitPolicy
from repro.streaming.detector import (
    CONFIRM_MISSES,
    HEARTBEAT_PERIOD_DELTAS,
    PHI_CONFIRM,
)


def config(**kw):
    defaults = dict(
        n=10, H=4, fault_margin=1, tau=1.0, delta=8.0,
        content_packets=150, seed=3,
    )
    defaults.update(kw)
    return ProtocolConfig(**defaults)


def session(proto="dcop", policy=None, **kw):
    return SessionSpec(
        config(**kw.pop("cfg", {})),
        ProtocolSpec(proto),
        detector_policy=policy or DetectorSpec("fixed"),
        **kw,
    ).build()


# ----------------------------------------------------------------------
# policy validation
# ----------------------------------------------------------------------
def test_policy_validation():
    with pytest.raises(ValueError):
        DetectorPolicy(suspect_misses=0)
    with pytest.raises(ValueError):
        DetectorPolicy(suspect_misses=CONFIRM_MISSES + 1)
    DetectorPolicy(suspect_misses=CONFIRM_MISSES)  # the bound is inclusive


# ----------------------------------------------------------------------
# bookkeeping units (driven without running the protocol)
# ----------------------------------------------------------------------
def test_touch_registers_and_clears_suspicion():
    s = session()
    det = s.detector
    det.touch("CP1")
    assert "CP1" in det.monitored
    st = det.monitored["CP1"]
    st.suspected_at = 5.0
    det.touch("CP1")
    assert not st.suspected
    assert det.suspects == set()


def test_touch_ignores_unknown_peer():
    s = session()
    s.detector.touch("nobody")
    assert "nobody" not in s.detector.monitored


def test_heartbeat_updates_pending_and_done():
    s = session()
    det = s.detector
    det.on_heartbeat(Heartbeat("CP2", (3, 4, 5)))
    assert det.monitored["CP2"].pending == {3, 4, 5}
    assert not det.monitored["CP2"].done
    det.on_heartbeat(Heartbeat("CP2", (), done=True))
    assert det.monitored["CP2"].done


def test_expect_reopens_a_done_peer():
    s = session()
    det = s.detector
    det.on_heartbeat(Heartbeat("CP2", (), done=True))
    det.expect("CP2", [7, 8])
    st = det.monitored["CP2"]
    assert not st.done
    assert {7, 8} <= st.noted


def test_residual_excludes_held_and_out_of_range():
    s = session()
    det = s.detector
    det.expect("CP4", [1, 2, 99999, 0])
    # simulate the leaf already holding seq 1
    from repro.media.packet import DataPacket

    s.leaf.decoder.add(DataPacket(1, s.content.payload(1)))
    assert det.residual_of("CP4") == {2}
    assert det.residual_of("unknown") == set()
    assert det.owes("CP4") and not det.owes("unknown")
    s.leaf.decoder.add(DataPacket(2, s.content.payload(2)))
    assert det.residual_of("CP4") == set() and not det.owes("CP4")


def test_report_unreachable_confirms_immediately():
    s = session()
    det = s.detector
    fired = []
    det.on_confirm = fired.append
    det.report_unreachable("CP5")
    assert "CP5" in det.confirmed_failures
    assert fired == ["CP5"]
    # double report is idempotent
    det.report_unreachable("CP5")
    assert fired == ["CP5"]


# ----------------------------------------------------------------------
# end-to-end detection
# ----------------------------------------------------------------------
def test_crash_is_suspected_then_confirmed_with_latency():
    cfg = config()
    probe = SessionSpec(cfg, ProtocolSpec("dcop")).build()
    victim = probe.leaf_select(cfg.H)[0]
    s = SessionSpec(
        cfg,
        ProtocolSpec("dcop"),
        fault_plan=FaultPlan().crash(victim, 40.0),
        detector_policy=DetectorSpec("fixed"),
    ).build()
    r = s.run()
    assert victim in r.confirmed_failures
    lat = r.detection_latencies[victim]
    # confirmation takes CONFIRM_MISSES heartbeat periods plus at most a
    # couple of scheduling/delivery slacks
    assert 0 < lat <= (CONFIRM_MISSES + 2) * HEARTBEAT_PERIOD_DELTAS * cfg.delta
    assert r.mean_detection_latency == lat


def test_no_crash_no_confirmations():
    r = session().run()
    assert r.confirmed_failures == []
    assert r.detection_latencies == {}
    assert r.suspected_peers == []


def test_detector_terminates_on_dead_overlay():
    """Every peer dead from t=0: the detector must still let the run end."""
    cfg = config(n=4, H=2)
    plan = FaultPlan()
    for pid in [f"CP{i}" for i in range(1, 5)]:
        plan = plan.crash(pid, 0.0)
    s = SessionSpec(
        cfg, ProtocolSpec("dcop"), fault_plan=plan, detector_policy=DetectorSpec("fixed")
    ).build()
    r = s.run()  # env.run(until=None) — would hang without the idle grace
    assert r.delivery_ratio == 0.0


def test_recoordination_reflows_residual():
    """A confirmed crash mid-stream triggers a residual re-flood that
    completes delivery even when parity alone could not."""
    cfg = config(fault_margin=0, content_packets=200)
    probe = SessionSpec(cfg, ProtocolSpec("dcop")).build()
    victim = probe.leaf_select(cfg.H)[0]
    with_rc = SessionSpec(
        cfg,
        ProtocolSpec("dcop"),
        fault_plan=FaultPlan().crash(victim, 50.0),
        retransmit_policy=RetransmitPolicy(),
        detector_policy=DetectorSpec("fixed"),
    ).build()
    r = with_rc.run()
    assert r.recoordinations >= 1
    assert r.delivery_ratio == 1.0
    assert r.mean_handoff_latency is not None and r.mean_handoff_latency > 0

    without = SessionSpec(
        cfg,
        ProtocolSpec("dcop"),
        fault_plan=FaultPlan().crash(victim, 50.0),
    ).build()
    assert without.run().delivery_ratio < 1.0


def test_recoordination_works_for_tcop():
    cfg = config(fault_margin=0, content_packets=200, seed=11)
    s = SessionSpec(
        cfg,
        ProtocolSpec("tcop"),
        retransmit_policy=RetransmitPolicy(),
        detector_policy=DetectorSpec("fixed"),
    ).build()
    # crash whichever peer the leaf starts first, after it activates
    r0 = SessionSpec(cfg, ProtocolSpec("tcop")).build().run()
    victim = min(r0.activation_times, key=r0.activation_times.get)
    s = SessionSpec(
        cfg,
        ProtocolSpec("tcop"),
        fault_plan=FaultPlan().crash(victim, 80.0),
        retransmit_policy=RetransmitPolicy(),
        detector_policy=DetectorSpec("fixed"),
    ).build()
    r = s.run()
    assert victim in r.confirmed_failures
    assert r.delivery_ratio == 1.0


def test_false_suspicion_metric_counts_live_accusations():
    s = session()
    det = s.detector
    det.touch("CP1")
    det._suspect("CP1", det.monitored["CP1"])
    assert s.run().false_suspicions == 1


def test_detector_repr():
    s = session()
    assert "FailureDetector" in repr(s.detector)
    assert isinstance(s.detector, FailureDetector)


# ----------------------------------------------------------------------
# accrual (φ) mode
# ----------------------------------------------------------------------
def test_accrual_policy_validation():
    with pytest.raises(ValueError):
        DetectorPolicy(mode="bogus")
    with pytest.raises(ValueError):
        DetectorPolicy(mode="accrual", phi_suspect=0)
    with pytest.raises(ValueError):
        DetectorPolicy(mode="accrual", phi_suspect=PHI_CONFIRM + 1.0)
    with pytest.raises(ValueError):
        DetectorPolicy(mode="accrual", window=1)


def test_phi_is_none_while_bootstrapping():
    s = session(policy=DetectorSpec("accrual"))
    det = s.detector
    assert det.phi("CP1") is None  # unmonitored
    det.on_heartbeat(Heartbeat("CP1", ()))
    assert det.phi("CP1") is None  # zero gaps
    det.monitored["CP1"].gaps.append(8.0)
    assert det.phi("CP1") is None  # one gap — still < 2 samples


def test_phi_grows_monotonically_with_silence():
    from repro.streaming.detector import PeerHealth

    s = session(policy=DetectorSpec("accrual"))
    det = s.detector
    st = PeerHealth(last_heard=100.0, gaps=[8.0, 8.0, 8.0, 8.0])
    scores = [det._phi(st, 100.0 + silent) for silent in (0, 8, 12, 16)]
    assert all(b > a for a, b in zip(scores, scores[1:]))
    # fresh contact keeps φ harmless; two periods of silence is
    # near-certain death on a metronome-regular window
    assert scores[0] < 0.5
    assert scores[-1] > 3.0


def test_phi_jittery_window_is_more_patient():
    """Same silence, wider gap distribution ⇒ lower φ: on a gray link the
    detector automatically slows down instead of false-accusing."""
    from repro.streaming.detector import PeerHealth

    s = session(policy=DetectorSpec("accrual"))
    det = s.detector
    tight = PeerHealth(last_heard=0.0, gaps=[8.0, 8.0, 8.0, 8.0])
    jittery = PeerHealth(last_heard=0.0, gaps=[2.0, 14.0, 3.0, 13.0])
    for silent in (16.0, 24.0, 32.0):
        assert det._phi(jittery, silent) < det._phi(tight, silent)


def test_gap_window_trims_to_policy():
    s = session(policy=DetectorSpec("accrual", {"window": 3}))
    det = s.detector
    st = det._entry("CP1")
    for i in range(1, 8):
        # back-date the previous heartbeat so each arrival (env.now == 0)
        # contributes a positive gap of i ms
        st.last_heartbeat_at = -float(i)
        det.on_heartbeat(Heartbeat("CP1", ()))
    assert st.gaps == [5.0, 6.0, 7.0]


def test_zero_gap_heartbeats_are_not_sampled():
    """Two heartbeats in the same instant must not poison the window with
    a zero gap (which would collapse the mean)."""
    s = session(policy=DetectorSpec("accrual"))
    det = s.detector
    det.on_heartbeat(Heartbeat("CP1", ()))
    det.on_heartbeat(Heartbeat("CP1", ()))  # same env.now
    assert det.monitored["CP1"].gaps == []


def test_accrual_confirms_crash_end_to_end():
    """With φ thresholds driving suspicion, a mid-stream crash is still
    confirmed and re-coordinated to full delivery."""
    cfg = config(fault_margin=0, content_packets=200)
    probe = SessionSpec(cfg, ProtocolSpec("dcop")).build()
    victim = probe.leaf_select(cfg.H)[0]
    s = SessionSpec(
        cfg,
        ProtocolSpec("dcop"),
        fault_plan=FaultPlan().crash(victim, 50.0),
        retransmit_policy=RetransmitPolicy(),
        detector_policy=DetectorSpec("accrual"),
    ).build()
    r = s.run()
    assert victim in r.confirmed_failures
    assert r.delivery_ratio == 1.0
    assert r.detection_latencies[victim] > 0


def test_accrual_matches_fixed_on_clean_runs():
    """No faults: neither mode suspects anybody, and both deliver fully."""
    fixed = session(policy=DetectorSpec("fixed")).run()
    accrual = session(policy=DetectorSpec("accrual")).run()
    for r in (fixed, accrual):
        assert r.suspected_peers == []
        assert r.confirmed_failures == []
        assert r.delivery_ratio == 1.0


def test_a_rejoined_peer_heartbeats_again():
    # rejoined inside one heartbeat period of its crash: the crash took
    # the pending heartbeat back, so the rejoin starts a fresh chain
    from repro.obs import TraceConfig

    cfg = ProtocolConfig(n=8, H=4, content_packets=400, seed=0)
    s = SessionSpec(
        cfg,
        ProtocolSpec("dcop"),
        detector_policy=DetectorSpec("accrual"),
        fault_plan=FaultPlan().crash("CP1", at=100).rejoin("CP1", at=103),
        trace=TraceConfig(),
    ).build()
    s.run()
    after = [
        e.payload()["kind"]
        for e in s.commons.trace_bus.of_kind("msg.send")
        if e.subject == "CP1" and e.ts >= 103
    ]
    assert after.count("packet") > 0  # it did resume its residual …
    assert after.count("heartbeat") > 0  # … and should say so


def test_a_peer_rejoined_within_one_packet_period_sends_its_residual_once():
    """Crash and rejoin between two packets of every stream: the rejoin
    runs exactly one transmit chain per unexhausted stream, so what the
    peer sends afterwards is its residual, each packet once."""
    from collections import Counter

    from repro.obs import TraceConfig

    cfg = ProtocolConfig(n=8, H=4, content_packets=400, seed=0)
    s = SessionSpec(
        cfg,
        ProtocolSpec("dcop"),
        detector_policy=DetectorSpec("accrual"),
        fault_plan=FaultPlan().crash("CP1", at=100).rejoin("CP1", at=103),
        trace=TraceConfig(),
    ).build()
    cp1 = s.peers["CP1"]
    s.run(until=103)  # the rejoin leg is due at 103, still pending
    assert cp1.crashed
    live = {
        sid: stream for sid, stream in enumerate(cp1.streams)
        if not stream.exhausted
    }
    assert live
    assert all(3 < p for p in (1.0 / st.current_rate for st in live.values()))
    residual = {sid: stream.remaining() for sid, stream in live.items()}
    period = {sid: 1.0 / stream.current_rate for sid, stream in live.items()}
    streams = len(cp1.streams)
    s.env.run()
    assert len(cp1.streams) == streams  # nothing was added after the rejoin
    after = [
        (label, tx.stream)
        for label, txs in s.commons.packets.sent.items()
        for tx in txs
        if tx.peer == "CP1" and tx.ts >= 103
    ]
    assert Counter(sid for _, sid in after) == residual
    assert len(set(after)) == len(after)  # no packet sent twice
    # one chain per stream: a second one would halve the spacing
    for sid in live:
        times = sorted(
            tx.ts for txs in s.commons.packets.sent.values() for tx in txs
            if tx.peer == "CP1" and tx.stream == sid and tx.ts >= 103
        )
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert min(gaps) == pytest.approx(period[sid])
