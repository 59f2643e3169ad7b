"""Online protocol auditors: clean passes, broken doubles, replay, reports."""

import json

import pytest

from repro.core import ProtocolConfig, TCoP
from repro.core.tcop import ConfirmMessage
from repro.net.ledger import PacketLedger
from repro.obs import (
    AuditConfig,
    AuditReport,
    Auditor,
    TraceBus,
    TraceConfig,
    build_auditors,
    replay_jsonl,
    trace_to_jsonl,
    write_jsonl,
)
from repro.obs.audit import (
    AllocationAuditor,
    CausalAuditor,
    DetectorAuditor,
    ParityAuditor,
    describe_event,
    register_auditor,
)
from repro.obs.trace import feed as trace_feed
from repro.sim.engine import Environment
from repro.streaming import ProtocolSpec, SessionSpec

from .test_artefact_pins import CELLS, FAULTED


def audited_spec(protocol="tcop", *, audit=None, **cfg_kw):
    defaults = dict(n=12, H=4, fault_margin=1, content_packets=100, seed=5)
    defaults.update(cfg_kw)
    return SessionSpec(
        config=ProtocolConfig(**defaults),
        protocol=ProtocolSpec(protocol),
        audit=audit or AuditConfig(),
    )


def feed(auditor, *emits, n_packets=None, delta=None):
    """Record crafted events on a real bus, then feed its log to one
    auditor the way a run's finish does, the media events filling the
    packet ledger first; the bus holds the log with the findings in it."""
    bus = TraceBus(TraceConfig(), Environment())
    for kind, subject, payload in emits:
        bus.emit(kind, subject, **payload)
    packets = PacketLedger()
    for event in bus.events:
        if event.kind in PacketLedger.kinds:
            packets.add(*event)
    _, bus.events = trace_feed(
        bus.events, [auditor.bind(n_packets=n_packets, delta=delta)], packets
    )
    return bus


# ----------------------------------------------------------------------
# clean runs pass
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", ["tcop", "dcop", "centralized"])
def test_figure_shaped_runs_pass_all_auditors(protocol):
    result = audited_spec(protocol).run()
    report = result.audit
    assert isinstance(report, AuditReport)
    assert report.passed
    assert report.violation_count == 0
    assert report.warning_count == 0
    assert sorted(report.auditors) == [
        "allocation", "causal", "detector", "duplicate_effect",
        "parity", "quarantine", "tree",
    ]
    # every auditor actually consumed the stream
    assert all(e["events_seen"] > 0 for e in report.auditors.values())
    # verdicts were also published back onto the bus as audit.* events
    assert not result.trace.of_kind("audit.violation")


def test_audit_implies_tracing():
    spec = audited_spec("dcop")
    assert spec.trace is None
    result = spec.run()
    assert result.trace is not None
    assert result.audit is not None


def test_audited_run_is_trajectory_identical_to_unaudited():
    # the paper-facing guarantee: auditors are read-only observers, so an
    # audited equal-seed run replays the identical trajectory
    plain = audited_spec("tcop").replace(audit=None, trace=TraceConfig()).run()
    audited = audited_spec("tcop").run()
    assert audited.summary() == plain.summary()
    assert audited.activation_times == plain.activation_times
    assert audited.elapsed == plain.elapsed
    assert audited.control_packets_total == plain.control_packets_total


# ----------------------------------------------------------------------
# broken protocol doubles are caught, with evidence
# ----------------------------------------------------------------------
class DoubleParentTCoP(TCoP):
    """Deliberately broken: accepts every offer, ignoring its parent."""

    def _on_offer(self, agent, offer):
        if agent.parent is not None and not agent.active:
            # claim the second parent too — exactly the multi-parent
            # defect the tree invariant forbids
            agent.parent = offer.sender
            if agent.env.hooks.tracer is not None:
                agent.env.hooks.tracer.emit(
                    "peer.attach", agent.peer_id, parent=offer.sender
                )
            agent.send_control(
                offer.sender, "confirm",
                ConfirmMessage(agent.peer_id, offer.offer_id, True),
            )
            return
        super()._on_offer(agent, offer)


def test_double_parent_tcop_is_caught_with_evidence_chain(register_protocol):
    spec = audited_spec("tcop", n=16, H=8).replace(
        protocol=register_protocol("double_parent_tcop", DoubleParentTCoP)
    )
    report = spec.run().audit
    assert not report.passed
    codes = {v.code for v in report.violations()}
    assert "tree.multi_parent" in codes
    offender = next(
        v for v in report.violations() if v.code == "tree.multi_parent"
    )
    # the evidence chain carries both attach events, oldest first
    assert len(offender.evidence) == 2
    assert all("peer.attach" in line for line in offender.evidence)
    assert offender.subject in offender.evidence[1]


def test_double_assignment_and_duplicate_delivery_are_caught():
    auditor = AllocationAuditor()
    feed(
        auditor,
        ("media.tx", "CP1", dict(label=1, stream=0)),
        ("media.tx", "CP1", dict(label=2, stream=0)),
        ("media.tx", "CP2", dict(label=2, stream=0)),  # double assignment
        ("media.rx", "leaf", dict(label=1, src="CP1")),
        ("media.rx", "leaf", dict(label=1, src="CP2")),  # duplicate delivery
        n_packets=2,
    )
    codes = [v.code for v in auditor.violations]
    assert codes == ["alloc.double_assignment", "alloc.duplicate_delivery"]
    double = auditor.violations[0]
    assert "CP1" in double.message and "CP2" in double.message
    # both tx events, first assignee first; the first is rebuilt from its
    # packet-ledger row as the very line its event renders
    assert double.evidence == (
        "[t=0.000] media.tx CP1 label=2 stream=0",
        "[t=0.000] media.tx CP2 label=2 stream=0",
    )


def test_double_assignment_evidence_keeps_a_batch_offset():
    auditor = AllocationAuditor()
    bus = feed(
        auditor,
        ("media.tx", "CP1", dict(label=1, stream=0, off=0.0)),
        ("media.tx", "CP2", dict(label=1, stream=1, off=2.5)),
        n_packets=1,
    )
    (double,) = auditor.violations
    assert double.evidence == tuple(
        describe_event(e) for e in bus.of_kind("media.tx")
    )


def test_allocation_violations_demote_to_warnings_under_churn():
    auditor = AllocationAuditor()
    feed(
        auditor,
        ("media.tx", "CP1", dict(label=1, stream=0)),
        ("peer.crash", "CP1", {}),
        ("media.tx", "CP2", dict(label=1, stream=0)),  # legitimate re-flood
        ("media.tx", "CP3", dict(label=2, stream=0)),
        ("media.tx", "CP4", dict(label=2, stream=0)),  # no fault near either
        n_packets=3,
    )
    double, gap = auditor.warnings
    assert double.code == "alloc.double_assignment"
    assert double.evidence[-1] == "fault#0 [t=0.000] peer.crash CP1"
    # seq 3 was never sent, and a crash is on record
    assert gap.code == "alloc.coverage_gap"
    assert gap.evidence == ("fault#0 [t=0.000] peer.crash CP1",)
    (violation,) = auditor.violations
    assert (violation.code, violation.subject) == (
        "alloc.double_assignment", "CP4"
    )


def test_tx_order_and_coverage_gap():
    auditor = AllocationAuditor()
    feed(
        auditor,
        ("media.tx", "CP1", dict(label=3, stream=0)),
        ("media.tx", "CP1", dict(label=2, stream=0)),  # descending
        n_packets=4,
    )
    codes = {v.code for v in auditor.violations}
    assert "alloc.tx_order" in codes
    gap = next(v for v in auditor.violations if v.code == "alloc.coverage_gap")
    assert "1" in gap.message and "4" in gap.message


# ----------------------------------------------------------------------
# the other crafted-stream invariants
# ----------------------------------------------------------------------
def test_causal_auditor_flags_receives_without_sends():
    auditor = CausalAuditor()
    feed(
        auditor,
        ("msg.recv", "CP2", dict(src="leaf", kind="request")),  # never sent
        ("msg.recv", "CP3", dict(src="CP9", kind="confirm")),   # unsolicited
    )
    codes = [v.code for v in auditor.violations]
    assert "causal.recv_before_send" in codes
    assert "causal.unsolicited_response" in codes
    # a matched pair is clean
    clean = CausalAuditor()
    feed(
        clean,
        ("msg.send", "leaf", dict(dst="CP2", kind="request")),
        ("msg.recv", "CP2", dict(src="leaf", kind="request")),
    )
    assert clean.violations == []


def test_detector_auditor_false_confirm_and_latency_bound():
    auditor = DetectorAuditor()
    feed(
        auditor,
        ("detector.confirm", "CP4", dict(latency=None)),  # CP4 is up
        ("peer.activate", "CP5", dict(round=1)),
        ("peer.crash", "CP5", {}),
        ("detector.confirm", "CP5", dict(latency=250.0)),  # too slow
        ("detector.suspect", "CP6", dict(false=True)),
        delta=10.0,  # a bound of (6 + 2)·δ + 2δ = 100 ms
    )
    assert auditor.latency_bound_ms == 100.0
    codes = [v.code for v in auditor.violations]
    assert codes == ["detector.false_confirm", "detector.latency_exceeded"]
    slow = auditor.violations[1]
    assert slow.evidence[0] == "fault#0 [t=0.000] peer.crash CP5"
    assert "detector.confirm" in slow.evidence[1]
    assert [w.code for w in auditor.warnings] == ["detector.false_suspicion"]


def test_detector_auditor_excuses_what_the_ledger_explains():
    auditor = DetectorAuditor()
    feed(
        auditor,
        # CP4 is up, but the leaf lost its heartbeat
        ("msg.drop", "CP4", dict(dst="leaf", kind="heartbeat",
                                 reason="channel_loss", uid=7)),
        ("detector.confirm", "CP4", dict(latency=None)),
        # CP5 crashed before it ever activated: no detection bound owed
        ("peer.crash", "CP5", {}),
        ("detector.confirm", "CP5", dict(latency=250.0)),
        delta=10.0,
    )
    assert auditor.violations == []
    confirm, late = auditor.warnings
    assert confirm.code == "detector.false_confirm"
    assert confirm.evidence[-1] == (
        "fault#0 [t=0.000] msg.drop CP4->leaf msg=heartbeat "
        "reason=channel_loss uid=7"
    )
    assert late.code == "detector.latency_exceeded"
    assert late.evidence[0] == "fault#1 [t=0.000] peer.crash CP5"


def test_parity_auditor_flags_phantom_recovery_and_alien_seq():
    auditor = ParityAuditor()
    feed(
        auditor,
        ("media.rx", "leaf", dict(label=1, src="CP1")),
        ("media.rx", "leaf", dict(label=99, src="CP1")),     # out of range
        ("fec.recover", "leaf", dict(seq=2)),                # unsupported
        n_packets=4,
    )
    codes = [v.code for v in auditor.violations]
    assert "parity.alien_seq" in codes
    assert "parity.phantom_recovery" in codes


# ----------------------------------------------------------------------
# reports, replay, aggregation
# ----------------------------------------------------------------------
def test_audit_report_round_trips_and_detaches(tmp_path):
    result = audited_spec("tcop").run()
    report = result.audit
    assert isinstance(report, AuditReport)
    again = AuditReport.from_dict(report.to_dict())
    assert again.passed == report.passed
    assert again.summary() == report.summary()
    path = tmp_path / "audit.json"
    report.write(path)
    assert json.loads(path.read_text())["type"] == "audit_report"
    with pytest.raises(ValueError):
        AuditReport.from_dict({"type": "something_else"})
    # detach() (what sweep executors ship across processes) dict-ifies
    detached = result.detach()
    assert isinstance(detached.audit, dict)
    assert detached.audit["passed"] is True


def test_replay_jsonl_reproduces_the_live_verdict(tmp_path):
    result = audited_spec("tcop").run()
    path = tmp_path / "trace.jsonl"
    write_jsonl(result.trace, path)
    report = replay_jsonl(path)
    assert report.passed
    assert report.protocol == "replay"
    # the replay consumed the live stream plus the wave.end events that
    # finalize() synthesizes after the live auditors already finished
    live_seen = result.audit.auditors["tree"]["events_seen"]
    synthesized = len(result.trace.of_kind("wave.end"))
    assert report.auditors["tree"]["events_seen"] == live_seen + synthesized


def test_a_replay_told_delta_flags_a_late_confirm():
    # the bound comes from δ alone, so a recorded trace is checked too
    bus = TraceBus(TraceConfig(), Environment())
    bus.emit("peer.activate", "CP5", round=1)
    bus.emit("peer.crash", "CP5")
    bus.emit("detector.confirm", "CP5", latency=250.0)
    lines = trace_to_jsonl(bus).splitlines()
    unchecked = replay_jsonl(lines, config=AuditConfig(auditors=("detector",)))
    assert unchecked.passed
    report = replay_jsonl(
        lines, config=AuditConfig(auditors=("detector",)), delta=10.0
    )
    (late,) = report.violations()
    assert late.code == "detector.latency_exceeded"
    assert "exceeds the bound 100.0 ms" in late.message


def test_audit_config_validates_names_and_custom_auditors_register():
    with pytest.raises(ValueError):
        AuditConfig(auditors=("tree", "nope"))
    with pytest.raises(ValueError):
        AuditConfig(auditors=())

    @register_auditor("crash_counter_test")
    class CrashCounter(Auditor):
        name = "crash_counter_test"

        def _on_crash(self, event):
            self.warning("crash_counter_test.seen", event.subject,
                         "a peer crashed", evidence=[event])

        handlers = {"peer.crash": _on_crash}

    try:
        auditors = build_auditors(AuditConfig(auditors=("crash_counter_test",)))
        assert [type(a) for a in auditors] == [CrashCounter]
        with pytest.raises(ValueError):
            register_auditor("crash_counter_test", CrashCounter)
    finally:
        from repro.obs import audit as audit_module

        audit_module._AUDITORS.pop("crash_counter_test")


def test_describe_event_is_compact_and_deterministic():
    bus = TraceBus(TraceConfig(), Environment())
    bus.emit("msg.send", "leaf", kind="request", dst="CP1")
    line = describe_event(bus.events[0])
    assert line == "[t=0.000] msg.send leaf dst='CP1' kind='request'"


def test_violations_surface_as_bus_events_with_evidence():
    auditor = AllocationAuditor()
    bus = feed(
        auditor,
        ("media.tx", "CP1", dict(label=1, stream=0)),
        ("media.tx", "CP2", dict(label=1, stream=0)),
        n_packets=1,
    )
    (event,) = bus.of_kind("audit.violation")
    payload = event.payload()
    assert payload["code"] == "alloc.double_assignment"
    assert payload["about"] == "CP2"
    assert len(payload["evidence"]) == 2


# ----------------------------------------------------------------------
# quarantine auditor
# ----------------------------------------------------------------------
def test_quarantine_auditor_flags_assignment_and_bad_readmit():
    from repro.obs.audit import QuarantineAuditor

    auditor = QuarantineAuditor()
    feed(
        auditor,
        ("health.quarantine", "CP3",
         {"reasons": "phi", "phi": 2.1, "false": False}),
        # forbidden: repair routed to a quarantined destination
        ("msg.send", "CP7", {"dst": "CP3", "kind": "repair"}),
        # forbidden: fresh leaf assignment while the breaker is open
        ("msg.send", "leaf", {"dst": "CP3", "kind": "start"}),
        # allowed: the breaker's own half-open traffic
        ("msg.send", "leaf", {"dst": "CP3", "kind": "probe"}),
        ("msg.send", "CP3", {"dst": "leaf", "kind": "heartbeat"}),
        # readmitted with zero successful probes on record
        ("health.readmit", "CP3", {"probes": 0, "required": 2}),
    )
    codes = sorted(v.code for v in auditor.violations)
    assert codes == [
        "quarantine.assignment_to_quarantined",
        "quarantine.assignment_to_quarantined",
        "quarantine.readmit_without_probes",
    ]
    assert auditor.extra()["episodes"] == 1


def test_quarantine_auditor_passes_probed_readmission():
    from repro.obs.audit import QuarantineAuditor

    auditor = QuarantineAuditor()
    feed(
        auditor,
        ("health.quarantine", "CP3",
         {"reasons": "rtt,throughput", "phi": None, "false": False}),
        ("health.probe", "CP3", {"ok": True, "successes": 1, "required": 2}),
        ("health.probe", "CP3", {"ok": True, "successes": 2, "required": 2}),
        ("health.readmit", "CP3", {"probes": 2, "required": 2}),
        # after readmission the peer is assignable again
        ("msg.send", "leaf", {"dst": "CP3", "kind": "start"}),
    )
    assert auditor.violations == []
    assert auditor.extra()["readmissions"] == 1


def test_quarantine_auditor_excuses_in_flight_retransmits():
    from repro.obs.audit import QuarantineAuditor

    auditor = QuarantineAuditor()
    feed(
        auditor,
        ("health.quarantine", "CP3",
         {"reasons": "phi", "phi": 3.0, "false": False}),
        # the control plane finishing pre-quarantine work: excused
        ("msg.retransmit", "leaf",
         {"dst": "CP3", "kind": "start", "attempt": 2}),
        ("msg.send", "leaf", {"dst": "CP3", "kind": "start"}),
    )
    assert auditor.violations == []
    assert auditor.extra()["retransmits_excused"] == 1


def test_quarantine_auditor_flags_false_quarantine_and_orphan_probe():
    from repro.obs.audit import QuarantineAuditor

    auditor = QuarantineAuditor()
    feed(
        auditor,
        ("health.probe", "CP9", {"ok": True, "successes": 1, "required": 2}),
        ("health.quarantine", "CP3",
         {"reasons": "phi", "phi": 1.2, "false": True}),
    )
    codes = sorted(v.code for v in auditor.violations)
    assert codes == [
        "quarantine.false_quarantine",
        "quarantine.probe_outside_episode",
    ]


# ----------------------------------------------------------------------
# the fault ledger, on the pinned faulted cells
# ----------------------------------------------------------------------
#: findings that are warnings only when a ledger row excuses them
_EXCUSED_ONLY = {
    "alloc.coverage_gap", "detector.false_confirm", "detector.latency_exceeded"
}


def _violations(report):
    return {(v.code, v.subject, v.message) for v in report.violations()}


@pytest.mark.parametrize("cell", FAULTED)
def test_faulted_cells_pass_the_default_suite(cell):
    spec = CELLS[cell]()
    session = spec.build()
    report = session.run().audit
    rows = session.commons.ledger.rows
    for entry in report.auditors.values():
        for warning in entry["warnings"]:
            named = [e for e in warning["evidence"] if e.startswith("fault#")]
            # an excuse names a row of this run's ledger, verbatim
            for line in named:
                seq = int(line.split()[0][len("fault#"):])
                assert line == rows[seq].describe()
            assert named or warning["code"] not in _EXCUSED_ONLY, warning
    if cell != "gauntlet/broadcast":
        assert report.passed, report.violations()
        return
    # the §3.1 broadcast baseline sends its first seqs from every peer by
    # design (fault_free/broadcast's pinned audit flags them too): what is
    # left is exactly what the cell's fault-free twin also does
    twin = spec.replace(loss=None, control_loss=None, churn_plan=None).run()
    assert {code for code, *_ in _violations(report)} == {
        "alloc.double_assignment"
    }
    assert _violations(report) <= _violations(twin.audit)


def test_a_peer_that_crashed_before_activating_owes_no_detection_bound():
    # CP10 crashes at 93 ms before sending or receiving anything; the leaf
    # learns of it only through CP4's give-up, 923 ms later
    session = CELLS["gauntlet/unicast_chain"]().build()
    result = session.run()
    assert result.detection_latencies == {"CP10": 923.1066121664524}
    detector = result.audit.auditors["detector"]
    assert detector["violations"] == []
    (late,) = detector["warnings"]
    crash = session.commons.ledger.crashes["CP10"]
    assert (late["code"], late["subject"]) == ("detector.latency_exceeded", "CP10")
    assert late["evidence"][0] == crash.describe()
    assert crash.ts == pytest.approx(93.0, abs=1.0)
