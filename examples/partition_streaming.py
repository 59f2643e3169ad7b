#!/usr/bin/env python
"""Streaming through a network partition with misbehaving links.

Churn kills peers; partitions merely *hide* them.  This example streams
one content with DCoP while the overlay splits in two mid-stream (the
isolated peers keep running — their traffic just dies at the cut) and
every link duplicates 10% of messages and reorders others within a 2δ
window.  Three mechanisms keep the run correct anyway:

* the leaf's **failure detector** confirms the unreachable peers through
  silence, and the dead peers' residuals are re-flooded to the reachable
  component — the stream finishes without manual intervention;
* when the partition **heals**, the first message from an isolated peer
  resumes its monitoring (no operator rejoin step);
* **idempotent coordination** (uid dedup windows + logical guards)
  makes duplicated and reordered deliveries harmless — verified by the
  ``duplicate_effect`` auditor, which cross-checks every applied control
  message against wire uids and control-plane message ids.

Every cut, lost, duplicated and held-back message is a row of the run's
fault ledger; the detector auditor excuses confirming a partitioned peer
by naming the cut, and replaying the recorded trace rebuilds the same
ledger, so the offline audit reaches the live verdict.

Run:  python examples/partition_streaming.py [audit-report.json]

With a path argument the full audit report is written there as JSON
(used by CI to archive the verdict as a build artifact).
"""

import json
import sys

from repro import (
    AuditConfig,
    DetectorSpec,
    LinkFaultSpec,
    PartitionPlan,
    ProtocolConfig,
    ProtocolSpec,
    RetransmitPolicy,
    SessionSpec,
    TraceConfig,
)
from repro.obs import replay_jsonl, trace_to_jsonl

SPLIT_AT = 60.0
HEAL_AT = 300.0


def build():
    cfg = ProtocolConfig(
        n=12,
        H=5,
        fault_margin=2,
        tau=1.0,
        delta=8.0,
        content_packets=300,
        seed=47,
    )
    spec = SessionSpec(
        config=cfg,
        protocol=ProtocolSpec("dcop"),
        link_fault=LinkFaultSpec(
            "chaos",
            {"dup_p": 0.10, "reorder_p": 0.20, "max_delay": 2 * cfg.delta},
        ),
        partition_plan=PartitionPlan(
            components=(("CP3", "CP4"),), at=SPLIT_AT, heal_at=HEAL_AT
        ),
        retransmit_policy=RetransmitPolicy(),
        detector_policy=DetectorSpec("fixed"),
        trace=TraceConfig(),
        audit=AuditConfig(),
    )
    session = spec.build()
    return session, session.run()


def main() -> None:
    session, result = build()
    print("partition-tolerant DCoP under duplicating, reordering links")
    print("-" * 60)
    for kind in ("partition.split", "partition.heal"):
        for e in result.trace.of_kind(kind):
            isolated = e.fields["isolated"].replace(",", ", ")
            print(f"  t={e.ts:7.1f} ms  {kind.replace('.', ' ')} "
                  f"isolating {isolated}")
    rows = session.commons.ledger.rows
    tally = {}
    for row in rows:
        tally[row.kind] = tally.get(row.kind, 0) + 1
    print(f"fault ledger:            {len(rows)} rows — "
          + ", ".join(f"{n} {kind}" for kind, n in sorted(tally.items())))
    print(f"delivery ratio:          {result.delivery_ratio:.4f}")
    for e in result.trace.of_kind("detector.confirm"):
        deltas = (e.ts - SPLIT_AT) / session.config.delta
        print(f"  {e.subject} confirmed unreachable {deltas:.1f} delta "
              "after the split")
    rejoined = [
        pid for pid in ("CP3", "CP4")
        if not session.detector.monitored[pid].confirmed
    ]
    print(f"rejoined after heal:     {', '.join(rejoined) or 'none'}")
    print(f"re-coordinations:        {result.recoordinations}")
    print(f"link duplicates:         {result.link_duplicates} injected, "
          f"{result.link_duplicates_suppressed} suppressed by dedup")
    print(f"retransmissions:         {result.total_retransmissions}")

    report = result.audit
    dup = report.auditors["duplicate_effect"]
    print()
    print(report.summary())
    print(f"  duplicate-effect audit: {dup['applies_checked']} applies "
          f"checked, {dup['duplicates_suppressed']} duplicate deliveries "
          f"suppressed, {len(dup['violations'])} double-applies")
    excused = [
        w for w in report.auditors["detector"]["warnings"]
        if w["code"] == "detector.false_confirm"
    ]
    for w in excused:
        print(f"  {w['subject']} confirmed while up, excused by "
              f"{w['evidence'][-1]}")
    replayed = replay_jsonl(trace_to_jsonl(result.trace).splitlines())
    print(f"  replayed from the trace: {replayed.violation_count} "
          f"violations, {replayed.warning_count} warnings")

    if len(sys.argv) > 1:
        path = sys.argv[1]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        print(f"\naudit report written to {path}")

    print("\nPartitioned peers are not dead — the detector treats silence "
          "as failure,\nre-coordination covers the residual, and healed "
          "peers rejoin on first contact.")


if __name__ == "__main__":
    main()
