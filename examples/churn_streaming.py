#!/usr/bin/env python
"""Streaming through churn: detect, retransmit, re-coordinate.

The paper's protocols assume the selected contents peers stay up; real
overlays churn.  This example streams one content with DCoP while a
:class:`ChurnPlan` kills (and revives) peers mid-stream and 10% of the
coordination messages are dropped — and shows the three mechanisms that
keep delivery at 100% anyway:

* a leaf-side heartbeat **failure detector** confirms crashed peers within
  a few heartbeat periods;
* the **reliable control plane** acks and retransmits coordination
  messages, so lost requests/handoffs never strand a peer;
* **mid-stream re-coordination** re-floods a dead peer's unsent residual
  to survivors through the running protocol.

Run:  python examples/churn_streaming.py
"""

from repro import (
    ChurnPlan,
    DetectorSpec,
    LossSpec,
    ProtocolConfig,
    ProtocolSpec,
    RetransmitPolicy,
    SessionSpec,
)


def run(tolerant: bool):
    spec = SessionSpec(
        config=ProtocolConfig(
            n=16,
            H=6,
            fault_margin=1,
            tau=1.0,
            delta=8.0,
            content_packets=400,
            seed=32,
        ),
        protocol=ProtocolSpec("dcop"),
        control_loss=LossSpec("bernoulli", {"p": 0.10}),
        churn_plan=ChurnPlan(
            rate_per_delta=0.06, min_live=8, mean_downtime_deltas=8.0
        ),
        retransmit_policy=RetransmitPolicy() if tolerant else None,
        detector_policy=DetectorSpec("fixed") if tolerant else None,
    )
    session = spec.build()
    return session, session.run()


def main() -> None:
    session, result = run(tolerant=True)
    # every injected fault instance of the run, one row each
    rows = session.commons.ledger.rows
    crashes = [row for row in rows if row.kind == "peer.crash"]
    rejoins = [row for row in rows if row.kind == "peer.rejoin"]
    print("churn-tolerant DCoP under 10% control loss")
    print("-" * 50)
    print(f"churn events: {len(crashes)} crashes, {len(rejoins)} rejoins")
    for row in crashes:
        print(f"  t={row.ts:7.1f} ms  {row.src} crashed")
    print(f"delivery ratio:        {result.delivery_ratio:.4f}")
    for pid, lat in sorted(result.detection_latencies.items()):
        deltas = lat / session.config.delta
        print(f"  {pid} confirmed dead {deltas:.1f} delta after its crash")
    print(f"re-coordinations:      {result.recoordinations}")
    print(f"retransmissions:       {result.total_retransmissions} "
          f"(gave up {result.retransmit_give_ups})")

    _, bare = run(tolerant=False)
    print()
    print("same scenario, tolerance stack off:")
    print(f"delivery ratio:        {bare.delivery_ratio:.4f}")
    synced = "yes" if bare.sync_time is not None else "no"
    print(f"all live peers active: {synced}")
    print("\nDetection + retransmission + re-coordination turn churn from "
          "data loss into a latency blip.")


if __name__ == "__main__":
    main()
