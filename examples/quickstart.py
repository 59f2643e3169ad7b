#!/usr/bin/env python
"""Quickstart: coordinate 100 contents peers with DCoP and stream a content.

Reproduces the paper's headline setting — 100 contents peers, a leaf peer,
constant control delay δ — and prints the coordination metrics Figures
10/12 are built from.

A run is described by a :class:`repro.SessionSpec`: a frozen value holding
the workload config plus declarative protocol/channel specs.  Specs
pickle, so the same objects drive a parallel sweep
(``examples/parallel_sweep.py``).

Run:  python examples/quickstart.py
"""

from repro import ProtocolConfig, ProtocolSpec, SessionSpec


def main() -> None:
    config = ProtocolConfig(
        n=100,              # contents peers
        H=60,               # fan-out: peers contacted per selection
        fault_margin=1,     # survive 1 lost peer/channel per segment (§3.2)
        tau=1.0,            # content rate: 1 packet/ms (≈ 30 Mbps video
                            # with 3.75 KB packets)
        delta=10.0,         # one-way control latency δ = 10 ms
        content_packets=600,
        seed=42,
    )
    spec = SessionSpec(config=config, protocol=ProtocolSpec("dcop"))

    print("== DCoP (redundant, flooding) ==")
    result = spec.run()
    print(result.summary())
    print(f"  all 100 peers transmitting after {result.sync_time:.1f} ms "
          f"({result.rounds} rounds of δ={config.delta} ms)")
    print(f"  leaf received {result.receipt_rate:.3f} packets per content "
          f"packet (parity overhead)")
    print(f"  content complete at t={result.completed_at:.0f} ms; "
          f"delivery ratio {result.delivery_ratio:.3f}")

    print("\n== TCoP (non-redundant, tree-based) ==")
    result = spec.replace(protocol=ProtocolSpec("tcop")).run()
    print(result.summary())
    print(f"  3-round handshakes → {result.rounds} rounds, "
          f"{result.control_packets_total} control packets "
          f"(vs DCoP's cheaper coordination)")


if __name__ == "__main__":
    main()
