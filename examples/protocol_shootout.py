#!/usr/bin/env python
"""Every coordination protocol, side by side.

Runs all seven coordination variants (the paper's DCoP/TCoP, the §3.1
broadcast and unicast ways, the centralized 2PC-style controller, the
Liu-Vuong leaf schedule, and plain single-source streaming) on the same
workload and prints the trade-off table: rounds vs control traffic vs
redundancy.

Run:  python examples/protocol_shootout.py
"""

from repro.experiments import run_experiment


def main() -> None:
    print(run_experiment("EX-A", n=50, H=15, content_packets=400).render())
    print()
    print("How the two paper protocols and the centralized baseline scale:")
    scaling = run_experiment("EX-E", values=[10, 25, 50, 100], content_packets=150)
    print(scaling.render())


if __name__ == "__main__":
    main()
