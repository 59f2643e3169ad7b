#!/usr/bin/env python
"""Watch a coordination run: transmission tree, waves, traffic.

Renders the paper's Figure 9 (the TCoP transmission tree rooted at the
leaf peer), the activation waves round by round for both protocols (read
off the run's trace), and the messages sent by kind.

Run:  python examples/coordination_trace.py
"""

from repro import ProtocolConfig, ProtocolSpec, SessionSpec
from repro.obs import TraceConfig, wave_timeline
from repro.viz import render_transmission_tree


def show(protocol, title):
    session = SessionSpec(
        config=ProtocolConfig(
            n=16, H=4, fault_margin=1, delta=10.0, content_packets=300, seed=6
        ),
        protocol=protocol,
        trace=TraceConfig(),
    ).build()
    result = session.run()
    print(f"==== {title} ====")
    print(render_transmission_tree(session))
    print(wave_timeline(result.trace).render())
    print("messages sent by kind:")
    for kind, sent in sorted(result.messages_by_kind.items()):
        print(f"  {kind:>8}: {sent}")
    print()


def main() -> None:
    show(ProtocolSpec("tcop"), "TCoP — the Figure 9 transmission tree")
    show(ProtocolSpec("dcop"), "DCoP — redundant flooding (no unique parents)")


if __name__ == "__main__":
    main()
