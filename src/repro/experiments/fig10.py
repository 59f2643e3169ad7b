"""Figure 10 — rounds and control packets vs H for DCoP (n = 100, h = 1).

Paper reading points (from the §4 text): at ``H = 60`` DCoP synchronizes
100 contents peers in **2 rounds** with **about 600 control packets**; at
``H = 100`` a single round suffices.

Our measured rounds match; our control-packet counts are higher in absolute
terms (the pseudo-code as written has every first-wave peer contact every
still-unknown peer — see EXPERIMENTS.md for the discussion) but reproduce
the figure's qualitative shape: rounds fall monotonically with H while the
packet count rises to a hump and collapses to ``n`` at ``H = n``.
"""

from __future__ import annotations

from repro.experiments.runner import Experiment, default_h_values
from repro.streaming.spec import ProtocolSpec, SessionSpec

#: Reference points quoted in the paper's §4 text.
PAPER_FIG10_REFERENCE = {
    60: {"rounds": 2, "control_packets": 600},
    100: {"rounds": 1},
}

#: What Figures 10–12 share: the §4 sweep of H at n = 100, h = 1.
H_SWEEP = dict(
    x="H",
    values=lambda p: default_h_values(p["n"]),
    config=dict(
        n=100, fault_margin=1, content_packets=400, delta=10.0, tau=1.0, seed=0
    ),
    params=dict(repetitions=1),
    at=lambda H, p: {"H": H},
    quick=dict(values=[2, 5, 10, 30, 60, 100], content_packets=200),
)


def coordination_cost(key: str, title: str, doc: str, kind: str) -> Experiment:
    """The row Figures 10 and 11 share: one protocol's two curves."""
    return Experiment(
        key=key,
        title=title,
        doc=doc,
        arms=lambda H, cfg, p: {kind: SessionSpec(cfg, ProtocolSpec(kind))},
        columns=lambda r: {
            "rounds": r[kind].rounds,
            "control_packets": r[kind].control_packets_at_sync,
            "control_packets_total": r[kind].control_packets_total,
        },
        **H_SWEEP,
    )


FIG10 = coordination_cost(
    "fig10", "Figure 10 — DCoP rounds & control packets (n={n})", __doc__, "dcop"
)
