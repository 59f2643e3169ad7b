"""Figure 12 — leaf receipt rate vs H for DCoP and TCoP (n = 100).

"rate = 1" is the content rate; parity and redundant re-enhancement push the
receipt rate above 1.  Paper reading points (§4 text): at ``H = 60``
rate ≈ 1.019 for DCoP and ≈ 1.226 for TCoP; without parity both would sit
at exactly 1; the smaller H, the more parity packets.

Reproduced shape: both curves decrease toward 1 as H grows, and TCoP stays
above DCoP at moderate-to-large H because its confirmed-children splits are
narrow (1–3 children → short parity intervals → fat enhancement) while
DCoP's redundant floods split wide.
"""

from __future__ import annotations

from repro.experiments.fig10 import H_SWEEP
from repro.experiments.runner import Experiment
from repro.streaming.spec import ProtocolSpec, SessionSpec

#: Reference points quoted in the paper's §4 text.
PAPER_FIG12_REFERENCE = {
    60: {"dcop_rate": 1.019, "tcop_rate": 1.226},
}

FIG12 = Experiment(
    key="fig12",
    title="Figure 12 — leaf receipt rate (content rate = 1, n={n})",
    doc=__doc__,
    **H_SWEEP
    | {
        # the paper streams a continuous movie; short contents inflate the
        # measured rate because a handoff's short tail still earns one parity
        # packet per segment — 3000 packets ≈ long-content regime at n=100
        "config": H_SWEEP["config"] | {"content_packets": 3000},
    },
    arms=lambda H, cfg, p: {
        kind: SessionSpec(cfg, ProtocolSpec(kind)) for kind in ("dcop", "tcop")
    },
    columns=lambda r: {
        "dcop_rate": r["dcop"].receipt_rate,
        "tcop_rate": r["tcop"].receipt_rate,
        "dcop_delivery": r["dcop"].delivery_ratio,
        "tcop_delivery": r["tcop"].delivery_ratio,
    },
)
