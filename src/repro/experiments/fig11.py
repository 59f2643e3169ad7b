"""Figure 11 — rounds and control packets vs H for TCoP (n = 100, h = 1).

Paper reading points (§4 text): at ``H = 60`` TCoP needs **six rounds** and
**about 7400 control packets** — three δ-rounds per selection wave (offer /
confirm / start) and far more traffic than DCoP because every selection is
acknowledged and collisions are retried.  Both qualitative claims reproduce;
see EXPERIMENTS.md for measured-vs-paper numbers.
"""

from __future__ import annotations

from repro.experiments.fig10 import coordination_cost

#: Reference points quoted in the paper's §4 text.
PAPER_FIG11_REFERENCE = {
    60: {"rounds": 6, "control_packets": 7400},
}

FIG11 = coordination_cost(
    "fig11", "Figure 11 — TCoP rounds & control packets (n={n})", __doc__, "tcop"
)
