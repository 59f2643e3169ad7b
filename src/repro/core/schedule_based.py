"""Schedule-based coordination — the Liu–Vuong [8] baseline.

The requesting leaf computes the whole transmission schedule itself and
sends it to each of the ``H`` chosen contents peers, which start
"synchronously according to the schedule".  One round, exactly ``H``
control packets, no peer-to-peer coordination at all — but the leaf is a
schedule bottleneck and nothing adapts if a peer fails (no flooding to
recruit replacements).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.base import CoordinationProtocol, divide_evenly

if TYPE_CHECKING:  # pragma: no cover
    from repro.streaming.session import StreamingSession


class ScheduleBasedCoordination(CoordinationProtocol):
    """Leaf-computed schedule shipped to H peers; no flooding."""

    name = "ScheduleBased"

    def first_wave(self, session: "StreamingSession"):
        cfg = session.config
        selected = session.leaf_select(cfg.H)
        session.expected_active = set(selected)
        plan = divide_evenly(
            session.content.packet_sequence(), cfg.tau, cfg.H, cfg.fault_margin
        )
        return selected, plan.assignments, frozenset(selected)
