"""Schedule-based coordination — the Liu–Vuong [8] baseline.

The requesting leaf computes the whole transmission schedule itself and
sends it to each of the ``H`` chosen contents peers, which start
"synchronously according to the schedule".  One round, exactly ``H``
control packets, no peer-to-peer coordination at all — but the leaf is a
schedule bottleneck and nothing adapts if a peer fails (no flooding to
recruit replacements).

``weighted=True`` is §2 live: the leaf allocates the packets by time slot
in proportion to the selected peers' uplinks, so every subsequence
finishes together and arrivals stay (nearly) in slot order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.base import CoordinationProtocol

if TYPE_CHECKING:  # pragma: no cover
    from repro.streaming.session import StreamingSession


class ScheduleBasedCoordination(CoordinationProtocol):
    """Leaf-computed schedule shipped to H peers; no flooding."""

    name = "ScheduleBased"

    def __init__(self, weighted: bool = False) -> None:
        self.weighted = weighted

    def first_wave(self, session: "StreamingSession"):
        selected = session.leaf_select(session.config.H)
        session.expected_active = set(selected)
        return selected, self.leaf_division(session, selected), frozenset(selected)
