"""Per-wave coordination timelines derived from a recorded trace.

The paper reasons about coordination in δ-rounds (Figures 10–11); this
module folds a :class:`~repro.obs.trace.TraceBus` back into that frame:
one row per flooding round, with the activations it produced, the running
active population, and the cumulative control traffic at the round's end.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from repro.metrics.table import Table
from repro.obs.trace import CONTROL_KINDS

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.trace import TraceBus


def wave_timeline(bus: "TraceBus", title: str = "coordination timeline") -> Table:
    """One row per coordination round, derived from activation events.

    The table has exactly ``max(activation round)`` rows — the same number
    as :attr:`SessionResult.rounds` when every live peer activated — and
    includes rounds with zero activations (TCoP's offer/confirm rounds),
    so the 3-round cadence of handshake protocols is visible.
    """
    activations = bus.of_kind("peer.activate")
    table = Table(
        [
            "round",
            "activated",
            "cumulative_active",
            "t_first_ms",
            "t_last_ms",
            "ctrl_sends_cum",
        ],
        title=title,
    )
    if not activations:
        return table
    by_round: Dict[int, List] = {}
    for event in activations:
        by_round.setdefault(event.fields["round"], []).append(event)
    control_sends = sorted(
        e.ts
        for e in bus.of_kind("msg.send")
        if e.fields.get("kind") in CONTROL_KINDS
    )
    last_round = max(by_round)
    cumulative = 0
    for r in range(1, last_round + 1):
        wave = by_round.get(r, [])
        cumulative += len(wave)
        t_first = min(e.ts for e in wave) if wave else None
        t_last = max(e.ts for e in wave) if wave else None
        if t_last is not None:
            ctrl_cum = _count_upto(control_sends, t_last)
        elif control_sends:
            # a round without activations still moved control traffic;
            # attribute everything sent so far
            ctrl_cum = table.rows[-1][5] if table.rows else 0
        else:
            ctrl_cum = 0
        table.add_row(r, len(wave), cumulative, t_first, t_last, ctrl_cum)
    return table


def _count_upto(sorted_times: List[float], t: float) -> int:
    """How many send instants are ≤ t (+ε for float jitter)."""
    import bisect

    return bisect.bisect_right(sorted_times, t + 1e-9)
