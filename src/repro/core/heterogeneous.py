"""Heterogeneous-rate multi-source streaming (§2 + the paper's §5 outlook).

The paper's §2 defines, and §5 announces as ongoing work, the
*heterogeneous environment*: contents peers with different transmission
bandwidths.  Packets must then be allocated **proportionally and in slot
order** — the time-slot algorithm of Figures 1–3 — so the leaf peer can
deliver each packet immediately on receipt (the packet-allocation
property).

:class:`HeterogeneousScheduleCoordination` realizes this: the leaf knows
(has measured) each selected peer's bandwidth, parity-enhances the packet
sequence, runs the §2 time-slot allocation over the enhanced sequence, and
ships each peer its explicit subsequence.  Peer ``i`` transmits at a rate
proportional to its bandwidth, so all subsequences finish together and
arrivals stay (nearly) in slot order.

Setting ``use_timeslots=False`` keeps the same peers and rates but divides
the sequence round-robin, ignoring bandwidth — the strawman §2 argues
against: slow peers lag ever further behind, arrivals interleave wildly
out of order, and the stream finishes only when the slowest peer drains
its oversized share.  The EX-F ablation quantifies both effects.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Sequence

from repro.core.base import (
    Assignment,
    CoordinationProtocol,
    divide_evenly,
    divide_weighted,
    empty_assignment,
    parity_interval_for,
    send_assignments,
)
from repro.core.dcop import DCoP
from repro.media.sequence import PacketSequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.streaming.contents_peer import ContentsPeerAgent
    from repro.streaming.session import StreamingSession


class HeterogeneousScheduleCoordination(CoordinationProtocol):
    """Leaf-computed schedule honouring per-peer bandwidths.

    Parameters
    ----------
    bandwidths:
        Relative bandwidth of each selected peer (length must equal the
        config's ``H``).  Only ratios matter; rates are normalized so the
        aggregate equals the enhanced content rate ``τ(h+1)/h``.
    use_timeslots:
        True (default): §2 time-slot allocation.  False: naive round-robin
        division that ignores bandwidth — the comparison strawman.
    """

    name = "HeteroSchedule"

    def __init__(
        self,
        bandwidths: Sequence[float],
        use_timeslots: bool = True,
    ) -> None:
        if not bandwidths:
            raise ValueError("need at least one bandwidth")
        if any(b <= 0 for b in bandwidths):
            raise ValueError("bandwidths must be positive")
        self.bandwidths = [float(b) for b in bandwidths]
        self.use_timeslots = use_timeslots
        if not use_timeslots:
            self.name = "HeteroNaive"

    # ------------------------------------------------------------------
    def first_wave(self, session: "StreamingSession"):
        cfg = session.config
        if len(self.bandwidths) != cfg.H:
            raise ValueError(
                f"got {len(self.bandwidths)} bandwidths for H={cfg.H} peers"
            )
        selected = session.leaf_select(cfg.H)
        session.expected_active = set(selected)
        basis = session.content.packet_sequence()
        assignments = divide_weighted(
            basis, cfg.tau, self.bandwidths, cfg.fault_margin
        )
        if not self.use_timeslots:
            # the strawman: the same rates over the round-robin parts
            even = divide_evenly(basis, cfg.tau, cfg.H, cfg.fault_margin)
            assignments = [
                replace(part, rate=weighted.rate)
                for part, weighted in zip(even.assignments, assignments)
            ]
        return selected, assignments, frozenset(selected)


class HeteroDCoP(DCoP):
    """DCoP with bandwidth-aware (weighted) divisions — §5 realized.

    Identical coordination flow to DCoP (same selection, same rounds and,
    without a control plane, same control-packet counts: the leaf's
    requests go raw here, so under a retransmit policy they draw no acks
    and the detector is not told of them), but every division — the
    leaf's initial one and each flooding handoff — splits the sequence
    *proportionally to the capacities* of the peers sharing it, using the
    §2 time-slot allocator.
    A fast peer carries more packets at a higher rate, a slow peer fewer
    at a rate it can actually sustain, so no subtree is gated on its
    weakest member.

    ``capacities`` maps peer id → relative capacity (packets/ms, matching
    the session's ``peer_capacities`` when capacity enforcement is on);
    peers absent from the map get ``default_capacity``.  Per the paper's
    §3.1, bandwidth is part of every peer's service information, so shared
    knowledge of the capacity map is the natural reading.
    """

    name = "HeteroDCoP"

    def __init__(
        self,
        capacities: dict[str, float] | None = None,
        default_capacity: float = 1.0,
    ) -> None:
        if default_capacity <= 0:
            raise ValueError("default_capacity must be positive")
        self.capacities = dict(capacities or {})
        if any(c <= 0 for c in self.capacities.values()):
            raise ValueError("capacities must be positive")
        self.default_capacity = default_capacity

    def capacity_of(self, pid: str) -> float:
        return self.capacities.get(pid, self.default_capacity)

    monitored_requests = False  # docs/protocols.md, "The division rule"

    # -- leaf side ------------------------------------------------------
    def leaf_division(self, session: "StreamingSession", selected: list[str]):
        cfg = session.config
        return divide_weighted(
            session.content.packet_sequence(), cfg.tau,
            [self.capacity_of(pid) for pid in selected], cfg.fault_margin,
        )

    # -- peer side ------------------------------------------------------
    def _flood(self, agent: "ContentsPeerAgent", stream, next_hops: int) -> None:
        """Weighted handoff: the postfix splits ∝ capacities."""
        cfg = agent.session.config
        children = agent.select_children(self.fanout(cfg))
        if not children:
            return
        parent_rate = None if stream.exhausted else stream.current_rate
        weights = [self.capacity_of(agent.peer_id)] + [
            self.capacity_of(c) for c in children
        ]
        n_parts = len(children) + 1
        interval = parity_interval_for(n_parts, cfg.fault_margin)
        inflation = 1.0 if interval == 0 else (interval + 1) / interval
        total_w = sum(weights)
        plans = None
        if parent_rate is not None:
            # preserve the parent's data timeline (the weighted analogue
            # of the paper's τ_j(h+1)/(h(H_j+1)) rule): member i's rate is
            # parent_rate · inflation · w_i/Σw
            plans = stream.handoff_weighted(
                weights,
                fault_margin=cfg.fault_margin,
                delta=cfg.delta,
                own_rate=parent_rate * inflation * weights[0] / total_w,
            )
        agent.merge_view(children)
        assignments = [
            empty_assignment(n_parts, i)
            if plans is None or not len(plans[i - 1])
            else Assignment(
                basis=PacketSequence(),
                n_parts=n_parts,
                index=i,
                interval=0,
                rate=parent_rate * inflation * weights[i] / total_w,
                explicit=plans[i - 1],
            )
            for i in range(1, n_parts)
        ]
        send_assignments(
            agent.session, agent.peer_id, "control",
            zip(children, assignments), frozenset(agent.view), next_hops,
        )
