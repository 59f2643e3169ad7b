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

from typing import TYPE_CHECKING, Sequence

from repro.core.base import (
    Assignment,
    CoordinationProtocol,
    RequestMessage,
    parity_interval_for,
)
from repro.core.dcop import DCoP
from repro.fec import divide_all, shared_enhance
from repro.media.sequence import PacketSequence
from repro.media.timeslot import allocate_packets

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
    def initiate(self, session: "StreamingSession") -> None:
        cfg = session.config
        if len(self.bandwidths) != cfg.H:
            raise ValueError(
                f"got {len(self.bandwidths)} bandwidths for H={cfg.H} peers"
            )
        selected = session.leaf_select(cfg.H)
        session.expected_active = set(selected)

        interval = parity_interval_for(cfg.H, cfg.fault_margin)
        basis = session.content.packet_sequence()
        enhanced = shared_enhance(basis, interval)

        plans = self._build_plans(enhanced)

        # normalize rates: the aggregate must carry the enhanced sequence
        # at the content timeline, i.e. Σ r_i = τ·|enhanced|/|content|
        aggregate = cfg.tau * len(enhanced) / cfg.content_packets
        total_bw = sum(self.bandwidths)
        view = frozenset(selected)
        for i, pid in enumerate(selected):
            rate = aggregate * self.bandwidths[i] / total_bw
            assignment = Assignment(
                basis=basis,
                n_parts=cfg.H,
                index=i,
                interval=interval,
                rate=rate,
                explicit=plans[i],
            )
            session.overlay.send(
                session.leaf.peer_id,
                pid,
                "request",
                body=RequestMessage(session.leaf.peer_id, view, assignment),
                size_bytes=cfg.control_size,
            )

    def _build_plans(self, enhanced: PacketSequence) -> list[PacketSequence]:
        if not self.use_timeslots:
            return divide_all(enhanced, len(self.bandwidths))
        alloc = allocate_packets(self.bandwidths, len(enhanced))
        buckets: list[list] = [[] for _ in self.bandwidths]
        for packet, channel in zip(enhanced, alloc):
            buckets[channel].append(packet)
        return [PacketSequence(b) for b in buckets]

    # ------------------------------------------------------------------
    def handle_peer_message(self, agent: "ContentsPeerAgent", message) -> None:
        if message.kind == "request":
            req: RequestMessage = message.body
            agent.merge_view(req.view)
            agent.activate_with(req.assignment, hops=req.hops)


class HeteroDCoP(DCoP):
    """DCoP with bandwidth-aware (weighted) divisions — §5 realized.

    Identical coordination flow to DCoP (same selection, same rounds, same
    control-packet counts), but every division — the leaf's initial one
    and each flooding handoff — splits the sequence *proportionally to the
    capacities* of the peers sharing it, using the §2 time-slot allocator.
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

    # -- leaf side ------------------------------------------------------
    def initiate(self, session: "StreamingSession") -> None:
        cfg = session.config
        m = self.initial_count(cfg)
        selected = session.leaf_select(m)
        view = frozenset(selected) if cfg.request_carries_view else frozenset()
        interval = parity_interval_for(m, cfg.fault_margin)
        basis = session.content.packet_sequence()
        enhanced = shared_enhance(basis, interval)
        weights = [self.capacity_of(pid) for pid in selected]
        alloc = allocate_packets(weights, len(enhanced))
        buckets: list[list] = [[] for _ in selected]
        for packet, part in zip(enhanced, alloc):
            buckets[part].append(packet)
        aggregate = cfg.tau * len(enhanced) / cfg.content_packets
        total_w = sum(weights)
        for i, pid in enumerate(selected):
            assignment = Assignment(
                basis=basis,
                n_parts=m,
                index=i,
                interval=interval,
                rate=aggregate * weights[i] / total_w,
                explicit=PacketSequence(buckets[i]),
            )
            session.overlay.send(
                session.leaf.peer_id,
                pid,
                "request",
                body=RequestMessage(
                    session.leaf.peer_id, view, assignment, hops=1
                ),
                size_bytes=cfg.control_size,
            )

    # -- peer side ------------------------------------------------------
    def _flood(self, agent: "ContentsPeerAgent", stream, next_hops: int) -> None:
        """Weighted handoff: the postfix splits ∝ capacities."""
        from repro.core.base import ControlMessage
        from repro.core.dcop import empty_assignment

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
        view = frozenset(agent.view)
        for i, child in enumerate(children):
            if plans is None or not len(plans[i]) or parent_rate is None:
                assignment = empty_assignment(n_parts, i + 1)
            else:
                child_rate = parent_rate * inflation * weights[i + 1] / total_w
                assignment = Assignment(
                    basis=PacketSequence(),
                    n_parts=n_parts,
                    index=i + 1,
                    interval=0,
                    rate=child_rate,
                    explicit=plans[i],
                )
            agent.send_control(
                child,
                "control",
                ControlMessage(agent.peer_id, view, assignment, hops=next_hops),
            )
