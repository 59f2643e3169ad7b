"""Shared protocol machinery: configuration, the division rule, message bodies.

Design note — what a control packet carries.  The paper's control packet
holds ``(VW_j, SEQ_j, τ_j, H_j)`` and the child *recomputes* the parent's
subsequence from the content and the derivation chain.  Recomputing the
chain at arbitrary tree depth would require replaying every ancestor's
split, so our control packets instead carry the *assignment basis*: the
parent's remaining postfix (as packet labels) plus the division parameters
``(n_parts, index, parity interval, rate)``.  Byte-wise a real
implementation would ship the compact recipe; message *counts* — what
Figures 10–11 measure — are identical either way, and the child's resulting
plan is exactly the paper's
``Div(Esq(pkt_j[m_j>, h), H_j+1, CP_i)``.

Computed once.  In the paper the parent and each of its ``H_j`` children
run that derivation separately, on separate hosts.  In the simulation they
all hold the *same* immutable basis object and ``Esq`` is a pure function
of ``(basis, h)``, so the first to need it computes it and the rest read
the result (:func:`repro.fec.shared_enhance`): one ``Esq`` per handoff
instead of ``H_j + 1``, each peer then slicing out its own ``Div`` part.
That is host work only — no message, timer or model quantity depends on
how often a pure function is evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, FrozenSet, Iterable, Optional, Sequence

from repro.fec import divide, shared_enhance
from repro.media.sequence import PacketSequence
from repro.media.timeslot import allocate_packets

if TYPE_CHECKING:  # pragma: no cover
    from repro.streaming.session import StreamingSession


def parity_interval_for(n_parts: int, fault_margin: int) -> int:
    """Parity interval used when a sequence is split ``n_parts`` ways.

    §3.2/§4: parity is laid out so that each recovery segment spreads over
    the transmitting peers and the loss of ``fault_margin`` peers (or
    bursty channels) per segment is survivable — i.e. the interval is
    ``n_parts − fault_margin`` packets, floored at 1.  A margin of 0 turns
    parity off entirely (returns 0, by convention "no enhancement").
    """
    if n_parts < 1:
        raise ValueError("n_parts must be >= 1")
    if fault_margin < 0:
        raise ValueError("fault_margin must be >= 0")
    if fault_margin == 0:
        return 0
    return max(1, n_parts - fault_margin)


def rate_for(parent_rate: float, n_parts: int, interval: int) -> float:
    """Per-peer rate after an ``n_parts``-way split with parity ``interval``.

    The paper's ``τ_i := τ_j (h+1) / (h · n_parts)``: the enhanced sequence
    is ``(h+1)/h`` times longer and shared by ``n_parts`` peers, so the
    underlying data timeline is preserved.  ``interval == 0`` (no parity)
    degenerates to an even split.
    """
    if interval == 0:
        return parent_rate / n_parts
    return parent_rate * (interval + 1) / (interval * n_parts)


@dataclass(frozen=True, slots=True)
class Assignment:
    """Everything a peer needs to build one transmission plan.

    ``plan = Div(Esq(basis, interval), n_parts, index)`` at ``rate``
    packets/ms.  ``interval == 0`` skips the enhancement (no parity).

    ``explicit`` short-circuits the derivation: the plan is exactly that
    sequence.  Used by schedulers that compute per-peer subsequences
    centrally (the §2 heterogeneous time-slot allocation), where the
    division is not round-robin.
    """

    basis: PacketSequence
    n_parts: int
    index: int
    interval: int
    rate: float
    explicit: Optional[PacketSequence] = None

    def __post_init__(self) -> None:
        if self.n_parts < 1:
            raise ValueError("n_parts must be >= 1")
        if not 0 <= self.index < self.n_parts:
            raise ValueError(f"index {self.index} outside 0..{self.n_parts - 1}")
        if self.interval < 0:
            raise ValueError("interval must be >= 0")
        if self.rate <= 0:
            raise ValueError("rate must be positive")

    def build_plan(self) -> PacketSequence:
        if self.explicit is not None:
            return self.explicit
        return divide(
            shared_enhance(self.basis, self.interval), self.n_parts, self.index
        )


def empty_assignment(n_parts: int, index: int) -> Assignment:
    """Assignment that activates a peer with nothing to transmit.

    Sent when a parent committed to a child but its stream has already run
    dry — the child still synchronizes (counts as active) so coordination
    metrics remain well-defined on short contents.
    """
    return Assignment(PacketSequence(), n_parts, index, interval=0, rate=1.0)


@dataclass(frozen=True)
class HandoffPlan:
    """One division of one basis: an assignment per part (a stream's
    handoff leaves out the part the parent keeps)."""

    assignments: tuple[Assignment, ...]
    basis: PacketSequence
    n_parts: int
    interval: int
    child_rate: float


def divide_evenly(
    basis: PacketSequence, rate: float, n_parts: int, fault_margin: int
) -> HandoffPlan:
    """The division rule, §3.2–3.3: ``Div(Esq(basis, h), n_parts, CP_i)`` at
    ``τ_i = rate·(h+1)/(h·n_parts)`` with ``h = n_parts − fault_margin``.

    Every part carries the same ``basis`` object, so the whole division
    costs one ``Esq`` (see "Computed once" above).
    """
    interval = parity_interval_for(n_parts, fault_margin)
    child_rate = rate_for(rate, n_parts, interval)
    return HandoffPlan(
        assignments=tuple(
            Assignment(basis, n_parts, i, interval, child_rate)
            for i in range(n_parts)
        ),
        basis=basis,
        n_parts=n_parts,
        interval=interval,
        child_rate=child_rate,
    )


def divide_weighted(
    basis: PacketSequence,
    rate: float,
    weights: Sequence[float],
    fault_margin: int,
) -> tuple[Assignment, ...]:
    """§2's variant of the rule for unequal peers: ``Esq(basis, h)`` is
    allocated by time slot, part ``i`` getting a share ∝ ``weights[i]``
    as an explicit plan at ``rate·|Esq|/|basis|·wᵢ/Σw``, so the parts
    finish together on the basis's data timeline.
    """
    n_parts = len(weights)
    interval = parity_interval_for(n_parts, fault_margin)
    enhanced = shared_enhance(basis, interval)
    buckets: list[list] = [[] for _ in weights]
    for packet, part in zip(enhanced, allocate_packets(weights, len(enhanced))):
        buckets[part].append(packet)
    aggregate = rate * len(enhanced) / len(basis)
    total = sum(weights)
    return tuple(
        Assignment(
            basis, n_parts, i, interval, aggregate * weights[i] / total,
            explicit=PacketSequence(buckets[i]),
        )
        for i in range(n_parts)
    )


def uplinks(session: "StreamingSession", peers: Sequence[str]) -> list[float]:
    """Each of ``peers``' enforced uplink in packets/ms
    (``UploadBudget.rate_per_ms``): the weights of a weighted division, so
    the number that divides is the number the budget holds the peer to."""
    budgets = session.commons.budgets
    return [budgets[pid].rate_per_ms for pid in peers]


def pick(rng, pool: Sequence, k: int) -> list:
    """``k`` members of ``pool`` drawn without replacement, in pool order
    (the paper's ``Select``)."""
    picked = rng.choice(len(pool), size=k, replace=False)
    return [pool[i] for i in sorted(picked)]


@dataclass(slots=True)
class AssignmentMessage:
    """A share handed to a peer: the leaf's ``request``, a DCoP parent's
    ``control`` (c), a TCoP parent's or a controller's ``start`` (c2).

    ``hops`` counts coordination rounds since the leaf's request (the
    request itself is round 1) — the y-axis of Figures 10/11, measured
    robustly even under heterogeneous channel latencies.
    """

    sender: str
    view: FrozenSet[str]
    assignment: Assignment
    hops: int


def send_assignments(
    session: "StreamingSession",
    src: str,
    kind: str,
    shares: Iterable[tuple[str, Assignment]],
    view: FrozenSet[str],
    hops: int,
    raw: bool = False,
) -> None:
    """One ``kind`` message per ``(peer, assignment)`` share, from ``src``.

    Through :meth:`StreamingSession.send_control` — acked under a
    retransmit policy and, from the leaf, registered with the failure
    detector — unless ``raw``: straight onto the overlay, with neither.
    """
    for pid, assignment in shares:
        body = AssignmentMessage(src, view, assignment, hops)
        if raw:
            session.overlay.send(
                src, pid, kind, body=body,
                size_bytes=session.config.control_size,
            )
        else:
            session.send_control(src, pid, kind, body)


@dataclass(slots=True)
class OfferMessage:
    """TCoP c1: "will you be my child?"."""

    sender: str
    view: FrozenSet[str]
    offer_id: int
    hops: int = 1


@dataclass(slots=True)
class ConfirmMessage:
    """TCoP cc1 response to an offer; ``accept=False`` is a rejection."""

    sender: str
    offer_id: int
    accept: bool


@dataclass
class ProtocolConfig:
    """Workload and protocol parameters for one coordination run.

    Attributes
    ----------
    n:
        Number of contents peers.
    H:
        Fan-out: peers the leaf contacts initially and each parent selects.
    fault_margin:
        ``h`` in the paper's §4 sense: how many peer/channel failures per
        recovery segment must be survivable.  The parity interval of each
        split is derived via :func:`parity_interval_for`.  0 disables
        parity.
    tau:
        Content rate τ in packets per millisecond.
    delta:
        Expected one-way control latency δ in ms (drives the Mark rule and
        the round metric).
    content_packets:
        Length ``l`` of the packet sequence.
    request_carries_view:
        When True (default) the leaf's request includes the identity of all
        initially selected peers — required anyway so each peer knows its
        division index — letting first-wave peers exclude one another from
        selection.
    with_payload:
        Generate real payload bytes (enables end-to-end FEC verification;
        slower).  Symbolic mode is used for the coordination figures.
    """

    n: int = 100
    H: int = 3
    fault_margin: int = 1
    tau: float = 1.0
    delta: float = 10.0
    content_packets: int = 600
    seed: int = 0
    packet_size: int = 1024
    control_size: int = 64
    request_carries_view: bool = True
    with_payload: bool = False
    #: per-pair channel latency is drawn once as δ·U(1−s, 1+s): hosts in a
    #: P2P overlay do not sit at identical distances.  0 gives the perfectly
    #: uniform δ of the paper's idealized model (which degenerately makes
    #: every TCoP child pick the same earliest parent).
    pair_latency_spread: float = 0.1

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not 1 <= self.H <= self.n:
            raise ValueError(f"H must be in 1..n, got H={self.H}, n={self.n}")
        if self.fault_margin < 0:
            raise ValueError("fault_margin must be >= 0")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.content_packets < 1:
            raise ValueError("content_packets must be >= 1")
        if not 0 <= self.pair_latency_spread < 1:
            raise ValueError("pair_latency_spread must be in [0, 1)")


class CoordinationProtocol:
    """Strategy object: message handling for one protocol variant.

    A protocol is stateless across sessions; per-session state lives on the
    agents (``session.peers[...]``) and in ``protocol_state`` dicts the
    strategy owns inside the session.
    """

    name: str = "abstract"

    #: the leaf's requests go through ``session.send_control`` and are
    #: announced as wave 1 (DCoP, UnicastChain); everyone else's go raw
    #: (docs/protocols.md, "The division rule", has the table)
    monitored_requests: bool = False

    #: divide by the peers' uplinks instead of evenly (``DCoP`` and
    #: ``ScheduleBasedCoordination`` take it as a parameter; the session
    #: must then state the uplinks, ``SessionSpec.upload_capacity``)
    weighted: bool = False

    def leaf_division(
        self, session: "StreamingSession", peers: Sequence[str]
    ) -> tuple[Assignment, ...]:
        """The leaf's division of the content among ``peers``: even, or by
        time slot ∝ their uplinks when ``weighted`` (§3.1 makes a peer's
        bandwidth part of the service information it advertises)."""
        cfg = session.config
        basis = session.content.packet_sequence()
        if self.weighted:
            return divide_weighted(
                basis, cfg.tau, uplinks(session, peers), cfg.fault_margin
            )
        return divide_evenly(basis, cfg.tau, len(peers), cfg.fault_margin).assignments

    def first_wave(
        self, session: "StreamingSession"
    ) -> tuple[Sequence[str], Sequence[Assignment], FrozenSet[str]]:
        """Whom the leaf picks, what each gets, and the view they are told:
        ``(targets, assignments, view)``.  Protocols whose kickoff is not
        one wave of requests (TCoP, Centralized) override
        :meth:`initiate` instead."""
        raise NotImplementedError

    def initiate(self, session: "StreamingSession") -> None:
        """Leaf-side kickoff: send each first-wave peer its request."""
        targets, assignments, view = self.first_wave(session)
        leaf_id = session.leaf.peer_id
        tracer = session.env.hooks.tracer
        if self.monitored_requests and tracer is not None:
            tracer.wave_start(1, leaf_id, targets=len(targets))
        send_assignments(
            session, leaf_id, "request", zip(targets, assignments), view,
            hops=1, raw=not self.monitored_requests,
        )

    def handle_peer_message(self, agent, message) -> None:
        """Process a coordination message arriving at a contents peer.
        Default: a request activates the peer; nothing is passed on."""
        if message.kind == "request":
            self.activate(agent, message.body)

    @staticmethod
    def activate(agent, msg: AssignmentMessage):
        """Merge the carried view and start streaming the share."""
        agent.merge_view(msg.view)
        return agent.activate_with(msg.assignment, hops=msg.hops)

    def handle_leaf_message(self, session: "StreamingSession", message) -> None:
        """Process a non-media message arriving at the leaf (TCoP confirms,
        centralized replies).  Default: ignore."""

    def reissue(
        self,
        session: "StreamingSession",
        failed: str,
        assignments: dict,
    ) -> None:
        """Re-flood a confirmed-failed peer's residual to survivors.

        ``assignments`` maps surviving peer ids to the residual
        :class:`Assignment` each should take over.  The default sends
        leaf-originated ``request`` packets — the activation path every
        request/flooding protocol (DCoP and the baselines) already
        implements, so an active receiver simply runs one more stream.
        Tree protocols override this (TCoP re-attaches the orphaned
        subtree and uses its ``start`` packets instead).
        """
        send_assignments(
            session, session.leaf.peer_id, "request",
            assignments.items(), frozenset(assignments), hops=1,
        )

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"
