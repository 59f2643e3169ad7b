"""Scripted faults and churn: one plan of legs, one process that fires them.

§1 motivates the MSS model with "even if some peer stops by fault and is
degraded in performance … a requesting leaf peer receives every data of a
content".  A :class:`FaultPlan` scripts the faults that test that claim.
It is one tuple of faults, and each fault is a short chain of
:class:`Leg`\\ s named in the fault ledger's own vocabulary: a crash is one
``peer.crash`` leg, a flap alternates ``peer.crash``/``peer.rejoin`` legs,
a one-way cut is ``link.sever`` then ``link.heal``, and a partition is
``partition.split`` then ``partition.heal``.  :func:`run_legs` is the one
fault process: it waits out each leg's delay and fires the leg through
:data:`FIRE`, the one ``kind → action`` table.

A :class:`ChurnPlan` drives *ongoing* membership dynamics instead —
Poisson departures, each followed by a crash-recover rejoin — for
stress-testing the failure detector and mid-stream re-coordination.  It
draws its victims at fire time and fires them through the same table.

A partition severs links, not peers: at the split every directed link
crossing a component boundary is cut, acks included, and the heal
restores exactly those links.  Partitioned peers keep transmitting into
their severed links (those sends are counted as honest drops), the leaf's
failure detector suspects and then confirms them through silence, and
after the heal their first heartbeat to reach the leaf resumes monitoring
(:meth:`~repro.streaming.detector.FailureDetector.touch`).  A lone cut is
the *asymmetric* failure: the reverse direction stays up.  A link stays
severed while any cut or split covering it is open.

Each fault instance is one row of the run's fault ledger
(``session.commons.ledger``): crashes and rejoins filed by the node, link
cuts and heals by the overlay, the rest here.  A heal names the cut it
closes, so overlapping cuts of one link close in whatever order their
faults end.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, List, NamedTuple, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.streaming.session import StreamingSession

#: churn's horizon, in nominal content durations (l/τ) after t=0: a
#: finite bound, so a churned run always terminates
CHURN_HORIZON_CONTENTS = 3.0


class Leg(NamedTuple):
    """One step of a fault, named by the ledger kind it files."""

    after: float  #: ms after the leg before it fired (the first: after t=0)
    kind: str  #: a :data:`FIRE` key
    #: a peer id, a ``(src, dst)`` link, or a partition's components
    target: Any
    #: a degrade's factor; a split's heal time (None: never heals)
    value: Any = None
    #: a flap or churn leg: the fault ends once the leaf holds the
    #: content, and a crash leg spares a peer that is already down
    guarded: bool = False


def _crash(session: "StreamingSession", leg: Leg, opened) -> None:
    agent = session.peers[leg.target]
    if not (leg.guarded and agent.crashed):
        agent.node.crash()


def _rejoin(session: "StreamingSession", leg: Leg, opened) -> None:
    # the crash-recover path: the peer resumes its unsent residual
    session.peers[leg.target].rejoin()


def _degrade(session: "StreamingSession", leg: Leg, opened) -> None:
    for stream in session.peers[leg.target].streams:
        if not stream.exhausted:
            stream.scale_rate(leg.value)
    session.commons.ledger.record("peer.degrade", leg.target, factor=leg.value)


def _boundary_links(session: "StreamingSession", components):
    """Every directed link crossing a component boundary; the leaf and
    every unlisted peer form the implicit leaf-side component."""
    component_of = {
        pid: idx for idx, group in enumerate(components) for pid in group
    }
    nodes = [session.leaf.peer_id, *session.peer_ids]
    return [
        (a, b)
        for a in nodes
        for b in nodes
        if a != b and component_of.get(a, -1) != component_of.get(b, -1)
    ]


def _isolated(components) -> str:
    """The split's peers, as its ledger rows name them."""
    return ",".join(pid for group in components for pid in group)


def _sever(session: "StreamingSession", leg: Leg, opened) -> tuple:
    return (session.overlay.sever_link(*leg.target),)


def _heal(session: "StreamingSession", leg: Leg, opened) -> None:
    for cut in opened:
        session.overlay.heal_link(cut)


def _split(session: "StreamingSession", leg: Leg, opened) -> tuple:
    opened = tuple(
        session.overlay.sever_link(src, dst)
        for src, dst in _boundary_links(session, leg.target)
    )
    session.commons.ledger.record(
        "partition.split", "overlay", components=len(leg.target) + 1,
        isolated=_isolated(leg.target), heal_at=leg.value,
    )
    return opened


def _heal_split(session: "StreamingSession", leg: Leg, opened) -> None:
    _heal(session, leg, opened)
    session.commons.ledger.record(
        "partition.heal", "overlay", isolated=_isolated(leg.target)
    )


#: leg kind → what firing it does, given the cuts the fault's previous
#: leg opened (a heal closes exactly those); a sever or split returns the
#: cuts it opened
FIRE = {
    "peer.crash": _crash,
    "peer.rejoin": _rejoin,
    "peer.degrade": _degrade,
    "link.sever": _sever,
    "link.heal": _heal,
    "partition.split": _split,
    "partition.heal": _heal_split,
}


def run_legs(session: "StreamingSession", legs: Tuple[Leg, ...]):
    """The fault process: fire ``legs`` in order, each ``after`` ms after
    the one before it.  Each delay is scheduled when the leg before it
    fires, the first inside the process's t=0 start."""
    opened = ()
    for leg in legs:
        yield session.env.timeout(leg.after)
        if leg.guarded and session.leaf.decoder.complete:
            return
        opened = FIRE[leg.kind](session, leg, opened)


def _check_at(at: float, what: str = "fault") -> None:
    if at < 0:
        raise ValueError(f"{what} time must be non-negative")


@dataclass(frozen=True)
class FaultPlan:
    """The scripted faults of one session: one tuple of leg chains.

    A value, like every other plan: each builder returns a new plan with
    one more fault, and checks that fault's own fields.  The plan as a
    whole also rejects a degrade factor above 1 (a "degradation" that
    speeds a peer up is a spec typo) and two peer faults of the same
    kind scheduled against one peer at the same instant (the duplicate
    would silently double-apply).  Deterministic: installing a plan
    draws no RNG, so it perturbs no other random sequence.
    """

    faults: Tuple[Tuple[Leg, ...], ...] = ()

    def __post_init__(self) -> None:
        seen: set = set()
        for legs in self.faults:
            first = legs[0]
            if first.kind == "peer.degrade" and first.value > 1.0:
                raise ValueError(
                    f"degrade factor {first.value} for {first.target!r} "
                    "is > 1 — a degradation must slow the peer down "
                    "(0 < factor <= 1)"
                )
            if not first.kind.startswith("peer."):
                continue
            name = "flap" if first.guarded else first.kind[len("peer."):]
            key = (name, first.target, first.after)
            if key in seen:
                raise ValueError(
                    f"duplicate {name} fault scheduled for "
                    f"{first.target!r} at t={first.after} — each "
                    "(peer, time) pair may carry at most one fault "
                    "of a kind"
                )
            seen.add(key)

    def _add(self, *legs: Leg) -> "FaultPlan":
        return replace(self, faults=(*self.faults, legs))

    def crash(self, peer_id: str, at: float) -> "FaultPlan":
        """Peer ``peer_id`` fail-stops at ``at`` (ms)."""
        _check_at(at)
        return self._add(Leg(at, "peer.crash", peer_id))

    def rejoin(self, peer_id: str, at: float) -> "FaultPlan":
        """Peer ``peer_id`` crash-recovers at ``at`` (ms), if it is down."""
        _check_at(at)
        return self._add(Leg(at, "peer.rejoin", peer_id))

    def degrade(self, peer_id: str, at: float, factor: float) -> "FaultPlan":
        """Peer ``peer_id``'s transmission rate is multiplied by
        ``factor`` (< 1 slows it down) at ``at`` (ms) — QoS degradation,
        not failure."""
        _check_at(at)
        if factor <= 0:
            raise ValueError("factor must be positive")
        return self._add(Leg(at, "peer.degrade", peer_id, factor))

    def flap(
        self,
        peer_id: str,
        at: float,
        down_for: float,
        period: float,
        count: int = 1,
    ) -> "FaultPlan":
        """Peer ``peer_id`` oscillates: from ``at`` it goes down for
        ``down_for`` ms at the head of every ``period``-ms cycle,
        ``count`` cycles in total — the gray "flapping" peer that is never
        down long enough to be cleanly declared crashed, yet never up long
        enough to deliver its share.  It stops once the leaf holds the
        content."""
        _check_at(at)
        if down_for <= 0:
            raise ValueError("down_for must be positive")
        if period <= down_for:
            raise ValueError("period must exceed down_for (the peer "
                             "needs some uptime per cycle)")
        if count < 1:
            raise ValueError("count must be >= 1")
        legs = [Leg(at, "peer.crash", peer_id, guarded=True)]
        for cycle in range(count):
            if cycle:
                legs.append(Leg(period - down_for, "peer.crash", peer_id, guarded=True))
            legs.append(Leg(down_for, "peer.rejoin", peer_id, guarded=True))
        return self._add(*legs)

    def cut(
        self, src: str, dst: str, at: float, until: Optional[float] = None
    ) -> "FaultPlan":
        """The directed link ``src → dst`` delivers nothing in
        ``[at, until)`` (``until=None``: the cut never heals)."""
        if src == dst:
            raise ValueError("a link cut needs two distinct endpoints")
        _check_at(at, "cut")
        if until is not None and until <= at:
            raise ValueError("cut must heal after it starts")
        sever = Leg(at, "link.sever", (src, dst))
        if until is None:
            return self._add(sever)
        return self._add(sever, Leg(until - at, "link.heal", (src, dst)))

    def partition(
        self, components, at: float, heal_at: Optional[float] = None
    ) -> "FaultPlan":
        """Cut the peer groups ``components`` away from the leaf's side at
        ``at`` (ms) and heal the split at ``heal_at`` (None: never)."""
        components = tuple(tuple(group) for group in components)
        if not components:
            raise ValueError(
                "an empty partition plan does nothing — give it "
                "components to split off"
            )
        _check_at(at, "partition")
        if heal_at is not None and heal_at <= at:
            raise ValueError("partition must heal after it splits")
        seen: set = set()
        for group in components:
            if not group:
                raise ValueError("partition components must be non-empty")
            for pid in group:
                if pid in seen:
                    raise ValueError(
                        f"peer {pid!r} appears in two partition "
                        "components — components must be disjoint"
                    )
                seen.add(pid)
        split = Leg(at, "partition.split", components, heal_at)
        if heal_at is None:
            return self._add(split)
        return self._add(split, Leg(heal_at - at, "partition.heal", components))

    def check_endpoints(self, peer_ids, leaf_id: str) -> None:
        """Refuse a fault naming a peer or endpoint the session lacks, or
        a partition that cuts the leaf away — here, up front, instead of
        as a ``KeyError`` deep inside the event loop when the fault fires."""
        peers = set(peer_ids)
        known = peers | {leaf_id}
        for legs in self.faults:
            kind, target = legs[0].kind, legs[0].target
            if kind.startswith("peer.") and target not in peers:
                raise ValueError(
                    f"fault targets unknown peer {target!r} "
                    f"(session has {len(peers)} peers: "
                    f"CP1..CP{len(peers)})"
                )
            if kind == "link.sever":
                for endpoint in target:
                    if endpoint not in known:
                        raise ValueError(
                            f"link cut names unknown endpoint {endpoint!r}"
                        )
            if kind == "partition.split":
                isolated = [pid for group in target for pid in group]
                for pid in isolated:
                    if pid not in known:
                        raise ValueError(
                            f"partition component names unknown peer {pid!r}"
                        )
                if leaf_id in isolated:
                    raise ValueError(
                        "the leaf always sits in the implicit component; "
                        "list only the peers to cut away from it"
                    )

    def install(self, session: "StreamingSession") -> None:
        """Check endpoints, then start one fault process per fault."""
        self.check_endpoints(session.peer_ids, session.leaf.peer_id)
        for legs in self.faults:
            session.env.process(run_legs(session, legs))


@dataclass(frozen=True)
class ChurnPlan:
    """Ongoing membership dynamics for one session.

    Departures form a Poisson process: inter-departure gaps are drawn
    from Exp(``rate_per_delta``) in δ units off the session's dedicated
    ``churn/plan`` random stream, so two sessions with equal seeds and
    equal plans observe byte-identical churn.  Each departed peer
    crash-recovers after an Exp(``mean_downtime_deltas``) downtime (state
    survives: it resumes its unsent residual).  The draws alternate gap,
    victim, downtime.  A correlated crash is a :class:`FaultPlan` with
    several crash legs at one instant.

    The driver is self-terminating: it stops at a finite horizon
    (:data:`CHURN_HORIZON_CONTENTS` nominal content durations) and as
    soon as the leaf holds the full content, so ``env.run(until=None)``
    always returns.  ``min_live`` peers are never taken down (the chaos
    invariant "≥ 1 survivor" needs a survivor to exist).
    """

    #: expected departures per δ across the whole overlay (Poisson rate)
    rate_per_delta: float = 0.02
    #: departed peers come back after an exponential downtime
    mean_downtime_deltas: float = 10.0
    #: never reduce the live population below this
    min_live: int = 1

    def __post_init__(self) -> None:
        if self.rate_per_delta < 0:
            raise ValueError("rate_per_delta must be non-negative")
        if self.mean_downtime_deltas <= 0:
            raise ValueError("mean_downtime_deltas must be positive")
        if self.min_live < 1:
            raise ValueError("min_live must be >= 1")

    def install(self, session: "StreamingSession") -> None:
        if self.rate_per_delta > 0:
            session.env.process(self._run(session))

    def _run(self, session: "StreamingSession"):
        cfg = session.config
        rng = session.streams.get("churn/plan")
        horizon = CHURN_HORIZON_CONTENTS * cfg.content_packets / cfg.tau
        while True:
            gap = float(rng.exponential(1.0 / self.rate_per_delta))
            yield session.env.timeout(gap * cfg.delta)
            if session.env.now >= horizon or session.leaf.decoder.complete:
                return
            live = [
                pid for pid in session.peer_ids
                if not session.peers[pid].crashed
            ]
            if len(live) <= self.min_live:
                continue
            victim = live[int(rng.integers(len(live)))]
            FIRE["peer.crash"](session, Leg(0.0, "peer.crash", victim), ())
            downtime = float(rng.exponential(self.mean_downtime_deltas)) * cfg.delta
            rejoin = Leg(downtime, "peer.rejoin", victim, guarded=True)
            session.env.process(run_legs(session, (rejoin,)))


# ----------------------------------------------------------------------
# join storms (swarm workload, not a fault injector)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JoinStormPlan:
    """Leaf arrival schedule for a swarm run.

    Where :class:`ChurnPlan` drives *departures* of contents peers, a
    join storm drives *arrivals* of leaf peers against the shared pool —
    the overload workload.  Two modes:

    * ``"poisson"`` — ``leaves`` arrivals whose inter-arrival gaps are
      Exp(``rate_per_delta``) in δ units, drawn from the swarm's
      dedicated ``swarm/joins`` random stream (equal seeds ⇒ byte-equal
      storms);
    * ``"flash"`` — all ``leaves`` arrive at t=0, the step-function
      flash crowd.

    Either mode may add a late *spike*: ``spike_leaves`` extra arrivals
    at ``spike_at_deltas`` — a second crowd hitting a pool that is
    already committed to the first.
    """

    #: number of leaf arrivals in the base wave
    leaves: int = 8
    #: Poisson arrival rate (leaves per δ); ignored in flash mode
    rate_per_delta: float = 0.25
    #: "poisson" or "flash"
    mode: str = "poisson"
    #: instant (δ after t=0) of an extra step of arrivals; None = none
    spike_at_deltas: Optional[float] = None
    #: size of the extra step (in addition to ``leaves``)
    spike_leaves: int = 0

    def __post_init__(self) -> None:
        if self.leaves < 1:
            raise ValueError("leaves must be >= 1")
        if self.rate_per_delta <= 0:
            raise ValueError("rate_per_delta must be positive")
        if self.mode not in ("poisson", "flash"):
            raise ValueError('mode must be "poisson" or "flash"')
        if self.spike_leaves < 0:
            raise ValueError("spike_leaves must be >= 0")
        if self.spike_leaves and self.spike_at_deltas is None:
            raise ValueError("spike_leaves requires spike_at_deltas")
        if self.spike_at_deltas is not None and self.spike_at_deltas < 0:
            raise ValueError("spike_at_deltas must be >= 0")

    @property
    def total_leaves(self) -> int:
        return self.leaves + self.spike_leaves

    def arrival_offsets(self, delta: float, rng) -> List[float]:
        """Sorted arrival instants (ms) for every leaf of the storm.

        ``rng`` is the swarm's ``swarm/joins`` stream; flash mode draws
        nothing from it, so switching modes never perturbs other streams.
        """
        if self.mode == "flash":
            times = [0.0] * self.leaves
        else:
            times, t = [], 0.0
            for _ in range(self.leaves):
                t += float(rng.exponential(1.0 / self.rate_per_delta)) * delta
                times.append(t)
        if self.spike_leaves:
            at = self.spike_at_deltas * delta
            times.extend(at for _ in range(self.spike_leaves))
        times.sort()
        return times
