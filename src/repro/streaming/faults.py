"""Fault injection: crashes, degradation, churn, partitions, link cuts.

§1 motivates the MSS model with "even if some peer stops by fault and is
degraded in performance … a requesting leaf peer receives every data of a
content".  A :class:`FaultPlan` schedules :class:`CrashFault` /
:class:`DegradeFault` instances against a running session so that claim can
be tested and benchmarked; a :class:`ChurnPlan` drives *ongoing* membership
dynamics — Poisson departures, optional crash-recover/rejoin, and
correlated crash storms — for stress-testing the failure detector and
mid-stream re-coordination.

A :class:`PartitionPlan` covers the failures churn cannot express: it
splits the overlay into components at time ``t`` (every directed link
crossing a component boundary is severed, acks included) and heals the
split at ``t'``; scripted :class:`LinkCut` entries model *asymmetric*
one-way failures.  Partitioned peers are not crashed — they keep
transmitting into their severed links (those sends are counted as honest
drops), the leaf's failure detector suspects and then confirms them
through silence, and after the heal their first heartbeat to reach the
leaf resumes monitoring (:meth:`~repro.streaming.detector.FailureDetector.touch`).

Each fault instance is filed once in the run's fault ledger
(``session.commons.ledger``): crashes and rejoins by the node itself, link
cuts by the overlay, degradations and partition splits and heals here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.core.base import pick

if TYPE_CHECKING:  # pragma: no cover
    from repro.streaming.session import StreamingSession


@dataclass(frozen=True)
class CrashFault:
    """Peer ``peer_id`` fail-stops at ``at`` (ms)."""

    peer_id: str
    at: float

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError("fault time must be non-negative")


@dataclass(frozen=True)
class DegradeFault:
    """Peer ``peer_id``'s transmission rate is multiplied by ``factor``
    (< 1 slows it down) at ``at`` (ms) — QoS degradation, not failure."""

    peer_id: str
    at: float
    factor: float

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError("fault time must be non-negative")
        if self.factor <= 0:
            raise ValueError("factor must be positive")


@dataclass(frozen=True)
class FlapFault:
    """Peer ``peer_id`` oscillates up/down: starting at ``at`` it goes
    down for ``down_for`` ms at the head of every ``period``-ms cycle,
    ``count`` cycles in total — the gray "flapping" peer that is never
    down long enough to be cleanly declared crashed, yet never up long
    enough to deliver its share."""

    peer_id: str
    at: float
    down_for: float
    period: float
    count: int = 1

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError("fault time must be non-negative")
        if self.down_for <= 0:
            raise ValueError("down_for must be positive")
        if self.period <= self.down_for:
            raise ValueError("period must exceed down_for (the peer "
                             "needs some uptime per cycle)")
        if self.count < 1:
            raise ValueError("count must be >= 1")


@dataclass
class FaultPlan:
    """A set of faults applied to one session."""

    crashes: List[CrashFault] = field(default_factory=list)
    degradations: List[DegradeFault] = field(default_factory=list)
    flaps: List[FlapFault] = field(default_factory=list)

    def crash(self, peer_id: str, at: float) -> "FaultPlan":
        self.crashes.append(CrashFault(peer_id, at))
        return self

    def degrade(self, peer_id: str, at: float, factor: float) -> "FaultPlan":
        self.degradations.append(DegradeFault(peer_id, at, factor))
        return self

    def flap(
        self,
        peer_id: str,
        at: float,
        down_for: float,
        period: float,
        count: int = 1,
    ) -> "FaultPlan":
        self.flaps.append(FlapFault(peer_id, at, down_for, period, count))
        return self

    def validate(self) -> None:
        """Plan-level consistency checks, independent of any session.

        :class:`DegradeFault` bounds its own fields, but only per fault —
        the plan as a whole must also reject a degrade factor above 1
        (a "degradation" that speeds a peer up is a spec typo) and two
        faults of the same kind scheduled against one peer at the same
        instant (the duplicate would silently double-apply).
        """
        for fault in self.degradations:
            if fault.factor > 1.0:
                raise ValueError(
                    f"degrade factor {fault.factor} for {fault.peer_id!r} "
                    "is > 1 — a degradation must slow the peer down "
                    "(0 < factor <= 1)"
                )
        seen: set = set()
        for kind, faults in (
            ("crash", self.crashes),
            ("degrade", self.degradations),
            ("flap", self.flaps),
        ):
            for fault in faults:
                key = (kind, fault.peer_id, fault.at)
                if key in seen:
                    raise ValueError(
                        f"duplicate {kind} fault scheduled for "
                        f"{fault.peer_id!r} at t={fault.at} — each "
                        "(peer, time) pair may carry at most one fault "
                        "of a kind"
                    )
                seen.add(key)

    def install(self, session: "StreamingSession") -> None:
        """Schedule every fault as a simulation process.

        Targets are validated against the session's peer set up front —
        a typo'd ``peer_id`` fails here, at install time, instead of as a
        ``KeyError`` deep inside the event loop when the fault fires.
        """
        self.validate()
        known = set(session.peers)
        for fault in [*self.crashes, *self.degradations, *self.flaps]:
            if fault.peer_id not in known:
                raise ValueError(
                    f"fault targets unknown peer {fault.peer_id!r} "
                    f"(session has {len(known)} peers: "
                    f"CP1..CP{len(known)})"
                )
        for fault in self.crashes:
            session.env.process(self._run_crash(session, fault))
        for fault in self.degradations:
            session.env.process(self._run_degrade(session, fault))
        for fault in self.flaps:
            session.env.process(self._run_flap(session, fault))

    @staticmethod
    def _run_crash(session: "StreamingSession", fault: CrashFault):
        yield session.env.timeout(fault.at)
        session.peers[fault.peer_id].node.crash()

    @staticmethod
    def _run_degrade(session: "StreamingSession", fault: DegradeFault):
        yield session.env.timeout(fault.at)
        agent = session.peers[fault.peer_id]
        for stream in agent.streams:
            if not stream.exhausted:
                stream.scale_rate(fault.factor)
        session.commons.ledger.record("peer.degrade", fault.peer_id, factor=fault.factor)

    @staticmethod
    def _run_flap(session: "StreamingSession", fault: FlapFault):
        """Cycle the peer down/up ``count`` times.

        Each leg is a crash or rejoin row of the fault ledger, so the
        ground-truth oracles see every oscillation; the up leg reuses the
        crash-recover path
        (:meth:`~repro.streaming.contents_peer.ContentsPeerAgent.rejoin`),
        so the peer resumes its unsent residual exactly like a churned
        peer would.
        """
        yield session.env.timeout(fault.at)
        agent = session.peers[fault.peer_id]
        for cycle in range(fault.count):
            if session.leaf.decoder.complete:
                return
            if not agent.crashed:
                agent.node.crash()
            yield session.env.timeout(fault.down_for)
            if session.leaf.decoder.complete:
                return
            if agent.crashed:
                agent.rejoin()
            if cycle + 1 < fault.count:
                yield session.env.timeout(fault.period - fault.down_for)


@dataclass(frozen=True)
class ChurnPlan:
    """Ongoing membership dynamics for one session.

    Departures form a Poisson process: inter-departure gaps are drawn
    from Exp(``rate_per_delta``) in δ units off the session's dedicated
    ``churn/plan`` random stream, so two sessions with equal seeds and
    equal plans observe byte-identical churn.  Each departed peer
    optionally crash-recovers after an Exp(``mean_downtime_deltas``)
    downtime (state survives: it resumes its unsent residual).  An
    optional *storm* crashes ``storm_size`` peers simultaneously at
    ``storm_at`` — the correlated-failure case parity margins are sized
    for.

    The driver is self-terminating: it stops at a finite horizon
    (``stop_deltas`` after start, defaulting to three nominal content
    durations) and as soon as the leaf holds the full content, so
    ``env.run(until=None)`` always returns.  ``min_live`` peers are
    never taken down (the chaos invariant "≥ 1 survivor" needs a
    survivor to exist).
    """

    #: expected departures per δ across the whole overlay (Poisson rate)
    rate_per_delta: float = 0.02
    #: departed peers come back after an exponential downtime
    rejoin: bool = True
    mean_downtime_deltas: float = 10.0
    #: instant (ms) of a correlated crash storm; None = no storm
    storm_at: Optional[float] = None
    storm_size: int = 0
    #: churn starts this many δ after t=0
    start_deltas: float = 0.0
    #: churn horizon in δ after start; None = 3× the nominal content
    #: duration (l/τ) — a finite default so runs always terminate
    stop_deltas: Optional[float] = None
    #: never reduce the live population below this
    min_live: int = 1

    def __post_init__(self) -> None:
        if self.rate_per_delta < 0:
            raise ValueError("rate_per_delta must be non-negative")
        if self.mean_downtime_deltas <= 0:
            raise ValueError("mean_downtime_deltas must be positive")
        if self.storm_size < 0:
            raise ValueError("storm_size must be non-negative")
        if self.start_deltas < 0:
            raise ValueError("start_deltas must be non-negative")
        if self.stop_deltas is not None and self.stop_deltas <= 0:
            raise ValueError("stop_deltas must be positive")
        if self.min_live < 1:
            raise ValueError("min_live must be >= 1")

    # ------------------------------------------------------------------
    def install(self, session: "StreamingSession") -> None:
        if self.rate_per_delta > 0:
            session.env.process(self._run(session))
        if self.storm_at is not None and self.storm_size > 0:
            session.env.process(self._run_storm(session))

    def _horizon(self, session: "StreamingSession") -> float:
        cfg = session.config
        start = self.start_deltas * cfg.delta
        if self.stop_deltas is not None:
            return start + self.stop_deltas * cfg.delta
        return start + 3.0 * cfg.content_packets / cfg.tau

    def _run(self, session: "StreamingSession"):
        cfg = session.config
        rng = session.streams.get("churn/plan")
        horizon = self._horizon(session)
        start = self.start_deltas * cfg.delta
        if start > 0:
            yield session.env.timeout(start)
        while True:
            gap = float(rng.exponential(1.0 / self.rate_per_delta))
            yield session.env.timeout(gap * cfg.delta)
            if session.env.now >= horizon or session.leaf.decoder.complete:
                return
            victim = self._pick_victim(session, rng)
            if victim is None:
                continue
            session.peers[victim].node.crash()
            if self.rejoin:
                downtime = (
                    float(rng.exponential(self.mean_downtime_deltas))
                    * cfg.delta
                )
                session.env.process(
                    self._rejoin_later(session, victim, downtime)
                )

    def _run_storm(self, session: "StreamingSession"):
        yield session.env.timeout(self.storm_at)
        rng = session.streams.get("churn/storm")
        live = [
            pid for pid in session.peer_ids
            if not session.peers[pid].crashed
        ]
        k = min(self.storm_size, max(0, len(live) - self.min_live))
        if k <= 0:
            return
        for victim in pick(rng, live, k):
            session.peers[victim].node.crash()
            if self.rejoin:
                downtime = (
                    float(rng.exponential(self.mean_downtime_deltas))
                    * session.config.delta
                )
                session.env.process(
                    self._rejoin_later(session, victim, downtime)
                )

    # ------------------------------------------------------------------
    def _pick_victim(self, session: "StreamingSession", rng) -> Optional[str]:
        live = [
            pid for pid in session.peer_ids
            if not session.peers[pid].crashed
        ]
        if len(live) <= self.min_live:
            return None
        return live[int(rng.integers(len(live)))]

    @staticmethod
    def _rejoin_later(session: "StreamingSession", victim: str, downtime: float):
        yield session.env.timeout(downtime)
        if session.leaf.decoder.complete:
            return  # run is over; a rejoin would only add idle processes
        agent = session.peers[victim]
        if not agent.crashed:
            return  # already recovered by some other path
        agent.rejoin()


# ----------------------------------------------------------------------
# partitions and asymmetric link failures
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LinkCut:
    """One directed link cut: ``src → dst`` delivers nothing in
    ``[at, until)`` (``until=None`` = the cut never heals).

    A single :class:`LinkCut` is the *asymmetric* failure: the reverse
    direction stays up, so e.g. a peer can still hear the leaf's repair
    requests while its answers silently vanish.
    """

    src: str
    dst: str
    at: float
    until: Optional[float] = None

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError("a link cut needs two distinct endpoints")
        if self.at < 0:
            raise ValueError("cut time must be non-negative")
        if self.until is not None and self.until <= self.at:
            raise ValueError("cut must heal after it starts")


@dataclass(frozen=True)
class PartitionPlan:
    """Split the overlay into components at ``at``; heal at ``heal_at``.

    ``components`` lists the groups cut away from the rest of the
    overlay; the leaf plus every unlisted peer form the implicit
    leaf-side component.  At ``at`` every directed link whose endpoints
    sit in different components is severed (media, control *and* acks —
    reliable senders exhaust their retries honestly); at ``heal_at``
    exactly those links are restored.  ``cuts`` adds scripted one-way
    :class:`LinkCut` failures on top, on their own schedules.

    Both fields are optional-ish: a plan may be pure cuts
    (``components=()``) or a pure split (``cuts=()``), but not empty.
    Deterministic — no RNG draws, so installing a plan perturbs no other
    random sequence.
    """

    components: Tuple[Tuple[str, ...], ...] = ()
    at: float = 0.0
    heal_at: Optional[float] = None
    cuts: Tuple[LinkCut, ...] = ()

    def __post_init__(self) -> None:
        # normalize: accept lists of lists from call sites
        object.__setattr__(
            self,
            "components",
            tuple(tuple(group) for group in self.components),
        )
        object.__setattr__(self, "cuts", tuple(self.cuts))
        if not self.components and not self.cuts:
            raise ValueError(
                "an empty partition plan does nothing — give it "
                "components to split off or link cuts to schedule"
            )
        if self.at < 0:
            raise ValueError("partition time must be non-negative")
        if self.heal_at is not None and self.heal_at <= self.at:
            raise ValueError("partition must heal after it splits")
        seen: set = set()
        for group in self.components:
            if not group:
                raise ValueError("partition components must be non-empty")
            for pid in group:
                if pid in seen:
                    raise ValueError(
                        f"peer {pid!r} appears in two partition "
                        "components — components must be disjoint"
                    )
                seen.add(pid)

    # ------------------------------------------------------------------
    @property
    def isolated_peers(self) -> Tuple[str, ...]:
        """Every peer cut away from the leaf-side component."""
        return tuple(pid for group in self.components for pid in group)

    def install(self, session: "StreamingSession") -> None:
        """Validate endpoints and schedule the split/heal/cut processes."""
        known = set(session.peers) | {session.leaf.peer_id}
        for pid in self.isolated_peers:
            if pid not in known:
                raise ValueError(
                    f"partition component names unknown peer {pid!r}"
                )
        if session.leaf.peer_id in self.isolated_peers:
            raise ValueError(
                "the leaf always sits in the implicit component; list "
                "only the peers to cut away from it"
            )
        for cut in self.cuts:
            for endpoint in (cut.src, cut.dst):
                if endpoint not in known:
                    raise ValueError(
                        f"link cut names unknown endpoint {endpoint!r}"
                    )
        if self.components:
            session.env.process(self._run_split(session))
        for cut in self.cuts:
            session.env.process(self._run_cut(session, cut))

    # ------------------------------------------------------------------
    def _boundary_links(self, session: "StreamingSession"):
        """Every directed link crossing a component boundary."""
        component_of = {
            pid: idx
            for idx, group in enumerate(self.components)
            for pid in group
        }
        nodes = [session.leaf.peer_id, *session.peer_ids]
        links = []
        for a in nodes:
            for b in nodes:
                if a == b:
                    continue
                if component_of.get(a, -1) != component_of.get(b, -1):
                    links.append((a, b))
        return links

    def _run_split(self, session: "StreamingSession"):
        yield session.env.timeout(self.at)
        overlay = session.overlay
        links = self._boundary_links(session)
        for src, dst in links:
            overlay.sever_link(src, dst)
        isolated = ",".join(self.isolated_peers)
        ledger = session.commons.ledger
        ledger.record(
            "partition.split", "overlay", components=len(self.components) + 1,
            isolated=isolated, heal_at=self.heal_at,
        )
        if self.heal_at is None:
            return
        yield session.env.timeout(self.heal_at - self.at)
        for src, dst in links:
            overlay.heal_link(src, dst)
        ledger.record("partition.heal", "overlay", isolated=isolated)

    @staticmethod
    def _run_cut(session: "StreamingSession", cut: LinkCut):
        yield session.env.timeout(cut.at)
        session.overlay.sever_link(cut.src, cut.dst)
        if cut.until is None:
            return
        yield session.env.timeout(cut.until - cut.at)
        session.overlay.heal_link(cut.src, cut.dst)


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
    * ``"flash"`` — all ``leaves`` arrive at the same instant
      (``start_deltas``), the step-function flash crowd.

    Either mode may add a late *spike*: ``spike_leaves`` extra arrivals
    at ``spike_at_deltas`` — a second crowd hitting a pool that is
    already committed to the first.
    """

    #: number of leaf arrivals in the base wave
    leaves: int = 8
    #: Poisson arrival rate (leaves per δ); ignored in flash mode
    rate_per_delta: float = 0.25
    #: first arrival is offset this many δ after t=0
    start_deltas: float = 0.0
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
        if self.start_deltas < 0:
            raise ValueError("start_deltas must be >= 0")
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
        base = self.start_deltas * delta
        times: List[float] = []
        if self.mode == "flash":
            times.extend(base for _ in range(self.leaves))
        else:
            t = base
            for _ in range(self.leaves):
                t += float(rng.exponential(1.0 / self.rate_per_delta)) * delta
                times.append(t)
        if self.spike_leaves:
            at = self.spike_at_deltas * delta
            times.extend(at for _ in range(self.spike_leaves))
        times.sort()
        return times
