"""Heartbeat-based failure detection at the leaf.

The paper's reliability claim (§1) needs more than parity: a crashed
contents peer leaves its unsent residual behind, and nobody in the seed
protocols *notices*.  This module closes the detection half of the
detect → retransmit → re-coordinate loop:

* every active contents peer emits a ``heartbeat`` to the leaf once a
  heartbeat period while it owes data, carrying the data sequence
  numbers it still owes (its *pending* set); any message arriving at
  the leaf (media packets included) refreshes the peer's ``last_heard``
  and clears a suspicion, but only heartbeats carry the residual and
  feed the φ window below;
* the leaf-side :class:`FailureDetector` declares a peer *suspected* after
  ``suspect_misses`` heartbeat periods of silence and *confirmed* failed
  after :data:`CONFIRM_MISSES` periods; confirmation triggers
  re-coordination (see :mod:`repro.streaming.recoordination`);
* in ``mode="accrual"`` the fixed thresholds are replaced by a φ-accrual
  score (Hayashibara et al.): a sliding window of inter-heartbeat gaps
  estimates the arrival distribution, ``φ = -log10 P(a later heartbeat)``
  grows continuously with silence, and ``phi_suspect``/:data:`PHI_CONFIRM`
  become the two levels — on a jittery (gray) link the window widens and
  the detector automatically becomes more patient;
* the reliable control plane reports unreachable destinations
  (:meth:`FailureDetector.report_unreachable`), so a peer that dies before
  ever contacting the leaf is still detected;
* detection latency (vs the ground-truth crash instant) and false
  suspicions are recorded into :class:`~repro.streaming.session.SessionResult`.

Timeouts are expressed in heartbeat periods, themselves
:data:`HEARTBEAT_PERIOD_DELTAS` δ, so the detector scales with the
control-latency regime like everything else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.streaming.session import StreamingSession


@dataclass(frozen=True, slots=True)
class Heartbeat:
    """Body of a ``heartbeat`` message.

    ``pending`` is the sender's residual: data sequence numbers still in
    its unexhausted streams.  ``done`` marks the final heartbeat of a peer
    whose streams have drained — the leaf stops expecting it afterwards.
    """

    sender: str
    pending: Tuple[int, ...]
    done: bool = False


#: recognized suspicion policies: fixed miss counting vs φ-accrual
DETECTOR_MODES = ("fixed", "accrual")
#: heartbeat emission / detector check period, in δ units
HEARTBEAT_PERIOD_DELTAS = 1.0
#: silent periods before a suspect is *confirmed* (fixed mode, and
#: accrual mode while its gap window fills)
CONFIRM_MISSES = 6
#: φ level at which a suspect is confirmed failed (accrual mode)
PHI_CONFIRM = 3.0
#: the detector shuts down after this long without any leaf contact, in
#: δ units (bounds the simulation when the whole overlay has died)
IDLE_GRACE_DELTAS = 20.0


@dataclass(frozen=True)
class DetectorPolicy:
    """Tuning knobs for the leaf's failure detector.

    ``mode="fixed"`` (the original, compatibility behaviour) suspects
    after ``suspect_misses`` silent periods and confirms after
    :data:`CONFIRM_MISSES`.  ``mode="accrual"`` scores silence
    continuously: a window of the last ``window`` inter-heartbeat gaps
    estimates the arrival distribution and a peer is suspected/confirmed
    when its φ crosses ``phi_suspect``/:data:`PHI_CONFIRM`.  The
    fixed-miss thresholds remain the bootstrap rule while the window is
    still filling.  Every confirmed failure triggers mid-stream
    re-coordination; the heartbeat period and idle shutdown are this
    module's constants.
    """

    #: silent periods before a peer is *suspected* (≤ CONFIRM_MISSES)
    suspect_misses: int = 3
    #: suspicion policy: "fixed" miss counting or "accrual" φ scoring
    mode: str = "fixed"
    #: φ level at which a peer becomes suspected (≤ PHI_CONFIRM)
    phi_suspect: float = 1.0
    #: inter-heartbeat gaps kept per peer for the φ estimate
    window: int = 8

    def __post_init__(self) -> None:
        if self.suspect_misses < 1:
            raise ValueError("suspect_misses must be >= 1")
        if self.suspect_misses > CONFIRM_MISSES:
            raise ValueError(
                f"suspect_misses must be <= CONFIRM_MISSES ({CONFIRM_MISSES})"
            )
        if self.mode not in DETECTOR_MODES:
            raise ValueError(
                f"unknown detector mode {self.mode!r} "
                f"(one of: {', '.join(DETECTOR_MODES)})"
            )
        if self.phi_suspect <= 0:
            raise ValueError("phi_suspect must be positive")
        if self.phi_suspect > PHI_CONFIRM:
            raise ValueError(
                f"phi_suspect must be <= PHI_CONFIRM ({PHI_CONFIRM})"
            )
        if self.window < 2:
            raise ValueError("window must hold at least 2 gap samples")


@dataclass
class PeerHealth:
    """What the leaf knows about one monitored contents peer."""

    last_heard: float
    #: residual reported by the peer's most recent heartbeat
    pending: Set[int] = field(default_factory=set)
    #: residual the *leaf* attributes to the peer (assignments it issued or
    #: saw abandoned by the control plane); never shrinks — the held-set
    #: subtraction at re-coordination time keeps it honest
    noted: Set[int] = field(default_factory=set)
    done: bool = False
    suspected_at: Optional[float] = None
    confirmed_at: Optional[float] = None
    #: arrival time of the peer's most recent heartbeat (gap sampling)
    last_heartbeat_at: Optional[float] = None
    #: sliding window of inter-heartbeat gaps feeding the φ estimate
    gaps: List[float] = field(default_factory=list)

    @property
    def suspected(self) -> bool:
        return self.suspected_at is not None

    @property
    def confirmed(self) -> bool:
        return self.confirmed_at is not None


class FailureDetector:
    """Leaf-side heartbeat monitor with a two-level suspect/confirm state."""

    def __init__(self, session: "StreamingSession", policy: DetectorPolicy) -> None:
        self.session = session
        self.policy = policy
        #: the leaf clock calls :meth:`check` every ``stride`` ticks
        self.stride = HEARTBEAT_PERIOD_DELTAS
        self.period = HEARTBEAT_PERIOD_DELTAS * session.config.delta
        self.monitored: Dict[str, PeerHealth] = {}
        self.false_suspicions = 0
        #: peer -> confirm latency in ms measured against the ground-truth
        #: crash instant (absent for false confirmations)
        self.detection_latencies: Dict[str, float] = {}
        #: callback fired once per confirmed failure
        self.on_confirm: Optional[Callable[[str], None]] = None
        self._last_contact = session.env.now
        self._idle_grace = max(
            IDLE_GRACE_DELTAS * session.config.delta,
            (CONFIRM_MISSES + 2) * self.period,
        )

    # ------------------------------------------------------------------
    # state queries
    # ------------------------------------------------------------------
    @property
    def suspects(self) -> Set[str]:
        """Peers currently suspected or confirmed failed."""
        return {
            pid for pid, st in self.monitored.items()
            if st.suspected or st.confirmed
        }

    @property
    def confirmed_failures(self) -> Set[str]:
        return {pid for pid, st in self.monitored.items() if st.confirmed}

    def residual_of(self, peer_id: str) -> Set[int]:
        """Data seqs the peer still owed that the leaf does not hold."""
        st = self.monitored.get(peer_id)
        if st is None:
            return set()
        decoder = self.session.leaf.decoder
        return {
            seq for seq in (st.pending | st.noted)
            if 1 <= seq <= decoder.n_packets and not decoder.has_data(seq)
        }

    def owes(self, peer_id: str) -> bool:
        """Is :meth:`residual_of` non-empty?  Stops at the first such seq."""
        st = self.monitored.get(peer_id)
        if st is None:
            return False
        decoder = self.session.leaf.decoder
        return any(
            1 <= seq <= decoder.n_packets and not decoder.has_data(seq)
            for seq in chain(st.pending, st.noted)
        )

    def phi(self, peer_id: str) -> Optional[float]:
        """Current φ suspicion score of a peer, or None while the
        inter-heartbeat window is still bootstrapping (< 2 gap samples).

        ``φ = -log10 P(a heartbeat still arrives after this much
        silence)`` under a normal fit of the observed gaps; φ ≈ 1 means
        ~90% confident the peer is gone, φ ≈ 3 means ~99.9%.  Purely
        deterministic — no RNG draws.
        """
        st = self.monitored.get(peer_id)
        if st is None:
            return None
        return self._phi(st, self.session.env.now)

    def _phi(self, st: PeerHealth, now: float) -> Optional[float]:
        gaps = st.gaps
        if len(gaps) < 2:
            return None
        mean = sum(gaps) / len(gaps)
        var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
        # floor the spread: a metronome-regular window must not make one
        # late heartbeat look like certain death
        std = max(math.sqrt(var), 0.25 * self.period, 1e-9)
        silent = now - st.last_heard
        z = (silent - mean) / (std * math.sqrt(2.0))
        p_later = max(0.5 * math.erfc(z), 1e-15)
        return -math.log10(p_later)

    # ------------------------------------------------------------------
    # event feeds
    # ------------------------------------------------------------------
    def _entry(self, peer_id: str) -> Optional[PeerHealth]:
        if peer_id not in self.session.peers:
            return None
        st = self.monitored.get(peer_id)
        if st is None:
            st = PeerHealth(last_heard=self.session.env.now)
            self.monitored[peer_id] = st
        return st

    def touch(self, peer_id: str) -> None:
        """Any message from ``peer_id`` reached the leaf: it is alive."""
        st = self._entry(peer_id)
        if st is None:
            return
        now = self.session.env.now
        self._last_contact = now
        st.last_heard = now
        if st.suspected and not st.confirmed:
            # contact resumed before confirmation: clear the suspicion
            st.suspected_at = None
        if st.confirmed:
            # a confirmed peer speaking again has rejoined (or the
            # confirmation was premature): resume monitoring it
            st.confirmed_at = None
            st.suspected_at = None

    def on_heartbeat(self, hb: Heartbeat) -> None:
        st = self._entry(hb.sender)
        if st is None:
            return
        now = self.session.env.now
        if st.last_heartbeat_at is not None:
            gap = now - st.last_heartbeat_at
            if gap > 0:
                st.gaps.append(gap)
                if len(st.gaps) > self.policy.window:
                    del st.gaps[: len(st.gaps) - self.policy.window]
        st.last_heartbeat_at = now
        st.pending = set(hb.pending)
        st.done = hb.done and not hb.pending

    def expect(self, peer_id: str, seqs) -> None:
        """The leaf issued (or saw abandoned) an assignment toward the
        peer: monitor it and remember the residual it now owes."""
        st = self._entry(peer_id)
        if st is None:
            return
        st.noted.update(seqs)
        st.done = False

    def report_unreachable(self, peer_id: str) -> None:
        """The control plane exhausted its retries toward ``peer_id``."""
        st = self._entry(peer_id)
        if st is None or st.confirmed:
            return
        if not st.suspected:
            self._suspect(peer_id, st)
        self._confirm(peer_id, st)

    # ------------------------------------------------------------------
    # detection loop
    # ------------------------------------------------------------------
    def check(self) -> bool:
        """One detection pass over the monitored peers; wants the next
        one a heartbeat period later until the leaf is complete or
        nothing has been watched for the idle grace."""
        pol = self.policy
        now = self.session.env.now
        watching = False
        # snapshot: a confirmation callback may register fresh
        # expectations (new monitored entries) mid-iteration
        for pid, st in list(self.monitored.items()):
            if st.done or st.confirmed:
                continue
            watching = True
            silent = now - st.last_heard
            phi = (
                self._phi(st, now) if pol.mode == "accrual" else None
            )
            if phi is not None:
                if not st.suspected and phi >= pol.phi_suspect:
                    self._suspect(pid, st, phi=phi)
                if st.suspected and phi >= PHI_CONFIRM:
                    self._confirm(pid, st)
            else:
                # fixed mode — or accrual still bootstrapping its
                # gap window: fall back to the miss-count thresholds
                if not st.suspected and silent >= pol.suspect_misses * self.period:
                    self._suspect(pid, st)
                if st.suspected and silent >= CONFIRM_MISSES * self.period:
                    self._confirm(pid, st)
        if self.session.leaf.decoder.complete:
            return False
        return watching or now - self._last_contact < self._idle_grace

    def _suspect(
        self, peer_id: str, st: PeerHealth, phi: Optional[float] = None
    ) -> None:
        st.suspected_at = self.session.env.now
        false_accusation = peer_id not in self.session.commons.ledger.down
        if false_accusation:
            # ground truth (the fault ledger, metrics only): the peer is
            # actually up — a slow or silent-but-alive peer was accused
            self.false_suspicions += 1
        tracer = self.session.env.hooks.tracer
        if tracer is not None:
            tracer.emit(
                "detector.suspect",
                peer_id,
                false=false_accusation,
                phi=round(phi, 3) if phi is not None else None,
            )

    def _confirm(self, peer_id: str, st: PeerHealth) -> None:
        now = self.session.env.now
        st.confirmed_at = now
        crash = self.session.commons.ledger.crashes.get(peer_id)
        latency = now - crash.ts if crash is not None else None
        if latency is not None:
            self.detection_latencies[peer_id] = latency
        tracer = self.session.env.hooks.tracer
        if tracer is not None:
            tracer.emit("detector.confirm", peer_id, latency=latency)
        if self.on_confirm is not None:
            self.on_confirm(peer_id)

    def __repr__(self) -> str:
        return (
            f"<FailureDetector {len(self.monitored)} monitored, "
            f"{len(self.suspects)} suspect, "
            f"{len(self.confirmed_failures)} confirmed>"
        )
