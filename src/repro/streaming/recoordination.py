"""Mid-stream re-coordination: hand a dead peer's residual to survivors.

When the :class:`~repro.streaming.detector.FailureDetector` confirms a
suspect, the leaf computes the crashed peer's *residual* — the data
subsequence it still owed (last reported pending ∪ leaf-noted assignments)
minus everything the leaf already holds or parity can still recover — and
re-floods it through the **running protocol** to surviving peers:

* the residual is parity-enhanced and divided exactly like the leaf's
  initial selection (``Esq``/``Div`` with the configured fault margin);
* delivery reuses each protocol's own machinery via
  :meth:`~repro.core.base.CoordinationProtocol.reissue` — DCoP-style
  protocols get direct ``request`` packets (receivers may flood onward),
  TCoP gets ``start`` packets plus orphaned-subtree re-attachment;
* the re-issued assignments go through the reliable control plane, so a
  second failure mid-handoff is detected and re-coordinated in turn;
* when no live candidate remains, nothing is sent — the
  :class:`~repro.streaming.repair.RepairMonitor` (when configured) stays
  as the fallback of last resort.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List

from repro.core.base import Assignment, divide_evenly, pick
from repro.media.packet import DataPacket
from repro.media.sequence import PacketSequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.streaming.session import StreamingSession


def data_seqs_of(assignment: Assignment) -> List[int]:
    """The data sequence numbers an assignment's plan will transmit."""
    return [
        pkt.label for pkt in assignment.build_plan() if not pkt.is_parity
    ]


@dataclass(frozen=True)
class HandoffRecord:
    """One completed re-coordination, for metrics."""

    peer_id: str
    at: float
    residual_size: int
    targets: tuple[str, ...]
    #: ms from the ground-truth crash to the residual re-flood (None when
    #: the confirmed peer never actually crashed — a false confirmation)
    latency: float | None


class ReCoordinator:
    """Leaf-side residual re-flooding driven by detector confirmations."""

    def __init__(self, session: "StreamingSession") -> None:
        self.session = session
        self.handoffs: List[HandoffRecord] = []
        self._rng = session.streams.get("recoord/leaf")

    @property
    def recoordinations(self) -> int:
        return len(self.handoffs)

    # ------------------------------------------------------------------
    def handle_failure(self, peer_id: str) -> None:
        """Detector-confirmed failure: re-flood the residual, if any."""
        self.reissue_residual(peer_id)

    def reissue_residual(self, peer_id: str) -> None:
        """Re-flood whatever the peer still owes to picked survivors.

        Shared by the confirm path and the health monitor's proactive
        quarantine handoff — a quarantined peer's residual moves *before*
        any crash confirmation.
        """
        session = self.session
        detector = session.detector
        assert detector is not None
        residual = sorted(detector.residual_of(peer_id))
        if not residual:
            return
        targets = self._pick_targets(peer_id)
        if not targets:
            # nobody left to serve it — RepairMonitor is the last resort
            return
        assignments = self._divide(residual, targets)
        for pid, assignment in assignments.items():
            # remember what each target now owes so a cascading failure
            # re-coordinates its share again
            detector.expect(pid, data_seqs_of(assignment))
        crash = session.commons.ledger.crashes.get(peer_id)
        now = session.env.now
        self.handoffs.append(
            HandoffRecord(
                peer_id=peer_id,
                at=now,
                residual_size=len(residual),
                targets=tuple(assignments),
                latency=now - crash.ts if crash is not None else None,
            )
        )
        if session.env.hooks.tracer is not None:
            session.env.hooks.tracer.emit(
                "recoord.reissue",
                peer_id,
                residual=len(residual),
                targets=len(assignments),
            )
        session.protocol.reissue(session, peer_id, assignments)

    # ------------------------------------------------------------------
    def _pick_targets(self, failed: str) -> List[str]:
        """Up to H survivors, active peers first (they already stream)."""
        session = self.session
        detector = session.detector
        suspects = detector.suspects if detector is not None else set()
        health = session.health
        candidates = [
            pid
            for pid in session.peer_ids
            if pid != failed
            and pid not in suspects
            and not session.peers[pid].crashed
            and (health is None or not health.is_quarantined(pid))
        ]
        if not candidates:
            return []
        active = [p for p in candidates if session.peers[p].active]
        pool = active if active else candidates
        return pick(self._rng, pool, min(session.config.H, len(pool)))

    def _divide(
        self, residual: List[int], targets: List[str]
    ) -> Dict[str, Assignment]:
        """Initial-selection-style division of the residual sequence."""
        cfg = self.session.config
        content = self.session.content
        basis = PacketSequence(
            DataPacket(seq, content.payload(seq)) for seq in residual
        )
        plan = divide_evenly(basis, cfg.tau, len(targets), cfg.fault_margin)
        return dict(zip(targets, plan.assignments))
