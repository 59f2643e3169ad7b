"""Protocol auditors: the paper's invariants, checked over a run's log.

The :class:`~repro.obs.trace.TraceBus` records *what* a run did; this
module checks that what it did was *correct by the paper's own
definitions*.  Each :class:`Auditor` declares the dotted-taxonomy event
kinds it reads (its ``handlers``) and, when the run finishes, reads them
in emit order (:func:`~repro.obs.trace.feed`), maintaining one protocol
invariant:

* :class:`TreeAuditor` — TCoP's §3 tree property: at most one confirmed
  parent per contents peer, no parent cycles, and every activated peer's
  parent chain leads back to the leaf through activated ancestors;
* :class:`AllocationAuditor` — the §2 packet-allocation property: every
  sender's per-stream data subsequence is ascending, transmitted
  subsequences are disjoint, and their union covers the content (each
  seq's transmissions are read off the run's
  :class:`~repro.net.ledger.PacketLedger`);
* :class:`ParityAuditor` — §3.2's parity enhancement: an independent
  :class:`~repro.fec.decoder.ParityDecoder` model is fed from ``media.rx``
  events, every ``fec.recover`` claim is checked against it, segments that
  lost two or more members are flagged unrecoverable, and (when payloads
  are concrete) the XOR reconstruction must byte-match the content;
* :class:`CausalAuditor` — coordination messages respect causality:
  no receive without a matching prior send, no ``confirm``/``reject``
  without a preceding offer, no ``ack`` without a preceding reliable
  send, counted per (sender, receiver, kind) from the observed
  ``msg.send``/``msg.recv`` flow;
* :class:`DetectorAuditor` — no ``detector.confirm`` against a peer that
  is actually up, and detection latency within the configured bound;
* :class:`QuarantineAuditor` — the gray-failure circuit breaker's
  contract: no assignment traffic to a quarantined peer, readmission
  only through consecutive successful half-open probes, and no
  quarantine at all in a fault-free environment.

Whether an injected fault explains a finding is asked of the run's
:class:`~repro.net.ledger.FaultLedger` by one rule: a finding about peer ``p``
is excused iff a fault touching ``p`` is on record, and is then a warning
whose evidence names that row (:meth:`Auditor.judge`).

Every violation joins the run's log as an ``audit.violation`` (or
``audit.warning``) event carrying the evidence chain, right after the
event that raised it, and is collected
into an :class:`AuditReport` that serializes to JSON.  Auditors are
strictly read-only observers — they never touch the environment — so an
audited equal-seed run follows the identical trajectory to an unaudited
one (pinned by test).

Custom auditors register by name so they are addressable from a
picklable :class:`AuditConfig`::

    from repro.obs.audit import Auditor, register_auditor

    @register_auditor("my_check")
    class MyAuditor(Auditor):
        name = "my_check"

        def _on_crash(self, event):
            self.warning("my_check.crash_seen", event.subject,
                         "a peer crashed", evidence=[event])

        handlers = {"peer.crash": _on_crash}

(``handlers`` declares the kinds it is sent, and the method each one
goes to.)  Offline, :func:`replay_jsonl` feeds a recorded JSONL trace to
the same auditors through the same function — the CI runs this over the
uploaded sample trace.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

from repro.fec.decoder import ParityDecoder
from repro.media.packet import Packet
from repro.obs.trace import CONTROL_KINDS, Observer, TraceEvent, replay

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.ledger import FaultRow, Transmission
    from repro.streaming.session import StreamingSession

__all__ = [
    "AllocationAuditor",
    "AuditConfig",
    "AuditReport",
    "Auditor",
    "CapacityAuditor",
    "CausalAuditor",
    "DetectorAuditor",
    "DuplicateEffectAuditor",
    "ParityAuditor",
    "QuarantineAuditor",
    "TreeAuditor",
    "Violation",
    "available_auditors",
    "build_auditors",
    "describe_event",
    "register_auditor",
    "replay_jsonl",
]

#: message kinds that answer an earlier offer/request
_RESPONSE_KINDS = frozenset({"confirm", "reject"})
#: message kinds that solicit a response
_OFFER_KINDS = frozenset({"request", "offer"})


def describe_event(event: TraceEvent) -> str:
    """Render one event as a compact, deterministic evidence line."""
    payload = event.fields
    inner = " ".join(f"{k}={payload[k]!r}" for k in sorted(payload))
    head = f"[t={event.ts:.3f}] {event.kind} {event.subject}"
    return f"{head} {inner}" if inner else head


def _sent_event(label: Any, tx: "Transmission") -> TraceEvent:
    """The ``media.tx`` event a packet-ledger row was filed from."""
    fields = {"label": label, "stream": tx.stream}
    if tx.off is not None:
        fields["off"] = tx.off
    return TraceEvent(tx.ts, "media.tx", tx.peer, fields)


@dataclass(frozen=True)
class Violation:
    """One invariant breach (or warning) with its evidence chain."""

    auditor: str
    code: str
    subject: str
    ts: float
    message: str
    evidence: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "auditor": self.auditor,
            "code": self.code,
            "subject": self.subject,
            "ts": self.ts,
            "message": self.message,
            "evidence": list(self.evidence),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Violation":
        return cls(
            auditor=data["auditor"],
            code=data["code"],
            subject=data["subject"],
            ts=data["ts"],
            message=data["message"],
            evidence=tuple(data.get("evidence", ())),
        )


# ----------------------------------------------------------------------
# auditor base + registry
# ----------------------------------------------------------------------
class Auditor(Observer):
    """Base class: a read-only streaming observer of one invariant.

    Subclasses declare :attr:`handlers` and optionally :meth:`check`
    (end-of-run checks).  Findings are recorded through
    :meth:`violation`/:meth:`warning`, which also log ``audit.*`` events
    in the run's log; :meth:`finish` returns the auditor's report entry.
    """

    name = "auditor"
    result_field = "audit"

    def __init__(self) -> None:
        self.violations: List[Violation] = []
        self.warnings: List[Violation] = []

    # -- subclass surface ----------------------------------------------
    def check(self, session: Optional["StreamingSession"] = None) -> None:
        """End-of-run checks; default none."""

    def finish(
        self, session: Optional["StreamingSession"] = None
    ) -> Dict[str, Any]:
        """Run the end-of-run checks; the auditor's report entry."""
        self.check(session)
        return self.report_entry()

    def extra(self) -> Dict[str, Any]:
        """Auditor-specific report data merged into the report entry."""
        return {}

    # -- findings ------------------------------------------------------
    def violation(
        self,
        code: str,
        subject: str,
        message: str,
        evidence: Sequence[Union[TraceEvent, str]] = (),
        ts: Optional[float] = None,
    ) -> Violation:
        return self._record(
            self.violations, "audit.violation", code, subject, message,
            evidence, ts,
        )

    def warning(
        self,
        code: str,
        subject: str,
        message: str,
        evidence: Sequence[Union[TraceEvent, str]] = (),
        ts: Optional[float] = None,
    ) -> Violation:
        return self._record(
            self.warnings, "audit.warning", code, subject, message,
            evidence, ts,
        )

    def judge(
        self, code: str, subject: str, message: str, evidence=(), fault: Optional["FaultRow"] = None
    ) -> Violation:
        """A finding a fault may explain: a warning naming ``fault``, the
        ledger row that does, or with none, a violation."""
        if fault is None:
            return self.violation(code, subject, message, evidence)
        return self.warning(code, subject, message, [*evidence, fault.describe()])

    def _record(
        self,
        store: List[Violation],
        kind: str,
        code: str,
        subject: str,
        message: str,
        evidence: Sequence[Union[TraceEvent, str]],
        ts: Optional[float],
    ) -> Violation:
        chain = tuple(
            describe_event(e) if isinstance(e, TraceEvent) else str(e)
            for e in evidence
        )
        if ts is None:  # the run's last event, like events_seen
            ts = self.last_ts
        finding = Violation(
            auditor=self.name,
            code=code,
            subject=subject,
            ts=ts,
            message=message,
            evidence=chain,
        )
        store.append(finding)
        if self._walk is not None:
            self._walk.emit(
                kind,
                self.name,
                code=code,
                about=subject,
                detail=message,
                evidence=chain,
            )
        return finding

    @property
    def passed(self) -> bool:
        return not self.violations

    def report_entry(self) -> Dict[str, Any]:
        return {
            "passed": self.passed,
            "events_seen": self.events_seen,
            "violations": [v.to_dict() for v in self.violations],
            "warnings": [w.to_dict() for w in self.warnings],
            **self.extra(),
        }

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {len(self.violations)} violations, "
            f"{len(self.warnings)} warnings, {self.events_seen} events>"
        )


_AUDITORS: Dict[str, Type[Auditor]] = {}


def register_auditor(name: str, cls: Optional[Type[Auditor]] = None):
    """Register an auditor class under ``name`` (usable as a decorator)."""

    def install(klass: Type[Auditor]) -> Type[Auditor]:
        if name in _AUDITORS:
            raise ValueError(f"auditor {name!r} is already registered")
        _AUDITORS[name] = klass
        return klass

    if cls is None:
        return install
    return install(cls)


def available_auditors() -> List[str]:
    """Registered auditor names."""
    return sorted(_AUDITORS)


# ----------------------------------------------------------------------
# the five auditors
# ----------------------------------------------------------------------
@register_auditor("tree")
class TreeAuditor(Auditor):
    """TCoP §3: one confirmed parent, acyclic, rooted at the leaf.

    Consumes ``peer.attach``/``peer.detach`` (emitted at TCoP's
    confirm/watchdog/reissue sites) and ``peer.activate``.  Protocols
    that never attach (DCoP's redundant flooding) trivially pass.
    """

    name = "tree"

    def __init__(self) -> None:
        super().__init__()
        self._parent: Dict[str, str] = {}
        self._attach_event: Dict[str, TraceEvent] = {}
        self._activated: Dict[str, TraceEvent] = {}
        self._attachments = 0

    def _on_detach(self, event: TraceEvent) -> None:
        self._parent.pop(event.subject, None)
        self._attach_event.pop(event.subject, None)

    def _on_activate(self, event: TraceEvent) -> None:
        self._activated.setdefault(event.subject, event)

    def _on_attach(self, event: TraceEvent) -> None:
        child = event.subject
        parent = event.fields.get("parent")
        self._attachments += 1
        if child in self._parent:
            self.violation(
                "tree.multi_parent",
                child,
                f"{child} attached to {parent!r} while still attached to "
                f"{self._parent[child]!r} (no detach in between)",
                evidence=[self._attach_event[child], event],
            )
        # cycle check: walking up from the new parent must not reach the
        # child through live attachments
        chain: List[str] = []
        cursor: Optional[str] = parent
        seen: set = set()
        while cursor is not None and cursor not in seen:
            seen.add(cursor)
            chain.append(cursor)
            if cursor == child:
                self.violation(
                    "tree.cycle",
                    child,
                    f"attaching {child} under {parent!r} closes a parent "
                    f"cycle: {' -> '.join([child, *chain])}",
                    evidence=[event],
                )
                break
            cursor = self._parent.get(cursor)
        self._parent[child] = parent
        self._attach_event[child] = event

    handlers = {
        "peer.attach": _on_attach,
        "peer.detach": _on_detach,
        "peer.activate": _on_activate,
    }

    def check(self, session: Optional["StreamingSession"] = None) -> None:
        # every activated peer with a live attachment must chain back to
        # the leaf through ancestors that themselves activated; a chain
        # that simply ends (a leaf-issued start, e.g. after reissue) is a
        # valid root
        for pid, activate in self._activated.items():
            cursor = self._parent.get(pid)
            visited = {pid}
            while cursor is not None and cursor != self.leaf_id:
                if cursor in visited:
                    break  # cycle was already reported at attach time
                if cursor not in self._activated:
                    self.violation(
                        "tree.unreachable",
                        pid,
                        f"{pid} activated under ancestor {cursor!r} that "
                        "never activated — its subtree is detached from "
                        "the leaf",
                        evidence=[activate, self._attach_event[pid]],
                    )
                    break
                visited.add(cursor)
                cursor = self._parent.get(cursor)

    def extra(self) -> Dict[str, Any]:
        return {"attachments": self._attachments}


@register_auditor("allocation")
class AllocationAuditor(Auditor):
    """§2's packet allocation: ascending, disjoint, covering.

    Consumes ``media.tx``/``media.rx``; who sent a seq first is the
    packet ledger's first row for it.  After a re-coordination or a
    repair a data packet may legitimately be transmitted twice (the
    residual of a dead or silent peer is re-flooded), so from then on
    double transmission/delivery is a warning; before, only a fault
    touching a peer involved excuses it.  A crash or a lost coordination
    message excuses a coverage gap.
    """

    name = "allocation"

    def __init__(self) -> None:
        super().__init__()
        #: (sender, stream) -> last data seq transmitted
        self._last_seq: Dict[Tuple[str, Any], int] = {}
        #: data seq -> first delivery event at the leaf.  Kept here, not
        #: read off the ledger: a replay hands over the ledger complete,
        #: and "is this the seq's first arrival?" is asked per event
        self._delivered: Dict[int, TraceEvent] = {}
        #: a reissue or repair was seen: packets may now travel twice
        self._relaxed = False

    def _relax(self, event: TraceEvent) -> None:
        self._relaxed = True

    def _on_send(self, event: TraceEvent) -> None:
        if event.fields.get("kind") == "repair":
            self._relaxed = True

    def _twice(self, code, subject, message, evidence, *peers) -> None:
        """A data packet sent or delivered twice, ``peers`` involved."""
        if self._relaxed:
            self.warning(code, subject, message, evidence)
        else:
            self.judge(code, subject, message, evidence, self.ledger.touching(*peers))

    def _on_tx(self, event: TraceEvent) -> None:
        payload = event.fields
        label = payload.get("label")
        if not isinstance(label, int):
            return  # parity packets carry no ordering/coverage obligation
        key = (event.subject, payload.get("stream"))
        last = self._last_seq.get(key)
        if last is not None and label <= last:
            self.violation(
                "alloc.tx_order",
                event.subject,
                f"{event.subject} transmitted data seq {label} after seq "
                f"{last} on the same stream — per-stream subsequences "
                "must ascend (§2 packet allocation)",
                evidence=[event],
            )
        self._last_seq[key] = label
        first = self.packets.sent[label][0]
        if (first.peer, first.stream) != key:
            self._twice(
                "alloc.double_assignment",
                event.subject,
                f"data seq {label} transmitted by {event.subject} but "
                f"already transmitted by {first.peer} — assigned "
                "subsequences must be disjoint",
                [_sent_event(label, first), event],
                first.peer, event.subject,
            )

    def _on_rx(self, event: TraceEvent) -> None:
        label = event.fields.get("label")
        if not isinstance(label, int):
            return
        prior = self._delivered.get(label)
        if prior is None:
            self._delivered[label] = event
            return
        src = event.fields.get("src")
        self._twice(
            "alloc.duplicate_delivery",
            self.leaf_id,
            f"data seq {label} delivered to the leaf twice "
            f"(from {prior.fields.get('src')!r} and {src!r})",
            [prior, event],
            self.leaf_id, prior.fields.get("src"), src,
        )

    handlers = {
        "media.tx": _on_tx,
        "media.rx": _on_rx,
        "recoord.reissue": _relax,
        "msg.send": _on_send,
    }

    def _data_sent(self) -> List[int]:
        return [label for label in self.packets.sent if isinstance(label, int)]

    def check(self, session: Optional["StreamingSession"] = None) -> None:
        sent = self._data_sent()
        n = self.n_packets
        if n is None and sent:
            n = max(sent)
        if not n:
            return
        missing = sorted(set(range(1, n + 1)) - set(sent))
        if missing:
            shown = ", ".join(str(s) for s in missing[:10])
            if len(missing) > 10:
                shown += f", … ({len(missing)} total)"
            # a crashed peer or a lost assignment legitimately leaves a
            # share unsent; only a run with neither owes full coverage
            self.judge(
                "alloc.coverage_gap",
                self.leaf_id,
                f"data seqs never transmitted by any peer: {shown} — the "
                "union of assigned subsequences must cover the content",
                fault=self.ledger.lost_work(),
            )

    def extra(self) -> Dict[str, Any]:
        return {
            "data_seqs_transmitted": len(self._data_sent()),
            "data_seqs_delivered": len(self._delivered),
        }


@register_auditor("parity")
class ParityAuditor(Auditor):
    """§3.2's parity enhancement, checked against an independent model.

    A second :class:`~repro.fec.decoder.ParityDecoder` is fed (label-only)
    from ``media.rx`` events; every ``fec.recover`` the leaf claims must
    be reproducible by the model, segments left with two or more missing
    members are flagged unrecoverable (a warning: the loss regime, not
    the protocol, decides that), and with concrete payloads the real
    decoder's XOR reconstruction must byte-match the content.
    """

    name = "parity"

    def __init__(self) -> None:
        super().__init__()
        self._model: Optional[ParityDecoder] = None
        self._recoveries = 0

    def bind(self, session=None, **context):
        super().bind(session, **context)
        # the model needs the content length; without one nothing is
        # modelled
        self._model = ParityDecoder(self.n_packets) if self.n_packets else None
        return self

    def _on_rx(self, event: TraceEvent) -> None:
        model = self._model
        if model is None:
            return
        label = event.fields.get("label")
        if isinstance(label, int) and not 1 <= label <= self.n_packets:
            # data seqs beyond the declared content length would
            # corrupt the model; surface them instead
            self.violation(
                "parity.alien_seq",
                event.subject,
                f"delivered data seq {label} outside the content "
                f"range 1..{self.n_packets}",
                evidence=[event],
            )
            return
        model.add(Packet(label=label))

    def _on_recover(self, event: TraceEvent) -> None:
        self._recoveries += 1
        seq = event.fields.get("seq")
        model = self._model
        if model is not None and not model.has_data(seq):
            self.violation(
                "parity.phantom_recovery",
                event.subject,
                f"leaf claims data seq {seq} recovered, but no parity "
                "constraint over the delivered packets can produce it",
                evidence=[event],
            )

    handlers = {"media.rx": _on_rx, "fec.recover": _on_recover}

    def check(self, session: Optional["StreamingSession"] = None) -> None:
        model = self._model
        if model is not None:
            for parity_label, missing in sorted(
                model.unresolved().items(), key=repr
            ):
                self.warning(
                    "parity.unrecoverable_segment",
                    self.leaf_id,
                    f"segment of parity {parity_label!r} lost "
                    f"{len(missing)} members ({list(missing)!r}) — beyond "
                    "single-loss XOR recovery",
                )
        if session is not None:
            leaf = session.leaf
            if model is not None and model.data_seqs_held() != (
                leaf.decoder.data_seqs_held()
            ):
                self.violation(
                    "parity.model_divergence",
                    self.leaf_id,
                    "the leaf decoder holds a different data set than the "
                    "audit model reconstructed from the delivery trace",
                )
            if session.content.has_payload and not leaf.decoder.verify_against(
                session.content
            ):
                self.violation(
                    "parity.xor_mismatch",
                    self.leaf_id,
                    "an XOR-reconstructed payload does not byte-match the "
                    "source content",
                )

    def extra(self) -> Dict[str, Any]:
        return {"recoveries_checked": self._recoveries}


@register_auditor("causal")
class CausalAuditor(Auditor):
    """Coordination messages respect causality.

    The protocols stamp no vector clocks, so the auditor checks the
    orderings that are enforceable from the observed
    ``msg.send``/``msg.recv`` control flow: a receive needs a matching
    earlier send, a ``confirm``/``reject`` needs a preceding offer from
    its destination, an ``ack`` needs a preceding reliable send from its
    destination.
    """

    name = "causal"

    def __init__(self) -> None:
        super().__init__()
        self._sends: Dict[Tuple[str, str, str], int] = {}
        self._recvs: Dict[Tuple[str, str, str], int] = {}
        self._offered: set = set()
        self._control_pairs: set = set()

    def _on_send(self, event: TraceEvent) -> None:
        src, dst = event.subject, event.fields.get("dst")
        kind = event.fields.get("kind")
        if kind is not None and kind != "packet":
            # *any* non-media send may be reliable and thus solicit an
            # ack — including kinds outside CONTROL_KINDS ("state", AMS's
            # "cbcast" state reports) — so ack pairing tracks them all
            self._control_pairs.add((src, dst))
        if kind not in CONTROL_KINDS:
            return
        key = (src, dst, kind)
        self._sends[key] = self._sends.get(key, 0) + 1
        if kind in _OFFER_KINDS:
            self._offered.add((src, dst))

    def _on_recv(self, event: TraceEvent) -> None:
        kind = event.fields.get("kind")
        if kind not in CONTROL_KINDS:
            return
        if event.fields.get("dup"):
            # a link fault copied the message in flight: the extra
            # copy has a causally prior send (the original's), so it
            # must not count against send/recv conservation
            return
        dst, src = event.subject, event.fields.get("src")
        key = (src, dst, kind)
        self._recvs[key] = self._recvs.get(key, 0) + 1
        if self._recvs[key] > self._sends.get(key, 0):
            self.violation(
                "causal.recv_before_send",
                dst,
                f"{dst} received {kind!r} #{self._recvs[key]} from "
                f"{src} but only {self._sends.get(key, 0)} were sent "
                "— a receive without a causally prior send",
                evidence=[event],
            )
        if kind in _RESPONSE_KINDS and (dst, src) not in self._offered:
            self.violation(
                "causal.unsolicited_response",
                dst,
                f"{dst} received {kind!r} from {src} without ever "
                "offering to it — a response with no request in its "
                "causal past",
                evidence=[event],
            )
        if kind == "ack" and (dst, src) not in self._control_pairs:
            self.violation(
                "causal.unsolicited_ack",
                dst,
                f"{dst} received an ack from {src} without any prior "
                "control send toward it",
                evidence=[event],
            )

    handlers = {"msg.send": _on_send, "msg.recv": _on_recv}


@register_auditor("detector")
class DetectorAuditor(Auditor):
    """Failure detection vs the fault ledger's ground truth.

    A ``detector.confirm`` against a peer that is up is a violation unless
    a fault touched the peer (a cut link, lost heartbeats, a crash since
    rejoined: to an asynchronous detector it looks dead), which the
    excusing warning names.  False suspicions are the price of an
    asynchronous detector and surface as warnings.  A detection latency
    beyond the bound is a violation for a peer that activated, and a
    warning naming the crash for one that crashed before it did.  The
    default bound is ``(CONFIRM_MISSES + 2) · period + 2δ`` from
    :mod:`repro.streaming.detector` and the live session's heartbeat
    period; :attr:`AuditConfig.detection_latency_bound_ms` overrides.
    """

    name = "detector"

    def __init__(self, latency_bound_ms: Optional[float] = None) -> None:
        super().__init__()
        self.latency_bound_ms = latency_bound_ms
        self._confirms = 0
        #: peers that ever activated: only those owe a timely confirm
        self._activated: set = set()

    def bind(self, session=None, **context):
        super().bind(session, **context)
        if (
            self.latency_bound_ms is None
            and session is not None
            and session.detector is not None
        ):
            from repro.streaming.detector import CONFIRM_MISSES

            self.latency_bound_ms = (
                (CONFIRM_MISSES + 2) * session.detector.period
                + 2 * self.delta
            )
        return self

    def _on_activate(self, event: TraceEvent) -> None:
        self._activated.add(event.subject)

    def _on_suspect(self, event: TraceEvent) -> None:
        if event.fields.get("false"):
            self.warning(
                "detector.false_suspicion",
                event.subject,
                f"{event.subject} suspected while actually up",
                evidence=[event],
            )

    def _on_confirm(self, event: TraceEvent) -> None:
        self._confirms += 1
        pid = event.subject
        crash = self.ledger.down.get(pid)
        if crash is None:
            self.judge(
                "detector.false_confirm",
                pid,
                f"detector confirmed {pid} failed while it is up",
                [event],
                self.ledger.touching(pid),
            )
            return
        latency = event.fields.get("latency")
        bound = self.latency_bound_ms
        if latency is not None and bound is not None and latency > bound:
            owed = pid in self._activated
            record = self.violation if owed else self.warning
            record(
                "detector.latency_exceeded",
                pid,
                f"detection latency {latency:.1f} ms exceeds the bound {bound:.1f} ms"
                + ("" if owed else f" — {pid} crashed before it activated"),
                evidence=[crash.describe(), event],
            )

    handlers = {
        "peer.activate": _on_activate,
        "detector.suspect": _on_suspect,
        "detector.confirm": _on_confirm,
    }

    def extra(self) -> Dict[str, Any]:
        return {"confirms_checked": self._confirms}


@register_auditor("quarantine")
class QuarantineAuditor(Auditor):
    """The health monitor's circuit-breaker contract.

    Consumes ``health.quarantine``/``health.probe``/``health.readmit``
    plus the message flow, and checks three invariants:

    * while a peer is quarantined, no coordination work is assigned to
      it — no ``repair``/``adapt`` from anyone, no leaf-originated
      assignment traffic (``request``/``start``/``control``/``offer``/
      ``prepare``/``ready``).  Probes, acks, and heartbeats are the
      breaker's own half-open traffic and always allowed; a send the
      control plane *retransmits* (matching ``msg.retransmit``, same
      instant) predates the quarantine and is excused;
    * readmission happens only through probing: every ``health.readmit``
      needs a live episode and at least ``required`` consecutive
      successful ``health.probe`` events inside it — traffic-driven
      ``touch()`` liveness must never reopen the breaker;
    * the false-quarantine bound: an episode flagged ``false=True``
      (no fault in the ledger touched the peer before it)
      is a violation — in a clean environment the breaker must not trip.
    """

    name = "quarantine"

    #: never allowed toward a quarantined destination, whoever sends
    _FORBIDDEN_ANY = frozenset({"repair", "adapt"})
    #: not allowed from the leaf (the quarantining authority) while open
    _FORBIDDEN_LEAF = frozenset(
        {"request", "start", "control", "offer", "prepare", "ready"}
    )

    def __init__(self) -> None:
        super().__init__()
        #: peer -> the opening health.quarantine event
        self._open: Dict[str, TraceEvent] = {}
        #: peer -> consecutive successful probes in the current episode
        self._ok_streak: Dict[str, int] = {}
        #: (src, dst, kind, ts) of observed control retransmissions
        self._retx: set = set()
        self._episodes = 0
        self._readmissions = 0
        self._retx_excused = 0

    def _on_quarantine(self, event: TraceEvent) -> None:
        self._episodes += 1
        self._open[event.subject] = event
        self._ok_streak[event.subject] = 0
        if event.fields.get("false"):
            self.violation(
                "quarantine.false_quarantine",
                event.subject,
                f"{event.subject} quarantined "
                f"({event.fields.get('reasons')!r}) with no injected fault "
                "that could explain it — the breaker tripped in a "
                "clean environment",
                evidence=[event],
            )

    def _on_probe(self, event: TraceEvent) -> None:
        pid = event.subject
        if pid not in self._open:
            self.violation(
                "quarantine.probe_outside_episode",
                pid,
                f"probe result for {pid} outside any quarantine "
                "episode",
                evidence=[event],
            )
            return
        if event.fields.get("ok"):
            self._ok_streak[pid] = self._ok_streak.get(pid, 0) + 1
        else:
            self._ok_streak[pid] = 0

    def _on_retransmit(self, event: TraceEvent) -> None:
        payload = event.fields
        self._retx.add(
            (event.subject, payload.get("dst"), payload.get("kind"), event.ts)
        )

    def _on_readmit(self, event: TraceEvent) -> None:
        payload = event.fields
        pid = event.subject
        self._readmissions += 1
        opened = self._open.pop(pid, None)
        if opened is None:
            self.violation(
                "quarantine.readmit_without_quarantine",
                pid,
                f"{pid} readmitted without an open quarantine episode",
                evidence=[event],
            )
            return
        required = payload.get("required")
        probes = payload.get("probes")
        streak = self._ok_streak.get(pid, 0)
        if required is not None and (
            probes is None or probes < required or streak < required
        ):
            self.violation(
                "quarantine.readmit_without_probes",
                pid,
                f"{pid} readmitted after {streak} consecutive successful "
                f"probes (reported {probes!r}) where {required} are "
                "required — something other than probing reopened the "
                "breaker",
                evidence=[opened, event],
            )

    def _on_send(self, event: TraceEvent) -> None:
        dst = event.fields.get("dst")
        if dst not in self._open:
            return
        kind = event.fields.get("kind")
        forbidden = kind in self._FORBIDDEN_ANY or (
            event.subject == self.leaf_id and kind in self._FORBIDDEN_LEAF
        )
        if not forbidden:
            return
        if (event.subject, dst, kind, event.ts) in self._retx:
            # a retransmission of a message issued before the breaker
            # opened: the control plane finishing in-flight work is not
            # a fresh assignment
            self._retx_excused += 1
            return
        self.violation(
            "quarantine.assignment_to_quarantined",
            event.subject,
            f"{event.subject} sent {kind!r} to {dst} while {dst} was "
            "quarantined — quarantined peers must be excluded from "
            "selection, repair, and adaptation",
            evidence=[self._open[dst], event],
        )

    handlers = {
        "health.quarantine": _on_quarantine,
        "health.probe": _on_probe,
        "health.readmit": _on_readmit,
        "msg.retransmit": _on_retransmit,
        "msg.send": _on_send,
    }

    def extra(self) -> Dict[str, Any]:
        return {
            "episodes": self._episodes,
            "readmissions": self._readmissions,
            "retransmits_excused": self._retx_excused,
        }


@register_auditor("duplicate_effect")
class DuplicateEffectAuditor(Auditor):
    """Idempotence of the coordination planes under duplicating links.

    Agents emit ``ctrl.apply`` just before acting on a non-packet
    message; every physical copy carries a wire ``uid`` (shared by
    link-level duplicates of one send) and reliable control carries a
    session-unique ``msg_id`` (shared by retransmissions).  One logical
    control message may change receiver state at most once, so a second
    ``ctrl.apply`` at the same receiver for the same ``uid`` — or the
    same ``msg_id`` — means a duplicate slipped past every dedup layer
    and was applied twice.  ``msg.dedup`` events count the suppressions
    that *did* work.
    """

    name = "duplicate_effect"

    def __init__(self) -> None:
        super().__init__()
        #: (receiver, uid) -> first apply event
        self._by_uid: Dict[Tuple[str, int], TraceEvent] = {}
        #: (receiver, msg_id) -> first apply event
        self._by_mid: Dict[Tuple[str, int], TraceEvent] = {}
        self._applied = 0
        self._suppressed = 0

    def _on_dedup(self, event: TraceEvent) -> None:
        self._suppressed += 1

    def _on_apply(self, event: TraceEvent) -> None:
        self._applied += 1
        payload = event.fields
        receiver = event.subject
        kind = payload.get("kind")
        uid = payload.get("uid")
        if uid is not None:
            key = (receiver, uid)
            prior = self._by_uid.get(key)
            if prior is None:
                self._by_uid[key] = event
            else:
                self.violation(
                    "dup.uid_applied_twice",
                    receiver,
                    f"{receiver} applied {kind!r} from "
                    f"{payload.get('src')!r} twice for one wire uid "
                    f"{uid} — a link-level duplicate changed state twice",
                    evidence=[prior, event],
                )
        mid = payload.get("mid")
        if mid is not None:
            key = (receiver, mid)
            prior = self._by_mid.get(key)
            if prior is None:
                self._by_mid[key] = event
            elif prior.fields.get("uid") != uid:
                # same uid was already reported above; a distinct uid
                # with the same msg_id is a retransmission that escaped
                # the control plane's duplicate suppression
                self.violation(
                    "dup.retransmit_applied_twice",
                    receiver,
                    f"{receiver} applied {kind!r} from "
                    f"{payload.get('src')!r} twice for one control "
                    f"msg_id {mid} — a retransmission escaped duplicate "
                    "suppression and changed state twice",
                    evidence=[prior, event],
                )

    handlers = {"msg.dedup": _on_dedup, "ctrl.apply": _on_apply}

    def extra(self) -> Dict[str, Any]:
        return {
            "applies_checked": self._applied,
            "duplicates_suppressed": self._suppressed,
        }


@register_auditor("capacity")
class CapacityAuditor(Auditor):
    """Upload budgets are honored and admission reservations conserved.

    Three invariants of the swarm overload layer (PR: overload-robust
    swarm streaming), all checked purely from trace evidence — so the
    auditor behaves identically in a run and in offline JSONL replay:

    * **budget** — a peer that announced a finite budget
      (``capacity.budget``) never has more ``media.tx`` events in one
      aligned δ-window than ``per_window`` (timestamps re-bucketed with
      the same boundary epsilon the ledger uses);
    * **conservation** — ``admit.grant`` − ``admit.release`` always
      equals the controller's claimed ``active`` count, with at most one
      outstanding grant per leaf and no release without a grant;
    * **no inverted starvation** — a leaf whose admission gave up
      (``admit.give_up``) is never served media, and no admitted leaf
      ends with zero received packets while others were served.

    Inert (vacuously passing) in runs without capacity announcements or
    admission events.
    """

    name = "capacity"

    def __init__(self) -> None:
        super().__init__()
        from repro.net.capacity import WINDOW_EPS

        self._eps = WINDOW_EPS
        #: peer -> (per_window, window_ms) from capacity.budget
        self._budgets: Dict[str, tuple] = {}
        #: peer -> [window index, tx count, flagged?] for the running
        #: window (events arrive in time order, so one bucket suffices)
        self._tx: Dict[str, list] = {}
        self._tx_total = 0
        self._windows_checked = 0
        #: leaf -> grant / release counts
        self._granted: Dict[str, int] = {}
        self._released: Dict[str, int] = {}
        self._active = 0
        self._gave_up: List[str] = []
        #: leaf -> media.rx count (only leaves seen in admit.* events
        #: matter, but counting every subject is simpler and cheap)
        self._served: Dict[str, int] = {}

    def _on_tx(self, event: TraceEvent) -> None:
        budget = self._budgets.get(event.subject)
        if budget is None:
            return
        per_window, window_ms = budget
        win = int(event.ts / window_ms + self._eps)
        self._tx_total += 1
        slot = self._tx.get(event.subject)
        if slot is None or win > slot[0]:
            self._tx[event.subject] = [win, 1, False]
            self._windows_checked += 1
            return
        slot[1] += 1
        if slot[1] > per_window and not slot[2]:
            slot[2] = True
            self.violation(
                "capacity.over_budget",
                event.subject,
                f"{event.subject} sent {slot[1]} media packets in "
                f"δ-window {win} but its announced budget is "
                f"{per_window}/window — the upload ledger was "
                "bypassed",
                evidence=[event],
            )

    def _on_rx(self, event: TraceEvent) -> None:
        self._served[event.subject] = (
            self._served.get(event.subject, 0) + event.fields.get("count", 1)
        )

    def _on_budget(self, event: TraceEvent) -> None:
        self._budgets[event.subject] = (
            int(event.fields["per_window"]),
            float(event.fields["window_ms"]),
        )

    def _on_grant(self, event: TraceEvent) -> None:
        leaf = event.subject
        self._granted[leaf] = self._granted.get(leaf, 0) + 1
        if self._granted[leaf] - self._released.get(leaf, 0) > 1:
            self.violation(
                "capacity.double_grant",
                leaf,
                f"{leaf} was granted admission twice with no release "
                "in between — reservations would leak",
                evidence=[event],
            )
        self._active += 1
        claimed = event.fields.get("active")
        if claimed is not None and claimed != self._active:
            self.violation(
                "capacity.reservation_leak",
                leaf,
                f"admission controller claims {claimed} active "
                f"reservations after granting {leaf} but the event "
                f"ledger says {self._active} (admit − release must "
                "equal active)",
                evidence=[event],
            )

    def _on_release(self, event: TraceEvent) -> None:
        leaf = event.subject
        self._released[leaf] = self._released.get(leaf, 0) + 1
        if self._released[leaf] > self._granted.get(leaf, 0):
            self.violation(
                "capacity.release_unmatched",
                leaf,
                f"{leaf} released a reservation it never held",
                evidence=[event],
            )
        self._active -= 1
        claimed = event.fields.get("active")
        if claimed is not None and claimed != self._active:
            self.violation(
                "capacity.reservation_leak",
                leaf,
                f"admission controller claims {claimed} active "
                f"reservations after releasing {leaf} but the event "
                f"ledger says {self._active}",
                evidence=[event],
            )

    def _on_give_up(self, event: TraceEvent) -> None:
        self._gave_up.append(event.subject)

    handlers = {
        "media.tx": _on_tx,
        "media.rx": _on_rx,
        "capacity.budget": _on_budget,
        "admit.grant": _on_grant,
        "admit.release": _on_release,
        "admit.give_up": _on_give_up,
    }

    def check(self, session: Optional["StreamingSession"] = None) -> None:
        for leaf in self._gave_up:
            served = self._served.get(leaf, 0)
            if served:
                self.violation(
                    "capacity.serve_rejected",
                    leaf,
                    f"{leaf} was refused admission yet received {served} "
                    "media packets — rejected leaves must not consume "
                    "pool capacity",
                )
        admitted = [
            leaf for leaf, g in self._granted.items()
            if g > 0
        ]
        if admitted and any(self._served.get(l, 0) for l in admitted):
            for leaf in admitted:
                if not self._served.get(leaf, 0):
                    self.violation(
                        "capacity.starved_admitted",
                        leaf,
                        f"{leaf} was admitted (and holds a reservation) "
                        "but never received a single media packet while "
                        "other leaves streamed",
                    )

    def extra(self) -> Dict[str, Any]:
        return {
            "budgeted_peers": len(self._budgets),
            "tx_checked": self._tx_total,
            "windows_checked": self._windows_checked,
            "grants": sum(self._granted.values()),
            "releases": sum(self._released.values()),
            "active_at_end": self._active,
        }


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------
#: the full built-in suite, in execution order
DEFAULT_AUDITORS = (
    "tree",
    "allocation",
    "parity",
    "causal",
    "detector",
    "duplicate_effect",
    "quarantine",
)


@dataclass(frozen=True)
class AuditConfig:
    """Which auditors to run (picklable; rides on a ``SessionSpec``).

    Enabling auditing implies tracing: a session whose spec carries an
    ``audit`` config but no ``trace`` config gets a default
    :class:`~repro.obs.trace.TraceConfig`, so there is a log to read.
    The auditors read every event of it, whatever the trace config keeps
    for export.
    """

    auditors: Tuple[str, ...] = DEFAULT_AUDITORS
    #: override for :class:`DetectorAuditor`'s latency bound (ms)
    detection_latency_bound_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.auditors:
            raise ValueError("audit config needs at least one auditor")
        unknown = [a for a in self.auditors if a not in _AUDITORS]
        if unknown:
            known = ", ".join(available_auditors())
            raise ValueError(
                f"unknown auditor(s) {unknown!r} (available: {known})"
            )


def build_auditors(config: AuditConfig) -> List[Auditor]:
    """Instantiate the auditors an :class:`AuditConfig` names."""
    out: List[Auditor] = []
    for name in config.auditors:
        cls = _AUDITORS[name]
        if name == "detector":
            out.append(cls(latency_bound_ms=config.detection_latency_bound_ms))
        else:
            out.append(cls())
    return out


# ----------------------------------------------------------------------
# the report
# ----------------------------------------------------------------------
@dataclass
class AuditReport:
    """Per-run audit verdicts, JSON-serializable."""

    protocol: str
    seed: int
    auditors: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(entry["passed"] for entry in self.auditors.values())

    @property
    def violation_count(self) -> int:
        return sum(
            len(entry["violations"]) for entry in self.auditors.values()
        )

    @property
    def warning_count(self) -> int:
        return sum(len(entry["warnings"]) for entry in self.auditors.values())

    def violations(self) -> List[Violation]:
        """Every violation across all auditors, in auditor order."""
        return [
            Violation.from_dict(v)
            for entry in self.auditors.values()
            for v in entry["violations"]
        ]

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"audit {verdict}: {self.protocol} seed={self.seed} — "
            f"{self.violation_count} violations, "
            f"{self.warning_count} warnings across "
            f"{len(self.auditors)} auditors"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": "audit_report",
            "protocol": self.protocol,
            "seed": self.seed,
            "passed": self.passed,
            "violation_count": self.violation_count,
            "warning_count": self.warning_count,
            "auditors": self.auditors,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "AuditReport":
        if data.get("type") != "audit_report":
            raise ValueError(
                f"not an audit_report payload: {data.get('type')!r}"
            )
        return cls(
            protocol=data["protocol"],
            seed=data["seed"],
            auditors=dict(data["auditors"]),
        )

    def write(self, path: Union[str, Path]) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True)
        )


# ----------------------------------------------------------------------
# offline replay
# ----------------------------------------------------------------------
def replay_jsonl(
    source: Union[str, Path, Iterable[str]],
    config: Optional[AuditConfig] = None,
    leaf_id: str = "leaf",
    n_packets: Optional[int] = None,
    protocol: str = "replay",
    seed: int = -1,
) -> AuditReport:
    """Run the auditor suite over a recorded JSONL trace.

    ``source`` is a path or an iterable of JSONL lines (the format
    :func:`~repro.obs.exporters.trace_to_jsonl` writes).  ``n_packets``
    defaults to the largest data seq observed in ``media.tx``/``media.rx``
    events, which is exact whenever the trace covers the full content.
    The events reach the auditors through the function a run's own do
    (:func:`~repro.obs.trace.replay`).
    """
    auditors = build_auditors(config or AuditConfig())
    entries = replay(source, auditors, leaf_id=leaf_id, n_packets=n_packets)
    return AuditReport(
        protocol, seed, {a.name: e for a, e in zip(auditors, entries)}
    )
