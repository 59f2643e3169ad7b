"""The fault ledger: every injected fault instance of one run, as rows.

Each injector files each instance it fires, once, through
:meth:`FaultLedger.record` with the trace kind and payload it publishes:
crashes and rejoins (flap legs and churn included) and degradations,
partition splits and heals with every link they cut or restore, every
lost message with its reason (media too), and the copies and hold-backs
of link faults.  The ledger keeps one :class:`FaultRow` per call, then
publishes the event on the run's trace bus, if there is one; a replay
files the recorded events through the same :meth:`FaultLedger.add`, so a
live run and the replay of its trace hold equal ledgers.  The ledger
works with the bus off, draws no RNG, schedules no event and reorders no
emit.

The oracles read it by one rule: a finding about peer ``p`` is explained
by a fault iff a row *touches* ``p`` — ``p``'s node, a directed link with
``p`` at one end, a message to or from ``p`` — and names that row.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Mapping, NamedTuple, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment


class FaultRow(NamedTuple):
    """One fault instance.  ``src`` is the peer it hit, or the source of
    the link or message it hit (``dst`` its destination); ``reason`` is
    why a message was lost and ``msg`` that message's kind."""

    seq: int  #: position in the ledger: how a finding names the row
    ts: float
    kind: str  #: the trace kind it was published as
    subject: str
    src: Optional[str]
    dst: Optional[str]
    reason: Optional[str]
    msg: Optional[str]
    uid: Optional[int]
    mid: Optional[int]

    def describe(self) -> str:
        """One evidence line: ``fault#<seq> [t=…] <kind> <where> …``."""
        where = self.src if self.dst is None else f"{self.src}->{self.dst}"
        parts = [f"fault#{self.seq} [t={self.ts:.3f}] {self.kind} {where or self.subject}"]
        for name in ("msg", "reason", "uid", "mid"):
            if getattr(self, name) is not None:
                parts.append(f"{name}={getattr(self, name)}")
        return " ".join(parts)


class FaultLedger:
    """The run's one record of what was injected (see the module doc)."""

    #: the trace kinds faults are published as: what a replay files
    kinds = frozenset({
        "peer.crash", "peer.rejoin", "peer.degrade", "partition.split", "partition.heal",
        "link.sever", "link.heal", "msg.drop", "link.duplicate", "link.delay",
    })

    def __init__(self, env: Optional["Environment"] = None) -> None:
        self.env = env  #: stamps what :meth:`record` files (None: replay only)
        self.rows: List[FaultRow] = []
        self._latest: Dict[str, FaultRow] = {}  # peer -> latest row touching it
        self.crashes: Dict[str, FaultRow] = {}  #: peer -> its latest crash row
        self.down: Dict[str, FaultRow] = {}  #: peers down now -> their crash row
        self.cuts: Dict[Tuple[str, str], FaultRow] = {}  #: links cut now -> the cut's row

    def record(self, kind: str, subject: str, /, **fields: Any) -> FaultRow:
        """A fault fired now: file its row, then publish it as a trace event."""
        row = self.add(self.env.now, kind, subject, fields)
        if self.env.hooks.tracer is not None:
            self.env.hooks.tracer.emit(kind, subject, **fields)
        return row

    def on_event(self, event) -> None:
        """A recorded fault event, fed back by a replay."""
        self.add(event.ts, event.kind, event.subject, event.fields)

    def add(self, ts: float, kind: str, subject: str, fields: Mapping[str, Any]) -> FaultRow:
        """File one row: what :meth:`record` and :meth:`on_event` share."""
        if kind.startswith("partition."):
            ends: Tuple[Optional[str], Optional[str]] = (None, None)
        elif kind == "msg.drop" and "dst" not in fields:
            ends = (fields.get("src"), subject)  # dst_down: the receiver
        else:
            ends = (subject, fields.get("dst"))
        row = FaultRow(
            len(self.rows), ts, kind, subject, *ends, fields.get("reason"),
            fields.get("kind"), fields.get("uid"), fields.get("mid"),
        )
        self.rows.append(row)
        for end in ends:
            if end is not None:
                self._latest[end] = row
        if kind == "peer.crash":
            self.crashes[subject] = self.down[subject] = row
        elif kind == "peer.rejoin":
            self.down.pop(subject, None)
        elif kind == "link.sever":
            self.cuts[ends] = row
        elif kind == "link.heal":
            self.cuts.pop(ends, None)
        return row

    def touching(self, *peers: str) -> Optional[FaultRow]:
        """The latest row touching any of ``peers``."""
        rows = [self._latest[p] for p in peers if p in self._latest]
        return max(rows, key=lambda row: row.seq, default=None)

    def lost_work(self) -> Optional[FaultRow]:
        """The latest crash or lost coordination (non-media) message: the
        faults that can leave part of the content assigned to nobody."""
        for row in reversed(self.rows):
            if row.kind == "peer.crash" or (
                row.kind == "msg.drop" and row.msg not in ("packet", "packet_batch")
            ):
                return row
        return None
