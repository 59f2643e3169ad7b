"""The run's two ledgers: every injected fault, and the media plane per seq.

**Faults.**
Each injector files each instance it fires, once, through
:meth:`FaultLedger.record` with the trace kind and payload it publishes:
crashes and rejoins (flap legs and churn included) and degradations,
partition splits and heals with every link they cut or restore, every
lost message with its reason (media too), and the copies and hold-backs
of link faults.  The ledger keeps one :class:`FaultRow` per call, then
hands the same payload dict to the run's trace bus as the event's, if
there is a bus; the walk that feeds a run's log to its observers
(:func:`repro.obs.trace.feed`) files the logged fault events into a
fresh ledger through the same :meth:`FaultLedger.add`, so the observers
see the rows filed up to the event at hand, and a run and the replay of
its trace hold equal ledgers.  The ledger works with the bus off, draws
no RNG, schedules no event and reorders no emit.

The oracles read it by one rule: a finding about peer ``p`` is explained
by a fault iff a row *touches* ``p`` — ``p``'s node, a directed link with
``p`` at one end, a message to or from ``p`` — and names that row.

**Packets.**  :class:`PacketLedger` is the same shape for the media plane:
its emit sites file each transmission, arrival, parity recovery and
playback through :meth:`PacketLedger.record`, which publishes the event
unchanged, its payload dict included; a replay files the recorded
events through the same :meth:`PacketLedger.add` (a
:class:`~repro.obs.trace.TraceEvent` is its arguments in order).  It is
the one per-seq record of a run — what §2's allocation property (each
seq sent once, the sends covering the content) and §3.2's recovery are
statements about — and exists only when the run has a trace bus.
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

    #: the trace kinds faults are published as: what a walk files
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
        #: links cut now -> the sever rows of the cuts still open on
        #: each, oldest first
        self.cuts: Dict[Tuple[str, str], List[FaultRow]] = {}
        #: every sever row, in order: a heal's ``cut`` is an index here,
        #: which a log filtered by category keeps (both are ``link.*``)
        self.severs: List[FaultRow] = []

    def record(self, kind: str, subject: str, /, **fields: Any) -> FaultRow:
        """A fault fired now: file its row, then publish it as a trace event."""
        row = self.add(self.env.now, kind, subject, fields)
        if self.env.hooks.tracer is not None:
            self.env.hooks.tracer._store(kind, subject, fields)
        return row

    def add(self, ts: float, kind: str, subject: str, fields: Mapping[str, Any]) -> FaultRow:
        """File one row: what :meth:`record` and a walk over a log share."""
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
            self.severs.append(row)
            self.cuts.setdefault(ends, []).append(row)
        elif kind == "link.heal" and ends in self.cuts:
            held = self.cuts[ends]
            # a heal logged before heals named their cut closes the oldest
            cut = self.severs[fields["cut"]] if "cut" in fields else held[0]
            if cut in held:
                held.remove(cut)
            if not held:
                del self.cuts[ends]
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


class Transmission(NamedTuple):
    """One send of a media packet."""

    ts: float
    peer: str
    stream: Any
    #: nominal send offset inside a media batch (None: sent on its own)
    off: Optional[float]


class Arrival(NamedTuple):
    """One media packet accepted by a leaf."""

    ts: float
    src: Optional[str]
    #: time coalesced behind slower batch-mates (None: arrived on its own)
    wait: Optional[float]
    leaf: str


class PacketLedger:
    """The run's one per-seq record of the media plane (see the module doc)."""

    #: the trace kinds it files: what a replay rebuilds it from
    kinds = frozenset({"media.tx", "media.rx", "fec.recover", "buffer.play"})

    def __init__(self, env: Optional["Environment"] = None) -> None:
        self.env = env  #: stamps what :meth:`record` files (None: replay only)
        #: label -> its transmissions, in emit order
        self.sent: Dict[Any, List[Transmission]] = {}
        #: label -> its arrivals at any leaf, in emit order
        self.arrived: Dict[Any, List[Arrival]] = {}
        #: (leaf, data seq) -> when parity first recovered it
        self.recovered: Dict[Tuple[str, int], float] = {}
        #: (leaf, data seq) -> when playback first consumed it
        self.played: Dict[Tuple[str, int], float] = {}

    def record(self, kind: str, subject: str, /, **fields: Any) -> None:
        """A media event happened now: file it, then publish it."""
        self.add(self.env.now, kind, subject, fields)
        self.env.hooks.tracer._store(kind, subject, fields)

    def add(self, ts: float, kind: str, subject: str, fields: Mapping[str, Any]) -> None:
        """File one row: what :meth:`record` and a replay share."""
        if kind == "media.tx":
            self.sent.setdefault(fields["label"], []).append(
                Transmission(ts, subject, fields.get("stream"), fields.get("off"))
            )
        elif kind == "media.rx":
            self.arrived.setdefault(fields["label"], []).append(
                Arrival(ts, fields.get("src"), fields.get("wait"), subject)
            )
        elif kind == "fec.recover":
            self.recovered.setdefault((subject, fields["seq"]), ts)
        else:  # buffer.play
            self.played.setdefault((subject, fields["seq"]), ts)
