"""The trace bus: typed, time-stamped events from every simulation layer.

A :class:`TraceBus` is created by the session when a :class:`TraceConfig`
is passed and hung on the environment (``env.hooks.tracer``); every
instrumentation site in the engine, the overlay, the protocols, and the
streaming agents publishes through it with a single guarded call::

    tr = self.env.hooks.tracer
    if tr is not None:
        tr.emit("msg.send", src, dst=dst, kind=kind)

so a session without tracing pays exactly one ``None`` check per hook.

Event kinds form a dotted taxonomy; the prefix before the first dot is
the event's *category*, which :attr:`TraceConfig.categories` selects
for export on:

========== =====================================================
category   kinds
========== =====================================================
``msg``    ``msg.send`` ``msg.recv`` ``msg.drop``
           ``msg.retransmit`` ``msg.give_up``
           ``msg.ack`` (sender observed the first ack of a reliable mid)
           ``msg.dedup`` (agent suppressed a link-fault duplicate)
``peer``   ``peer.activate`` ``peer.crash`` ``peer.rejoin``
           ``peer.degrade`` (a peer's streams slowed by a factor)
           ``peer.stream_start``
``wave``   ``wave.start`` ``wave.end`` (flooding-wave δ-rounds)
``detector`` ``detector.suspect`` ``detector.confirm``
``health`` ``health.quarantine`` ``health.probe`` ``health.readmit``
           (the gray-failure circuit breaker's state changes)
``buffer`` ``buffer.underrun`` ``buffer.overrun``
           ``buffer.skip`` (playback gave a stalled packet up)
           ``buffer.play`` (playback consumed a frame)
``recoord`` ``recoord.reissue``
``media``  ``media.tx`` ``media.rx`` (per-packet stream plane)
``fec``    ``fec.recover`` (parity reconstruction of a lost packet)
``link``   ``link.sever`` ``link.heal`` (directed link cuts)
           ``link.duplicate`` (a fault delivered extra copies)
           ``link.delay`` (a fault held a delivered copy back)
``partition`` ``partition.split`` ``partition.heal``
``ctrl``   ``ctrl.apply`` (a control message actually changed state —
           the duplicate-effect audit's evidence stream)
``capacity`` ``capacity.budget`` (a finite upload budget came online)
           ``capacity.queue`` (backpressure: a send waited for a window)
           ``capacity.shed`` (the uplink queue overflowed and dropped)
``admit``  ``admit.request`` ``admit.grant`` ``admit.reject``
           ``admit.retry`` ``admit.give_up`` ``admit.release``
           (swarm admission-control decisions; see
           :mod:`repro.streaming.swarm`)
``audit``  ``audit.violation`` ``audit.warning`` (auditor verdicts)
========== =====================================================

The fault kinds — ``peer.crash``/``rejoin``/``degrade``, ``link.*``, ``partition.*``
and ``msg.drop`` — are published by the run's :class:`~repro.net.ledger.FaultLedger`,
and ``media.tx``/``media.rx``/``fec.recover``/``buffer.play`` by its
:class:`~repro.net.ledger.PacketLedger`.

The bus only records.  The run's own consumers — auditors, the span
builder, the time-series sampler — share one :class:`Observer` lifecycle:
bound when the run is built, they read the run's complete log once, at
finish (build-time events such as ``capacity.budget`` included), through
:func:`feed`, which hands each event to the observers
whose ``handlers`` name its kind.  :func:`replay` is the same function
over a recorded JSONL trace.

All payload values are JSON primitives, so a trace serializes verbatim
(see :mod:`repro.obs.exporters`) and two equal-seed runs produce
byte-identical dumps.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from operator import itemgetter
from types import MappingProxyType
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.net.ledger import FaultLedger, PacketLedger

if TYPE_CHECKING:  # pragma: no cover
    from pathlib import Path

    from repro.sim.engine import Environment

    from repro.streaming.session import StreamingSession

#: message kinds that belong to the coordination plane (not media)
CONTROL_KINDS: FrozenSet[str] = frozenset(
    {"request", "control", "confirm", "reject", "start", "offer",
     "prepare", "ready", "ack", "heartbeat", "repair", "adapt"}
)


_NO_FIELDS: Mapping[str, Any] = MappingProxyType({})


class TraceEvent(NamedTuple):
    """One observation: simulated time, dotted kind, subject, payload."""

    ts: float
    kind: str
    subject: str
    #: the payload — one mapping per event, shared by every reader: read
    #: it in place, take :meth:`payload` for a copy to change
    fields: Mapping[str, Any] = _NO_FIELDS

    @property
    def category(self) -> str:
        return self.kind.split(".", 1)[0]

    @property
    def data(self) -> Tuple[Tuple[str, Any], ...]:
        """The payload as key-sorted pairs."""
        return tuple(sorted(self.fields.items()))

    def payload(self) -> Dict[str, Any]:
        """A private copy of the payload."""
        return dict(self.fields)


#: builds a :class:`TraceEvent` from its four values in one C call,
#: skipping the NamedTuple's Python-level ``__new__``
_tuple_new = tuple.__new__


@dataclass(frozen=True)
class TraceConfig:
    """What to export and how much.

    The bus stores every event, and the run's observers read them
    unfiltered; these choose what :meth:`TraceBus.finalize` keeps for
    export.
    ``categories=None`` keeps every category; otherwise only kinds whose
    prefix is listed.  ``max_events`` bounds the exported log — past it,
    further events are counted (``TraceBus.dropped_events``) but not
    kept.  A traced single-leaf run also samples its time series
    (:class:`~repro.obs.metrics.TimeSeriesSampler`).
    """

    categories: Optional[FrozenSet[str]] = None
    max_events: int = 200_000

    def __post_init__(self) -> None:
        if self.max_events < 1:
            raise ValueError("max_events must be >= 1")

    def wants(self, kind: str) -> bool:
        return (
            self.categories is None
            or kind.split(".", 1)[0] in self.categories
        )


@dataclass
class TraceBus:
    """Session-owned event recorder every instrumented layer publishes to.

    :meth:`emit` appends every event to :attr:`events`, in emit order,
    and does nothing else; the run's observers read the log once, at
    finish (:func:`feed`), whatever :attr:`config` exports.
    :meth:`finalize` then keeps what :attr:`config` asks to export and
    counts events by kind.
    """

    config: TraceConfig
    env: "Environment"
    #: every event emitted, in emit order; after :meth:`finalize`, the
    #: kept ones in time order
    events: List[TraceEvent] = field(default_factory=list)
    #: events :meth:`finalize` dropped at the ``max_events`` cap (not by
    #: category filters)
    dropped_events: int = 0
    #: every subject that should get its own exporter track (leaf + peers)
    participants: List[str] = field(default_factory=list)
    #: kind -> events (packets, for batched media) of the complete log,
    #: filled by :meth:`finalize`
    counts_by_kind: Dict[str, int] = field(default_factory=dict)
    #: the flooding rounds a ``wave.start`` was recorded for
    _waves_seen: set = field(default_factory=set)
    _finalized: bool = False

    # ------------------------------------------------------------------
    def emit(self, kind: str, subject: str, /, **data: Any) -> None:
        """Record one event at the current simulated time.

        ``data`` — the fresh dict this call owns — becomes the event's
        one payload.
        """
        self._store(kind, subject, data)

    def _store(self, kind: str, subject: str, data: Dict[str, Any]) -> None:
        """What :meth:`emit` does with its keywords packed: ``data`` (which
        the caller hands over and no longer changes) becomes the payload.
        The run's ledgers publish their rows through it."""
        self.events.append(
            _tuple_new(TraceEvent, (self.env.now, kind, subject, data))
        )

    def wave_start(self, round_: int, subject: str, /, **data: Any) -> None:
        """Emit ``wave.start`` once per flooding round (first sender wins)."""
        if round_ in self._waves_seen:
            return
        self._waves_seen.add(round_)
        self.emit("wave.start", subject, round=round_, **data)

    # ------------------------------------------------------------------
    def of_kind(self, kind: str) -> List[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def finalize(self) -> None:
        """Keep what :attr:`config` exports, and close flooding waves.

        Every event is counted in :attr:`counts_by_kind` (a batched media
        event as the ``count`` packets it covers, so batched and unbatched
        runs of one spec report identical totals); the log keeps the kinds
        whose category :attr:`TraceConfig.categories` lists, up to
        ``max_events`` in emit order, and counts the rest of those in
        :attr:`dropped_events`.  With no category filter and a log under
        the cap, the log stays as it is.

        A wave's end is not locally observable while flooding (the last
        activation of round *r* may land anywhere in the overlay), so the
        session calls this at collection time: each round that kept an
        activation gets a ``wave.end`` stamped at its last activation
        instant, placed after every kept event of the same or an earlier
        time.  Every event is stamped with the clock, which never runs
        back, so the log is in time order and that place is where a stable
        sort by time would put it.
        """
        if self._finalized:
            return  # collect ran twice
        self._finalized = True
        config, counts, events = self.config, self.counts_by_kind, self.events
        activations = []
        for event in events:
            kind = event[1]
            counts[kind] = counts.get(kind, 0) + event[3].get("count", 1)
            if kind == "peer.activate":
                activations.append(event)
        if config.categories is not None or len(events) > config.max_events:
            wants = {kind: config.wants(kind) for kind in counts}
            wanted = [event for event in events if wants[event[1]]]
            events = self.events = wanted[: config.max_events]
            self.dropped_events += len(wanted) - len(events)
            activations = [event for event in events if event[1] == "peer.activate"]
        if not config.wants("wave.end"):
            return
        last_by_round: Dict[int, float] = {}
        count_by_round: Dict[int, int] = {}
        for ts, _, _, fields in activations:
            r = fields["round"]
            last_by_round[r] = max(last_by_round.get(r, ts), ts)
            count_by_round[r] = count_by_round.get(r, 0) + 1
        for r in sorted(last_by_round):
            ts = last_by_round[r]
            events.insert(
                bisect_right(events, ts, key=itemgetter(0)),
                TraceEvent(
                    ts, "wave.end", "session",
                    {"activated": count_by_round[r], "round": r},
                ),
            )

    def __repr__(self) -> str:
        return (
            f"<TraceBus {len(self.events)} events, "
            f"{self.dropped_events} dropped>"
        )


#: the run context :meth:`Observer.bind` sets
_CONTEXT = ("leaf_id", "n_packets", "delta", "tau", "protocol", "seed")


class Observer:
    """A read-only consumer of one run, with the one lifecycle every
    run-level reader of a trace shares: bind, then finish.

    :meth:`bind` hands it the run's context once; at finish, :func:`feed`
    sends it, in emit order, each event of the run's log whose kind its
    :attr:`handlers` name, then :meth:`finish` returns its report.  Live,
    the run's :class:`~repro.streaming.commons.Commons` binds it at build
    and feeds it the run's log; offline, :func:`replay` does both over a
    recorded trace.
    """

    #: the ``SessionResult``/``SwarmResult`` field its report fills
    result_field = ""
    #: kind -> handler method: the kinds this observer reads, and what
    #: :func:`feed` calls with each event of them
    handlers: Dict[str, Callable[[Any, TraceEvent], None]] = {}
    #: the run context, until :meth:`bind` sets it
    leaf_id = "leaf"
    n_packets: Optional[int] = None
    delta: Optional[float] = None
    tau: Optional[float] = None
    protocol = "replay"
    seed = -1
    _walk: Optional["Walk"] = None
    _session: Optional["StreamingSession"] = None

    def bind(
        self, session: Optional["StreamingSession"] = None, **context: Any
    ) -> "Observer":
        """Attach to a session (optional) and the run's context.

        The context — ``leaf_id``, ``n_packets``, ``delta``, ``tau``,
        ``protocol``, ``seed`` — is read off ``session``, then overridden
        by any of those keywords that is not None.
        """
        self._session = session
        if session is not None:
            config = session.config
            self.leaf_id = session.leaf.peer_id
            self.n_packets = config.content_packets
            self.delta, self.tau = config.delta, config.tau
            self.protocol, self.seed = session.protocol.name, config.seed
        for name, value in context.items():
            if name not in _CONTEXT:
                raise TypeError(f"bind() got an unexpected context {name!r}")
            if value is not None:
                setattr(self, name, value)
        return self

    @property
    def ledger(self) -> FaultLedger:
        """The faults of the run up to the event being fed: the walk's."""
        return self._walk.ledger

    @property
    def packets(self) -> PacketLedger:
        """The run's media plane per seq, complete."""
        return self._walk.packets

    @property
    def events_seen(self) -> int:
        """Non-``audit.*`` events of the run fed so far (0 unfed)."""
        return self._walk.events_seen if self._walk is not None else 0

    @property
    def last_ts(self) -> float:
        """Time of the last non-``audit.*`` event fed so far."""
        return self._walk.last_ts

    def finish(self, session: Optional["StreamingSession"] = None) -> Any:
        """The observer's report, once the run is over."""


class Walk:
    """One pass of a run's log past its observers: what :func:`feed`
    shares with each of them."""

    def __init__(self, observers: Sequence[Observer], packets: PacketLedger) -> None:
        #: the faults filed so far: "which fault touched this peer yet"
        self.ledger = FaultLedger()
        self.packets = packets
        #: the events walked, each followed by the findings it raised
        self.log: List[TraceEvent] = []
        self.events_seen = 0
        self.last_ts = 0.0
        #: the stamp of a finding recorded now: the time of the event at
        #: hand while walking, the run's end after
        self.now = 0.0
        #: kind -> (handler, observer) pairs, in observer order
        self.routes: Dict[str, List[Tuple[Callable, Observer]]] = {}
        for observer in observers:
            observer._walk = self
            for kind, handler in observer.handlers.items():
                self.routes.setdefault(kind, []).append((handler, observer))

    def emit(self, kind: str, subject: str, /, **data: Any) -> None:
        """A finding's ``audit.*`` event, logged and handed on now."""
        event = TraceEvent(self.now, kind, subject, data)
        self.log.append(event)
        for handler, observer in self.routes.get(kind, ()):
            handler(observer, event)


def feed(
    log: Iterable[TraceEvent],
    observers: Sequence[Observer],
    packets: PacketLedger,
    end: float = 0.0,
    session: Optional["StreamingSession"] = None,
) -> Tuple[List[Any], List[TraceEvent]]:
    """Walk a run's ``log`` once, in emit order, past its bound
    ``observers``; their reports, and the log with their findings in it.

    Each event goes to the observers whose :attr:`~Observer.handlers`
    name its kind, after the walk's fresh :class:`FaultLedger` filed it if
    it is a fault — so an observer asking "which fault has touched this
    peer" gets the answer it would have got at that point of the run.
    ``packets`` is the run's complete :class:`PacketLedger`.  A finding's
    ``audit.*`` event follows the event that raised it, stamped with its
    time; one raised at :meth:`~Observer.finish` ends the log, stamped
    ``end``.  The observers finish in order, with ``session``.
    """
    walk = Walk(observers, packets)
    walked, file_fault = walk.log.append, walk.ledger.add
    # kind -> (counted: not a finding, a fault, its handlers), worked out
    # the first time the kind is met
    plan: Dict[str, tuple] = {}
    for event in log:
        walked(event)
        walk.now = ts = event[0]
        kind = event[1]
        step = plan.get(kind)
        if step is None:
            step = plan[kind] = (
                not kind.startswith("audit."),
                kind in FaultLedger.kinds,
                walk.routes.get(kind, ()),
            )
        counted, fault, handlers = step
        if counted:
            walk.events_seen += 1
            walk.last_ts = ts
            if fault:
                file_fault(*event)
        for handler, observer in handlers:
            handler(observer, event)
    walk.now = end
    return [observer.finish(session) for observer in observers], walk.log


def replay(
    source: Union[str, "Path", Iterable[str]],
    observers: Sequence[Observer],
    **context: Any,
) -> List[Any]:
    """Feed a recorded JSONL trace to ``observers``; their reports.

    ``source`` is a path or an iterable of JSONL lines (the format
    :func:`~repro.obs.exporters.trace_to_jsonl` writes).  The media events
    rebuild the run's packet ledger, and ``n_packets`` defaults to the
    largest data seq it holds, which is exact whenever the trace covers
    the full content.  Each observer is bound to ``context``, then the
    events reach the observers through :func:`feed`, as a run's own do.
    """
    from repro.obs.exporters import read_jsonl  # it imports this module

    events = list(read_jsonl(source))
    packets = PacketLedger()
    for event in events:
        if event.kind in PacketLedger.kinds:
            packets.add(*event)
    if context.get("n_packets") is None:
        context["n_packets"] = max(
            (s for s in {*packets.sent, *packets.arrived} if isinstance(s, int)),
            default=None,
        )
    for observer in observers:
        observer.bind(**context)
    return feed(events, observers, packets)[0]
