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
the event's *category*, which :attr:`TraceConfig.categories` filters on:

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
and ``msg.drop`` — are published by the run's :class:`~repro.net.ledger.FaultLedger`.

Consumers that need events *as they happen* (rather than the post-hoc
``events`` buffer) register a callback via :meth:`TraceBus.subscribe`,
naming the kinds they read; the bus hands each event only to the
consumers that asked for its kind.  The run's own consumers — auditors,
the span builder, the time-series sampler — share one
:class:`Observer` lifecycle (bind, events, finish), fed live by the run
or offline by :func:`replay`.

All payload values are JSON primitives, so a trace serializes verbatim
(see :mod:`repro.obs.exporters`) and two equal-seed runs produce
byte-identical dumps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
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

from repro.net.ledger import FaultLedger
from repro.sim.engine import Environment

if TYPE_CHECKING:  # pragma: no cover
    from pathlib import Path

    from repro.streaming.session import StreamingSession

#: drop reasons that terminate an in-flight message (a ``sender_down``
#: drop never entered a channel, so it does not decrement the gauge)
_IN_FLIGHT_DROPS = frozenset(
    {"control_loss", "channel_loss", "dst_down", "link_severed"}
)

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


Subscriber = Callable[[TraceEvent], None]


@dataclass(frozen=True)
class TraceConfig:
    """What to record and how much.

    ``categories=None`` records every category; otherwise only kinds whose
    prefix is listed.  ``max_events`` bounds memory on long churn runs —
    once hit, further events are counted (``TraceBus.dropped_events``) but
    not stored.  ``metrics`` enables a single-leaf run's time-series
    sampler, every ``sample_period_deltas`` δ for at most
    ``max_samples`` ticks.
    """

    categories: Optional[FrozenSet[str]] = None
    max_events: int = 200_000
    metrics: bool = True
    sample_period_deltas: float = 1.0
    max_samples: int = 2000

    def __post_init__(self) -> None:
        if self.max_events < 1:
            raise ValueError("max_events must be >= 1")
        if self.sample_period_deltas <= 0:
            raise ValueError("sample_period_deltas must be positive")
        if self.max_samples < 1:
            raise ValueError("max_samples must be >= 1")

    def wants(self, kind: str) -> bool:
        return (
            self.categories is None
            or kind.split(".", 1)[0] in self.categories
        )


@dataclass
class TraceBus:
    """Session-owned event recorder every instrumented layer publishes to.

    Besides the ordered event log, the bus maintains cheap live counters
    (events by kind, in-flight control messages) that the sampler's
    gauges read — these are updated on *every* emit, before category
    filtering, so the gauges stay meaningful even when the ``msg``
    firehose itself is filtered out of the log.
    """

    config: TraceConfig
    env: "Environment"
    events: List[TraceEvent] = field(default_factory=list)
    #: events suppressed by the max_events cap (not by category filters)
    dropped_events: int = 0
    #: every subject that should get its own exporter track (leaf + peers)
    participants: List[str] = field(default_factory=list)
    #: live count of control messages on the wire (send − recv − drop)
    in_flight_control: int = 0
    counts_by_kind: Dict[str, int] = field(default_factory=dict)
    #: streaming callback -> the kinds it asked for (``None``: all), in
    #: subscription order
    subscribers: Dict[Subscriber, Optional[FrozenSet[str]]] = field(
        default_factory=dict
    )
    #: non-``audit.*`` events published so far and the time of the last
    #: one — kept here because no routed consumer sees every event
    events_seen: int = 0
    last_ts: float = 0.0
    #: highest flooding round a ``wave.start`` was recorded for
    _waves_seen: set = field(default_factory=set)
    #: memoized per-kind ``config.wants`` verdicts — the kind universe is
    #: tiny and fixed, so one dict probe replaces a string split + set
    #: lookup on the per-event hot path
    _wants_cache: Dict[str, bool] = field(default_factory=dict)
    #: kind -> (counts toward ``events_seen``?, callbacks that asked for
    #: it), filled on the first event of each kind
    _routes: Dict[str, tuple] = field(default_factory=dict)
    _finalized: bool = False

    # ------------------------------------------------------------------
    def subscribe(
        self, callback: Subscriber, kinds: Optional[Iterable[str]] = None
    ) -> None:
        """Register a streaming callback for the event ``kinds`` it reads.

        ``kinds=None`` asks for every kind, ``audit.*`` included.
        Subscribers see *all* events of the kinds they asked for —
        including those suppressed from the buffer by category filters
        or the ``max_events`` cap — so an online auditor's view is never
        truncated.  Callbacks run synchronously inside :meth:`emit`,
        after the event is appended to the log; a callback may itself
        ``emit`` (e.g. an ``audit.violation``) or (un)subscribe: each
        dispatch walks the immutable route it started with.  A callback
        that asks for no kinds is never called, so it is not registered.
        """
        if kinds is not None:
            kinds = frozenset(kinds)
            if not kinds:
                return
        self.subscribers[callback] = kinds
        self._routes.clear()

    def unsubscribe(self, callback: Subscriber) -> None:
        """Remove a previously registered callback (no-op if absent)."""
        self.subscribers.pop(callback, None)
        self._routes.clear()

    def publish(self, event: TraceEvent) -> None:
        """Hand one event to the consumers that asked for its kind: the
        tail of :meth:`emit`, and all an offline replay of events does."""
        kind = event.kind
        route = self._routes.get(kind)
        if route is None:
            route = self._routes[kind] = (
                not kind.startswith("audit."),
                tuple(
                    callback
                    for callback, kinds in self.subscribers.items()
                    if kinds is None or kind in kinds
                ),
            )
        counted, callbacks = route
        if counted:
            self.events_seen += 1
            self.last_ts = event.ts
        for callback in callbacks:
            callback(event)

    # ------------------------------------------------------------------
    def emit(self, kind: str, subject: str, /, **data: Any) -> None:
        """Record one event at the current simulated time.

        ``data`` — the fresh dict this call owns — becomes the event's
        one payload.  When the kind is filtered out and nobody subscribed,
        the method returns before building the :class:`TraceEvent` —
        filtered firehose categories then cost only the counter updates
        below.
        """
        # batched media emits cover ``count`` packets in one event; the
        # per-kind counters stay packet-accurate either way, so batched
        # and unbatched runs of one spec report identical totals
        self.counts_by_kind[kind] = (
            self.counts_by_kind.get(kind, 0) + data.get("count", 1)
        )
        if kind == "msg.send":
            if data.get("kind") in CONTROL_KINDS:
                self.in_flight_control += 1
        elif kind == "msg.recv":
            # link-fault duplicates (dup=1) were never counted as sends,
            # so only the first copy settles the in-flight balance
            if (
                data.get("kind") in CONTROL_KINDS
                and not data.get("dup")
                and self.in_flight_control > 0
            ):
                self.in_flight_control -= 1
        elif kind == "msg.drop":
            if (
                data.get("kind") in CONTROL_KINDS
                and data.get("reason") in _IN_FLIGHT_DROPS
                and self.in_flight_control > 0
            ):
                self.in_flight_control -= 1
        stored = self._wants_cache.get(kind)
        if stored is None:
            stored = self._wants_cache[kind] = self.config.wants(kind)
        if stored and len(self.events) >= self.config.max_events:
            self.dropped_events += 1
            stored = False
        if not stored and not self.subscribers:
            return
        event = TraceEvent(self.env.now, kind, subject, data)
        if stored:
            self.events.append(event)
        if self.subscribers:
            self.publish(event)

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
        """Close open flooding waves with ``wave.end`` events.

        A wave's end is not locally observable while flooding (the last
        activation of round *r* may land anywhere in the overlay), so the
        session calls this at collection time: each round that recorded an
        activation gets a ``wave.end`` stamped at its last activation
        instant, and the log is re-sorted into time order.
        """
        if self._finalized:
            return  # collect ran twice
        self._finalized = True
        last_by_round: Dict[int, float] = {}
        count_by_round: Dict[int, int] = {}
        for event in self.events:
            if event.kind == "peer.activate":
                r = event.fields["round"]
                last_by_round[r] = max(last_by_round.get(r, event.ts), event.ts)
                count_by_round[r] = count_by_round.get(r, 0) + 1
        if self.config.wants("wave.end"):
            for r in sorted(last_by_round):
                self.events.append(
                    TraceEvent(
                        last_by_round[r],
                        "wave.end",
                        "session",
                        {"activated": count_by_round[r], "round": r},
                    )
                )
        # stable sort: simultaneous events keep their emission order
        self.events.sort(key=attrgetter("ts"))

    def __repr__(self) -> str:
        return (
            f"<TraceBus {len(self.events)} events, "
            f"{self.dropped_events} dropped, "
            f"in-flight ctrl={self.in_flight_control}>"
        )


#: the run context :meth:`Observer.bind` sets
_CONTEXT = ("leaf_id", "n_packets", "delta", "tau", "protocol", "seed")


class Observer:
    """A read-only consumer of one run, with the one lifecycle every
    run-level reader of the bus shares.

    :meth:`bind` hands it the bus and the run's context once, the bus
    sends it the kinds its :attr:`handlers` name through
    :meth:`on_event`, and :meth:`finish` returns its report.  Live, the
    run's :class:`~repro.streaming.commons.Commons` does all three;
    offline, :func:`replay` does them over a recorded trace.
    """

    #: the ``SessionResult``/``SwarmResult`` field its report fills
    result_field = ""
    #: kind -> handler method: the kinds this observer reads, declared
    #: once in the form :meth:`on_event` dispatches on — and asks the bus
    #: for.  Left empty, every kind but ``audit.*`` goes to :meth:`handle`.
    handlers: Dict[str, Callable[[Any, TraceEvent], None]] = {}
    #: the run context, until :meth:`bind` sets it
    leaf_id = "leaf"
    n_packets: Optional[int] = None
    delta: Optional[float] = None
    tau: Optional[float] = None
    protocol = "replay"
    seed = -1
    _bus: Optional[TraceBus] = None
    _session: Optional["StreamingSession"] = None
    # count and time of what on_event was fed: the whole run only with no
    # bus bound, so only then what the reports read
    _fed = 0
    _last_ts = 0.0

    def bind(
        self,
        bus: Optional[TraceBus] = None,
        session: Optional["StreamingSession"] = None,
        ledger: Optional[FaultLedger] = None,
        **context: Any,
    ) -> "Observer":
        """Attach to a bus and/or session (both optional).

        :attr:`ledger`, the run's fault ledger, is the session's unless
        given (empty with neither).  The context — ``leaf_id``,
        ``n_packets``, ``delta``, ``tau``, ``protocol``, ``seed`` — is read
        off ``session``, then overridden by any of those keywords that is
        not None.
        """
        self._bus = bus
        self._session = session
        if session is not None:
            config = session.config
            self.leaf_id = session.leaf.peer_id
            self.n_packets = config.content_packets
            self.delta, self.tau = config.delta, config.tau
            self.protocol, self.seed = session.protocol.name, config.seed
        self.ledger = ledger or (
            session.commons.ledger if session is not None else FaultLedger()
        )
        for name, value in context.items():
            if name not in _CONTEXT:
                raise TypeError(f"bind() got an unexpected context {name!r}")
            if value is not None:
                setattr(self, name, value)
        return self

    @property
    def kinds(self) -> Optional[FrozenSet[str]]:
        """What to ask the bus for: the declared kinds, else everything."""
        return frozenset(self.handlers) or None

    def on_event(self, event: TraceEvent) -> None:
        """Entry point for one event, from the bus or fed by hand."""
        self._fed += 1
        self._last_ts = event.ts
        handler = self.handlers.get(event.kind)
        if handler is not None:
            handler(self, event)
        elif not self.handlers and not event.kind.startswith("audit."):
            self.handle(event)

    def handle(self, event: TraceEvent) -> None:  # pragma: no cover
        """Every event but the auditors' own ``audit.*`` output, for a
        subclass that declares no :attr:`handlers`."""
        raise NotImplementedError

    @property
    def events_seen(self) -> int:
        """Non-``audit.*`` events of the run: the routing bus's count."""
        return self._fed if self._bus is None else self._bus.events_seen

    @property
    def last_ts(self) -> float:
        """Time of the run's last event: the routing bus's clock."""
        return self._last_ts if self._bus is None else self._bus.last_ts

    def finish(self, session: Optional["StreamingSession"] = None) -> Any:
        """The observer's report, once the run is over."""


def replay(
    source: Union[str, "Path", Iterable[str]],
    observers: Sequence[Observer],
    **context: Any,
) -> List[Any]:
    """Feed a recorded JSONL trace to ``observers``; their reports.

    ``source`` is a path or an iterable of JSONL lines (the format
    :func:`~repro.obs.exporters.trace_to_jsonl` writes).  ``n_packets``
    defaults to the largest data seq a ``media.tx``/``media.rx`` event
    carries, which is exact whenever the trace covers the full content.
    The events reach the observers the way a live run's do: published on
    a bus that routes each to the observers that asked for its kind.
    Its fault events rebuild the run's fault ledger before any observer,
    each bound to it, sees them.
    """
    from repro.obs.exporters import read_jsonl  # it imports this module

    events = list(read_jsonl(source))
    if context.get("n_packets") is None:
        labels = [
            e.fields.get("label")
            for e in events
            if e.kind in ("media.tx", "media.rx")
        ]
        context["n_packets"] = max(
            (s for s in labels if isinstance(s, int)), default=None
        )
    bus = TraceBus(TraceConfig(), Environment())  # a clock stopped at zero
    ledger = FaultLedger()
    bus.subscribe(ledger.on_event, ledger.kinds)
    for observer in observers:
        observer.bind(bus, ledger=ledger, **context)
        bus.subscribe(observer.on_event, observer.kinds)
    for event in events:
        bus.publish(event)
    return [observer.finish() for observer in observers]
