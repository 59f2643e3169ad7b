"""Kind-routed dispatch: what each consumer is sent, and what it costs.

The bus hands an event only to the consumers that asked for its kind.
These tests pin the contract that makes that safe — a consumer's
declaration covers every kind it reads, the bus-side count and clock
stand in for "every event passes through me", custom subscribers keep
the firehose — and the fan-out it buys.
"""

import pytest

from repro.core import ProtocolConfig
from repro.obs import (
    AuditConfig,
    Auditor,
    SpanBuilder,
    SpanConfig,
    TraceBus,
    TraceConfig,
    available_auditors,
    build_auditors,
    register_auditor,
    replay,
    trace_to_jsonl,
)
from repro.obs import audit as audit_module
from repro.sim.engine import Environment
from repro.streaming import ProtocolSpec, SessionSpec

from tests.streaming.test_gray import gray_spec

from .test_artefact_pins import CELLS, FAULTED


def new_bus(**config_kw):
    return TraceBus(TraceConfig(**config_kw), Environment())


# ----------------------------------------------------------------------
# the bus
# ----------------------------------------------------------------------
def test_events_reach_only_the_subscribers_that_asked_for_their_kind():
    bus = new_bus()
    crashes, everything = [], []
    bus.subscribe(crashes.append, kinds=("peer.crash", "peer.rejoin"))
    bus.subscribe(everything.append)
    bus.emit("peer.activate", "p0", round=1)
    bus.emit("peer.crash", "p0")
    bus.emit("audit.warning", "x", about="p0")
    assert [e.kind for e in crashes] == ["peer.crash"]
    assert [e.kind for e in everything] == [
        "peer.activate", "peer.crash", "audit.warning",
    ]


def test_subscribing_after_a_kind_was_routed_still_takes_effect():
    # routes are cached per kind; (un)subscribing must drop the cache
    bus = new_bus()
    early, late = [], []
    bus.subscribe(early.append, kinds=("peer.crash",))
    bus.emit("peer.crash", "p0")
    bus.subscribe(late.append, kinds=("peer.crash",))
    bus.emit("peer.crash", "p1")
    bus.unsubscribe(early.append)
    bus.emit("peer.crash", "p2")
    assert [e.subject for e in early] == ["p0", "p1"]
    assert [e.subject for e in late] == ["p1", "p2"]


def test_unsubscribing_inside_a_callback_spares_the_dispatch_under_way():
    bus = new_bus()
    seen = []

    def first(event):
        seen.append("first")
        bus.unsubscribe(second)

    def second(event):
        seen.append("second")

    bus.subscribe(first)
    bus.subscribe(second)
    bus.emit("peer.crash", "p0")  # the route in hand still holds second
    bus.emit("peer.crash", "p1")
    assert seen == ["first", "second", "first"]


def test_bus_counts_and_clocks_every_event_but_the_auditors_own():
    env = Environment()
    bus = TraceBus(TraceConfig(categories=frozenset({"peer"})), env)
    bus.subscribe(lambda e: None, kinds=("peer.crash",))
    bus.emit("msg.send", "p0", kind="control")  # filtered, unrouted: counted
    env.timeout(5.0)
    env.run()
    bus.emit("peer.crash", "p0")
    env.timeout(2.0)
    env.run()
    bus.emit("audit.warning", "x", about="p0")
    assert bus.events_seen == 2
    assert bus.last_ts == 5.0


def test_publish_routes_a_recorded_event_without_storing_it():
    live = new_bus()
    live.emit("peer.crash", "p0")
    replay = new_bus()
    seen = []
    replay.subscribe(seen.append, kinds=("peer.crash",))
    replay.publish(live.events[0])
    assert seen == live.events
    assert replay.events == [] and replay.events_seen == 1


# ----------------------------------------------------------------------
# declarations cannot drift from what a consumer reads
# ----------------------------------------------------------------------
#: lossy churn runs (detector, breaker, retransmits, reissues, rejoins)
#: and an admission-controlled swarm (capacity.*, admit.*)
RECORDED = {
    "gauntlet/tcop": {"health.quarantine", "recoord.reissue", "msg.give_up"},
    "gauntlet/tcop/no_repair": {"peer.rejoin", "detector.confirm"},
    "swarm/dcop": {"capacity.budget", "admit.grant", "admit.release"},
}


def _consumers():
    auditors = build_auditors(AuditConfig(auditors=tuple(available_auditors())))
    return [*auditors, SpanBuilder(SpanConfig())]


def _report(observer):
    """What an observer finishes with, in comparable (exported) form."""
    report = observer.finish()
    return report.to_dict() if hasattr(report, "to_dict") else report


@pytest.mark.parametrize("cell", sorted(RECORDED))
def test_routed_and_every_event_feeding_report_the_same(cell):
    # one run's event list, as its live consumers were offered it
    spec = CELLS[cell]()
    events = [e for e in spec.run().trace.events if e.category != "audit"]
    assert {e.kind for e in events} >= RECORDED[cell]
    n_packets = getattr(spec, "session", spec).config.content_packets
    for routed, direct in zip(_consumers(), _consumers(), strict=True):
        bus = new_bus()
        routed.bind(bus, n_packets=n_packets)
        bus.subscribe(routed.on_event, routed.kinds)
        direct.bind(n_packets=n_packets)
        for event in events:
            bus.publish(event)
            direct.on_event(event)
        assert _report(routed) == _report(direct), type(routed).__name__


# ----------------------------------------------------------------------
# one contract, two feeders: bound live by the run, or replayed
# ----------------------------------------------------------------------
def _findings(entry):
    return [
        (f["code"], f["subject"], f["evidence"])
        for key in ("violations", "warnings")
        for f in entry[key]
    ]


#: gray failures: a flapping peer, a degraded one, stuttering links
CELLS_AND_GRAY = {**CELLS, "gray/dcop": lambda: gray_spec("dcop")}


@pytest.mark.parametrize(
    "cell",
    [c for c in sorted(CELLS) if c.startswith("fault_free/")]
    + ["batched/tcop", *FAULTED, "gray/dcop"],
)
def test_live_and_replayed_observers_agree(cell):
    audit = AuditConfig(auditors=tuple(available_auditors()))
    spec = CELLS_AND_GRAY[cell]()
    spec = spec.replace(audit=audit, spans=spec.spans or SpanConfig())
    session = spec.build()
    result = session.run()
    config = result.config
    # the detection bound is the live session's policy, which a trace
    # does not carry: hand it to the replay's auditor
    (detector,) = [
        o for o in session.commons.observers if o.result_field == "audit"
        and o.name == "detector"
    ]
    auditors = build_auditors(
        AuditConfig(
            audit.auditors,
            detection_latency_bound_ms=detector.latency_bound_ms,
        )
    )
    builder = SpanBuilder(spec.spans)
    # a fault may lose the content's last seqs before any media event
    # names them, so a faulted trace is told its content length
    faulted = cell in FAULTED
    *entries, spans = replay(
        trace_to_jsonl(result.trace).splitlines(), [*auditors, builder],
        delta=config.delta, tau=config.tau,
        protocol=result.protocol, seed=config.seed,
        n_packets=config.content_packets if faulted else None,
    )
    # the one replay infers the content length the live run was given…
    assert builder.n_packets == config.content_packets
    # …and rebuilds the fault ledger the live run kept, row for row
    assert builder.ledger.rows == session.commons.ledger.rows
    for auditor, entry in zip(auditors, entries, strict=True):
        live = result.audit.auditors[auditor.name]
        assert _findings(entry) == _findings(live), auditor.name
    assert spans.headline() == result.spans.headline()


# ----------------------------------------------------------------------
# fan-out
# ----------------------------------------------------------------------
def test_fan_out_per_event_stays_under_three():
    session = SessionSpec(
        config=ProtocolConfig(
            n=12, H=4, fault_margin=1, content_packets=100, seed=5
        ),
        protocol=ProtocolSpec("tcop"),
        trace=TraceConfig(), audit=AuditConfig(), spans=SpanConfig(),
    ).build()
    bus = session.trace_bus
    calls = [0]

    def counting(callback):
        def wrapper(event):
            calls[0] += 1
            callback(event)
        return wrapper

    assert len(bus.subscribers) == 8  # seven auditors and the span builder
    bus.subscribers = {
        counting(callback): kinds for callback, kinds in bus.subscribers.items()
    }
    session.run()
    # broadcasting would make this exactly 8.0
    assert calls[0] / bus.events_seen <= 3.0


# ----------------------------------------------------------------------
# custom subscribers
# ----------------------------------------------------------------------
@pytest.fixture
def custom_auditors():
    @register_auditor("undeclared_test")
    class Undeclared(Auditor):
        name = "undeclared_test"

        def __init__(self):
            super().__init__()
            self.kinds_handled = []

        def handle(self, event):
            self.kinds_handled.append(event.kind)
            if event.kind == "peer.activate":
                self.warning("undeclared_test.seen", event.subject, "seen")

    @register_auditor("declared_test")
    class Declared(Auditor):
        name = "declared_test"

        def __init__(self):
            super().__init__()
            self.kinds_handled = []

        def _on_activate(self, event):
            self.kinds_handled.append(event.kind)

        handlers = {"peer.activate": _on_activate}

    yield
    audit_module._AUDITORS.pop("undeclared_test")
    audit_module._AUDITORS.pop("declared_test")


def test_custom_auditors_see_what_they_asked_for(custom_auditors):
    session = SessionSpec(
        config=ProtocolConfig(
            n=12, H=4, fault_margin=1, content_packets=100, seed=5
        ),
        protocol=ProtocolSpec("tcop"),
        audit=AuditConfig(auditors=("undeclared_test", "declared_test", "tree")),
    ).build()
    result = session.run()
    # the run's observers: the three auditors, then the sampler
    undeclared, declared, tree, _ = session.commons.observers
    emitted = [e.kind for e in result.trace.events if e.kind != "wave.end"]
    # no declaration: every emission, bar the auditors' own verdicts —
    # of which this one's warnings made plenty
    assert "audit.warning" in emitted
    assert undeclared.kinds_handled == [
        k for k in emitted if not k.startswith("audit.")
    ]
    # a declaration: only those kinds
    assert set(declared.kinds_handled) == {"peer.activate"}
    assert len(declared.kinds_handled) == emitted.count("peer.activate")
    # and all three report the run's event count, as they always did
    seen = len(undeclared.kinds_handled)
    assert undeclared.events_seen == declared.events_seen == seen
    assert tree.events_seen == seen
