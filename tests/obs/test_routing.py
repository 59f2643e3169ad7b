"""One walk feeds a run's observers: what each is sent, and what it costs.

At finish the run's log is walked once (``repro.obs.trace.feed``), and
each event goes to the observers whose ``handlers`` name its kind.  These
tests pin that contract — the walk's count and clock stand in for "every
event passes through me", observers sharing a walk do not disturb one
another, a replay is the same walk over a recorded trace — and the
fan-out it buys.
"""

import pytest

from repro.core import ProtocolConfig
from repro.obs import (
    AuditConfig,
    Auditor,
    Observer,
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
from repro.net.ledger import PacketLedger
from repro.obs import audit as audit_module
from repro.obs.trace import feed
from repro.sim.engine import Environment
from repro.streaming import ProtocolSpec, SessionSpec

from tests.streaming.test_gray import gray_spec

from .test_artefact_pins import CELLS, FAULTED


def new_bus(**config_kw):
    return TraceBus(TraceConfig(**config_kw), Environment())


class Recorder(Observer):
    """Keeps every event of the kinds it is built for."""

    def __init__(self, *kinds):
        self.seen = []
        self.handlers = dict.fromkeys(kinds, Recorder._keep)

    def _keep(self, event):
        self.seen.append(event)


# ----------------------------------------------------------------------
# the walk
# ----------------------------------------------------------------------
def test_events_reach_only_the_subscribers_that_asked_for_their_kind():
    bus = new_bus()
    crashes = Recorder("peer.crash", "peer.rejoin")
    everything = Recorder("peer.activate", "peer.crash", "audit.warning")
    bus.emit("peer.activate", "p0", round=1)
    bus.emit("peer.crash", "p0")
    bus.emit("audit.warning", "x", about="p0")
    feed(bus.events, [crashes.bind(), everything.bind()], PacketLedger())
    assert [e.kind for e in crashes.seen] == ["peer.crash"]
    assert [e.kind for e in everything.seen] == [
        "peer.activate", "peer.crash", "audit.warning",
    ]


def test_bus_counts_and_clocks_every_event_but_the_auditors_own():
    env = Environment()
    bus = TraceBus(TraceConfig(categories=frozenset({"peer"})), env)
    bus.emit("msg.send", "p0", kind="control")  # not exported, not read: counted
    env.timeout(5.0)
    env.run()
    bus.emit("peer.crash", "p0")
    env.timeout(2.0)
    env.run()
    bus.emit("audit.warning", "x", about="p0")
    crashes = Recorder("peer.crash").bind()
    feed(bus.events, [crashes], PacketLedger())
    assert crashes.events_seen == 2
    assert crashes.last_ts == 5.0
    # and the walk filed the crash as it went
    assert [row.kind for row in crashes.ledger.rows] == ["peer.crash"]


# ----------------------------------------------------------------------
# observers sharing a walk do not disturb one another
# ----------------------------------------------------------------------
#: lossy churn runs (detector, breaker, retransmits, reissues, rejoins)
#: and an admission-controlled swarm (capacity.*, admit.*)
RECORDED = {
    "gauntlet/tcop": {"health.quarantine", "recoord.reissue", "msg.give_up"},
    "gauntlet/tcop/no_repair": {"peer.rejoin", "detector.confirm"},
    "swarm/dcop": {"capacity.budget", "admit.grant", "admit.release"},
}


def _consumers(n_packets):
    auditors = build_auditors(AuditConfig(auditors=tuple(available_auditors())))
    consumers = [*auditors, SpanBuilder()]
    return [consumer.bind(n_packets=n_packets) for consumer in consumers]


def _exported(report):
    """A report in comparable (exported) form."""
    return report.to_dict() if hasattr(report, "to_dict") else report


@pytest.mark.parametrize("cell", sorted(RECORDED))
def test_one_walk_and_a_walk_per_observer_report_the_same(cell):
    # one run's complete log and packet ledger
    spec = CELLS[cell]()
    built = spec.build()
    built.run()
    commons = built.commons
    events = commons.trace_bus.events
    assert {e.kind for e in events} >= RECORDED[cell]
    n_packets = commons.config.content_packets
    shared = _consumers(n_packets)
    reports, _ = feed(events, shared, commons.packets)
    for consumer, report in zip(_consumers(n_packets), reports, strict=True):
        (alone,), _ = feed(events, [consumer], commons.packets)
        assert _exported(alone) == _exported(report), type(consumer).__name__


# ----------------------------------------------------------------------
# one function: fed by the run's finish, or replayed
# ----------------------------------------------------------------------
def _entry(entry):
    """An audit entry, bar ``events_seen``: a replay also reads the
    ``wave.end`` events ``finalize()`` adds to the exported trace."""
    return {key: value for key, value in entry.items() if key != "events_seen"}


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
    auditors = build_auditors(audit)
    builder = SpanBuilder()
    lines = trace_to_jsonl(result.trace).splitlines()
    # a fault may lose the content's last seqs before any media event
    # names them, so a faulted trace is told its content length
    faulted = cell in FAULTED
    *entries, spans = replay(
        lines, [*auditors, builder],
        delta=config.delta, tau=config.tau,
        protocol=result.protocol, seed=config.seed,
        n_packets=config.content_packets if faulted else None,
    )
    # the one replay infers the content length the live run was given…
    assert builder.n_packets == config.content_packets
    # …and rebuilds the fault and packet ledgers the live run kept, row
    # for row
    assert builder.ledger.rows == session.commons.ledger.rows
    live, replayed = session.commons.packets, builder.packets
    assert replayed.sent == live.sent and replayed.arrived == live.arrived
    assert replayed.recovered == live.recovered
    assert replayed.played == live.played
    for auditor, entry in zip(auditors, entries, strict=True):
        live = result.audit.auditors[auditor.name]
        assert _entry(entry) == _entry(live), auditor.name
    assert spans.to_dict() == result.spans.to_dict()


@pytest.mark.parametrize("cell", ["fault_free/weighted_dcop", "swarm/dcop"])
def test_observers_read_the_build_time_events(cell):
    # the upload budgets are announced while the run is built, before
    # any observer is bound; the capacity auditor must still check them
    spec = CELLS[cell]()
    if cell.startswith("fault_free/"):
        spec = spec.replace(audit=AuditConfig(auditors=("capacity",)))
    result = spec.run()
    events = result.trace.events
    budgeted = {e.subject for e in events if e.kind == "capacity.budget"}
    assert budgeted
    report = result.audit.auditors["capacity"]
    assert report["budgeted_peers"] == len(
        [e for e in events if e.kind == "capacity.budget"]
    )
    assert report["tx_checked"] == len(
        [e for e in events if e.kind == "media.tx" and e.subject in budgeted]
    )


# ----------------------------------------------------------------------
# fan-out
# ----------------------------------------------------------------------
def test_fan_out_per_event_stays_under_two():
    session = SessionSpec(
        config=ProtocolConfig(
            n=12, H=4, fault_margin=1, content_packets=100, seed=5
        ),
        protocol=ProtocolSpec("tcop"),
        trace=TraceConfig(), audit=AuditConfig(), spans=SpanConfig(),
    ).build()
    calls = {}

    def counting(handler, name):
        def wrapper(observer, event):
            calls[name] += 1
            handler(observer, event)
        return wrapper

    readers = [o for o in session.commons.observers if o.handlers]
    # seven auditors, the span builder and the time-series sampler
    assert len(readers) == 9
    for reader in readers:
        name = getattr(reader, "name", reader.result_field)
        calls[name] = 0
        reader.handlers = {
            kind: counting(handler, name)
            for kind, handler in reader.handlers.items()
        }
    session.run()
    seen = readers[0].events_seen
    sampled = calls.pop("timeseries")
    # the auditors and the span builder: broadcasting would make this
    # exactly 8.0; 1.94 measured, the span builder reading journeys off
    # the packet ledger instead of the log
    assert len(calls) == 8
    assert sum(calls.values()) / seen <= 2.0
    # the sampler reads each msg.*, peer.* and leaf media event once, and
    # never a media.tx or ctrl.apply (over a quarter of this log): 0.72
    assert sampled / seen <= 0.75


# ----------------------------------------------------------------------
# custom auditors
# ----------------------------------------------------------------------
@pytest.fixture
def custom_auditors():
    @register_auditor("declared_test")
    class Declared(Auditor):
        name = "declared_test"

        def __init__(self):
            super().__init__()
            self.kinds_handled = []

        def _on_activate(self, event):
            self.kinds_handled.append(event.kind)
            self.warning("declared_test.seen", event.subject, "seen")

        handlers = {"peer.activate": _on_activate}

    yield
    audit_module._AUDITORS.pop("declared_test")


def test_custom_auditors_see_what_they_asked_for(custom_auditors):
    session = SessionSpec(
        config=ProtocolConfig(
            n=12, H=4, fault_margin=1, content_packets=100, seed=5
        ),
        protocol=ProtocolSpec("tcop"),
        audit=AuditConfig(auditors=("declared_test", "tree")),
    ).build()
    result = session.run()
    # the run's observers: the two auditors, then the sampler
    declared, tree, _ = session.commons.observers
    emitted = [e.kind for e in result.trace.events if e.kind != "wave.end"]
    # its findings joined the log…
    assert emitted.count("audit.warning") == emitted.count("peer.activate")
    # …and it was sent only the kinds it declared
    assert declared.kinds_handled == ["peer.activate"] * emitted.count(
        "peer.activate"
    )
    # both report the run's event count, bar the auditors' own verdicts
    seen = sum(1 for k in emitted if not k.startswith("audit."))
    assert declared.events_seen == tree.events_seen == seen
