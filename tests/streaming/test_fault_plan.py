"""The plan is rows of the ledger.

Every leg a run fires files the rows of its own kind, at the leg's own
time and in time order, no scripted-fault row comes from anywhere else,
and replaying the run's trace files the same rows.  Plans are drawn over
crash, rejoin, degrade, flap, cut and partition faults on a small
lossless DCoP cell.
"""

from itertools import accumulate
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import ProtocolConfig
from repro.obs import TraceConfig
from repro.obs.exporters import trace_to_jsonl
from repro.obs.trace import Observer, replay
from repro.streaming import FaultPlan, ProtocolSpec, SessionSpec
from repro.streaming.faults import FIRE

N = 6
PEERS = [f"CP{i}" for i in range(1, N + 1)]
CONFIG = ProtocolConfig(n=N, H=3, fault_margin=1, content_packets=100, seed=2)
#: the kinds a fault plan files
SCRIPTED = {
    "peer.crash", "peer.rejoin", "peer.degrade",
    "link.sever", "link.heal", "partition.split", "partition.heal",
}

# whole multiples of 10 ms: legs of different faults often share an instant
instants = st.integers(0, 30).map(lambda k: 10.0 * k)
spans = st.integers(1, 10).map(lambda k: 10.0 * k)
# faults on few peers: they often meet on one peer (a flap over a crash)
peers = st.sampled_from(PEERS[:3])
endpoints = st.sampled_from([*PEERS, "leaf"])
faults = st.one_of(
    st.tuples(st.just("crash"), peers, instants),
    st.tuples(st.just("rejoin"), peers, instants),
    st.tuples(st.just("degrade"), peers, instants, st.sampled_from([0.25, 0.5])),
    st.tuples(
        st.just("flap"), peers, instants, spans, spans, st.integers(1, 3)
    ).map(lambda f: (*f[:4], f[3] + f[4], f[5])),
    st.tuples(st.just("cut"), endpoints, endpoints, instants, st.none() | spans)
    .filter(lambda f: f[1] != f[2])
    .map(lambda f: (*f[:4], None if f[4] is None else f[3] + f[4])),
    st.tuples(
        st.just("partition"),
        st.lists(peers, min_size=1, max_size=3, unique=True),
        st.booleans(),
        instants,
        st.none() | spans,
    ).map(lambda f: (
        "partition",
        (tuple(f[1][:1]), tuple(f[1][1:])) if f[2] and len(f[1]) > 1
        else (tuple(f[1]),),
        f[3],
        None if f[4] is None else f[3] + f[4],
    )),
)


def boundary(components):
    """Every directed link a split of ``components`` cuts."""
    side = {pid: i for i, group in enumerate(components) for pid in group}
    nodes = ["leaf", *PEERS]
    return [
        (a, b) for a in nodes for b in nodes
        if a != b and side.get(a, -1) != side.get(b, -1)
    ]


def expected_rows(session, leg):
    """What firing ``leg`` must file, read off the state just before."""
    ledger = session.commons.ledger
    if leg.kind in ("peer.crash", "peer.rejoin"):
        down = session.peers[leg.target].crashed
        files = down if leg.kind == "peer.rejoin" else not (leg.guarded and down)
        return [(leg.kind, leg.target, None)] if files else []
    if leg.kind == "peer.degrade":
        return [(leg.kind, leg.target, None)]
    if leg.kind == "link.sever":
        return [(leg.kind, *leg.target)]
    if leg.kind == "link.heal":
        return [(leg.kind, *leg.target)] if leg.target in ledger.cuts else []
    links = boundary(leg.target)
    if leg.kind == "partition.heal":
        links = [link for link in links if link in ledger.cuts]
    kind = "link.sever" if leg.kind == "partition.split" else "link.heal"
    return [(kind, *link) for link in links] + [(leg.kind, None, None)]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(drawn=st.lists(faults, min_size=1, max_size=4))
# a flap's crash leg spares a peer a crash already took down
@example(drawn=[("crash", "CP1", 20.0), ("flap", "CP1", 30.0, 10.0, 20.0, 2)])
# a cut opens inside a partition and outlasts it
@example(drawn=[
    ("partition", (("CP1",),), 50.0, 100.0), ("cut", "CP1", "leaf", 80.0, 300.0)
])
def test_the_plan_is_rows_of_the_ledger(drawn):
    plan = FaultPlan()
    for name, *args in drawn:
        try:
            plan = getattr(plan, name)(*args)
        except ValueError:  # a duplicate peer fault: the plan refuses it
            pass
    session = SessionSpec(
        CONFIG, ProtocolSpec("dcop"), fault_plan=plan, trace=TraceConfig()
    ).build()
    ledger = session.commons.ledger
    fired = {}  # id(leg) -> (time, rows it filed, rows it had to file)

    def firing(action):
        def fire(session, leg, opened):
            before, expected = len(ledger.rows), expected_rows(session, leg)
            opened = action(session, leg, opened)
            filed = [(r.kind, r.src, r.dst) for r in ledger.rows[before:]]
            fired[id(leg)] = (session.env.now, filed, expected)
            return opened
        return fire

    with mock.patch.dict(FIRE, {k: firing(a) for k, a in FIRE.items()}):
        result = session.run()

    for legs in plan.faults:
        due = list(accumulate(leg.after for leg in legs))
        done = [fired[id(leg)] for leg in legs if id(leg) in fired]
        # the legs that fired are the fault's first ones, each at its time
        assert [t for t, _, _ in done] == due[: len(done)]
        if legs[0].guarded and result.completed_at is not None:
            # a flap stops once the leaf holds the content…
            assert all(t <= result.completed_at for t, _, _ in done)
        if len(done) < len(legs):
            # …and nothing else stops early
            assert legs[0].guarded
            assert result.completed_at is not None
            assert result.completed_at <= due[len(done)]
        for _, filed, expected in done:
            assert filed == expected
    # no scripted row comes from anywhere but a fired leg, and the rows
    # are in time order
    scripted = [r for r in ledger.rows if r.kind in SCRIPTED]
    assert len(scripted) == sum(len(f[1]) for f in fired.values())
    assert [r.ts for r in scripted] == sorted(r.ts for r in scripted)
    # replaying the trace rebuilds the ledger row for row
    observer = Observer()
    replay(trace_to_jsonl(result.trace).splitlines(), [observer])
    assert observer.ledger.rows == ledger.rows
    assert observer.ledger.cuts == ledger.cuts
