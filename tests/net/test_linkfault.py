"""Link faults (duplicate/reorder), dedup windows, overlay cuts."""

import numpy as np
import pytest

from repro.net import (
    CompositeFault,
    ConstantLatency,
    DedupWindow,
    DuplicateFault,
    GilbertElliottLoss,
    Overlay,
    ReorderFault,
)
from repro.net.ledger import FaultLedger
from repro.obs import TraceBus, TraceConfig
from repro.sim import Environment, RandomStreams

from tests.net import ignore


def make_overlay(**kw):
    env = Environment()
    ov = Overlay(env, streams=RandomStreams(7), **kw)
    return env, ov


# ----------------------------------------------------------------------
# fault units
# ----------------------------------------------------------------------
def test_duplicate_fault_certain_and_never():
    rng = np.random.default_rng(0)
    assert DuplicateFault(p=1.0).apply(rng, 0.0) == (0.0, 0.0)
    assert DuplicateFault(p=1.0, copies=3).apply(rng, 0.0) == (0.0, 0.0, 0.0)
    assert DuplicateFault(p=0.0).apply(rng, 0.0) == (0.0,)


def test_duplicate_fault_validation():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        DuplicateFault(p=1.5)
    with pytest.raises(ValueError, match="copies"):
        DuplicateFault(p=0.5, copies=1)


def test_reorder_fault_delay_bounded():
    rng = np.random.default_rng(3)
    fault = ReorderFault(p=1.0, max_delay=4.0)
    delays = [fault.apply(rng, 0.0) for _ in range(50)]
    assert all(len(d) == 1 for d in delays)
    assert all(0.0 <= d[0] < 4.0 for d in delays)
    assert any(d[0] > 0.0 for d in delays)
    assert ReorderFault(p=0.0, max_delay=4.0).apply(rng, 0.0) == (0.0,)


def test_reorder_fault_validation():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        ReorderFault(p=-0.1, max_delay=1.0)
    with pytest.raises(ValueError, match="max_delay"):
        ReorderFault(p=0.5, max_delay=0.0)


def test_composite_threads_copies_and_sums_delays():
    rng = np.random.default_rng(5)
    fault = CompositeFault(
        (DuplicateFault(p=1.0), ReorderFault(p=1.0, max_delay=2.0))
    )
    copies = fault.apply(rng, 0.0)
    assert len(copies) == 2  # duplicated, then each copy jittered
    assert all(0.0 <= c < 2.0 for c in copies)


def test_composite_needs_stages():
    with pytest.raises(ValueError):
        CompositeFault(())


# ----------------------------------------------------------------------
# dedup window
# ----------------------------------------------------------------------
def test_dedup_window_suppresses_repeats():
    win = DedupWindow(capacity=8)
    assert not win.seen(("CP1", 1))
    assert win.seen(("CP1", 1))
    assert not win.seen(("CP1", 2))
    assert win.suppressed == 1
    assert len(win) == 2


def test_dedup_window_evicts_fifo():
    win = DedupWindow(capacity=2)
    win.seen("a")
    win.seen("b")
    win.seen("c")  # evicts "a"
    assert len(win) == 2
    assert not win.seen("a")  # forgotten → treated as new


def test_dedup_window_capacity_validation():
    with pytest.raises(ValueError):
        DedupWindow(capacity=0)


# ----------------------------------------------------------------------
# channel + overlay integration
# ----------------------------------------------------------------------
def test_duplicating_channel_delivers_copies_sharing_one_uid():
    env, ov = make_overlay(
        default_latency=ConstantLatency(1.0),
        link_fault_factory=lambda: DuplicateFault(p=1.0),
    )
    ov.add_node("a", ignore)
    b = ov.add_node("b", ignore)
    got = []
    b.on_deliver = lambda m: got.append(m.uid)
    ov.send("a", "b", "control")
    ov.send("a", "b", "control")
    env.run()
    assert len(got) == 4  # two sends, two copies each
    assert got[0] == got[1] and got[2] == got[3]
    assert got[0] != got[2]  # distinct sends carry distinct wire uids
    assert ov.traffic.duplicated_by_kind["control"] == 2


def test_link_fault_factory_builds_fresh_fault_per_channel():
    _, ov = make_overlay(link_fault_factory=lambda: DuplicateFault(p=0.5))
    for nid in ("a", "b", "c"):
        ov.add_node(nid, ignore)
    assert ov.channel("a", "b").fault is not ov.channel("a", "c").fault


def test_severed_link_drops_and_heals():
    env, ov = make_overlay(default_latency=ConstantLatency(1.0))
    ov.add_node("a", ignore)
    b = ov.add_node("b", ignore)
    got = []
    b.on_deliver = lambda m: got.append(m.kind)

    cut = ov.sever_link("a", "b")
    assert ("a", "b") in ov.ledger.cuts
    assert ("b", "a") not in ov.ledger.cuts  # cuts are directed
    ov.send("a", "b", "control")
    env.run()
    assert got == []
    assert ov.traffic.dropped_by_kind["control"] == 1
    # the send is still counted: a partitioned peer keeps transmitting
    assert ov.traffic.sent_by_kind["control"] == 1

    ov.heal_link(cut)
    assert ("a", "b") not in ov.ledger.cuts
    ov.send("a", "b", "control")
    env.run()
    assert got == ["control"]
    # the cut, the message it ate and the heal, one row each
    assert [(r.kind, r.reason) for r in ov.ledger.rows] == [
        ("link.sever", None), ("msg.drop", "link_severed"), ("link.heal", None)
    ]


def test_sever_unknown_endpoint_rejected():
    _, ov = make_overlay()
    ov.add_node("a", ignore)
    with pytest.raises(KeyError):
        ov.sever_link("a", "nope")


def test_overlapping_severs_hold_the_link_until_the_last_heal():
    env, ov = make_overlay()
    bus = env.hooks.tracer = TraceBus(TraceConfig(), env)
    ov.add_node("a", ignore)
    ov.add_node("b", ignore)
    older = ov.sever_link("a", "b")
    ov.send("a", "b", "control")  # a fault row between the cuts
    env.run()
    newer = ov.sever_link("a", "b")  # a second cut of the same link
    ov.heal_link(newer)  # closes that cut only, though it is not the oldest
    # the other holds the link
    assert ov.ledger.cuts[("a", "b")] == [ov.ledger.severs[older]]
    ov.heal_link(older)
    ov.heal_link(older)  # closed: no-op, no row
    assert not ov.ledger.cuts
    assert [(r.kind, r.seq) for r in ov.ledger.rows] == [
        ("link.sever", 0), ("msg.drop", 1), ("link.sever", 2),
        ("link.heal", 3), ("link.heal", 4),
    ]
    # each heal numbers the cut it closed among the severs alone
    assert [e.fields["cut"] for e in bus.of_kind("link.heal")] == [1, 0]


def test_a_heal_without_a_cut_number_closes_the_oldest():
    # a heal logged before heals numbered their cut; one with no cut
    # open is filed and closes nothing
    ledger = FaultLedger()
    ledger.add(1.0, "link.sever", "a", {"dst": "b"})
    ledger.add(2.0, "link.sever", "a", {"dst": "b"})
    ledger.add(3.0, "link.heal", "a", {"dst": "b"})
    assert [row.ts for row in ledger.cuts[("a", "b")]] == [2.0]
    ledger.add(4.0, "link.heal", "a", {"dst": "b", "cut": 1})
    ledger.add(5.0, "link.heal", "a", {"dst": "b", "cut": 1})
    assert not ledger.cuts
    assert len(ledger.rows) == 5


def test_chaos_channel_is_deterministic_given_seed():
    def run():
        env, ov = make_overlay(
            default_latency=ConstantLatency(1.0),
            link_fault_factory=lambda: CompositeFault(
                (DuplicateFault(p=0.3), ReorderFault(p=0.5, max_delay=3.0))
            ),
        )
        ov.add_node("a", ignore)
        b = ov.add_node("b", ignore)
        arrivals = []
        b.on_deliver = lambda m: arrivals.append((env.now, m.uid))
        for _ in range(30):
            ov.send("a", "b", "x")
        env.run()
        return arrivals

    first = run()
    assert first == run()
    assert len(first) > 30  # some duplicates actually happened


# ----------------------------------------------------------------------
# satellite 1: stateful loss models stay per-channel
# ----------------------------------------------------------------------
def test_stateful_loss_streams_independent_across_channels():
    from repro.streaming.spec import LossSpec

    spec = LossSpec("gilbert_elliott", {"p_gb": 0.5, "p_bg": 0.1})
    factory = spec.factory()
    first, second = factory(), factory()
    assert isinstance(first, GilbertElliottLoss)
    assert first is not second  # fresh burst state per channel

    # burst state advanced on one channel must not leak into the other
    rng_a = np.random.default_rng(11)
    rng_b = np.random.default_rng(11)
    coupled = [first.drops(rng_a) for _ in range(40)]
    isolated = [second.drops(rng_b) for _ in range(40)]
    assert coupled == isolated  # equal seeds + independent state agree

    # whereas actually *sharing* one instance couples the sequences
    shared = spec.build()
    rng_c = np.random.default_rng(11)
    rng_d = np.random.default_rng(11)
    interleaved = []
    for _ in range(20):
        interleaved.append(shared.drops(rng_c))
        interleaved.append(shared.drops(rng_d))
    assert interleaved[::2] != coupled[:20]

