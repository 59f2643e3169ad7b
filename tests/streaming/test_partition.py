"""Partitions and one-way cuts: validation, mid-stream splits, heals,
overlapping cuts."""

import json

import pytest

from repro.core import ProtocolConfig
from repro.net.overlay import RetransmitPolicy
from repro.obs import TraceConfig
from repro.obs.exporters import trace_to_jsonl
from repro.obs.trace import Observer, replay
from repro.streaming import (
    DetectorSpec,
    FaultPlan,
    LinkFaultSpec,
    ProtocolSpec,
    SessionSpec,
)


def config(**kw):
    defaults = dict(
        n=10, H=4, fault_margin=1, tau=1.0, delta=8.0,
        content_packets=150, seed=13,
    )
    defaults.update(kw)
    return ProtocolConfig(**defaults)


def make_spec(protocol="dcop", **kw):
    kw.setdefault("retransmit_policy", RetransmitPolicy())
    kw.setdefault("detector_policy", DetectorSpec("fixed"))
    return SessionSpec(
        config=kw.pop("config", config()),
        protocol=ProtocolSpec(protocol),
        **kw,
    )


def initial_targets(spec):
    """The peers the leaf contacts first (same seed ⇒ same picks)."""
    probe = spec.replace(
        fault_plan=None, link_fault=None, trace=None
    ).build()
    return probe.leaf_select(spec.config.H)


# ----------------------------------------------------------------------
# plan validation
# ----------------------------------------------------------------------
def test_empty_plan_rejected():
    with pytest.raises(ValueError, match="empty partition plan"):
        FaultPlan().partition((), at=10.0)


def test_heal_must_follow_split():
    with pytest.raises(ValueError, match="heal after it splits"):
        FaultPlan().partition((("CP1",),), at=100.0, heal_at=100.0)


def test_negative_split_time_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        FaultPlan().partition((("CP1",),), at=-1.0)


def test_empty_component_rejected():
    with pytest.raises(ValueError, match="non-empty"):
        FaultPlan().partition((("CP1",), ()), at=10.0)


def test_overlapping_components_rejected():
    with pytest.raises(ValueError, match="disjoint"):
        FaultPlan().partition((("CP1", "CP2"), ("CP2",)), at=10.0)


def test_link_cut_validation():
    with pytest.raises(ValueError, match="distinct"):
        FaultPlan().cut("CP1", "CP1", at=10.0)
    with pytest.raises(ValueError, match="non-negative"):
        FaultPlan().cut("CP1", "CP2", at=-1.0)
    with pytest.raises(ValueError, match="heal after"):
        FaultPlan().cut("CP1", "CP2", at=10.0, until=10.0)


def test_install_rejects_unknown_peer():
    spec = make_spec(fault_plan=FaultPlan().partition((("CP99",),), at=10.0))
    with pytest.raises(ValueError, match="unknown peer 'CP99'"):
        spec.build()


def test_install_rejects_leaf_in_component():
    spec = make_spec(
        fault_plan=FaultPlan().partition((("leaf", "CP1"),), at=10.0)
    )
    with pytest.raises(ValueError, match="implicit component"):
        spec.build()


def test_install_rejects_unknown_cut_endpoint():
    spec = make_spec(fault_plan=FaultPlan().cut("CP1", "nope", at=5.0))
    with pytest.raises(ValueError, match="unknown endpoint"):
        spec.build()


# ----------------------------------------------------------------------
# mid-stream partitions
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", ["dcop", "tcop"])
def test_mid_stream_partition_heals_and_session_completes(protocol):
    base = make_spec(protocol, trace=TraceConfig())
    isolated = initial_targets(base)[:2]
    spec = base.replace(
        fault_plan=FaultPlan().partition(
            (tuple(isolated),), at=60.0, heal_at=260.0
        )
    )
    session = spec.build()
    result = session.run()  # until=None — termination is the first assert
    assert result.elapsed < 1e7
    assert result.delivery_ratio == 1.0
    # the detector confirmed the isolated peers through silence
    assert set(isolated) <= set(result.confirmed_failures)
    rows = session.commons.ledger.rows
    split = [r for r in rows if r.kind.startswith("partition.")]
    assert [r.kind for r in split] == ["partition.split", "partition.heal"]
    (event,) = result.trace.of_kind("partition.split")
    assert event.fields["isolated"] == ",".join(isolated)
    assert result.trace.of_kind("partition.heal")
    # every directed boundary link was severed, then healed: 2 isolated
    # peers x (leaf + 8 reachable peers) x both directions — each cut
    # touching one isolated peer
    for kind in ("link.sever", "link.heal"):
        cuts = [r for r in rows if r.kind == kind]
        assert len(cuts) == len(result.trace.of_kind(kind)) == 2 * 2 * 9
        assert all(len({r.src, r.dst} & set(isolated)) == 1 for r in cuts)
    assert not session.commons.ledger.cuts  # all healed


def test_healed_peers_resume_contact_without_manual_intervention():
    # long content: the isolated peers are still mid-share at heal time,
    # so their own traffic (not a reissue) is what reaches the leaf after
    base = make_spec(
        "dcop", config=config(content_packets=400), trace=TraceConfig()
    )
    isolated = initial_targets(base)[:2]
    heal_at = 260.0
    spec = base.replace(
        fault_plan=FaultPlan().partition(
            (tuple(isolated),), at=60.0, heal_at=heal_at
        )
    )
    session = spec.build()
    result = session.run()
    assert result.delivery_ratio == 1.0
    post_heal = [
        e
        for e in result.trace.of_kind("msg.recv")
        if e.subject == "leaf"
        and e.payload().get("src") in isolated
        and e.ts > heal_at
    ]
    assert post_heal  # a healed peer reached the leaf again on its own
    # …and the detector resumed monitoring it (confirm state cleared)
    assert any(
        not session.detector.monitored[pid].confirmed for pid in isolated
    )


def test_permanent_partition_recoordinates_in_reachable_component():
    base = make_spec("dcop")
    isolated = initial_targets(base)[:2]
    spec = base.replace(
        fault_plan=FaultPlan().partition((tuple(isolated),), at=60.0)
    )
    session = spec.build()
    result = session.run()  # must terminate despite the permanent split
    assert result.elapsed < 1e7
    assert set(isolated) <= set(result.confirmed_failures)
    # the residual was reissued inside the reachable component
    assert result.delivery_ratio == 1.0
    # partitioned peers are not crashed: they kept transmitting into the
    # cut, and those sends were honestly dropped
    assert all(not session.peers[pid].crashed for pid in isolated)
    assert session.overlay.traffic.dropped_by_kind["packet"] > 0


def test_one_way_cut_mutes_peer_but_session_recovers():
    """Asymmetric failure: the peer still hears the leaf, its answers
    vanish.  The detector confirms it through silence and the residual
    moves to reachable peers."""
    base = make_spec("dcop")
    muted = initial_targets(base)[0]
    spec = base.replace(
        fault_plan=FaultPlan().cut(muted, "leaf", at=60.0)
    )
    session = spec.build()
    result = session.run()
    assert result.elapsed < 1e7
    assert result.delivery_ratio == 1.0
    assert muted in result.confirmed_failures
    # the reverse direction stayed up the whole time
    assert list(session.commons.ledger.cuts) == [(muted, "leaf")]


def test_an_overlapping_cut_holds_its_link_past_the_partition_heal():
    """A one-way cut that opens inside a partition and outlasts it keeps
    its link severed after the heal, and is a row of the ledger."""
    spec = SessionSpec(
        ProtocolConfig(n=8, H=4, seed=1),
        ProtocolSpec("dcop"),
        trace=TraceConfig(),
        fault_plan=FaultPlan()
        .partition((("CP1",),), at=50.0, heal_at=100.0)
        .cut("CP1", "leaf", at=80.0, until=300.0),
    )
    session = spec.build()
    result = session.run()
    link = [
        (row.ts, row.kind) for row in session.commons.ledger.rows
        if row.kind in ("link.sever", "link.heal")
        and (row.src, row.dst) == ("CP1", "leaf")
    ]
    assert link == [
        (50.0, "link.sever"), (80.0, "link.sever"),
        (100.0, "link.heal"), (300.0, "link.heal"),
    ]
    # CP1 kept sending to the leaf between the heal and the cut's end, and
    # the cut ate every send: nothing from CP1 reached the leaf then
    window = [e for e in result.trace.events if 100.0 < e.ts < 300.0]
    assert any(
        e.kind == "msg.drop" and e.subject == "CP1"
        and e.fields.get("dst") == "leaf"
        and e.fields.get("reason") == "link_severed"
        for e in window
    )
    assert not any(
        e.kind == "msg.recv" and e.subject == "leaf"
        and e.fields.get("src") == "CP1"
        for e in window
    )
    assert not session.commons.ledger.cuts  # the cut healed at 300
    # replaying the trace rebuilds the same ledger
    observer = Observer()
    replay(trace_to_jsonl(result.trace).splitlines(), [observer])
    assert observer.ledger.rows == session.commons.ledger.rows


def test_a_heal_closes_one_cut_of_its_link():
    # mid-window, the open cut's own sever row holds the link
    session = SessionSpec(
        ProtocolConfig(n=8, H=4, seed=1),
        ProtocolSpec("dcop"),
        fault_plan=FaultPlan()
        .partition((("CP1",),), at=50.0, heal_at=100.0)
        .cut("CP1", "leaf", at=80.0, until=300.0),
    ).build()
    session.run(until=200.0)
    (held,) = session.commons.ledger.cuts[("CP1", "leaf")]
    assert (held.ts, held.kind) == (80.0, "link.sever")


def test_a_heal_closes_the_cut_its_fault_opened():
    # a cut that opens inside a partition and heals first closes its own
    # sever row; the partition's row holds the link until the split heals
    spec = SessionSpec(
        ProtocolConfig(n=8, H=4, seed=1),
        ProtocolSpec("dcop"),
        fault_plan=FaultPlan()
        .partition((("CP1",),), at=50.0, heal_at=100.0)
        .cut("CP1", "leaf", at=60.0, until=90.0),
        trace=TraceConfig(),
    )
    session = spec.build()
    session.run(until=95.0)
    ledger = session.commons.ledger
    (held,) = ledger.cuts[("CP1", "leaf")]
    assert (held.ts, held.kind) == (50.0, "link.sever")
    # replaying the trace so far rebuilds the same open cuts
    observer = Observer()
    replay(trace_to_jsonl(session.trace_bus).splitlines(), [observer])
    assert observer.ledger.cuts == ledger.cuts
    assert observer.ledger.rows == ledger.rows
    # and once every fault ended, no cut is open
    finished = spec.build()
    finished.run()
    assert not finished.commons.ledger.cuts


def test_a_category_filtered_trace_replays_the_same_cuts():
    # a heal numbers its cut among the link.sever events alone, so a
    # trace that keeps only the ``link`` category replays the run's cuts
    spec = SessionSpec(
        ProtocolConfig(n=8, H=4, seed=1),
        ProtocolSpec("dcop"),
        fault_plan=FaultPlan()
        .partition((("CP1",),), at=50.0, heal_at=100.0)
        .cut("CP1", "leaf", at=60.0, until=90.0),
        trace=TraceConfig(categories=frozenset({"link"})),
    )
    live = spec.build()
    live.run(until=95.0)
    lines = [
        line for line in trace_to_jsonl(spec.run().trace).splitlines()
        if json.loads(line)["ts"] <= 95.0
    ]
    observer = Observer()
    replay(lines, [observer])

    def cuts(ledger):
        return {
            link: [(row.ts, row.kind) for row in rows]
            for link, rows in ledger.cuts.items()
        }

    assert cuts(observer.ledger) == cuts(live.commons.ledger)
    assert cuts(observer.ledger)[("CP1", "leaf")] == [(50.0, "link.sever")]


def test_partitioned_run_is_deterministic():
    def run():
        base = make_spec("dcop")
        isolated = initial_targets(base)[:2]
        return base.replace(
            fault_plan=FaultPlan().partition(
                (tuple(isolated),), at=60.0, heal_at=260.0
            ),
            link_fault=LinkFaultSpec(
                "chaos", {"dup_p": 0.05, "reorder_p": 0.1, "max_delay": 16.0}
            ),
        ).run()

    a, b = run(), run()
    assert a == b  # dataclass equality covers every metric


def test_session_result_counts_duplicates_and_suppressions():
    spec = make_spec(
        "dcop",
        link_fault=LinkFaultSpec("duplicate", {"p": 0.2}),
    )
    result = spec.run()
    assert result.delivery_ratio == 1.0
    assert result.link_duplicates > 0
    assert result.link_duplicates_suppressed > 0
