"""Partition plans: validation, mid-stream splits, heals, asymmetric cuts."""

import pytest

from repro.core import ProtocolConfig
from repro.net.overlay import RetransmitPolicy
from repro.obs import TraceConfig
from repro.streaming import (
    DetectorSpec,
    LinkCut,
    LinkFaultSpec,
    PartitionPlan,
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
        partition_plan=None, link_fault=None, trace=None
    ).build()
    return probe.leaf_select(spec.config.H)


# ----------------------------------------------------------------------
# plan validation
# ----------------------------------------------------------------------
def test_empty_plan_rejected():
    with pytest.raises(ValueError, match="empty partition plan"):
        PartitionPlan()


def test_heal_must_follow_split():
    with pytest.raises(ValueError, match="heal after it splits"):
        PartitionPlan(components=(("CP1",),), at=100.0, heal_at=100.0)


def test_negative_split_time_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        PartitionPlan(components=(("CP1",),), at=-1.0)


def test_empty_component_rejected():
    with pytest.raises(ValueError, match="non-empty"):
        PartitionPlan(components=(("CP1",), ()), at=10.0)


def test_overlapping_components_rejected():
    with pytest.raises(ValueError, match="disjoint"):
        PartitionPlan(components=(("CP1", "CP2"), ("CP2",)), at=10.0)


def test_link_cut_validation():
    with pytest.raises(ValueError, match="distinct"):
        LinkCut("CP1", "CP1", at=10.0)
    with pytest.raises(ValueError, match="non-negative"):
        LinkCut("CP1", "CP2", at=-1.0)
    with pytest.raises(ValueError, match="heal after"):
        LinkCut("CP1", "CP2", at=10.0, until=10.0)


def test_install_rejects_unknown_peer():
    spec = make_spec(
        partition_plan=PartitionPlan(components=(("CP99",),), at=10.0)
    )
    with pytest.raises(ValueError, match="unknown peer 'CP99'"):
        spec.build()


def test_install_rejects_leaf_in_component():
    spec = make_spec(
        partition_plan=PartitionPlan(components=(("leaf", "CP1"),), at=10.0)
    )
    with pytest.raises(ValueError, match="implicit component"):
        spec.build()


def test_install_rejects_unknown_cut_endpoint():
    spec = make_spec(
        partition_plan=PartitionPlan(cuts=(LinkCut("CP1", "nope", at=5.0),))
    )
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
        partition_plan=PartitionPlan(
            components=(tuple(isolated),), at=60.0, heal_at=260.0
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
        partition_plan=PartitionPlan(
            components=(tuple(isolated),), at=60.0, heal_at=heal_at
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
        partition_plan=PartitionPlan(components=(tuple(isolated),), at=60.0)
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
        partition_plan=PartitionPlan(cuts=(LinkCut(muted, "leaf", at=60.0),))
    )
    session = spec.build()
    result = session.run()
    assert result.elapsed < 1e7
    assert result.delivery_ratio == 1.0
    assert muted in result.confirmed_failures
    # the reverse direction stayed up the whole time
    assert list(session.commons.ledger.cuts) == [(muted, "leaf")]


def test_partitioned_run_is_deterministic():
    def run():
        base = make_spec("dcop")
        isolated = initial_targets(base)[:2]
        return base.replace(
            partition_plan=PartitionPlan(
                components=(tuple(isolated),), at=60.0, heal_at=260.0
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
