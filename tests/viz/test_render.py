"""Tests for the ASCII visualizers."""

from repro.core import DCoP, ProtocolConfig, ScheduleBasedCoordination, TCoP
from repro.streaming import SessionSpec
from repro.viz import activation_timeline, render_transmission_tree, traffic_summary


def make(protocol_cls, **kw):
    defaults = dict(
        n=12, H=4, fault_margin=1, delta=10.0, content_packets=200, seed=3
    )
    defaults.update(kw)
    session = SessionSpec(ProtocolConfig(**defaults), protocol_cls()).build()
    session.run()
    return session


def test_tcop_tree_contains_every_active_peer():
    session = make(TCoP)
    tree = render_transmission_tree(session)
    for pid in session.peer_ids:
        if session.peers[pid].active:
            assert pid in tree
    assert tree.startswith("leaf (root)")


def test_tcop_tree_depth_matches_rounds():
    """Peers at tree depth d activated at round 3d (3 per handshake)."""
    session = make(TCoP)
    tree = render_transmission_tree(session)
    for line in tree.splitlines()[1:]:
        if "[round" not in line:
            continue
        depth = (len(line) - len(line.lstrip("| `-"))) // 4 + 1
        round_no = int(line.split("[round ")[1].split(",")[0])
        assert round_no == 3 * ((round_no + 2) // 3)  # multiples of 3


def test_tree_max_depth_truncates():
    session = make(TCoP)
    full = render_transmission_tree(session)
    shallow = render_transmission_tree(session, max_depth=1)
    assert len(shallow) <= len(full)


def test_dcop_tree_renders_without_parents():
    """DCoP has no single-parent pointers; everything hangs off the leaf
    but every active peer still appears exactly once."""
    session = make(DCoP)
    tree = render_transmission_tree(session)
    for pid in session.peer_ids:
        assert tree.count(f"{pid} [") == 1


def test_dormant_peers_listed():
    session = make(ScheduleBasedCoordination, H=3)
    tree = render_transmission_tree(session)
    assert "dormant:" in tree


def test_timeline_shows_rounds_and_counts():
    session = make(DCoP)
    timeline = activation_timeline(session)
    assert "round" in timeline
    assert "12/12" in timeline


def test_timeline_empty_session():
    cfg = ProtocolConfig(n=3, H=2, content_packets=50)
    session = SessionSpec(cfg, DCoP()).build()  # never run
    assert "(no activations)" in activation_timeline(session)


def test_traffic_summary_columns():
    session = make(DCoP)
    table = traffic_summary(session)
    kind, sent = table.headers.index("kind"), table.headers.index("sent")
    sent_by_kind = {row[kind]: row[sent] for row in table.rows}
    assert "packet" in sent_by_kind
    assert "request" in sent_by_kind
    assert sent_by_kind["request"] == 4
