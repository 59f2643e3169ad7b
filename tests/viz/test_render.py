"""Tests for the ASCII transmission-tree renderer."""

from repro.core import ProtocolConfig
from repro.streaming import ProtocolSpec, SessionSpec
from repro.viz import render_transmission_tree


def make(protocol, **kw):
    defaults = dict(
        n=12, H=4, fault_margin=1, delta=10.0, content_packets=200, seed=3
    )
    defaults.update(kw)
    session = SessionSpec(ProtocolConfig(**defaults), ProtocolSpec(protocol)).build()
    session.run()
    return session


def test_tcop_tree_contains_every_active_peer():
    session = make("tcop")
    tree = render_transmission_tree(session)
    for pid in session.peer_ids:
        if session.peers[pid].active:
            assert pid in tree
    assert tree.startswith("leaf (root)")


def test_tcop_tree_depth_matches_rounds():
    """Peers at tree depth d activated at round 3d (3 per handshake)."""
    session = make("tcop")
    tree = render_transmission_tree(session)
    for line in tree.splitlines()[1:]:
        if "[round" not in line:
            continue
        depth = (len(line) - len(line.lstrip("| `-"))) // 4 + 1
        round_no = int(line.split("[round ")[1].split(",")[0])
        assert round_no == 3 * ((round_no + 2) // 3)  # multiples of 3


def test_tree_max_depth_truncates():
    session = make("tcop")
    full = render_transmission_tree(session)
    shallow = render_transmission_tree(session, max_depth=1)
    assert len(shallow) <= len(full)


def test_dcop_tree_renders_without_parents():
    """DCoP has no single-parent pointers; everything hangs off the leaf
    but every active peer still appears exactly once."""
    session = make("dcop")
    tree = render_transmission_tree(session)
    for pid in session.peer_ids:
        assert tree.count(f"{pid} [") == 1


def test_dormant_peers_listed():
    session = make("schedule_based", H=3)
    tree = render_transmission_tree(session)
    assert "dormant:" in tree
