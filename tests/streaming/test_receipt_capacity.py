"""Tests for the leaf's ρ_s receipt-capacity model (§3.1)."""

import pytest

from repro.core import ProtocolConfig
from repro.streaming import ProtocolSpec, SessionSpec


def run(protocol, rho, **kw):
    defaults = dict(
        n=12, H=6, fault_margin=1, tau=1.0, delta=5.0,
        content_packets=200, seed=1,
    )
    defaults.update(kw)
    cfg = ProtocolConfig(**defaults)
    session = SessionSpec(
        cfg, ProtocolSpec(protocol), leaf_receipt_rate=rho, leaf_receive_buffer=32.0
    ).build()
    return session, session.run()


def test_unbounded_leaf_never_drops():
    cfg = ProtocolConfig(n=12, H=6, content_packets=200, seed=1)
    session = SessionSpec(cfg, ProtocolSpec("dcop")).build()
    r = session.run()
    assert r.receive_overruns == 0


def test_dcop_fits_modest_capacity():
    """Aggregate ≈ τ(h+1)/h plus flooding overhead fits ρ_s = 2τ."""
    _, r = run("dcop", rho=2.0)
    assert r.receive_overruns == 0
    assert r.delivery_ratio == 1.0


def test_broadcast_overruns_modest_capacity():
    """n·τ offered into ρ_s = 2τ: the §3.1 buffer overrun, quantified."""
    _, r = run("broadcast", rho=2.0)
    assert r.receive_overruns > 0


def test_broadcast_redundancy_masks_drops_at_bandwidth_cost():
    """Duplicates save delivery but waste most of the absorbed capacity."""
    session, r = run("broadcast", rho=2.0)
    assert r.delivery_ratio == 1.0  # every packet has n copies
    offered = session.leaf.decoder.received_count + r.receive_overruns
    useful = len(session.leaf.decoder.data_seqs_held())
    assert useful / offered < 0.7  # most of ρ_s burnt on duplicates


def test_generous_capacity_absorbs_broadcast():
    _, r = run("broadcast", rho=50.0)
    assert r.receive_overruns == 0


def test_drops_shrink_with_capacity():
    drops = [
        run("broadcast", rho=rho)[1].receive_overruns
        for rho in (2.0, 6.0, 50.0)
    ]
    assert drops[0] >= drops[1] >= drops[2]
    assert drops[2] == 0


def test_session_result_exposes_receive_overruns():
    _, r = run("broadcast", rho=2.0)
    assert isinstance(r.receive_overruns, int)
