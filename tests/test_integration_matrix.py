"""Integration matrix: every protocol × channel condition × fault regime.

A coarse-grained safety net over the whole stack: each cell must run to
quiescence, keep its invariants, and hit the delivery level its
configuration entitles it to.
"""

import pytest

from repro.core import ProtocolConfig
from repro.streaming import FaultPlan, LossSpec, ProtocolSpec, SessionSpec


def _cell(name, kind, margin, cls_name):
    # the id names the protocol class, as the matrix always has
    return pytest.param(name, kind, margin, id=f"{name}-{cls_name}-{margin}")


PROTOCOLS = [
    _cell("dcop", "dcop", 1, "DCoP"),
    _cell("tcop", "tcop", 1, "TCoP"),
    _cell("broadcast", "broadcast", 1, "BroadcastCoordination"),
    _cell("chain", "unicast_chain", 0, "UnicastChainCoordination"),
    _cell("centralized", "centralized", 1, "CentralizedCoordination"),
    _cell("schedule", "schedule_based", 1, "ScheduleBasedCoordination"),
    _cell("single", "single_source", 0, "SingleSourceStreaming"),
    _cell("ams", "ams", 0, "AMSCoordination"),
]


def build(kind, margin, loss=None, crash=None):
    cfg = ProtocolConfig(
        n=10, H=4, fault_margin=margin, tau=1.0, delta=8.0,
        content_packets=150, seed=6,
    )
    session = SessionSpec(
        cfg,
        ProtocolSpec(kind),
        loss=LossSpec("bernoulli", {"p": loss}) if loss else None,
        fault_plan=FaultPlan().crash(crash, 60.0) if crash else None,
    ).build()
    return session


@pytest.mark.parametrize("name,kind,margin", PROTOCOLS)
def test_lossless_no_faults(name, kind, margin):
    session = build(kind, margin)
    r = session.run()
    assert r.all_active, name
    assert r.delivery_ratio == 1.0, name
    assert r.elapsed > 0
    # quiescence: nothing left scheduled
    assert len(session.env) == 0


@pytest.mark.parametrize("name,kind,margin", PROTOCOLS)
def test_mild_loss_still_terminates(name, kind, margin):
    session = build(kind, margin, loss=0.02)
    r = session.run()
    assert r.delivery_ratio > 0.9, name
    assert len(session.env) == 0


@pytest.mark.parametrize(
    "name,kind,margin",
    [p for p in PROTOCOLS if p.values[0] not in ("single", "schedule")],
)
def test_one_crash_still_terminates_and_mostly_delivers(name, kind, margin):
    """Crash a mid-roster peer: flooding/group protocols route around it
    or recover via parity; the run must still drain."""
    session = build(kind, margin, crash="CP5")
    r = session.run()
    assert r.delivery_ratio > 0.85, name
    assert len(session.env) == 0


@pytest.mark.parametrize("name,kind,margin", PROTOCOLS)
def test_result_fields_consistent(name, kind, margin):
    r = build(kind, margin).run()
    assert r.control_packets_at_sync <= r.control_packets_total
    assert r.protocol == ProtocolSpec(kind).build().name
    assert sum(r.messages_by_kind.values()) >= r.control_packets_total
    if r.completed_at is not None:
        assert r.completed_at <= r.elapsed
