"""Focused tests for the leaf peer agent."""

from repro.core import DCoP, ProtocolConfig
from repro.media import DataPacket
from repro.net.message import Message
from repro.streaming import SessionSpec


def session_with(protocol_cls=DCoP, **kw):
    defaults = dict(
        n=8, H=4, fault_margin=1, tau=1.0, delta=5.0,
        content_packets=100, seed=2,
    )
    defaults.update(kw)
    return SessionSpec(ProtocolConfig(**defaults), protocol_cls()).build()


def test_arrival_bookkeeping():
    s = session_with()
    r = s.run()
    leaf = s.leaf
    # every accepted media packet is counted once per source and once by
    # the decoder
    assert sum(leaf.arrivals_by_src.values()) == leaf.decoder.received_count
    assert leaf.data_arrivals == 100


def test_completed_at_none_when_incomplete():
    s = session_with()
    r = s.run(until=6.0)  # barely started
    assert r.completed_at is None


def test_manual_packet_injection():
    """Feeding the leaf directly exercises the decoder path."""
    s = session_with()
    for seq in range(1, 101):
        s.leaf.node.deliver(
            Message(src="CPx", dst="leaf", kind="packet", body=DataPacket(seq))
        )
    assert s.leaf.decoder.complete
    assert s.leaf.buffer.level == 100


def test_order_violation_counting():
    s = session_with()
    deliver = lambda seq: s.leaf.node.deliver(
        Message(src="CPx", dst="leaf", kind="packet", body=DataPacket(seq))
    )
    deliver(1)
    assert s.leaf.order_violations == 0
    deliver(5)  # jumps the gap 2..4
    assert s.leaf.order_violations == 1
    deliver(2)
    assert s.leaf.order_violations == 1


def test_in_order_stream_never_violates():
    """Single-source at rate τ: arrivals strictly in order."""
    from repro.core import SingleSourceStreaming

    s = session_with(SingleSourceStreaming, fault_margin=0)
    s.run()
    assert s.leaf.order_violations == 0


def test_leaf_repr():
    s = session_with()
    s.run()
    assert "leaf" in repr(s.leaf)
