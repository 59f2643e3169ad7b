"""Tests for MediaContent."""

import pytest

from repro.media import MediaContent


def test_content_packet_sequence():
    c = MediaContent("m", n_packets=5, packet_size=16)
    seq = c.packet_sequence()
    assert len(seq) == 5
    assert seq.labels() == [1, 2, 3, 4, 5]
    assert all(len(p.payload) == 16 for p in seq)


def test_content_deterministic_by_seed():
    a = MediaContent("m", 4, 32, seed=9).payload(2)
    b = MediaContent("m", 4, 32, seed=9).payload(2)
    c = MediaContent("m", 4, 32, seed=10).payload(2)
    assert a == b
    assert a != c


def test_symbolic_mode_has_no_payloads():
    c = MediaContent("m", 3, with_payload=False)
    assert not c.has_payload
    assert c.payload(1) is None
    assert c.packet(1).payload is None


def test_payload_bounds_checked():
    c = MediaContent("m", 3)
    with pytest.raises(IndexError):
        c.payload(0)
    with pytest.raises(IndexError):
        c.payload(4)


def test_invalid_construction():
    with pytest.raises(ValueError):
        MediaContent("m", 0)
    with pytest.raises(ValueError):
        MediaContent("m", 1, packet_size=0)
    with pytest.raises(ValueError):
        MediaContent("m", 1, rate=0)
