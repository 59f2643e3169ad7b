"""Tests for XOR payload math and leaf-side parity recovery."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fec import ParityDecoder, enhance, xor_payloads
from repro.fec.xor import xor_recover
from repro.media import DataPacket, MediaContent, PacketSequence, ParityPacket
from repro.media.packet import parity_covers


def test_xor_payloads_basic():
    assert xor_payloads([b"\x0f", b"\xf0"]) == b"\xff"
    assert xor_payloads([b"\xaa", b"\xaa"]) == b"\x00"


def test_xor_payloads_symbolic_returns_none():
    assert xor_payloads([b"\x01", None]) is None


def test_xor_payloads_validation():
    with pytest.raises(ValueError):
        xor_payloads([])
    with pytest.raises(ValueError):
        xor_payloads([b"\x01", b"\x01\x02"])


def test_xor_payloads_empty_bytes():
    assert xor_payloads([b"", b""]) == b""


def test_xor_recover_identity():
    a, b, c = b"\x01\x02", b"\x10\x20", b"\x11\x13"
    parity = xor_payloads([a, b, c])
    assert xor_recover(parity, [b, c]) == a


def test_xor_recover_length_mismatch():
    with pytest.raises(ValueError):
        xor_recover(b"\x00\x00", [b"\x01"])


def test_decoder_receives_all():
    d = ParityDecoder(3)
    for k in (1, 2, 3):
        d.add(DataPacket(k))
    assert d.complete
    assert d.missing_data_seqs() == set()
    assert d.delivery_ratio() == 1.0


def test_decoder_symbolic_recovery():
    d = ParityDecoder(2)
    d.add(DataPacket(1))
    d.add(ParityPacket((1, 2)))
    assert d.complete
    assert 2 in d.recovered


def test_decoder_concrete_recovery_bytes_match():
    content = MediaContent("m", 4, packet_size=16, seed=5)
    enhanced = enhance(content.packet_sequence(), h=2)
    d = ParityDecoder(4)
    for p in enhanced:
        if p.label != 3:  # drop data packet t3
            d.add(p)
    assert d.complete
    assert 3 in d.recovered
    assert d.payload_of(3) == content.payload(3)
    assert d.verify_against(content)


def test_decoder_one_loss_per_segment_recoverable():
    content = MediaContent("m", 12, packet_size=8, seed=1)
    enhanced = enhance(content.packet_sequence(), h=3)
    # drop the first data packet of every segment: 1, 4, 7, 10
    d = ParityDecoder(12)
    for p in enhanced:
        if p.label not in (1, 4, 7, 10):
            d.add(p)
    assert d.complete
    assert d.recovered == {1, 4, 7, 10}
    assert d.verify_against(content)


def test_decoder_two_losses_in_segment_not_recoverable():
    enhanced = enhance(
        PacketSequence(DataPacket(k) for k in range(1, 5)), h=2
    )
    d = ParityDecoder(4)
    for p in enhanced:
        if p.label not in (1, 2):  # two losses in first segment
            d.add(p)
    assert not d.complete
    assert d.missing_data_seqs() == {1, 2}


def test_decoder_out_of_order_arrival_recovers():
    """Parity arrives before the data it covers — recovery on last piece."""
    d = ParityDecoder(2)
    d.add(ParityPacket((1, 2), b"\x03"))
    assert not d.complete
    d.add(DataPacket(2, b"\x02"))
    assert d.complete
    assert d.payload_of(1) == b"\x01"


def test_decoder_nested_recovery_cascades():
    """Recovering a parity packet unlocks recovery through it.

    Segment <t1,t2> has parity t<1,2>; a second-layer parity
    t<<1,2>,3> covers (t<1,2>, t3).  If t<1,2> and t1 are lost,
    the second layer recovers t<1,2>, which then recovers t1.
    """
    p1, p2, p3 = b"\x01", b"\x02", b"\x04"
    par12 = ParityPacket((1, 2), xor_payloads([p1, p2]))
    par_nested = ParityPacket(
        ((1, 2), 3), xor_payloads([par12.payload, p3])
    )
    d = ParityDecoder(3)
    d.add(DataPacket(2, p2))
    d.add(DataPacket(3, p3))
    d.add(par_nested)
    assert d.complete
    assert d.payload_of(1) == p1
    assert (1, 2) in d.recovered
    assert 1 in d.recovered


def test_decoder_duplicates_counted():
    d = ParityDecoder(2)
    d.add(DataPacket(1))
    d.add(DataPacket(1))
    assert d.received_count == 2
    assert d.duplicate_count == 1


def test_decoder_duplicate_upgrades_symbolic_to_concrete():
    d = ParityDecoder(1)
    d.add(DataPacket(1))
    d.add(DataPacket(1, b"\x07"))
    assert d.payload_of(1) == b"\x07"


def test_decoder_payload_of_unknown_raises():
    with pytest.raises(KeyError):
        ParityDecoder(2).payload_of(1)


def test_decoder_invalid_size():
    with pytest.raises(ValueError):
        ParityDecoder(0)


def test_decoder_repr():
    d = ParityDecoder(5)
    d.add(DataPacket(1))
    assert "1/5" in repr(d)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=30),
    h=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
def test_property_any_single_loss_per_segment_recovers(n, h, data):
    """Drop at most one packet per recovery segment: always complete."""
    content = MediaContent("m", n, packet_size=4, seed=n * 31 + h)
    enhanced = enhance(content.packet_sequence(), h)
    packets = list(enhanced)
    # drop at most one covered packet per parity constraint group
    drops = set()
    parities = [p for p in packets if p.is_parity]
    for par in parities:
        if data.draw(st.booleans()):
            victims = list(parity_covers(par.label))
            victim = data.draw(st.sampled_from(victims))
            drops.add(victim)
    d = ParityDecoder(n)
    for p in packets:
        if p.label not in drops:
            d.add(p)
    assert d.complete
    assert d.verify_against(content)
