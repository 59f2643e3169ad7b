"""Tests for packet labels and the paper's t_<...> notation."""

import pytest

from repro.media import (
    DataPacket,
    Packet,
    ParityPacket,
    base_seqs,
    format_label,
    parity_covers,
)


def test_data_packet_basics():
    p = DataPacket(3)
    assert not p.is_parity
    assert p.seq == 3
    assert p.label == 3
    assert p.covered_seqs() == {3}


def test_data_packet_rejects_bad_seq():
    with pytest.raises(ValueError):
        DataPacket(0)
    with pytest.raises(ValueError):
        DataPacket(-1)


def test_parity_packet_basics():
    p = ParityPacket((1, 2))
    assert p.is_parity
    assert parity_covers(p.label) == (1, 2)
    assert p.covered_seqs() == {1, 2}


def test_parity_rejects_empty_covers():
    with pytest.raises(ValueError):
        ParityPacket(())
    with pytest.raises(ValueError):
        ParityPacket([1, 2])  # type: ignore[arg-type]


def test_nested_parity_covered_seqs():
    # t_<<1,2>,3,5> from §3.6
    p = ParityPacket(((1, 2), 3, 5))
    assert p.covered_seqs() == {1, 2, 3, 5}


def test_seq_raises_on_parity():
    with pytest.raises(TypeError):
        _ = ParityPacket((1, 2)).seq


def test_covers_raises_on_data():
    with pytest.raises(TypeError):
        parity_covers(DataPacket(1).label)


def test_format_label_matches_paper_notation():
    assert format_label(7) == "t7"
    assert format_label((1, 2)) == "t<1,2>"
    assert format_label(((1, 2), 3, 5)) == "t<<1,2>,3,5>"
    assert str(ParityPacket((7, (9, 11), 12))) == "t<7,<9,11>,12>"


def test_base_seqs_nested():
    assert base_seqs((7, (9, 11), 12)) == {7, 9, 11, 12}
    assert base_seqs(4) == {4}


def test_packet_equality_ignores_payload():
    assert DataPacket(1, b"aa") == DataPacket(1, b"bb")
    assert ParityPacket((1, 2), b"x") == ParityPacket((1, 2))


def test_packet_hashable():
    s = {DataPacket(1), DataPacket(1), ParityPacket((1, 2))}
    assert len(s) == 2


def test_payload_preserved():
    p = DataPacket(1, b"\x00\xff")
    assert p.payload == b"\x00\xff"
    assert Packet(label=5).payload is None
