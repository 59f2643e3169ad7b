"""Tests for Esq/Div against the paper's Figure 6 and §3.6 examples."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fec import divide, enhance, recovery_segments
from repro.media.packet import parity_covers
from repro.media import DataPacket, MediaContent, PacketSequence


def data_seq(n):
    return PacketSequence(DataPacket(k) for k in range(1, n + 1))


def test_figure6_enhanced_sequence_h2():
    """[pkt]^2 = <t<1,2>, t1, t2, t3, t<3,4>, t4, t5, t6, t<5,6>, ...>"""
    out = enhance(data_seq(6), h=2)
    assert out.labels() == [
        (1, 2), 1, 2,
        3, (3, 4), 4,
        5, 6, (5, 6),
    ]


def test_figure6_divide_into_three():
    """[pkt]^2 divided by 3: the exact subsequences of Fig. 6 b)."""
    enhanced = enhance(data_seq(10), h=2)
    parts = [divide(enhanced, 3, i) for i in range(3)]
    assert parts[0].labels()[:5] == [(1, 2), 3, 5, (7, 8), 9]
    assert parts[1].labels()[:5] == [1, (3, 4), 6, 7, (9, 10)]
    assert parts[2].labels()[:5] == [2, 4, (5, 6), 8, 10]


def test_section36_nested_enhancement():
    """[[pkt]^2_1]^3 begins <t<<1,2>,3,5>, t<1,2>, t3, t5, t<7,8>, ...>"""
    enhanced = enhance(data_seq(12), h=2)
    sub1 = divide(enhanced, 3, 0)  # [pkt]^2_1 = <t<1,2>, t3, t5, t<7,8>, t9, t11, ...>
    assert sub1.labels()[:6] == [(1, 2), 3, 5, (7, 8), 9, 11]
    nested = enhance(sub1, h=3)
    assert nested.labels()[:5] == [((1, 2), 3, 5), (1, 2), 3, 5, (7, 8)]


def test_enhanced_length_ratio():
    """|[pkt]^h| = |pkt| (h+1)/h for multiples of h."""
    for h in (1, 2, 3, 5):
        out = enhance(data_seq(h * 6), h)
        assert len(out) == h * 6 * (h + 1) // h


def test_enhance_h1_duplicates_every_packet_as_parity():
    out = enhance(data_seq(4), h=1)
    # each segment is one packet + one parity covering just it
    assert out.parity_count() == 4
    assert out.data_count() == 4


def test_short_tail_segment_still_protected():
    out = enhance(data_seq(5), h=2)
    parities = [p for p in out if p.is_parity]
    assert parity_covers(parities[-1].label) == (5,)


def test_parity_payload_is_xor():
    content = MediaContent("m", 4, packet_size=8, seed=3)
    out = enhance(content.packet_sequence(), h=2)
    parity = next(p for p in out if p.is_parity and parity_covers(p.label) == (1, 2))
    expected = bytes(
        a ^ b for a, b in zip(content.payload(1), content.payload(2))
    )
    assert parity.payload == expected


def test_symbolic_enhance_has_none_payloads():
    out = enhance(data_seq(4), h=2)
    assert all(p.payload is None for p in out)


def test_recovery_segments():
    segs = list(recovery_segments(data_seq(7), 3))
    assert [len(s) for s in segs] == [3, 3, 1]
    assert [p.seq for p in segs[0]] == [1, 2, 3]


def test_invalid_h():
    with pytest.raises(ValueError):
        enhance(data_seq(3), 0)
    with pytest.raises(ValueError):
        list(recovery_segments(data_seq(3), -1))


def test_divide_partition_is_complete_and_disjoint():
    enhanced = enhance(data_seq(20), h=3)
    parts = [divide(enhanced, 4, i) for i in range(4)]
    all_labels = [lb for part in parts for lb in part.labels()]
    assert sorted(map(repr, all_labels)) == sorted(map(repr, enhanced.labels()))
    assert sum(len(p) for p in parts) == len(enhanced)


def test_divide_single_part_identity():
    s = data_seq(5)
    assert divide(s, 1, 0) == s


def test_divide_validation():
    s = data_seq(3)
    with pytest.raises(ValueError):
        divide(s, 0, 0)
    with pytest.raises(ValueError):
        divide(s, 2, 2)
    with pytest.raises(ValueError):
        divide(s, 2, -1)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=60),
    h=st.integers(min_value=1, max_value=8),
    parts=st.integers(min_value=1, max_value=7),
)
def test_property_divide_of_enhance_partitions(n, h, parts):
    enhanced = enhance(data_seq(n), h)
    subs = [divide(enhanced, parts, i) for i in range(parts)]
    assert sum(len(s) for s in subs) == len(enhanced)
    # round-robin: part sizes differ by at most 1
    sizes = sorted(len(s) for s in subs)
    assert sizes[-1] - sizes[0] <= 1


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=60),
    h=st.integers(min_value=1, max_value=8),
)
def test_property_enhance_preserves_data_order(n, h):
    out = enhance(data_seq(n), h)
    data = [p.seq for p in out if not p.is_parity]
    assert data == list(range(1, n + 1))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=60),
    h=st.integers(min_value=1, max_value=8),
)
def test_property_one_parity_per_segment(n, h):
    out = enhance(data_seq(n), h)
    import math
    assert out.parity_count() == math.ceil(n / h)
