"""Tests for the playback buffer (underrun accounting)."""

import pytest

from repro.streaming import PlaybackBuffer


def test_in_order_playback():
    buf = PlaybackBuffer(3)
    for seq in (1, 2, 3):
        buf.offer(seq)
    assert buf.play_next() == 1
    assert buf.play_next() == 2
    assert buf.play_next() == 3
    assert buf.finished
    assert buf.underruns == 0


def test_out_of_order_arrivals_buffer_up():
    buf = PlaybackBuffer(3)
    buf.offer(3)
    buf.offer(1)
    buf.offer(2)
    assert [buf.play_next() for _ in range(3)] == [1, 2, 3]


def test_underrun_recorded_when_gap():
    buf = PlaybackBuffer(3)
    buf.offer(2)
    assert buf.play_next() is None
    assert buf.underruns == 1
    assert buf.next_needed == 1  # the stall is on t1
    buf.offer(1)
    assert buf.play_next() == 1


def test_duplicates_and_stale_ignored():
    buf = PlaybackBuffer(5)
    buf.offer(1)
    buf.offer(1)  # duplicate
    assert buf.level == 1
    buf.play_next()
    buf.offer(1)  # stale (already played)
    assert buf.level == 0
    buf.offer(3)
    buf.skip()  # playback gives 2 up
    buf.offer(2)  # stale (skipped past)
    assert buf.level == 1


def test_skip_moves_past_lost_packet():
    buf = PlaybackBuffer(3)
    buf.offer(2)
    buf.offer(3)
    assert buf.skip() == 1
    assert buf.play_next() == 2
    assert buf.play_next() == 3


def test_level_and_next_needed():
    buf = PlaybackBuffer(5)
    buf.offer(2)
    buf.offer(3)
    assert buf.level == 2
    assert buf.next_needed == 1


def test_validation():
    with pytest.raises(ValueError):
        PlaybackBuffer(0)
    buf = PlaybackBuffer(3)
    with pytest.raises(ValueError):
        buf.offer(0)
    with pytest.raises(ValueError):
        buf.offer(4)


def test_play_after_finish_is_none():
    buf = PlaybackBuffer(1)
    buf.offer(1)
    assert buf.play_next() == 1
    assert buf.play_next() is None
    assert buf.underruns == 0  # finished, not starved


def test_repr():
    buf = PlaybackBuffer(4)
    assert "next=1/4" in repr(buf)


@pytest.mark.parametrize("protocol", ["dcop", "tcop"])
def test_counters_agree_with_the_trace(protocol):
    """The buffer and the leaf only count; the ``buffer.*`` trace events
    are the record of when.  Under bursty loss (stalls, skips) and a
    receipt-rate cap (receive overruns) the two must tell one story."""
    from repro.core import ProtocolConfig
    from repro.obs import TraceConfig
    from repro.streaming import LossSpec, ProtocolSpec, SessionSpec

    result = SessionSpec(
        config=ProtocolConfig(n=12, H=4, fault_margin=1, content_packets=200, seed=3),
        protocol=ProtocolSpec(protocol),
        loss=LossSpec("bursty", {"rate": 0.05}),
        playback=True,
        leaf_receipt_rate=1.1,
        leaf_receive_buffer=8.0,
        trace=TraceConfig(),
    ).run()
    bus = result.trace
    assert bus.dropped_events == 0
    counted = (result.underruns, result.playback_skips, result.receive_overruns)
    traced = tuple(
        len(bus.of_kind(kind))
        for kind in ("buffer.underrun", "buffer.skip", "buffer.overrun")
    )
    assert counted == traced
    assert all(count > 0 for count in counted)  # every path was exercised
