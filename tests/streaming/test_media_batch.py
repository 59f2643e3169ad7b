"""Batched media plane: one delivery event per slot, same semantics.

``SessionSpec.media_batch`` turns the per-packet transmit loop into a
vectorized one — each contents peer sends a :class:`PacketBatch` per
batch window and the channel applies loss/latency/fault fates per
packet inside it.  The trajectory is deliberately coarser (different
event interleaving), but the *delivered content* must be preserved:
full receipt on clean links, parity-covered recovery under loss, and
per-packet traffic/trace accounting that matches the unbatched plane.
"""

import numpy as np
import pytest

from repro.core import ProtocolConfig
from repro.media import PacketBatch
from repro.media.packet import DataPacket
from repro.obs import AuditConfig, TraceConfig
from repro.streaming import (
    LinkFaultSpec,
    LossSpec,
    ProtocolSpec,
    SessionSpec,
)

PROTOCOLS = ["dcop", "tcop", "broadcast", "ams", "hetero_schedule"]


def config(**kw):
    defaults = dict(
        n=10, H=4, fault_margin=1, tau=1.0, delta=8.0,
        content_packets=120, seed=23,
    )
    defaults.update(kw)
    return ProtocolConfig(**defaults)


def spec(protocol, media_batch=0.0, **extra):
    params = (
        {"bandwidths": [2.0, 1.0, 1.0, 1.0]}
        if protocol == "hetero_schedule"
        else {}
    )
    return SessionSpec(
        config=config(),
        protocol=ProtocolSpec(protocol, params),
        trace=TraceConfig(),
        audit=AuditConfig(),
        media_batch=media_batch,
        **extra,
    )


# ----------------------------------------------------------------------
# semantics preservation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_batched_lossless_receipt_matches_unbatched(protocol):
    """On clean links batching preserves delivery semantics: full
    delivery, a receipt rate within one batch window of the per-packet
    plane (handoffs land on batch boundaries instead of packet
    boundaries, shifting coverage by at most a window per handoff), and
    the identical set of audit verdicts."""
    plain = spec(protocol).run()
    batched = spec(protocol, media_batch=1.0).run()
    assert batched.delivery_ratio == 1.0
    assert batched.delivery_ratio == plain.delivery_ratio
    assert batched.receipt_rate == pytest.approx(plain.receipt_rate, rel=0.05)
    # per-kind media accounting stays per packet in the batched plane
    assert batched.messages_by_kind.get("packet") == pytest.approx(
        plain.messages_by_kind.get("packet"), rel=0.05
    )
    # batching changes the granularity, never which properties hold
    plain_verdicts = {
        name: report["passed"]
        for name, report in plain.audit.to_dict()["auditors"].items()
    }
    batched_verdicts = {
        name: report["passed"]
        for name, report in batched.audit.to_dict()["auditors"].items()
    }
    assert batched_verdicts == plain_verdicts


@pytest.mark.parametrize("protocol", ["dcop", "tcop"])
def test_batched_media_loss_recovery_matches_unbatched(protocol):
    """Per-packet fates inside a batch: 5% media loss hits individual
    packets (not whole batches), so parity recovery lands within noise
    of the per-packet plane."""
    plain = spec(protocol, loss=LossSpec("bernoulli", {"p": 0.05})).run()
    batched = spec(
        protocol,
        media_batch=1.0,
        loss=LossSpec("bernoulli", {"p": 0.05}),
    ).run()
    assert batched.delivery_ratio >= 0.9
    assert batched.delivery_ratio == pytest.approx(
        plain.delivery_ratio, abs=0.05
    )


@pytest.mark.parametrize("protocol", ["dcop", "tcop"])
def test_batched_media_under_link_chaos(protocol):
    """Duplicating/reordering links duplicate whole delivery events;
    the leaf's per-packet unbatching still yields full delivery."""
    result = spec(
        protocol,
        media_batch=1.0,
        link_fault=LinkFaultSpec(
            "chaos", {"dup_p": 0.1, "reorder_p": 0.2, "max_delay": 16.0}
        ),
    ).run()
    assert result.elapsed < 1e7
    assert result.delivery_ratio == 1.0


def test_batched_run_is_deterministic():
    a = spec("dcop", media_batch=2.0).run()
    b = spec("dcop", media_batch=2.0).run()
    assert a.summary() == b.summary()
    assert a == b


def test_batching_cuts_event_count(counting_heap):
    """The point of the exercise: one delivery event per batch window
    instead of one per packet."""
    plain = spec("tcop", scheduler=counting_heap.name).build()
    batched = spec(
        "tcop", media_batch=2.0, scheduler=counting_heap.name
    ).build()
    plain.run(), batched.run()
    assert 0 < batched.env.scheduler.pops < plain.env.scheduler.pops


def test_media_batch_must_be_non_negative():
    with pytest.raises(ValueError, match="media_batch"):
        spec("dcop", media_batch=-1.0).build()


def test_low_rate_streams_accumulate_across_windows():
    """A stream at rate ≪ 1 packet/window must still batch: the loop
    accumulates ≥ 2 packets across windows instead of degenerating to
    per-packet sends (the average rate is preserved by sleeping out the
    extra windows after the send)."""
    low = SessionSpec(
        config=config(tau=0.2, content_packets=40),
        protocol=ProtocolSpec("dcop"),
        trace=TraceConfig(),
        media_batch=1.0,
    ).run()
    assert low.delivery_ratio == 1.0
    # media.tx events of one batch share a timestamp; group them
    groups = {}
    for e in low.trace.events:
        if e.kind == "media.tx":
            groups.setdefault((e.subject, e.ts), []).append(e)
    sizes = [len(g) for g in groups.values()]
    assert max(sizes) >= 2, "low-rate subsequences never batched"
    # a healthy share of sends accumulates; the remaining singletons
    # are phase-boundary and exhaustion tails (pop_batch never crosses
    # a phase), not a degenerate per-packet plane
    assert sum(1 for s in sizes if s >= 2) >= len(sizes) // 4


# ----------------------------------------------------------------------
# PacketBatch container
# ----------------------------------------------------------------------
class TestPacketBatch:
    def _packets(self, k):
        return tuple(DataPacket(seq) for seq in range(1, k + 1))

    def test_len_iter_repr(self):
        pkts = self._packets(3)
        batch = PacketBatch(pkts, np.array([0.0, 1.0, 2.0]))
        assert len(batch) == 3
        assert tuple(batch) == pkts
        assert "3" in repr(batch)

    def test_offsets_shape_validated(self):
        with pytest.raises(ValueError):
            PacketBatch(self._packets(3), np.array([0.0, 1.0]))

    def test_dup_length_validated(self):
        with pytest.raises(ValueError):
            PacketBatch(
                self._packets(2),
                np.array([0.0, 1.0]),
                dup=np.array([False]),
            )


# ----------------------------------------------------------------------
# Stream.pop_batch
# ----------------------------------------------------------------------
class TestPopBatch:
    def _stream(self, n=10, rate=1.0):
        from repro.media.sequence import PacketSequence
        from repro.streaming.stream import Stream

        return Stream(
            PacketSequence([DataPacket(s) for s in range(1, n + 1)]), rate
        )

    def test_pops_in_order_and_counts(self):
        s = self._stream(10)
        first = s.pop_batch(4)
        assert [p.seq for p in first] == [1, 2, 3, 4]
        assert s.sent_count == 4
        assert s.remaining() == 6

    def test_never_crosses_phase_boundary(self):
        s = self._stream(10)
        s.handoff(1, fault_margin=0, delta=3.0)  # keeps ceil(3δ)=3 + own part
        rate_before = s.current_rate
        batch = s.pop_batch(100)
        # only the head phase came out, at one rate
        assert len(batch) == 3
        assert s.current_rate != rate_before or s.exhausted is False

    def test_exhausted_returns_empty(self):
        s = self._stream(2)
        assert len(s.pop_batch(5)) == 2
        assert s.pop_batch(5) == ()
        assert s.exhausted

    def test_matches_pop_next_sequence(self):
        a, b = self._stream(9), self._stream(9)
        via_batch = []
        while True:
            got = a.pop_batch(4)
            if not got:
                break
            via_batch.extend(got)
        via_single = []
        while True:
            pkt = b.pop_next()
            if pkt is None:
                break
            via_single.append(pkt)
        assert via_batch == via_single
