"""Session-level pins for what the simulation computes once.

One ``Esq`` per handoff however many children read it, no RNG stream
seeded for a channel that never draws, and none of the shared objects
reachable from a result that leaves the process.
"""

import pickle
import sys

from repro.core import ProtocolConfig
from repro.fec import enhance
from repro.obs import TraceConfig
from repro.streaming import SessionSpec, Stream
from repro.streaming.spec import LossSpec, ProtocolSpec


def _fig10_cell(**spec_kw) -> SessionSpec:
    return SessionSpec(
        config=ProtocolConfig(n=30, H=18, content_packets=200, seed=5),
        protocol=ProtocolSpec("dcop"),
        **spec_kw,
    )


def test_a_session_enhances_once_per_division(monkeypatch):
    enhanced_bases = []

    def counted_enhance(seq, h):
        enhanced_bases.append(seq)
        return enhance(seq, h)

    monkeypatch.setattr(
        sys.modules["repro.fec.enhance"], "enhance", counted_enhance
    )
    plans = []
    handoff = Stream.handoff

    def counted_handoff(self, *args, **kw):
        plan = handoff(self, *args, **kw)
        if plan is not None:
            plans.append(plan)
        return plan

    monkeypatch.setattr(Stream, "handoff", counted_handoff)

    result = _fig10_cell().run()
    assert result.delivery_ratio == 1.0 and result.all_active
    children = sum(len(p.assignments) for p in plans)
    assert children > 10 * len(plans)  # H=18: the old cost was per child
    # the leaf's initial division plus one per handoff, each basis once
    assert len(enhanced_bases) == 1 + len(plans)
    assert len({id(b) for b in enhanced_bases}) == len(enhanced_bases)


def test_fault_free_cell_seeds_no_channel_stream():
    session = _fig10_cell().build()
    session.run()
    assert len(session.overlay.channels) > 200
    opened = session.streams.opened()
    assert not [name for name in opened if name.startswith("channel/")]
    # the streams that did draw: peer selection, pair latencies, phases
    assert "select/leaf" in opened and "latency/pairs" in opened


def test_lossy_cell_seeds_exactly_the_channels_that_carried_traffic():
    session = _fig10_cell(loss=LossSpec("bernoulli", {"p": 0.05})).build()
    session.run()
    opened = {n for n in session.streams.opened() if n.startswith("channel/")}
    assert opened == {
        f"channel/{src}->{dst}"
        for (src, dst), ch in session.overlay.channels.items()
        if ch.stats.sent
    }


def test_detached_result_carries_no_sequence_or_memo():
    result = _fig10_cell(trace=TraceConfig()).run().detach()
    blob = pickle.dumps(result)
    for name in (b"repro.media", b"repro.fec", b"Assignment"):
        assert name not in blob
    assert pickle.loads(blob).delivery_ratio == 1.0
