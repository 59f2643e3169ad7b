"""The packet ledger: the media plane's one per-seq record of a run."""

from collections import Counter

import pytest

from repro.core import ProtocolConfig
from repro.obs import TraceConfig
from repro.streaming import LossSpec, ProtocolSpec, SessionSpec


def _spec(**spec_kw):
    return SessionSpec(
        config=ProtocolConfig(
            n=10, H=4, fault_margin=1, content_packets=200, seed=0
        ),
        protocol=ProtocolSpec("tcop"),
        loss=LossSpec("bernoulli", {"p": 0.15}),
        playback=True,
        **spec_kw,
    )


@pytest.mark.parametrize("media_batch", [0.0, 5.0])
def test_a_traced_run_files_one_row_per_media_event(media_batch):
    session = _spec(trace=TraceConfig(), media_batch=media_batch).build()
    result = session.run()
    traced = Counter(e.kind for e in result.trace.events)
    packets = session.commons.packets
    filed = {
        "media.tx": sum(map(len, packets.sent.values())),
        "media.rx": sum(map(len, packets.arrived.values())),
        "fec.recover": len(packets.recovered),
        "buffer.play": len(packets.played),
    }
    assert all(filed.values())
    assert filed == {kind: traced[kind] for kind in filed}
    # a batch's rows carry its offsets and waits; a lone packet's, none
    batched = media_batch > 0
    sent = [tx for txs in packets.sent.values() for tx in txs]
    arrived = [rx for rxs in packets.arrived.values() for rx in rxs]
    assert {tx.off is not None for tx in sent} == {batched}
    assert {rx.wait is not None for rx in arrived} == {batched}


def test_an_untraced_run_keeps_no_packet_ledger():
    session = _spec().build()
    session.run()
    assert session.commons.packets is None
