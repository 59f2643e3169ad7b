"""A pair with no state to keep is one delay, not a channel.

Fault-free runs — no loss model, no link fault, a constant latency per
directed pair — record each pair's one latency draw in
``Overlay.delays`` and build no :class:`Channel`, loss model or RNG
stream for it.  Every other pair keeps a channel.  Either way a message
arrives at the same instant: these tests pin that, the draw order of
the pair latencies, and the pairs that must still get a channel.
"""

import zlib
from dataclasses import replace

import numpy as np
import pytest

from repro.core import ProtocolConfig
from repro.net import (
    BernoulliLoss,
    ConstantLatency,
    DuplicateFault,
    Overlay,
    UniformLatency,
)
from repro.obs import TraceConfig
from repro.sim import Environment, RandomStreams
from repro.streaming import LossSpec, ProtocolSpec, SessionSpec

from tests.net import ignore


def _cell(**spec_kw) -> SessionSpec:
    return SessionSpec(
        config=ProtocolConfig(n=20, H=8, content_packets=120, seed=3),
        protocol=ProtocolSpec("dcop"),
        **spec_kw,
    )


def _overlay(**kw):
    env = Environment()
    ov = Overlay(env, streams=RandomStreams(5), **kw)
    for name in ("a", "b", "c"):
        ov.add_node(name, ignore)
    return env, ov


# ----------------------------------------------------------------------
# a fault-free session
# ----------------------------------------------------------------------
def test_a_fault_free_session_builds_no_channel_and_names_no_channel_stream():
    session = _cell().build()
    session.run()
    overlay = session.overlay
    assert overlay.channels == {}
    assert len(overlay.delays) > 50
    assert not [n for n in session.streams._streams if n.startswith("channel/")]


def test_delays_hold_one_scalar_draw_per_pair_in_first_wire_use_order():
    session = _cell(trace=TraceConfig()).build()
    session.run()
    first_use = {}
    for event in session.commons.trace_bus.of_kind("msg.send"):
        first_use.setdefault((event.subject, event.fields["dst"]), None)
    delays = session.overlay.delays
    assert list(delays) == list(first_use)
    # the reference draws ``latency/pairs`` one scalar per pair
    cfg = session.config
    rng = np.random.default_rng(
        np.random.SeedSequence([cfg.seed, zlib.crc32(b"latency/pairs")])
    )
    spread = cfg.pair_latency_spread
    assert delays == {
        pair: cfg.delta * (1.0 + spread * (2.0 * rng.random() - 1.0))
        for pair in first_use
    }


@pytest.mark.parametrize("media_batch", [0.0, 5.0])
def test_delay_rows_deliver_what_reliable_channels_deliver(media_batch):
    # LossSpec("none") keeps a NoLoss channel per pair; its sends take the
    # channel path and must land at the same instants, in the same order
    rows = _cell(trace=TraceConfig(), media_batch=media_batch).build()
    chans = _cell(
        trace=TraceConfig(), media_batch=media_batch, loss=LossSpec("none")
    ).build()
    by_rows, by_chans = rows.run(), chans.run()
    assert rows.overlay.channels == {} and chans.overlay.delays == {}
    assert set(chans.overlay.channels) == set(rows.overlay.delays)
    assert rows.commons.trace_bus.events == chans.commons.trace_bus.events
    assert replace(by_rows, trace=None) == replace(by_chans, trace=None)


# ----------------------------------------------------------------------
# the overlay, pair by pair
# ----------------------------------------------------------------------
def test_an_explicit_channel_on_a_delay_row_reuses_its_delay():
    draws = []

    def factory(src, dst):
        draws.append((src, dst))
        return ConstantLatency(1.0 + len(draws))

    env, ov = _overlay(latency_factory=factory)
    ov.send("a", "b", "control")
    env.run()
    assert ov.delays == {("a", "b"): 2.0} and ov.channels == {}
    ch = ov.channel("a", "b")
    assert draws == [("a", "b")]  # no second draw
    assert ch.latency.delay == 2.0 and ch.loss is None and ch.fault is None
    assert ov.channel("a", "b") is ch
    # channel() on a pair not yet opened opens it once
    ov.channel("b", "a")
    assert draws == [("a", "b"), ("b", "a")] and ("b", "a") in ov.delays


@pytest.mark.parametrize(
    "kw",
    [
        {"default_loss_factory": lambda: BernoulliLoss(0.1)},
        {"link_fault_factory": lambda: DuplicateFault(p=0.1)},
        {"default_latency": UniformLatency(1.0, 2.0)},
    ],
    ids=["lossy", "link_fault", "jittered"],
)
def test_a_pair_with_state_to_keep_gets_one_channel(kw):
    env, ov = _overlay(**kw)
    for src, dst in [("a", "b"), ("a", "b"), ("b", "c"), ("c", "a")]:
        ov.send(src, dst, "packet")
    env.run()
    assert ov.delays == {}
    assert set(ov.channels) == {("a", "b"), ("b", "c"), ("c", "a")}


def test_a_delay_row_is_still_cut_and_control_lossy():
    env, ov = _overlay(control_loss_factory=lambda: BernoulliLoss(1.0))
    got = []
    ov.add_node("d", lambda m: got.append(m.kind))
    ov.send("a", "d", "packet")
    ov.send("a", "d", "control")
    ov.sever_link("a", "d")
    ov.send("a", "d", "packet")
    env.run()
    assert list(ov.delays) == [("a", "d")]
    assert got == ["packet"]
    assert ov.traffic.dropped_by_kind == {"control": 1, "packet": 1}
    drops = [row.reason for row in ov.ledger.rows if row.kind == "msg.drop"]
    assert drops == ["control_loss", "link_severed"]
