"""The time-series sampler: a single-leaf run's series, read off its log."""

import pytest

from repro.core import ProtocolConfig
from repro.metrics import SweepSeries
from repro.metrics.io import series_to_dict
from repro.net.ledger import PacketLedger
from repro.obs import TraceConfig, TraceEvent
from repro.obs import metrics
from repro.obs.exporters import read_jsonl, trace_to_jsonl
from repro.obs.metrics import MAX_SAMPLES, TimeSeriesSampler
from repro.obs.trace import feed
from repro.streaming import ProtocolSpec, SessionSpec

from .test_artefact_pins import CELLS

#: the pinned cells a sampler joins: every traced single-leaf run
SINGLE_LEAF = [cell for cell in sorted(CELLS) if not cell.startswith("swarm/")]


def series_of(*events, end=0.0, n_packets=10, delta=10.0):
    """Feed crafted ``(ts, kind, subject, fields)`` events to one sampler
    the way a run's finish does; its series."""
    sampler = TimeSeriesSampler().bind(n_packets=n_packets, delta=delta, tau=1.0)
    (series,), _ = feed(
        [TraceEvent(*event) for event in events], [sampler], PacketLedger(), end
    )
    return series


def test_sampling_snapshots_counters_and_gauges():
    # running totals (sends) and levels (active peers, buffer), each
    # sample counting every event stamped at or before its tick
    series = series_of(
        (0.0, "peer.activate", "CP1", {"round": 1}),
        (2.0, "msg.send", "leaf", {"kind": "request", "dst": "CP1"}),
        (5.0, "msg.send", "CP1", {"kind": "packet", "dst": "leaf"}),
        (7.0, "media.rx", "leaf", {"label": 1, "src": "CP1"}),
        # at the tick's own instant: the tick counts it
        (10.0, "msg.send", "CP1", {"kind": "packet", "dst": "leaf", "count": 3}),
        (12.0, "media.rx", "leaf", {"label": 2, "src": "CP1"}),
        (12.0, "media.rx", "leaf", {"label": 2, "src": "CP1"}),  # duplicate
        (15.0, "peer.crash", "CP1", {}),
        end=25.0,
    )
    assert isinstance(series, SweepSeries)
    assert series.x == [10.0, 20.0, 30.0]
    assert series.columns["ctrl_sends"] == [1.0, 1.0, 1.0]
    assert series.columns["media_sends"] == [4.0, 4.0, 4.0]
    assert series.columns["active_peers"] == [1.0, 0.0, 0.0]
    assert series.columns["buffer_level"] == [1.0, 2.0, 2.0]
    # arrivals per tick over τ: one, two (a duplicate still arrived), none
    assert series.columns["receipt_rate"] == [0.1, 0.2, 0.0]


def test_sample_times_must_not_regress():
    # the ticks add δ to each other as the clock did, and sampling ends
    # at the first tick at or past the run's end…
    assert series_of(end=30.0).x == [10.0, 20.0, 30.0]
    x = series_of(end=0.25, delta=0.1).x
    assert x == [0.1, 0.1 + 0.1, 0.1 + 0.1 + 0.1]
    assert x == sorted(set(x))
    # …or at the first that finds the content complete
    held = series_of(
        (3.0, "media.rx", "leaf", {"label": 1, "src": "CP1"}),
        (14.0, "fec.recover", "leaf", {"seq": 2}),
        (31.0, "media.rx", "leaf", {"label": 1, "src": "CP1"}),
        end=100.0,
        n_packets=2,
    )
    assert held.x == [10.0, 20.0]


def test_sampling_stops_at_max_samples(monkeypatch):
    monkeypatch.setattr(metrics, "MAX_SAMPLES", 3)
    assert len(series_of(end=1000.0)) == 3


def test_buffer_level_follows_playback():
    series = series_of(
        (1.0, "media.rx", "leaf", {"label": 2, "src": "CP1"}),
        (2.0, "media.rx", "leaf", {"label": ("p", 1), "src": "CP1"}),  # parity
        (4.0, "buffer.skip", "leaf", {"seq": 1}),
        (5.0, "media.rx", "leaf", {"label": 1, "src": "CP2"}),  # skipped past
        (12.0, "buffer.play", "leaf", {"seq": 2}),
        (13.0, "media.rx", "other", {"label": 3, "src": "CP2"}),  # not the leaf
        end=15.0,
    )
    assert series.columns["buffer_level"] == [1.0, 0.0]


@pytest.mark.parametrize("cell", SINGLE_LEAF)
def test_the_series_is_a_function_of_the_log(cell):
    # the exported events, fed back through the one walk with the run's
    # end, give the series the run reported
    result = CELLS[cell]().run()
    events = list(read_jsonl(trace_to_jsonl(result.trace).splitlines()))
    packets = PacketLedger()
    for event in events:
        if event.kind in PacketLedger.kinds:
            packets.add(*event)
    config = result.config
    sampler = TimeSeriesSampler().bind(
        n_packets=config.content_packets, delta=config.delta, tau=config.tau,
        protocol=result.protocol,
    )
    (series,), _ = feed(events, [sampler], packets, result.elapsed)
    assert series_to_dict(series) == series_to_dict(result.timeseries)


def test_session_timeseries_columns_and_coverage():
    config = ProtocolConfig(n=12, H=4, fault_margin=1, content_packets=100, seed=5)
    result = SessionSpec(config, ProtocolSpec("tcop"), trace=TraceConfig()).build().run()
    series = result.timeseries
    assert series is not None
    assert series.series_names == sorted(
        [
            "active_peers",
            "buffer_level",
            "ctrl_sends",
            "in_flight_control",
            "media_sends",
            "receipt_rate",
        ]
    )
    assert len(series.x) >= 2
    # send totals are monotone over time; the active population reaches n
    ctrl = series.columns["ctrl_sends"]
    assert ctrl == sorted(ctrl)
    assert max(series.columns["active_peers"]) == config.n
    # the sampler is rate-limited by MAX_SAMPLES
    assert len(series.x) <= MAX_SAMPLES
