"""Metrics registry: gauges, sampling, and SweepSeries export."""

import pytest

from repro.metrics import SweepSeries
from repro.obs import Gauge, MetricsRegistry, TraceConfig
from repro.obs.metrics import MAX_SAMPLES
from repro.core import ProtocolConfig
from repro.streaming import ProtocolSpec, SessionSpec


def test_gauge_reads_through_callable():
    state = {"v": 3}
    g = Gauge("level", lambda: state["v"])
    assert g.read() == 3.0
    state["v"] = 7
    assert g.read() == 7.0


def test_registry_rejects_duplicate_names():
    reg = MetricsRegistry()
    reg.gauge("x", lambda: 0)
    with pytest.raises(ValueError):
        reg.gauge("x", lambda: 1)


def test_sampling_snapshots_counters_and_gauges():
    # a running total (what ctrl_sends/media_sends read off the traffic
    # ledger) and a level, both probed at each sample
    reg = MetricsRegistry()
    state = {"sent": 0, "v": 10}
    reg.gauge("sends", lambda: state["sent"])
    reg.gauge("level", lambda: state["v"])
    reg.sample(0.0)
    state.update(sent=4, v=6)
    reg.sample(10.0)
    series = reg.to_series()
    assert isinstance(series, SweepSeries)
    assert series.x == [0.0, 10.0]
    assert series.columns["sends"] == [0.0, 4.0]
    assert series.columns["level"] == [10.0, 6.0]


def test_sample_times_must_not_regress():
    reg = MetricsRegistry()
    reg.gauge("x", lambda: 0)
    reg.sample(5.0)
    with pytest.raises(ValueError):
        reg.sample(4.0)


def test_mid_run_registration_backfills_zeros():
    reg = MetricsRegistry()
    reg.gauge("early", lambda: 0)
    reg.sample(0.0)
    reg.sample(1.0)
    reg.gauge("late", lambda: 1)
    reg.sample(2.0)
    series = reg.to_series()
    assert series.columns["late"] == [0.0, 0.0, 1.0]


def test_empty_registry_refuses_export():
    with pytest.raises(ValueError):
        MetricsRegistry().to_series()


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
