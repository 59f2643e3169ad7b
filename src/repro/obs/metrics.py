"""Time-series metrics: gauges sampled on sim-time.

A :class:`MetricsRegistry` holds named gauges (:class:`Gauge`) and
snapshots them all against the simulation clock; the result exports as a
:class:`~repro.metrics.series.SweepSeries` (x = time in ms, one column
per gauge), so the harness's existing table/JSON machinery renders a
run's *trajectory* the same way it renders a sweep's end-state.

:class:`TimeSeriesSampler` is the observer a single-leaf traced run
samples with: it reads no events, only the session's state — send
totals off the overlay's per-kind tallies, the active population, the
in-flight control gauge, the leaf's buffer and receipt rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.metrics.series import SweepSeries
from repro.obs.trace import CONTROL_KINDS, Observer

if TYPE_CHECKING:  # pragma: no cover
    from repro.streaming.session import StreamingSession


@dataclass
class Gauge:
    """Point-in-time reading, probed by the registry at each sample."""

    name: str
    fn: Callable[[], float]

    def read(self) -> float:
        return float(self.fn())


class MetricsRegistry:
    """Named gauges + the sampled time series they produce."""

    def __init__(self) -> None:
        self.gauges: Dict[str, Gauge] = {}
        self.sample_times: List[float] = []
        self.samples: Dict[str, List[float]] = {}

    def gauge(self, name: str, fn: Callable[[], float]) -> Gauge:
        if name in self.gauges:
            raise ValueError(f"metric {name!r} already registered")
        g = Gauge(name, fn)
        self.gauges[name] = g
        # a metric registered mid-run backfills zeros for earlier samples
        self.samples[name] = [0.0] * len(self.sample_times)
        return g

    def sample(self, now: float) -> None:
        """Snapshot every gauge at simulated time ``now``."""
        if self.sample_times and now < self.sample_times[-1]:
            raise ValueError(f"sample time {now} precedes previous sample")
        self.sample_times.append(now)
        for name, g in self.gauges.items():
            self.samples[name].append(g.read())

    def to_series(self, title: str = "run timeseries") -> SweepSeries:
        names = sorted(self.samples)
        if not names:
            raise ValueError("no gauges registered")
        series = SweepSeries("t_ms", names, title=title)
        for i, t in enumerate(self.sample_times):
            series.add(t, **{name: self.samples[name][i] for name in names})
        return series


class TimeSeriesSampler(Observer):
    """A single-leaf run's trajectory, sampled every
    ``sample_period_deltas`` δ of its bus's :class:`TraceConfig`.

    Binding starts the sampling process; :meth:`finish` returns the
    series.  Self-terminating: sampling stops when the leaf holds the
    full content, when the event queue has otherwise drained (nothing
    left to observe), or after ``max_samples`` ticks — so tracing never
    keeps a simulation alive materially past its natural end.
    """

    result_field = "timeseries"
    #: reads no events — it probes the session — so the bus sends none
    kinds = frozenset()

    def bind(self, bus=None, session=None, **context):
        super().bind(bus, session, **context)
        registry = self.registry = MetricsRegistry()
        # every ``msg.send`` emit sits beside the tally increment it
        # mirrors, so these are the run's send totals as traced
        sent = session.overlay.traffic.sent_by_kind
        registry.gauge("ctrl_sends", lambda: sum(sent[k] for k in CONTROL_KINDS))
        registry.gauge(
            "media_sends",
            lambda: sum(n for k, n in sent.items() if k not in CONTROL_KINDS),
        )
        registry.gauge(
            "active_peers",
            lambda: sum(
                1 for p in session.peers.values() if p.active and not p.crashed
            ),
        )
        registry.gauge("in_flight_control", lambda: bus.in_flight_control)
        registry.gauge("buffer_level", lambda: session.leaf.buffer.level)
        registry.gauge("receipt_rate", self._windowed_receipt_rate)
        self._rr_prev = (0, session.env.now)
        session.env.process(self._sample_loop(bus.config))
        return self

    def _windowed_receipt_rate(self) -> float:
        """Leaf arrivals over the last sample window, normalized to τ."""
        now = self._session.env.now
        # every accepted media packet is fed to the decoder exactly once
        count = self._session.leaf.decoder.received_count
        prev_count, prev_t = self._rr_prev
        self._rr_prev = (count, now)
        if now <= prev_t:
            return 0.0
        return (count - prev_count) / (now - prev_t) / self.tau

    def _sample_loop(self, trace):
        env, leaf = self._session.env, self._session.leaf
        period = trace.sample_period_deltas * self.delta
        for _ in range(trace.max_samples):
            yield env.timeout(period)
            self.registry.sample(env.now)
            if leaf.decoder.complete or len(env) == 0:
                return

    def finish(self, session: Optional["StreamingSession"] = None) -> SweepSeries:
        """The sampled series."""
        return self.registry.to_series(title=f"{self.protocol} run timeseries")
