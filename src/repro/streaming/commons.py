"""What every leaf of one run shares, built once.

The paper streams one content from ``n`` contents peers to a leaf; a crowd
of leaves is the same ``n`` peers serving several leaves at once.  Either
way a run has one :class:`Commons`: clock, RNG family, trace bus, fault and
packet ledgers, overlay, content, the contents peers' ids (and, when uplinks
are capped, their upload budgets) and the run's observers.  A session built on
its own makes a private one; a swarm makes one and hands it to every leaf's
session.
"""

from __future__ import annotations

from dataclasses import replace

from repro.media.content import MediaContent
from repro.metrics.io import series_to_dict
from repro.net.latency import ConstantLatency
from repro.net.ledger import FaultLedger, PacketLedger
from repro.net.overlay import Overlay
from repro.obs.audit import AuditReport, build_auditors
from repro.obs.exporters import trace_to_dict
from repro.obs.metrics import TimeSeriesSampler
from repro.obs.spans import SpanBuilder
from repro.obs.trace import TraceBus, TraceConfig, feed
from repro.sim.engine import Environment
from repro.sim.rng import RandomStreams


#: pair-latency uniforms drawn per ``latency/pairs`` call; a block of k
#: is the same k doubles as k scalar draws, so no delay depends on it
PAIR_DRAW_BLOCK = 256


def peer_ids(config) -> list:
    """The contents peers of a run over ``config``: CP1 … CPn."""
    return [f"CP{i}" for i in range(1, config.n + 1)]


class Commons:
    """One run's shared ground, read off ``spec`` (a swarm's template).

    ``capacity``, ``trace``, ``audit`` and ``spans`` belong to the run, not
    to a leaf, so whoever owns the run passes its own.
    """

    def __init__(self, spec, capacity=None, trace=None, audit=None, spans=None):
        # a spec no session could run with is refused before anything runs
        if spec.media_batch < 0:
            raise ValueError("media_batch must be >= 0 (δ units)")
        if spec.health_policy is not None and spec.detector_policy is None:
            # quarantine judges peers by the detector's evidence (φ,
            # residuals, last_heard)
            raise ValueError(
                "HealthMonitor needs a failure detector (its φ score is "
                "one of the health signals); set detector_policy too"
            )
        if spec.protocol.params.get("weighted") and capacity is None:
            # a weighted division divides by the budgets it is held to
            raise ValueError(
                "a weighted division reads the peers' upload budgets; "
                "state them (upload_capacity, or SwarmSpec.capacity)"
            )
        config = self.config = spec.config
        self.env = Environment(scheduler=spec.scheduler)
        self.streams = RandomStreams(config.seed)
        # --- observability (opt-in; hooks no-op when tracer=None) ------
        #: the run's observers in feed and finish order: auditors, span
        #: builder, then (single-leaf) the sampler
        self.observers = build_auditors(audit) if audit is not None else []
        if spans is not None:
            self.observers.append(SpanBuilder())
        if self.observers and trace is None:
            # auditors and span builders read the run's log, so either
            # implies tracing
            trace = TraceConfig()
        self.trace_bus = None
        if trace is not None:
            self.trace_bus = TraceBus(trace, self.env)
            self.env.hooks.tracer = self.trace_bus
        #: the session the observers watch (None: a swarm's, or none yet)
        self.observed = None
        #: result field -> report, once :meth:`finish` ran
        self.reports = None
        #: every fault instance the run's injectors fire, bus or no bus
        self.ledger = FaultLedger(self.env)
        #: the media plane per seq: kept only for a traced run, whose
        #: observers are its readers
        self.packets = PacketLedger(self.env) if self.trace_bus is not None else None
        latency = spec.latency.build() if spec.latency is not None else None
        latency_factory = None
        if latency is None:
            # Default: each directed pair gets a constant latency drawn once
            # from δ·U(1−s, 1+s) — hosts in an overlay are not equidistant.
            # This both matches the paper's "control delay ≈ δ" regime and
            # gives TCoP's first-offer-wins rule realistic tie-breaking
            # (with exactly equal delays every child would adopt the same
            # earliest parent).  Rounds are counted in hops, so the spread
            # never skews Figures 10/11.
            spread = config.pair_latency_spread
            uniforms = _blocks(self.streams.get("latency/pairs"))

            def latency_factory(src: str, dst: str) -> ConstantLatency:
                factor = 1.0 + spread * (2.0 * next(uniforms) - 1.0)
                return ConstantLatency(config.delta * factor)

        self.overlay = Overlay(
            self.env,
            streams=self.streams,
            default_latency=latency,
            default_loss_factory=_factory(spec.loss),
            latency_factory=latency_factory,
            control_loss_factory=_factory(spec.control_loss),
            link_fault_factory=_factory(spec.link_fault),
            ledger=self.ledger,
        )
        self.content = MediaContent(
            "content",
            n_packets=config.content_packets,
            packet_size=config.packet_size,
            rate=config.tau,
            seed=config.seed,
            with_payload=config.with_payload,
        )
        self.peer_ids = peer_ids(config)
        #: peer -> finite upload budget (absent = the seed's infinite
        #: uplink); one per *physical* peer, shared by all its sessions
        self.budgets = (
            capacity.budgets(self.peer_ids, config.delta, self.env)
            if capacity is not None
            else {}
        )

    def emit(self, kind: str, subject: str, **data) -> None:
        """One run-level trace event (nothing when the run is untraced)."""
        if self.trace_bus is not None:
            self.trace_bus.emit(kind, subject, **data)

    def observe(self, session=None) -> None:
        """Bind the run's observers.

        A single-leaf run's observers read leaf and policies off
        ``session``, and, when it is traced, a sampler joins them; a
        swarm's know only the content length.
        """
        self.observed = session
        if session is not None and self.trace_bus is not None:
            self.observers.append(TimeSeriesSampler())
        for observer in self.observers:
            observer.bind(session, n_packets=self.config.content_packets)

    def finish(self, protocol: str) -> dict:
        """Feed the run's log to its observers and close the trace, once:
        result field -> report."""
        if self.reports is not None:
            return self.reports
        self.reports, entries = {}, {}
        bus = self.trace_bus
        if self.observers:
            # the observers read the whole log, build-time events
            # included; the findings' audit.* events join it before
            # finalize() keeps what the trace config exports
            reports, walked = feed(
                bus.events, self.observers, self.packets,
                self.env.now, self.observed,
            )
            bus.events[:] = walked
            for observer, report in zip(self.observers, reports):
                if observer.result_field == "audit":  # the suite is one report
                    entries[observer.name] = report
                else:
                    self.reports[observer.result_field] = report
        if entries:
            self.reports["audit"] = AuditReport(
                protocol, self.config.seed, entries
            )
        if bus is not None:
            bus.finalize()
        return self.reports


def _blocks(rng):
    """``rng``'s uniforms one by one, drawn ``PAIR_DRAW_BLOCK`` at a time."""
    while True:
        yield from rng.random(PAIR_DRAW_BLOCK).tolist()


def _factory(spec):
    """The per-channel factory of a loss or link-fault spec (None: none)."""
    return spec.factory() if spec is not None else None


def detached(result, *handles: str):
    """``result`` with the named live handles in exported JSON-able form;
    ``result`` itself when none of them is live."""
    exported = {}
    for name in handles:
        handle = getattr(result, name)
        if handle is None or isinstance(handle, dict):
            continue
        if isinstance(handle, TraceBus):
            exported[name] = trace_to_dict(handle)
        elif hasattr(handle, "to_dict"):
            exported[name] = handle.to_dict()
        else:  # the sampled time series
            exported[name] = series_to_dict(handle)
    return replace(result, **exported) if exported else result
