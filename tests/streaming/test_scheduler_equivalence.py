"""The scheduler extension point, tested the way ``bench/`` uses it.

A scheduler is pure plumbing: any implementation of the
:class:`~repro.sim.sched.Scheduler` contract pops ``(time, priority,
eid, event)`` entries in the same total order, so a run must follow a
byte-identical trajectory (trace, receipt figures, audit verdict)
whichever one the spec names.  This pins that for a reference
implementation registered from outside the program (the fixtures in
``tests/conftest.py``) and selected by name through the spec, for a DCoP
session, a TCoP session and a swarm; and it reads the kernel's event
volume and heap depth through a counting subclass, as the benchmark's
traced pass does.
"""

import pytest

from repro.core import ProtocolConfig
from repro.obs import AuditConfig, TraceConfig
from repro.streaming import ProtocolSpec, SessionSpec
from tests.streaming.test_swarm import swarm_spec


def session_spec(protocol):
    return SessionSpec(
        config=ProtocolConfig(
            n=10, H=4, fault_margin=1, tau=1.0, delta=8.0,
            content_packets=120, seed=17,
        ),
        protocol=ProtocolSpec(protocol),
        trace=TraceConfig(),
        audit=AuditConfig(),
    )


def with_scheduler(spec, name):
    if isinstance(spec, SessionSpec):
        return spec.replace(scheduler=name)
    return spec.replace(session=spec.session.replace(scheduler=name))


@pytest.mark.parametrize(
    "spec",
    [
        session_spec("dcop"),
        session_spec("tcop"),
        swarm_spec(
            leaves=6, rate_per_delta=2.0, packets_per_delta=4.0,
            spike_at_deltas=2.0, spike_leaves=2,
        ),
    ],
    ids=["dcop", "tcop", "swarm"],
)
def test_registered_scheduler_matches_heap(spec, reference_scheduler):
    heap = spec.run()
    live = with_scheduler(spec, reference_scheduler.name).build()
    # the name reached the kernel: the run below pops from the reference
    assert isinstance(live.env.scheduler, reference_scheduler)
    other = live.run()

    def events(result):
        return [(e.ts, e.kind, e.subject, e.data) for e in result.trace.events]

    assert len(events(heap)) > 100
    assert events(other) == events(heap)
    assert other.summary() == heap.summary()
    assert other.audit.to_dict() == heap.audit.to_dict()
    assert other.audit.passed
    if isinstance(spec, SessionSpec):
        assert heap.delivery_ratio == 1.0
        assert other == heap  # dataclass equality sweeps every scalar field
    else:
        assert [o.to_dict() for o in other.outcomes] == [
            o.to_dict() for o in heap.outcomes
        ]


def test_event_volume_and_heap_depth_grow_with_the_overlay(counting_heap):
    """The fig10 flood at H = min(n, 60): more peers, more events in
    flight.  (The deterministic half of the retired BENCH_kernel scaling
    matrix; its throughput half is ``sim.events_per_wall_s`` in bench/.)"""
    pops, peaks = [], []
    for n in (10, 25, 50, 100):
        live = SessionSpec(
            config=ProtocolConfig(
                n=n, H=min(n, 60), fault_margin=1, content_packets=100, seed=0
            ),
            protocol=ProtocolSpec("dcop"),
            scheduler=counting_heap.name,
        ).build()
        assert live.run().delivery_ratio == 1.0
        pops.append(live.env.scheduler.pops)
        peaks.append(live.env.scheduler.peak)
    assert pops == sorted(set(pops))
    assert peaks == sorted(set(peaks))


def test_unknown_scheduler_name_raises():
    with pytest.raises(KeyError, match="heap"):
        session_spec("tcop").replace(scheduler="splay").build()
