"""Pinned digests of the full detached observer artefacts.

Every observer optimisation must leave what a run *reports* untouched:
the exported trace, the audit report (``events_seen`` and the ``ts`` of
every finding included), the span report and the sampled time series.
``data/artefact_digests.json`` holds a SHA-256 of each (JSON, sorted
keys) for all ten protocols on one small fault-free spec and under the
tolerance-stack gauntlet, a batched cell, lossy cells (the only place
``finish()``-time findings show), one audited swarm and the two
span-only cells whose headline numbers ``test_spans.py`` and
``docs/observability.md`` quote; this test recomputes them.

Regenerate — only after a deliberate artefact change — with::

    PYTHONPATH=src:. python tests/obs/test_artefact_pins.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core import ProtocolConfig
from repro.net.capacity import CapacityPolicy
from repro.net.overlay import RetransmitPolicy
from repro.obs import AuditConfig, SpanConfig, TraceConfig
from repro.streaming import (
    AdmissionPolicy,
    ChurnPlan,
    DetectorSpec,
    HealthPolicy,
    JoinStormPlan,
    LossSpec,
    ProtocolSpec,
    RepairPolicy,
    SessionSpec,
    SwarmSpec,
)

from tests.streaming.test_swarm import ALL_PROTOCOLS, protocol_case

DIGESTS = Path(__file__).parent / "data" / "artefact_digests.json"

OBSERVERS = dict(trace=TraceConfig(), audit=AuditConfig(), spans=SpanConfig())


def _session(protocol, n, H, packets, seed, **spec_kw):
    proto, uplinks = protocol_case(protocol, n)
    return SessionSpec(
        config=ProtocolConfig(
            n=n, H=H, fault_margin=1, content_packets=packets, seed=seed
        ),
        protocol=proto,
        upload_capacity=uplinks,
        **spec_kw,
        **OBSERVERS,
    )


def _gauntlet(protocol, seed):
    """``bench/workloads.py:_gauntlet_spec`` at its quick size, observed."""
    n = 12
    return _session(
        protocol, n, 4, 200, seed,
        loss=LossSpec("bursty", {"rate": 0.02}),
        control_loss=LossSpec("bernoulli", {"p": 0.05}),
        retransmit_policy=RetransmitPolicy(adaptive=True),
        detector_policy=DetectorSpec("accrual"),
        repair_policy=RepairPolicy(),
        health_policy=HealthPolicy(),
        churn_plan=ChurnPlan(rate_per_delta=0.05, min_live=max(2, n // 3)),
    )


def _swarm():
    return SwarmSpec(
        session=SessionSpec(
            config=ProtocolConfig(
                n=6, H=3, fault_margin=1, tau=1.0, delta=8.0,
                content_packets=30, seed=11,
            ),
            protocol=ProtocolSpec("dcop"),
        ),
        join_plan=JoinStormPlan(leaves=6, rate_per_delta=1.0),
        capacity=CapacityPolicy(packets_per_delta=8.0),
        admission=AdmissionPolicy(),
        trace=TraceConfig(),
    )


def _spans_fig10(spans=True):
    """Fig. 10's operating point with only the span builder attached."""
    return SessionSpec(
        config=ProtocolConfig(
            n=100, H=60, fault_margin=1, seed=0, content_packets=200
        ),
        protocol=ProtocolSpec("dcop"),
        playback=True,
        spans=SpanConfig() if spans else None,
    )


def _spans_lossy():
    """Every decomposition component at once: retransmit backoff, batch
    queueing, FEC recovery, playback buffering (TCoP: DCoP's deeply
    divided streams never fill a batch window)."""
    return SessionSpec(
        config=ProtocolConfig(
            n=50, H=8, fault_margin=1, seed=1, content_packets=1000
        ),
        protocol=ProtocolSpec("tcop"),
        playback=True,
        loss=LossSpec("bernoulli", {"p": 0.05}),
        control_loss=LossSpec("bernoulli", {"p": 0.1}),
        retransmit_policy=RetransmitPolicy(),
        media_batch=5.0,
        spans=SpanConfig(),
    )


CELLS = {
    **{
        f"fault_free/{p}": (lambda p=p: _session(p, 10, 4, 80, 3))
        for p in ALL_PROTOCOLS
    },
    "batched/tcop": lambda: _session("tcop", 20, 4, 400, 4, media_batch=5.0),
    # every protocol under the whole tolerance stack: six of them send
    # the leaf's requests raw (unacked, unmonitored, unannounced) and
    # only these cells hold that path to its recorded behaviour
    **{
        f"gauntlet/{p}": (lambda p=p, seed=seed: _gauntlet(p, seed))
        for seed, p in enumerate(ALL_PROTOCOLS)
    },
    "gauntlet/tcop/no_repair": lambda: _gauntlet("tcop", 2).replace(
        repair_policy=None, loss=LossSpec("bursty", {"rate": 0.08})
    ),
    "lossy/dcop": lambda: _session(
        "dcop", 10, 4, 200, 0, loss=LossSpec("bernoulli", {"p": 0.15})
    ),
    "lossy/tcop": lambda: _session(
        "tcop", 10, 4, 200, 0, loss=LossSpec("bernoulli", {"p": 0.15})
    ),
    "spans/fig10": _spans_fig10,
    "spans/lossy": _spans_lossy,
    "swarm/dcop": _swarm,
}

#: the cells that inject a fault
FAULTED = [c for c in sorted(CELLS) if c.startswith(("gauntlet/", "lossy/"))]


def artefact_digests(cell):
    """SHA-256 per detached artefact of one cell's run."""
    detached = CELLS[cell]().run().detach()
    out = {}
    for name in ("trace", "audit", "spans", "timeseries"):
        artefact = getattr(detached, name, None)
        if artefact is not None:
            blob = json.dumps(artefact, sort_keys=True).encode()
            out[name] = hashlib.sha256(blob).hexdigest()
    return out


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_detached_artefacts_match_pinned_digests(cell):
    pinned = json.loads(DIGESTS.read_text())
    assert artefact_digests(cell) == pinned[cell]


@pytest.mark.parametrize(
    "cell", ["gauntlet/tcop/no_repair", "lossy/dcop", "lossy/tcop"]
)
def test_lossy_cells_carry_finish_time_findings(cell):
    # the pins above only guard the ``ts`` stamped on findings recorded
    # from ``finish()`` if some cell records one: the finding carries the
    # run's last event's time, its ``audit.*`` event the run's end
    result = CELLS[cell]().run()
    warnings = result.audit.auditors["parity"]["warnings"]
    stamps = {
        w["ts"] for w in warnings
        if w["code"] == "parity.unrecoverable_segment"
    }
    assert stamps and max(stamps) <= result.elapsed
    assert result.trace.events[-1].kind.startswith("audit.")
    assert result.trace.events[-1].ts == result.elapsed
    if cell == "gauntlet/tcop/no_repair":
        # and the pins tell the two times apart only where the run's
        # clock outlasts its last event: this cell's does (1016.29 against
        # 1891.49 ms); no observer extends a run, so the lossy ones end
        # on their last event
        assert max(stamps) < result.elapsed


if __name__ == "__main__":
    DIGESTS.write_text(
        json.dumps(
            {cell: artefact_digests(cell) for cell in sorted(CELLS)},
            indent=2, sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {DIGESTS}")
