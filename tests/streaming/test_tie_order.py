"""Equal-time events commute on every pinned cell.

The kernel pops equal ``(time, priority)`` entries in insertion order,
and a result must not hang on that accident.  The ``perturbed``
scheduler below keeps the order of entries pushed at one instant (a
handler's sends, a tick's checks: program order, which is model
semantics) and reverses every coincidence between entries pushed at
different instants.  Every single-leaf cell of
``tests/obs/test_artefact_pins.py`` must report the same scalars and
the same audit findings under it as under the heap.

The leaf's periodic checks share one timer, the leaf clock, and the
order they run in at one tick is declared
(:data:`repro.streaming.session.CHECK_ORDER`): the tests below hold the
clock to it, and show a pin sees the order change.
"""

import ast
import json
from heapq import heappop, heappush
from pathlib import Path

import pytest

import repro
from repro.core import ProtocolConfig
from repro.net.overlay import RetransmitPolicy
from repro.sim.sched import SCHEDULERS, HeapScheduler, register_scheduler
from repro.streaming import (
    DetectorSpec,
    HealthPolicy,
    ProtocolSpec,
    RateAdaptationPolicy,
    RepairPolicy,
    SessionSpec,
)
from repro.streaming import session as session_module

from tests.obs.test_artefact_pins import CELLS, DIGESTS, fingerprint


class PerturbedScheduler(HeapScheduler):
    """The heap keyed on ``(time, priority, −scheduled_at, eid)``, where
    ``scheduled_at`` is the time of the last pop: of two entries due at
    one instant, the one pushed later in simulated time pops first."""

    name = "perturbed"

    def __init__(self):
        super().__init__()
        self._last_pop = 0.0

    def push(self, entry):
        time, priority, eid, _ = entry
        heappush(self._queue, (time, priority, -self._last_pop, eid, entry))

    def pop(self):
        entry = heappop(self._queue)[-1]
        self._last_pop = entry[0]
        return entry


@pytest.fixture(scope="module")
def perturbed():
    register_scheduler(PerturbedScheduler.name, PerturbedScheduler)
    try:
        yield PerturbedScheduler.name
    finally:
        del SCHEDULERS[PerturbedScheduler.name]


def findings(result):
    """Every auditor's findings, less their evidence: the evidence quotes
    trace events by the labels the run gave out in creation order, and
    two streams one peer starts at one instant may swap stream ids
    (``gauntlet/weighted_dcop``: CP4's streams 6 and 7 at t=110.84)."""
    if result.audit is None:
        return None
    return {
        name: [
            {key: value for key, value in finding.items() if key != "evidence"}
            for finding in auditor["violations"] + auditor["warnings"]
        ]
        for name, auditor in result.audit.to_dict()["auditors"].items()
    }


@pytest.mark.parametrize("cell", [c for c in sorted(CELLS) if c != "swarm/dcop"])
def test_a_pinned_cell_holds_under_reversed_ties(cell, perturbed):
    spec = CELLS[cell]()
    heap = spec.run()
    other = spec.replace(scheduler=perturbed).run()
    assert other == heap  # dataclass equality sweeps every scalar field
    assert findings(other) == findings(heap)


def test_the_leaf_clock_calls_its_checks_in_the_declared_order():
    session = SessionSpec(
        config=ProtocolConfig(n=8, H=4, fault_margin=1, content_packets=200, seed=0),
        protocol=ProtocolSpec("dcop"),
        retransmit_policy=RetransmitPolicy(),
        detector_policy=DetectorSpec("fixed"),
        repair_policy=RepairPolicy(),
        adaptation_policy=RateAdaptationPolicy(),
        health_policy=HealthPolicy(),
    ).build()
    clock = session.clock
    calls = []  # (tick, monitor, wants another tick)

    def recorded(check):
        name = type(check.__self__).__name__

        def run():
            more = check()
            calls.append((clock.ticks, name, more))
            return more

        return run

    clock.checks = [(stride, recorded(check)) for stride, check in clock.checks]
    assert session.run().delivery_ratio == 1.0
    assert [name for tick, name, _ in calls if tick == 6] == [
        "RepairMonitor", "RateAdaptationMonitor", "HealthMonitor", "FailureDetector",
    ]
    stopped = {}
    for tick, name, more in calls:
        assert name not in stopped, f"{name} called after it stopped"
        if not more:
            stopped[name] = tick
    assert len(stopped) == 4 and clock.checks == []
    # the run drained the heap: a pending clock timer would have ticked on
    assert clock.ticks == max(stopped.values())


def test_no_monitor_arms_its_own_timer():
    """The leaf clock is the monitors' one timer: a ``call_later`` or
    ``call_soon`` in one of them would be a second chain, ordered
    against the clock by accident."""
    streaming = Path(repro.__file__).parent / "streaming"
    for module in ("detector", "health", "repair", "adaptive"):
        tree = ast.parse((streaming / f"{module}.py").read_text())
        assert not [
            node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in ("call_later", "call_soon")
        ], module


def test_a_pin_sees_the_detector_run_before_health(monkeypatch):
    """The order mutant: swap health and the detector at shared ticks
    and ``gauntlet/weighted_dcop`` leaves its pin.  The detector then
    confirms, falsely, the peer health was about to quarantine, so the
    cell loses its one quarantine (receipt 2.16 → 1.98); no other pin
    moves."""
    cell = "gauntlet/weighted_dcop"
    pinned = json.loads(DIGESTS.read_text())[cell]["fingerprint"]
    assert fingerprint(CELLS[cell]().run().detach()) == pinned
    monkeypatch.setattr(
        session_module,
        "CHECK_ORDER",
        ("repair_monitor", "adaptation_monitor", "detector", "health"),
    )
    assert fingerprint(CELLS[cell]().run().detach()) != pinned
