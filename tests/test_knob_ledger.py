"""The ledger of settable knobs: every field a run's spec can set.

A spec field is a knob some experiment, workload or user turns; tuning
that no run varies is a module constant beside its reader instead.  The
fields of ``SessionSpec``, ``SwarmSpec`` and the value classes their
fields take are listed, one ``Class.field`` a line, in
``data/knobs.txt``; adding or retiring a knob is a one-line edit there.
"""

from dataclasses import fields
from pathlib import Path

from repro.core import ProtocolConfig
from repro.net.capacity import CapacityPolicy
from repro.net.overlay import RetransmitPolicy
from repro.obs import AuditConfig, SpanConfig, TraceConfig
from repro.streaming import (
    AdmissionPolicy,
    ChurnPlan,
    DetectorPolicy,
    FaultPlan,
    HealthPolicy,
    JoinStormPlan,
    RateAdaptationPolicy,
    RepairPolicy,
    SessionSpec,
    SwarmSpec,
)

LEDGER = Path(__file__).parent / "data" / "knobs.txt"

#: the two run specs, then every value class their fields take
SPEC_CLASSES = (
    SessionSpec,
    SwarmSpec,
    ProtocolConfig,
    RetransmitPolicy,
    CapacityPolicy,
    DetectorPolicy,
    RepairPolicy,
    HealthPolicy,
    RateAdaptationPolicy,
    FaultPlan,
    ChurnPlan,
    JoinStormPlan,
    AdmissionPolicy,
    TraceConfig,
    AuditConfig,
    SpanConfig,
)


def knobs() -> list:
    """``Class.field`` for every dataclass field of :data:`SPEC_CLASSES`."""
    return sorted(
        f"{cls.__name__}.{f.name}" for cls in SPEC_CLASSES for f in fields(cls)
    )


def test_knobs_match_the_ledger():
    pinned = LEDGER.read_text().split()
    assert pinned == sorted(pinned), "keep data/knobs.txt sorted"
    current = knobs()
    added = sorted(set(current) - set(pinned))
    removed = sorted(set(pinned) - set(current))
    assert not added and not removed, (
        f"knobs added: {added}; knobs removed: {removed} "
        "(edit tests/data/knobs.txt if the change is meant)"
    )


if __name__ == "__main__":
    LEDGER.write_text("".join(f"{name}\n" for name in knobs()))
    print(f"wrote {LEDGER}")
