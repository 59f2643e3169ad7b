"""Run one pass of a workload and read what it did, from outside.

A *pass* builds and runs every cell of a workload back to back
(build → run → detach per spec, as users do), timing the three steps with
``perf_counter`` and nothing else on: no tracer, no profiler, no auditor
beyond what a cell's own spec switches on.  After each cell — outside the
timed region — the program's own public counters are read off the live
session and its result.
"""

from __future__ import annotations

import gc
import hashlib
import json
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.streaming.swarm import SwarmSpec

from workloads import Cell, Spec, Workload


@dataclass
class Leaf:
    """One operation: one leaf's stream."""

    delivery: float = 0.0
    receipt: float = 0.0
    recovered: int = 0
    parity_received: int = 0
    #: gave up at admission, or held < 100 % of the data at its deadline
    short: bool = True


@dataclass
class CellOutcome:
    label: str
    wall_s: float = 0.0
    setup_s: float = 0.0
    sim_ms: float = 0.0
    #: the part of ``wall_s`` spent in ``result.detach()``
    detach_s: float = 0.0
    leaves: List[Leaf] = field(default_factory=list)
    ctrl_packets: int = 0
    #: model statistics the digest is taken over (exact per seed)
    stats: Dict[str, object] = field(default_factory=dict)
    #: per-layer counts from the program's public counters
    counts: Dict[str, float] = field(default_factory=dict)
    #: broken invariants (or the exception); any entry fails every leaf
    broken: List[str] = field(default_factory=list)
    #: paper reading points: (simulated, paper) pairs
    rounds_vs_paper: List[tuple] = field(default_factory=list)
    receipt_vs_paper: List[tuple] = field(default_factory=list)
    #: scheduler depth and dead events, when the cell ran on the traced
    #: pass's counting scheduler
    heap_peak: int = 0
    heap_dead: int = 0


@dataclass
class PassResult:
    cells: List[CellOutcome]
    #: generating the specs from the seed; part of set-up
    generate_s: float

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.cells)

    @property
    def setup_s(self) -> float:
        return self.generate_s + sum(c.setup_s for c in self.cells)

    @property
    def sim_ms(self) -> float:
        return sum(c.sim_ms for c in self.cells)

    @property
    def leaves(self) -> List[Leaf]:
        return [leaf for c in self.cells for leaf in c.leaves]

    @property
    def attempted(self) -> int:
        return len(self.leaves)

    def failed(self, overloaded: bool) -> int:
        """Leaves whose stream failed.

        On an overloaded workload a leaf that falls short is the model's
        answer, not a failure of the run; only broken cells count there.
        """
        return sum(
            len(c.leaves) if c.broken
            else 0 if overloaded
            else sum(leaf.short for leaf in c.leaves)
            for c in self.cells
        )

    @property
    def shortfall_share(self) -> float:
        """The ISSUE's ``failed_share``: broken cells and short leaves,
        by design or not."""
        return self.failed(overloaded=False) / self.attempted

    @property
    def sim_delivery(self) -> float:
        leaves = self.leaves
        return sum(leaf.delivery for leaf in leaves) / len(leaves)

    @property
    def sim_ctrl_packets(self) -> float:
        return sum(c.ctrl_packets for c in self.cells) / self.attempted

    def count(self, key: str) -> float:
        return sum(c.counts.get(key, 0) for c in self.cells)

    def peak(self, key: str) -> float:
        return max(c.counts.get(key, 0) for c in self.cells)

    def model_stats(self) -> Dict[str, object]:
        return {c.label: c.stats for c in self.cells}

    def digest(self) -> str:
        """SHA-256 over the sorted model statistics of every cell."""
        blob = json.dumps(self.model_stats(), sort_keys=True, default=repr)
        return hashlib.sha256(blob.encode()).hexdigest()


def leaves_of(spec: Spec) -> int:
    if isinstance(spec, SwarmSpec):
        return spec.join_plan.total_leaves
    return 1


def run_pass(
    workload: Workload,
    seed: int,
    quick: bool = False,
    transform: Optional[Callable[[Spec], Spec]] = None,
    profiler=None,
) -> PassResult:
    """One pass over the workload's cells.

    ``transform`` rewrites each spec before it is built (the traced pass
    swaps the scheduler, the audited pass switches the auditor on);
    ``profiler`` is a ``cProfile.Profile`` enabled only around
    build → run → detach.
    """
    t0 = time.perf_counter()
    cells = workload.cells(seed, quick)
    generate_s = time.perf_counter() - t0
    outcomes = []
    for cell in cells:
        spec = transform(cell.spec) if transform is not None else cell.spec
        outcomes.append(_run_cell(workload, cell, spec, profiler))
    return PassResult(outcomes, generate_s)


def _run_cell(workload: Workload, cell: Cell, spec: Spec, profiler) -> CellOutcome:
    out = CellOutcome(cell.label)
    # collect between cells, untimed: otherwise the seed decides whether a
    # full collection of the previous cell's garbage lands inside this
    # cell's build(), which doubles setup_s on some seeds and not others
    gc.collect()
    try:
        if profiler is not None:
            profiler.enable()
        try:
            t0 = time.perf_counter()
            live = spec.build()
            t1 = time.perf_counter()
            result = live.run()
            t2 = time.perf_counter()
            result = result.detach()
            t3 = time.perf_counter()
        finally:
            if profiler is not None:
                profiler.disable()
    except Exception:  # the benchmark must report a failed cell, not die
        traceback.print_exc(file=sys.stderr)
        out.broken.append("raised " + traceback.format_exc(limit=1).strip())
        out.leaves = [Leaf() for _ in range(leaves_of(spec))]
        return out
    out.setup_s = t1 - t0
    out.wall_s = t3 - t1
    out.detach_s = t3 - t2
    out.sim_ms = result.elapsed
    out.heap_peak = getattr(live.env.scheduler, "peak", 0)
    out.heap_dead = getattr(live.env.scheduler, "dead", 0)
    if isinstance(spec, SwarmSpec):
        _read_swarm(out, live, result)
    else:
        _read_session(out, workload, cell, live, result)
    return out


def _traffic_counts(out: CellOutcome, traffic) -> None:
    out.ctrl_packets = traffic.control_packets()
    out.counts.update({
        "net.messages_sent": traffic.total_sent(),
        "net.messages_dropped": sum(traffic.dropped_by_kind.values()),
        "net.control_retransmits": sum(
            traffic.retransmissions_by_kind.values()
        ),
        "net.control_give_ups": sum(traffic.give_ups_by_kind.values()),
        "net.duplicates_suppressed": sum(
            traffic.duplicates_suppressed_by_kind.values()
        ),
    })
    out.stats["sent_by_kind"] = dict(traffic.sent_by_kind)
    out.stats["dropped_by_kind"] = dict(traffic.dropped_by_kind)


def _leaf_of(agent, delivery: float, receipt: float) -> Leaf:
    decoder = agent.decoder
    return Leaf(
        delivery=delivery,
        receipt=receipt,
        recovered=len(decoder.recovered),
        parity_received=decoder.received_count - agent.data_arrivals,
        short=delivery < 1.0,
    )


def _read_session(
    out: CellOutcome, workload: Workload, cell: Cell, live, result
) -> None:
    _traffic_counts(out, live.overlay.traffic)
    out.leaves = [
        _leaf_of(live.leaf, result.delivery_ratio, result.receipt_rate)
    ]
    out.counts.update({
        "core.ctrl_packets_at_sync": result.control_packets_at_sync,
        "core.sync_rounds": result.rounds or 0,
        "core.recoordinations": result.recoordinations,
        "streaming.duplicate_packets": result.duplicate_packets,
        "streaming.quarantines": result.quarantines,
    })
    if result.trace is not None:
        out.counts["obs.trace_events"] = len(result.trace["events"])
    if result.audit is not None:
        out.counts["obs.audit_violations"] = result.audit["violation_count"]
        if not result.audit["passed"]:
            out.broken.append("audit failed")
    out.stats.update({
        "rounds": result.rounds,
        "sync_time": result.sync_time,
        "control_packets_at_sync": result.control_packets_at_sync,
        "receipt_rate": result.receipt_rate,
        "delivery_ratio": result.delivery_ratio,
        "recovered_packets": result.recovered_packets,
        "duplicate_packets": result.duplicate_packets,
        "completed_at": result.completed_at,
        "elapsed": result.elapsed,
        "retransmissions": result.total_retransmissions,
        "give_ups": result.retransmit_give_ups,
        "recoordinations": result.recoordinations,
        "quarantines": result.quarantines,
        "confirmed_failures": result.confirmed_failures,
    })
    if workload.fault_free and not result.all_active:
        out.broken.append("not every contents peer became active")
    if cell.paper_rounds is not None:
        out.rounds_vs_paper.append((result.rounds, cell.paper_rounds))
        if result.rounds != cell.paper_rounds:
            out.broken.append(
                f"{cell.label}: {result.rounds} rounds, "
                f"paper {cell.paper_rounds}"
            )
    if cell.paper_receipt is not None:
        out.receipt_vs_paper.append((result.receipt_rate, cell.paper_receipt))


def _read_swarm(out: CellOutcome, live, result) -> None:
    _traffic_counts(out, live.overlay.traffic)
    for outcome in result.outcomes:
        session = live.sessions.get(outcome.leaf_id)
        if session is None:  # refused at admission: nothing streamed
            out.leaves.append(Leaf())
        else:
            out.leaves.append(_leaf_of(
                session.leaf, outcome.delivery_ratio, outcome.receipt_rate
            ))
    admission = live.admission
    out.counts.update({
        "net.capacity_queued": result.queued_sends,
        "net.capacity_shed": result.shed_data + result.shed_parity,
        "net.backlog_peak": result.peak_backlog,
        "streaming.swarm_admits": result.admitted,
        "streaming.swarm_rejects": admission.rejects if admission else 0,
        "streaming.swarm_retries": result.retries,
        "streaming.swarm_gave_up": result.gave_up,
    })
    if result.audit is not None:
        out.counts["obs.audit_violations"] = result.audit["violation_count"]
        if not result.audit_passed:
            out.broken.append("capacity audit failed")
    out.stats.update({
        "admitted": result.admitted,
        "gave_up": result.gave_up,
        "retries": result.retries,
        "completed": result.completed,
        "mean_receipt_all": result.mean_receipt_all,
        "shed_data": result.shed_data,
        "shed_parity": result.shed_parity,
        "queued_sends": result.queued_sends,
        "peak_backlog": result.peak_backlog,
        "elapsed": result.elapsed,
        "outcomes": [o.to_dict() for o in result.outcomes],
    })
    if result.unroutable:
        out.broken.append(f"{result.unroutable} unroutable deliveries")
    if result.reservations_at_end:
        out.broken.append(
            f"{result.reservations_at_end} reservations held at the end"
        )
    if result.admitted + result.gave_up != result.n_leaves:
        out.broken.append("admitted + gave_up != leaves")


def summarise(values: List[float]) -> Dict[str, float]:
    """Median with min/max and the sample count.

    No tail percentile: a run has fewer than ten timed passes."""
    return {
        "value": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "samples": len(values),
    }
