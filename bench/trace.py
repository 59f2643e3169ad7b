"""The traced pass: per-layer numbers, measured from the benchmark's side.

The identical specs are run once more under ``cProfile`` (enabled only
around build → run → detach).  Three things are read from the profile:

* **self time per layer** — each function's self time is charged to its
  ``repro.<package>``; time inside builtins, numpy and the stdlib is
  charged to the package that called it, through the callers table;
* **a boundary table** — calls and inclusive seconds of each public
  boundary function, by the layer that called it;
* **call counts** that the program keeps no counter for (events
  processed and cancelled, channel lookups, handler calls, …).

``cProfile`` taxes every Python call but no native work, which shifts
the proportions towards call-heavy layers; the overhead is reported as
``bench.trace_overhead_x`` and end-to-end numbers never come from here.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from collections import defaultdict
from functools import lru_cache
from heapq import heappop, heappush
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import repro
from repro.core.base import CoordinationProtocol
from repro.fec import divide, enhance
from repro.fec.decoder import ParityDecoder
from repro.fec.xor import xor_recover
from repro.media.sequence import PacketSequence
from repro.net.capacity import UploadBudget
from repro.net.channel import Channel
from repro.net.node import Node
from repro.net.overlay import ControlPlane, Overlay
from repro.obs.trace import TraceBus
from repro.sim.engine import Environment
from repro.sim.sched import SCHEDULERS, HeapScheduler, register_scheduler
from repro.streaming.contents_peer import ContentsPeerAgent
from repro.streaming.session import SessionResult
from repro.streaming.stream import Stream
from repro.streaming.swarm import SwarmResult, SwarmSpec

from harness import run_pass
from workloads import Spec, unobserve

#: the layers of the ledger: the ``repro.<package>`` names
LAYERS = (
    "sim", "net", "core", "streaming", "fec", "media", "obs", "groupcomm"
)

_REPRO_ROOT = str(Path(repro.__file__).resolve().parent) + os.sep

Func = Tuple[str, int, str]  # pstats key: (file, first line, name)


class CountingHeap(HeapScheduler):
    """The binary heap, also counting what the kernel keeps no count of.

    Schedulers never change a trajectory, so the traced pass may swap
    this in to read ``sim.heap_peak`` and the events that fired with
    nobody waiting on them, without touching the program."""

    name = "bench_counting_heap"

    def __init__(self) -> None:
        super().__init__()
        self.peak = 0
        #: popped events with no callback left: a timeout that lost its
        #: AnyOf race, a timer whose waiter is gone
        self.dead = 0

    def push(self, entry) -> None:
        queue = self._queue
        heappush(queue, entry)
        if len(queue) > self.peak:
            self.peak = len(queue)

    def pop(self):
        entry = heappop(self._queue)
        if not entry[3].callbacks:
            self.dead += 1
        return entry


def with_counting_heap(spec: Spec) -> Spec:
    """``spec`` running on :class:`CountingHeap`."""
    if CountingHeap.name not in SCHEDULERS:
        register_scheduler(CountingHeap.name, CountingHeap)
    if isinstance(spec, SwarmSpec):
        return spec.replace(
            session=spec.session.replace(scheduler=CountingHeap.name)
        )
    return spec.replace(scheduler=CountingHeap.name)


def _key(fn) -> Func:
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _protocol_methods(name: str) -> List[Func]:
    """Every override of ``CoordinationProtocol.<name>``."""
    found, stack = [], [CoordinationProtocol]
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        fn = cls.__dict__.get(name)
        if fn is not None and hasattr(fn, "__code__"):
            found.append(_key(fn))
    return found


def boundaries() -> Dict[str, List[Func]]:
    """``layer:Display.name`` → the profile keys it aggregates."""
    table = {
        "sim:Environment.step": [_key(Environment.step)],
        "sim:Environment.run": [_key(Environment.run)],
        "sim:Environment.call_later": [_key(Environment.call_later)],
        "sim:Scheduler.push": [_key(HeapScheduler.push), _key(CountingHeap.push)],
        "sim:Scheduler.pop": [_key(HeapScheduler.pop), _key(CountingHeap.pop)],
        "net:Overlay.send": [_key(Overlay.send)],
        "net:Overlay.send_media_batch": [_key(Overlay.send_media_batch)],
        "net:Overlay.channel": [_key(Overlay.channel)],
        "net:Channel.send": [_key(Channel.send)],
        "net:Channel.send_batch": [_key(Channel.send_batch)],
        "net:Node.deliver": [_key(Node.deliver)],
        "net:ControlPlane.send": [_key(ControlPlane.send)],
        "net:ControlPlane.intercept": [_key(ControlPlane.intercept)],
        "net:UploadBudget.reserve": [_key(UploadBudget.reserve)],
        "net:UploadBudget.take": [_key(UploadBudget.take)],
        "streaming:Stream.handoff": [
            _key(Stream.handoff), _key(Stream.handoff_weighted)
        ],
        "streaming:Stream.pop_next": [_key(Stream.pop_next)],
        "streaming:Stream.pop_batch": [_key(Stream.pop_batch)],
        "streaming:ContentsPeerAgent.activate_with": [
            _key(ContentsPeerAgent.activate_with)
        ],
        "fec:enhance": [_key(enhance)],
        "fec:divide": [_key(divide)],
        "fec:ParityDecoder.add": [_key(ParityDecoder.add)],
        "fec:xor_recover": [_key(xor_recover)],
        "media:PacketSequence": [_key(PacketSequence.__init__)],
        "obs:TraceBus.emit": [_key(TraceBus.emit)],
        "obs:TraceBus.finalize": [_key(TraceBus.finalize)],
        "obs:detach": [_key(SessionResult.detach), _key(SwarmResult.detach)],
    }
    for name in (
        "initiate", "handle_peer_message", "handle_leaf_message", "reissue"
    ):
        table[f"core:CoordinationProtocol.{name}"] = _protocol_methods(name)
    return table


#: bench code that stands in for ``HeapScheduler`` in the traced pass
_SIM_STAND_INS = {_key(CountingHeap.push), _key(CountingHeap.pop)}


@lru_cache(maxsize=None)
def layer_of(func: Func) -> Optional[str]:
    """The ``repro`` package a profiled function belongs to, if any."""
    filename = func[0]
    if os.sep in filename:  # code paths keep whatever sys.path spelled
        filename = os.path.realpath(filename)
    if filename.startswith(_REPRO_ROOT):
        head = filename[len(_REPRO_ROOT):].split(os.sep, 1)[0]
        return head[:-3] if head.endswith(".py") else head
    if func in _SIM_STAND_INS:
        return "sim"
    return None


class Ledger:
    """What one profile says, layer by layer."""

    def __init__(self, profile: cProfile.Profile) -> None:
        self.stats = pstats.Stats(profile).stats
        self._owner_memo: Dict[Func, Dict[str, float]] = {}
        self._visiting: set = set()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s = 0.0
        self._charge()

    # ------------------------------------------------------------------
    def _owners(self, func: Func) -> Dict[str, float]:
        """Which layers a function works for, as fractions summing to ≤ 1.

        A ``repro`` function works for its own package.  A foreign one
        (builtin, stdlib, numpy) works for whoever called it, weighted by
        the inclusive time each caller gave it."""
        layer = layer_of(func)
        if layer is not None:
            return {layer: 1.0}
        memo = self._owner_memo.get(func)
        if memo is not None:
            return memo
        if func in self._visiting:  # recursion among foreign functions
            return {}
        self._visiting.add(func)
        callers = self.stats[func][4] if func in self.stats else {}
        weights: Dict[str, float] = defaultdict(float)
        for caller, (nc, _cc, _tt, ct) in callers.items():
            weight = ct if ct > 0 else nc * 1e-9
            for owner, frac in self._owners(caller).items():
                weights[owner] += weight * frac
        self._visiting.discard(func)
        total = sum(weights.values())
        owners = {k: v / total for k, v in weights.items()} if total else {}
        self._owner_memo[func] = owners
        return owners

    def _charge(self) -> None:
        for func, (_cc, _nc, tt, _ct, callers) in self.stats.items():
            self.total_s += tt
            layer = layer_of(func)
            if layer is not None:
                self.self_s[layer] += tt
                continue
            seen = sum(c[2] for c in callers.values())
            if seen <= 0:
                continue  # entered from the harness frame: unattributed
            for caller, (_n, _c, caller_tt, _t) in callers.items():
                for owner, frac in self._owners(caller).items():
                    self.self_s[owner] += tt * (caller_tt / seen) * frac

    # ------------------------------------------------------------------
    def share(self, layer: str) -> float:
        return self.self_s.get(layer, 0.0) / self.total_s

    @property
    def unattributed_share(self) -> float:
        """Self time charged to none of :data:`LAYERS`."""
        return 1.0 - sum(self.share(layer) for layer in LAYERS)

    def calls(self, keys: List[Func]) -> int:
        return sum(self.stats[k][1] for k in keys if k in self.stats)

    def inclusive_s(self, keys: List[Func]) -> float:
        return sum(self.stats[k][3] for k in keys if k in self.stats)

    def boundary_table(self) -> Dict[str, dict]:
        """Per boundary function: calls and inclusive seconds, in total
        and by the layer of the caller."""
        table = {}
        for name, keys in boundaries().items():
            by_caller: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
            for key in keys:
                entry = self.stats.get(key)
                if entry is None:
                    continue
                for caller, (nc, _cc, _tt, ct) in entry[4].items():
                    owners = self._owners(caller) or {"unattributed": 1.0}
                    for owner, frac in owners.items():
                        by_caller[owner][0] += nc * frac
                        by_caller[owner][1] += ct * frac
            table[name] = {
                "calls": self.calls(keys),
                "inclusive_s": self.inclusive_s(keys),
                "by_caller_layer": {
                    owner: {"calls": round(c, 3), "inclusive_s": s}
                    for owner, (c, s) in sorted(by_caller.items())
                },
            }
        return table


# ----------------------------------------------------------------------
def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def traced_run(workload, seed: int, quick: bool, import_s: float):
    """The ``--trace 1`` run: every per-layer metric of one workload.

    One discarded warm-up pass, one untraced reference pass (counts,
    model statistics and the wall the overhead is measured against), one
    pass under ``cProfile`` on :class:`CountingHeap`; then, where the
    workload has them, its observed cells once more unobserved and its
    swarm cells once more under the ``capacity`` auditor.

    Returns ``(metrics, passes, boundary_table)``; ``passes`` are all the
    measured passes, for the attempted/failed tally.
    """
    run_pass(workload, seed, quick)
    ref = run_pass(workload, seed, quick)
    profile = cProfile.Profile()
    traced = run_pass(
        workload, seed, quick, transform=with_counting_heap, profiler=profile
    )
    passes = [ref, traced]
    ledger = Ledger(profile)
    table = boundaries()

    def calls(name: str) -> int:
        return ledger.calls(table[name])

    overhead_x = 0.0
    if ref.count("obs.trace_events"):
        plain = run_pass(workload, seed, quick, transform=unobserve)
        passes.append(plain)
        overhead_x = ref.wall_s / plain.wall_s
    audit_violations = ref.count("obs.audit_violations")
    if any(isinstance(c.spec, SwarmSpec) for c in workload.cells(seed, quick)):
        audited = run_pass(
            workload, seed, quick, transform=lambda s: s.replace(audit=True)
        )
        passes.append(audited)
        audit_violations += audited.count("obs.audit_violations")

    steps = calls("sim:Environment.step")
    # every run() to exhaustion ends on one step that finds the queue empty
    processed = steps - calls("sim:Environment.run")
    leaves = ref.leaves
    parity_received = sum(leaf.parity_received for leaf in leaves)
    recovered = sum(leaf.recovered for leaf in leaves)
    rounds = [p for c in ref.cells for p in c.rounds_vs_paper]
    receipts = [p for c in ref.cells for p in c.receipt_vs_paper]

    metrics = {f"{layer}.self_share": ledger.share(layer) for layer in LAYERS}
    metrics.update({
        "sim.events_processed": processed,
        # popped for nothing: tombstoned entries the pop loop skipped,
        # and events that fired with no callback left
        "sim.events_cancelled": calls("sim:Scheduler.pop") - steps
        + sum(c.heap_dead for c in traced.cells),
        "sim.heap_peak": max(c.heap_peak for c in traced.cells),
        "sim.events_per_wall_s": processed / ref.wall_s,
        "net.channel_lookups": calls("net:Overlay.channel"),
        "net.backlog_peak": ref.peak("net.backlog_peak"),
        "core.handler_calls": calls("core:CoordinationProtocol.handle_peer_message")
        + calls("core:CoordinationProtocol.handle_leaf_message"),
        "streaming.handoffs": calls("streaming:Stream.handoff"),
        "streaming.receipt_rate": _mean(leaf.receipt for leaf in leaves),
        "fec.enhance_calls": calls("fec:enhance"),
        "fec.enhance_cum_s": ledger.inclusive_s(table["fec:enhance"]),
        "fec.decoder_adds": calls("fec:ParityDecoder.add"),
        "fec.decoder_add_cum_s": ledger.inclusive_s(
            table["fec:ParityDecoder.add"]
        ),
        "fec.recovered_packets": recovered,
        "fec.parity_useful_ratio": (
            recovered / parity_received if parity_received else 0.0
        ),
        "media.sequence_builds": calls("media:PacketSequence"),
        "obs.detach_s": sum(c.detach_s for c in ref.cells),
        "obs.audit_violations": audit_violations,
        "obs.overhead_x": overhead_x,
        "analysis.paper_rounds_err": _mean(abs(s - p) for s, p in rounds),
        "analysis.paper_receipt_err": _mean(
            abs(s - p) / p for s, p in receipts
        ),
        "failed_share": ref.shortfall_share,
        "bench.trace_overhead_x": traced.wall_s / ref.wall_s,
        "bench.unattributed_share": ledger.unattributed_share,
        "bench.import_s": import_s,
        "bench.stats_digest_changed": float(traced.digest() != ref.digest()),
    })
    for key in (
        "net.messages_sent", "net.messages_dropped",
        "net.control_retransmits", "net.control_give_ups",
        "net.duplicates_suppressed", "net.capacity_queued",
        "net.capacity_shed", "core.ctrl_packets_at_sync",
        "core.sync_rounds", "core.recoordinations",
        "streaming.duplicate_packets", "streaming.quarantines",
        "streaming.swarm_admits", "streaming.swarm_rejects",
        "streaming.swarm_retries", "streaming.swarm_gave_up",
        "obs.trace_events",
    ):
        metrics[key] = ref.count(key)
    return metrics, passes, ledger.boundary_table()
