"""Ablation experiments beyond the paper's three figures: rows EX-A … EX-O
of the experiment table (:data:`ABLATIONS`, in table order).

Each row's ``doc`` says what it sweeps, what it compares and why it is
set up the way it is; ``repro.experiments.run_experiment(key, …)`` runs
one.  Every run is described as a declarative
:class:`~repro.streaming.spec.SessionSpec` (or
:class:`~repro.streaming.swarm.SwarmSpec`) and every column reads the
detached result, so every row fans its cells out across cores when given
``jobs``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Optional

from repro.core import ProtocolConfig
from repro.experiments.runner import Experiment, first_picks
from repro.net.capacity import CapacityPolicy
from repro.net.overlay import RetransmitPolicy
from repro.obs import TraceConfig
from repro.streaming.adaptive import RateAdaptationPolicy
from repro.streaming.faults import ChurnPlan, FaultPlan, JoinStormPlan
from repro.streaming.health import HealthPolicy
from repro.streaming.repair import RepairPolicy
from repro.streaming.spec import (
    DetectorSpec,
    LinkFaultSpec,
    LossSpec,
    ProtocolSpec,
    SessionSpec,
)
from repro.streaming.swarm import AdmissionPolicy, SwarmSpec


def _spec(cfg: ProtocolConfig, kind: str, params=None, **knobs) -> SessionSpec:
    return SessionSpec(
        config=cfg, protocol=ProtocolSpec(kind, params or {}), **knobs
    )


def _bursty(rate: float) -> LossSpec:
    # mean burst length 3 packets, stationary loss = rate
    return LossSpec("bursty", {"rate": rate})


def _ratio(value: float) -> float:
    return round(value, 4)


def _done_at(result) -> Optional[float]:
    return round(result.completed_at, 1) if result.completed_at else None


def _first_event_ts(result, kind: str) -> Optional[float]:
    """Timestamp of the first ``kind`` event of a detached trace."""
    events = [e for e in result.trace["events"] if e["kind"] == kind]
    return events[0]["ts"] if events else None


# --- EX-A: display name -> (registered kind, fault margin)
_VARIANTS = {
    "DCoP": ("dcop", 1),
    "TCoP": ("tcop", 1),
    "Broadcast": ("broadcast", 1),
    # the chain variant predates the parity machinery
    "UnicastChain": ("unicast_chain", 0),
    "Centralized": ("centralized", 1),
    "ScheduleBased": ("schedule_based", 1),
    "SingleSource": ("single_source", 1),
}


# --- EX-B
def _crashing(cfg: ProtocolConfig, kind: str, draw: int, k: int, at: float):
    # crash the first k of the peers the leaf will select (``draw`` is the
    # size the protocol itself draws, or the sample differs)
    plan = FaultPlan()
    for pid in first_picks(cfg, ProtocolSpec(kind), draw)[:k]:
        plan = plan.crash(pid, at)
    return _spec(cfg, kind, fault_plan=plan)


def _fault_tolerance_arms(k: int, cfg: ProtocolConfig, p: dict) -> dict:
    bare = replace(cfg, fault_margin=0)
    return {
        "dcop_parity": _crashing(cfg, "dcop", cfg.H, k, p["crash_at"]),
        "dcop_noparity": _crashing(bare, "dcop", cfg.H, k, p["crash_at"]),
        "single_source": _crashing(bare, "single_source", 1, k, p["crash_at"]),
    }


# --- EX-F and EX-K state their ladders as upload budgets over windows of
# this many δ: a budget is a whole number of packets per window, and a
# wide window keeps that rounding (and the divisions that read it) close
# to the stated ladder — at 4δ EX-K's weighted arm lost to the equal
# split by up to 4 ms at the defaults, at 10δ it wins at every spread
_LADDER_WINDOW_DELTAS = 10.0


# --- EX-F
def _allocator_arms(spread: float, cfg: ProtocolConfig, p: dict) -> dict:
    # the leaf's picks get uplinks ∝ 1 + spread·i, each exactly its
    # weighted share of τ (fault margin 0); the peers it does not pick
    # send nothing
    weights = [1.0 + spread * i for i in range(cfg.H)]
    picks = first_picks(cfg, ProtocolSpec("schedule_based"), cfg.H)
    unit = cfg.tau * cfg.delta / sum(weights)
    uplinks = CapacityPolicy(
        packets_per_delta=cfg.tau * cfg.delta,
        window_deltas=_LADDER_WINDOW_DELTAS,
        per_peer={pid: unit * w for pid, w in zip(picks, weights)},
    )
    naive = _spec(cfg, "schedule_based", upload_capacity=uplinks)
    return {
        "slots": naive.replace(
            protocol=ProtocolSpec("schedule_based", {"weighted": True})
        ),
        "naive": naive,
    }


# --- EX-G
def _ams_arms(n: int, cfg: ProtocolConfig, p: dict) -> dict:
    crash = FaultPlan().crash(f"CP{1 + n // 2}", cfg.content_packets / 3)
    bare = replace(cfg, fault_margin=0)
    return {
        "ams": _spec(bare, "ams"),
        "dcop": _spec(cfg, "dcop"),
        "ams_crash": _spec(bare, "ams", fault_plan=crash),
        "dcop_crash": _spec(cfg, "dcop", fault_plan=crash),
    }


# --- EX-H
def _crowd(cfg: ProtocolConfig, protocol: ProtocolSpec, leaves: int) -> SwarmSpec:
    # everyone at once, nothing capped, nobody refused: pure offered load
    return SwarmSpec(
        session=SessionSpec(config=cfg, protocol=protocol),
        join_plan=JoinStormPlan(leaves=leaves, mode="flash"),
        audit=False,
    )


def _load_columns(r: dict) -> dict:
    dcop = r["dcop"]
    cfg = dcop.config
    return {
        "single_max_load": max(r["single"].peer_loads.values()),
        "dcop_max_load": max(dcop.peer_loads.values()),
        "dcop_mean_load": round(sum(dcop.peer_loads.values()) / cfg.n, 1),
        "fair_share": round(dcop.n_leaves * cfg.content_packets / cfg.n, 1),
    }


# --- EX-I
def _degraded_arms(factor: float, cfg: ProtocolConfig, p: dict) -> dict:
    plan = FaultPlan()
    if factor < 1.0:
        victim = first_picks(cfg, ProtocolSpec("schedule_based"), cfg.H)[1]
        plan = plan.degrade(victim, at=cfg.content_packets / 8, factor=factor)
    plain = _spec(cfg, "schedule_based", fault_plan=plan)
    return {
        "plain": plain,
        "adaptive": plain.replace(adaptation_policy=RateAdaptationPolicy()),
    }


# --- EX-J
def _receipt_columns(r: dict) -> dict:
    columns = {}
    for kind, result in r.items():
        # both ratios are counts over content_packets: these are exact
        packets = result.config.content_packets
        held = round(result.delivery_ratio * packets)
        offered = round(result.receipt_rate * packets) + result.receive_overruns
        columns.update({
            f"{kind}_delivery": _ratio(result.delivery_ratio),
            f"{kind}_dropped": result.receive_overruns,
            f"{kind}_efficiency": round(held / max(1, offered), 3),
        })
    return columns


# --- EX-K
def _ladder_arms(spread: float, cfg: ProtocolConfig, p: dict) -> dict:
    # 0.25 packets/ms per peer, spread into a ladder of the same mean
    base = 0.25 * cfg.delta
    uplinks = CapacityPolicy(
        packets_per_delta=base,
        window_deltas=_LADDER_WINDOW_DELTAS,
        per_peer={
            f"CP{i}": base * (1 + spread * (i - 1) / (cfg.n - 1)) / (1 + spread / 2)
            for i in range(1, cfg.n + 1)
        },
    )
    equal = _spec(cfg, "dcop", upload_capacity=uplinks)
    return {
        "dcop": equal,
        "weighted": equal.replace(
            protocol=ProtocolSpec("dcop", {"weighted": True})
        ),
    }


# --- EX-L
def _churn_arms(rate: float, cfg: ProtocolConfig, p: dict) -> dict:
    loss = p["control_loss"]
    return {
        kind: _spec(
            cfg,
            kind,
            control_loss=LossSpec("bernoulli", {"p": loss}) if loss else None,
            retransmit_policy=RetransmitPolicy(),
            detector_policy=DetectorSpec("fixed"),
            churn_plan=(
                ChurnPlan(rate_per_delta=rate, min_live=max(2, cfg.n // 3))
                if rate > 0
                else None
            ),
        )
        for kind in ("dcop", "tcop")
    }


def _in_deltas(result, ms: Optional[float]) -> Optional[float]:
    return round(ms / result.config.delta, 2) if ms is not None else None


def _churn_columns(r: dict) -> dict:
    metrics = {
        "delivery": lambda res: _ratio(res.delivery_ratio),
        "detect_deltas": lambda res: _in_deltas(res, res.mean_detection_latency),
        "handoff_deltas": lambda res: _in_deltas(res, res.mean_handoff_latency),
        "retx": lambda res: res.total_retransmissions,
    }
    return {
        f"{kind}_{name}": metric(result)
        for name, metric in metrics.items()
        for kind, result in r.items()
    }


# --- EX-M
def _partition_arms(duration: Any, cfg: ProtocolConfig, p: dict) -> dict:
    split_at = p["split_at"]
    # same config + seed ⇒ same first picks for every cell
    first = first_picks(cfg, ProtocolSpec("dcop"), cfg.H)
    return {
        (kind, k): _spec(
            cfg,
            kind,
            retransmit_policy=RetransmitPolicy(),
            detector_policy=DetectorSpec("fixed"),
            trace=TraceConfig(),
            fault_plan=FaultPlan().partition(
                (tuple(first[:k]),),
                at=split_at,
                heal_at=(
                    None
                    if duration == "permanent"
                    else split_at + duration * cfg.delta
                ),
            ),
        )
        for kind in ("dcop", "tcop")
        for k in p["splits"]
    }


def _partition_columns(r: dict) -> dict:
    row = {}
    for (kind, k), result in r.items():
        split_at = _first_event_ts(result, "partition.split")
        reissue_at = _first_event_ts(result, "recoord.reissue")
        row[f"{kind}_delivery_k{k}"] = _ratio(result.delivery_ratio)
        row[f"{kind}_recoord_deltas_k{k}"] = _in_deltas(
            result, None if reissue_at is None else reissue_at - split_at
        )
    return row


# --- EX-N
def _gray_arms(kind: str, cfg: ProtocolConfig, p: dict) -> dict:
    delta = cfg.delta
    # same config + seed ⇒ same first picks for every cell
    first = first_picks(cfg, ProtocolSpec("dcop"), max(2, cfg.H))
    plan = (
        FaultPlan()
        .flap(first[0], at=60.0, down_for=4 * delta, period=12 * delta, count=3)
        .degrade(first[1], at=40.0, factor=0.1)
    )
    on = _spec(
        cfg,
        kind,
        fault_plan=plan,
        link_fault=LinkFaultSpec(
            "stutter", {"period": 8 * delta, "stall": 2 * delta}
        ),
        retransmit_policy=RetransmitPolicy(adaptive=True),
        detector_policy=DetectorSpec("accrual"),
        repair_policy=RepairPolicy(),
        health_policy=HealthPolicy(),
    )
    return {"on": on, "off": on.replace(health_policy=None)}


def _gray_columns(r: dict) -> dict:
    on, off = r["on"], r["off"]
    detection = on.mean_detection_latency
    return {
        "receipt_on": _ratio(on.receipt_rate),
        "receipt_off": _ratio(off.receipt_rate),
        "delivery_on": _ratio(on.delivery_ratio),
        "delivery_off": _ratio(off.delivery_ratio),
        "quarantines": on.quarantines,
        "readmissions": on.readmissions,
        "false_quarantines": on.false_quarantines,
        "detection_ms": round(detection, 2) if detection is not None else None,
        "false_suspects": on.false_suspicions,
    }


# --- EX-O
def _storm_arms(rate: float, cfg: ProtocolConfig, p: dict) -> dict:
    on = SwarmSpec(
        session=_spec(cfg, "dcop"),
        join_plan=JoinStormPlan(leaves=p["leaves"], rate_per_delta=rate),
        capacity=CapacityPolicy(packets_per_delta=p["packets_per_delta"]),
        admission=AdmissionPolicy(),
    )
    return {"on": on, "off": on.replace(admission=None)}


def _storm_columns(r: dict) -> dict:
    on, off = r["on"], r["off"]
    return {
        "receipt_on": _ratio(on.mean_receipt_all),
        "receipt_off": _ratio(off.mean_receipt_all),
        "admitted_on": on.admitted,
        "gave_up_on": on.gave_up,
        "retries_on": on.retries,
        "shed_on": on.shed_data + on.shed_parity,
        "shed_off": off.shed_data + off.shed_parity,
        "audit_on": "pass" if on.audit_passed else "FAIL",
        "audit_off": "pass" if off.audit_passed else "FAIL",
    }


ABLATIONS = (
    Experiment(
        key="EX-A",
        title="EX-A — protocol comparison (n={n}, H={H})",
        doc="""Every coordination variant side by side at one (n, H): one row
        per protocol — rounds, control traffic at sync and in total, receipt
        rate, delivery.""",
        x="protocol",
        values=list(_VARIANTS),
        config=dict(n=50, H=10, content_packets=300, delta=10.0, seed=0),
        at=lambda name, p: {"fault_margin": _VARIANTS[name][1]},
        arms=lambda name, cfg, p: {"run": _spec(cfg, _VARIANTS[name][0])},
        columns=lambda r: {
            "rounds": r["run"].rounds,
            "ctrl_at_sync": r["run"].control_packets_at_sync,
            "ctrl_total": r["run"].control_packets_total,
            "receipt_rate": round(r["run"].receipt_rate, 3),
            "delivery": round(r["run"].delivery_ratio, 3),
        },
    ),
    Experiment(
        key="EX-B",
        title="EX-B — delivery ratio under peer crashes (n={n}, H={H})",
        doc="""Delivery ratio after crashing ``k`` transmitting peers mid-stream.

        The crash set is the initially selected peers (the ones guaranteed to
        hold large subsequences), crashed at ``crash_at``.  Compares DCoP with
        parity (margin 1), DCoP without parity, and single-source streaming.""",
        x="crashed_peers",
        values=[0, 1, 2, 3],
        config=dict(n=30, H=10, content_packets=300, delta=10.0, seed=0),
        params=dict(crash_at=120.0),
        arms=_fault_tolerance_arms,
        columns=lambda r: {
            label: _ratio(result.delivery_ratio) for label, result in r.items()
        },
    ),
    Experiment(
        key="EX-C",
        title="EX-C — delivery under Gilbert–Elliott loss (n={n}, H={H})",
        doc="""Bursty Gilbert–Elliott channel loss sweep: DCoP delivery with and
        without parity, and how many packets the parity margin recovers.""",
        x="loss_rate",
        values=[0.0, 0.01, 0.02, 0.05, 0.1],
        config=dict(n=30, H=10, content_packets=400, delta=10.0, seed=0),
        arms=lambda rate, cfg, p: {
            "with_parity": _spec(cfg, "dcop", loss=_bursty(rate)),
            "without_parity": _spec(
                replace(cfg, fault_margin=0), "dcop", loss=_bursty(rate)
            ),
        },
        columns=lambda r: {
            "with_parity": _ratio(r["with_parity"].delivery_ratio),
            "without_parity": _ratio(r["without_parity"].delivery_ratio),
            "recovered_with_parity": r["with_parity"].recovered_packets,
        },
    ),
    Experiment(
        key="EX-D",
        title="EX-D — parity margin trade-off (H={H}, loss={loss_rate})",
        doc="""Fault margin ``h`` sweep — overhead (receipt rate) vs resilience
        (delivery under loss), the §3.2 trade-off.

        Uses the schedule-based protocol (fixed H senders, one enhancement
        level) so the receipt rate is exactly the §3.2 formula and the margin's
        effect is isolated from flooding depth.""",
        x="fault_margin",
        values=[0, 1, 2, 3, 5],
        config=dict(n=30, H=10, content_packets=400, delta=10.0, seed=0),
        params=dict(loss_rate=0.05),
        at=lambda margin, p: {"fault_margin": margin},
        arms=lambda margin, cfg, p: {
            "clean": _spec(cfg, "schedule_based"),
            "lossy": _spec(cfg, "schedule_based", loss=_bursty(p["loss_rate"])),
        },
        columns=lambda r: {
            "receipt_rate": _ratio(r["clean"].receipt_rate),
            "delivery_lossless": _ratio(r["clean"].delivery_ratio),
            "delivery_lossy": _ratio(r["lossy"].delivery_ratio),
        },
    ),
    Experiment(
        key="EX-E",
        title="EX-E — scaling with n (H = {h_fraction:.0%} of n)",
        doc="""How sync time and traffic scale with the peer population: n sweep
        at a fixed H fraction, DCoP vs TCoP vs centralized.""",
        x="n",
        values=[10, 20, 50, 100, 200],
        config=dict(content_packets=200, delta=10.0, seed=0),
        params=dict(h_fraction=0.3),
        at=lambda n, p: {"n": n, "H": max(2, int(n * p["h_fraction"]))},
        arms=lambda n, cfg, p: {
            kind: _spec(cfg, kind) for kind in ("dcop", "tcop", "centralized")
        },
        columns=lambda r: {
            "dcop_rounds": r["dcop"].rounds,
            "tcop_rounds": r["tcop"].rounds,
            "centralized_rounds": r["centralized"].rounds,
            "dcop_ctrl": r["dcop"].control_packets_total,
            "tcop_ctrl": r["tcop"].control_packets_total,
        },
    ),
    Experiment(
        key="EX-F",
        title="EX-F — heterogeneous allocation (n={n}, H={H})",
        doc="""§2 time-slot allocation vs naive division over uneven peers.

        ``spread`` parameterizes bandwidth inequality: peer ``i`` of the H
        the leaf selects gets an upload budget ∝ ``1 + spread·i`` (spread 0
        = homogeneous), its share of the content rate.  The slot arm is
        ``schedule_based`` with ``weighted``, which divides by those budgets;
        the naive arm divides evenly and is held to the same budgets.
        Reports completion time and out-of-order arrivals for both.""",
        x="bw_spread",
        values=[0.0, 0.5, 1.0, 2.0, 4.0],
        config=dict(
            n=20, H=5, fault_margin=0, content_packets=600, delta=5.0, seed=0
        ),
        arms=_allocator_arms,
        columns=lambda r: {
            "slots_completed_at": _done_at(r["slots"]),
            "naive_completed_at": _done_at(r["naive"]),
            "slots_violations": r["slots"].order_violations,
            "naive_violations": r["naive"].order_violations,
        },
    ),
    Experiment(
        key="EX-G",
        title="EX-G — AMS group communication vs DCoP flooding",
        doc="""AMS state-exchange traffic vs DCoP's flooding (§1's motivating
        comparison).

        The AMS model gossips ``n(n−1)`` state packets per period for the whole
        stream; DCoP pays a one-shot flooding cost.  Both tolerate one crashed
        peer (AMS via ring takeover, DCoP via parity) — the column pair shows
        what that tolerance costs each of them in control traffic.""",
        x="n",
        values=[6, 12, 24, 48],
        config=dict(content_packets=300, delta=10.0, seed=0),
        at=lambda n, p: {"n": n, "H": max(2, n // 3)},
        arms=_ams_arms,
        columns=lambda r: {
            "ams_ctrl": r["ams"].control_packets_total,
            "dcop_ctrl": r["dcop"].control_packets_total,
            "ams_delivery_crash": _ratio(r["ams_crash"].delivery_ratio),
            "dcop_delivery_crash": _ratio(r["dcop_crash"].delivery_ratio),
        },
    ),
    Experiment(
        key="EX-H",
        title="EX-H — per-peer load with many leaf peers (n={n}, H={H})",
        doc="""Peer load when many leaf peers stream concurrently (§1/§2's
        scalability motivation).

        ``k`` leaves join one shared overlay at the same instant as one swarm
        (infinite uplinks, no admission control), and each contents peer's
        load is the packets it sent across all of them.  A fixed single-source
        server must ship the full content to every leaf (load ``k·l``); under
        DCoP the same demand spreads over all ``n`` peers.""",
        x="leaves",
        values=[1, 2, 5, 10],
        config=dict(n=30, H=8, content_packets=300, delta=10.0, seed=0),
        arms=lambda k, cfg, p: {
            "single": _crowd(
                replace(cfg, fault_margin=0),
                ProtocolSpec("single_source", {"server_id": "CP1"}),
                k,
            ),
            "dcop": _crowd(cfg, ProtocolSpec("dcop"), k),
        },
        columns=_load_columns,
    ),
    Experiment(
        key="EX-I",
        title="EX-I — rate adaptation under degradation (n={n}, H={H})",
        doc="""§5's "peers may change the rate" — helper recruitment.

        One of the H transmitting peers is degraded to ``factor`` of its rate
        mid-stream; the adaptive monitor splits its remaining share with a
        helper proportionally to their rates (weighted §2 allocation).
        Reports completion time with and without adaptation.""",
        x="degrade_factor",
        values=[1.0, 0.5, 0.25, 0.1],
        config=dict(
            n=12, H=4, fault_margin=0, content_packets=400, delta=5.0, seed=2
        ),
        arms=_degraded_arms,
        columns=lambda r: {
            "plain_completed_at": _done_at(r["plain"]),
            "adaptive_completed_at": _done_at(r["adaptive"]),
            # one "adapt" send per adaptation
            "adaptations": r["adaptive"].messages_by_kind.get("adapt", 0),
        },
    ),
    Experiment(
        key="EX-J",
        title="EX-J — leaf receipt capacity ρ_s (n={n}, H={H})",
        doc="""§3.1's receipt-capacity argument, quantified: buffer overrun
        under broadcast vs DCoP.

        The broadcast way makes every peer send the *whole* sequence, so the
        leaf is offered ``n·τ`` during the initial phase; below that capacity
        packets drop before decoding ("LP_s loses packets due to the buffer
        overrun") and only the n-fold duplication saves the content — i.e.
        most of ρ_s is burnt on duplicates.  DCoP's division keeps the offered
        rate at ``≈τ(h+1)/h``, so a modest ρ_s suffices with zero drops.
        ``efficiency`` = distinct data packets delivered ÷ packets the leaf
        had to absorb (admitted + dropped).""",
        x="rho_over_tau",
        values=[2.5, 5.0, 10.0, 25.0],
        config=dict(n=20, H=8, content_packets=300, delta=5.0, tau=1.0, seed=0),
        arms=lambda rho, cfg, p: {
            kind: _spec(
                cfg,
                kind,
                leaf_receipt_rate=rho * cfg.tau,
                leaf_receive_buffer=32.0,
            )
            for kind in ("broadcast", "dcop")
        },
        columns=_receipt_columns,
    ),
    Experiment(
        key="EX-K",
        title="EX-K — weighted vs equal flooding divisions (n={n}, H={H})",
        doc="""Bandwidth-aware flooding (``dcop`` with ``weighted``) vs
        equal-split DCoP.

        Peers get a ladder of upload budgets whose steepness is swept (spread
        0 = homogeneous); both arms are held to it.  The weighted arm runs the
        identical coordination (same rounds, same control packets) but divides
        every stream in proportion to the budgets, so completion stays on the
        content timeline instead of waiting for the slowest member.""",
        x="capacity_spread",
        values=[0.0, 1.0, 3.0, 8.0],
        config=dict(n=16, H=5, content_packets=400, delta=5.0, seed=4),
        arms=_ladder_arms,
        columns=lambda r: {
            "dcop_completed_at": _done_at(r["dcop"]),
            "weighted_completed_at": _done_at(r["weighted"]),
            "ctrl_equal": (
                r["dcop"].control_packets_total
                == r["weighted"].control_packets_total
            ),
        },
    ),
    Experiment(
        key="EX-L",
        title=(
            "EX-L — delivery and detection latency under churn "
            "(n={n}, H={H}, ctrl loss={control_loss:.0%})"
        ),
        doc="""Streaming under churn — DCoP vs TCoP with the full
        churn-tolerance stack.

        Sweeps the Poisson departure rate (peers per δ across the overlay)
        while heartbeat failure detection, the reliable control plane, and
        mid-stream re-coordination are active, on top of ``control_loss``
        Bernoulli loss on the coordination plane.  Reports per protocol the
        delivery ratio, the mean crash→confirmation detection latency, the
        mean crash→re-flood handoff latency (both in δ units), and the
        control retransmission count.""",
        x="churn_rate",
        values=[0.0, 0.02, 0.05, 0.1],
        config=dict(n=20, H=6, content_packets=300, delta=8.0, seed=0),
        params=dict(control_loss=0.05),
        quick=dict(content_packets=200),
        arms=_churn_arms,
        columns=_churn_columns,
    ),
    Experiment(
        key="EX-M",
        title=(
            "EX-M — receipt ratio and re-coordination latency vs "
            "partition duration (n={n}, H={H}, split at t={split_at:g})"
        ),
        doc="""Streaming through network partitions of varying duration and
        component size — DCoP vs TCoP.

        Isolates the first ``k`` peers the leaf contacts (the worst case —
        they carry the biggest shares; one ``k`` per entry of ``splits``) at
        ``split_at``, healing after the given number of δ periods
        (``"permanent"`` = never).  Partitioned peers are *silent, not dead*:
        they keep transmitting into the cut while the failure detector
        confirms them through silence and the residual is re-flooded inside
        the reachable component.  Reports per (protocol, split size) the
        receipt ratio and the split→re-flood latency in δ units — ``None``
        when the partition healed before the detector committed to a
        re-coordination.""",
        x="duration_deltas",
        values=[5.0, 15.0, "permanent"],
        config=dict(n=10, H=4, content_packets=150, delta=8.0, seed=13),
        params=dict(splits=(1, 2), split_at=60.0),
        arms=_partition_arms,
        columns=_partition_columns,
    ),
    Experiment(
        key="EX-N",
        title=(
            "EX-N — receipt under gray failures, quarantine on vs off "
            "(n={n}, H={H}, flap+degrade+stutter)"
        ),
        doc="""Gray failures (peers that never cleanly die) — quarantine on vs
        off, every protocol.

        The gauntlet degrades without killing: the leaf's first pick *flaps*
        (short crash/rejoin cycles), its second pick is rate-degraded to a
        crawl while heartbeating normally, and every link stutters (periodic
        stalls that burst-flush).  The accrual failure detector, adaptive
        control timeouts, and repair stay on in both arms; only the
        :class:`~repro.streaming.health.HealthPolicy` circuit breaker is
        toggled.  Reports per protocol the receipt ratio and delivery of
        both arms plus the quarantine/readmission/false-quarantine counts —
        the breaker must never *cost* receipt (quarantine-on ≥ off).""",
        x="protocol",
        values=[
            "dcop", "tcop", "broadcast", "centralized", "schedule_based",
            "single_source", "unicast_chain", "ams",
        ],
        config=dict(n=10, H=4, content_packets=150, delta=8.0, seed=13),
        quick=dict(content_packets=100),
        arms=_gray_arms,
        columns=_gray_columns,
    ),
    Experiment(
        key="EX-O",
        title=(
            "EX-O — receipt under join storms, admission on vs off "
            "(leaves={leaves}, n={n}, H={H}, cap={packets_per_delta}/δ)"
        ),
        doc="""Flash-crowd overload — receipt vs arrival rate against finite
        per-peer upload budgets, swarm admission control on vs off.

        A swarm of ``leaves`` leaf peers joins one shared overlay as a
        Poisson process whose rate sweeps from a trickle to a flash crowd,
        while every contents peer is capped at ``packets_per_delta`` uplink
        sends per δ.  The admission-on arm refuses joins the reachable pool
        cannot carry (refused leaves back off and retry); the off arm lets
        everyone in and shares the pain through queueing and shedding.
        Receipt is averaged over *all* arrivals with gave-up leaves counted
        as zero, so admission cannot win by serving fewer leaves — the on
        curve must still be no worse than off at every load point.""",
        x="rate_per_delta",
        values=[0.25, 0.5, 1.0, 2.0],
        config=dict(n=6, H=3, content_packets=60, delta=8.0, seed=17),
        params=dict(leaves=8, packets_per_delta=6.0),
        quick=dict(content_packets=40, leaves=6),
        arms=_storm_arms,
        columns=_storm_columns,
    ),
)
