"""Swarm overload layer: join storms, admission control, degradation.

Pins down the PR's acceptance bar — the flash-crowd gauntlet passes for
every registered protocol (no capacity violations, admitted leaves
deliver, rejected leaves are never served), equal seeds give identical
outcomes, reservations conserve, and admission backoff jitter stays
inside the policy envelope.
"""

import dataclasses
import math

import pytest

from repro.core import ProtocolConfig
from repro.net.capacity import CapacityPolicy
from repro.streaming import (
    AdmissionPolicy,
    HealthPolicy,
    JoinStormPlan,
    ProtocolSpec,
    SessionResult,
    SessionSpec,
    SwarmSpec,
)
from repro.streaming.swarm import ADMIT_RETRY

#: a case name starting with this is the weighted division of its protocol
WEIGHTED = "weighted_"

#: every registered protocol, then the two weighted divisions (appended,
#: so a case's index — the gauntlet cells' seed — never shifts)
ALL_PROTOCOLS = [
    "dcop",
    "tcop",
    "broadcast",
    "centralized",
    "schedule_based",
    "single_source",
    "unicast_chain",
    "ams",
    WEIGHTED + "dcop",
    WEIGHTED + "schedule_based",
]


def uplink_ladder(n):
    """Unequal budgets in whole packets per δ: CP1 gets 4, CPn 12."""
    return CapacityPolicy(
        packets_per_delta=8.0,
        per_peer={
            f"CP{i}": float(4 + round(8 * (i - 1) / (n - 1)))
            for i in range(1, n + 1)
        },
    )


def protocol_case(case, n):
    """``(ProtocolSpec, uplinks)`` of an ``ALL_PROTOCOLS`` case over ``n``
    peers: a weighted division comes with the ladder it divides by."""
    kind = case.removeprefix(WEIGHTED)
    if kind == case:
        return ProtocolSpec(kind), None
    return ProtocolSpec(kind, {"weighted": True}), uplink_ladder(n)


def config(**kw):
    defaults = dict(
        n=6, H=3, fault_margin=1, tau=1.0, delta=8.0,
        content_packets=30, seed=11,
    )
    defaults.update(kw)
    return ProtocolConfig(**defaults)


def swarm_spec(
    protocol="dcop",
    leaves=4,
    rate_per_delta=1.0,
    packets_per_delta=8.0,
    admission=True,
    admission_policy=None,
    seed=11,
    capacity=None,
    **plan_kw,
):
    cfg = config(seed=seed)
    proto, ladder = protocol_case(protocol, cfg.n)
    if capacity is None:
        capacity = ladder or CapacityPolicy(packets_per_delta=packets_per_delta)
    if admission and admission_policy is None:
        admission_policy = AdmissionPolicy()
    return SwarmSpec(
        session=SessionSpec(config=cfg, protocol=proto),
        join_plan=JoinStormPlan(
            leaves=leaves, rate_per_delta=rate_per_delta, **plan_kw
        ),
        capacity=capacity,
        admission=admission_policy if admission else None,
    )


# ----------------------------------------------------------------------
# the flash-crowd gauntlet: every protocol, admission on
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_join_storm_gauntlet(protocol):
    result = swarm_spec(protocol).run()
    assert result.audit_passed, result.audit.summary()
    assert result.unroutable == 0
    assert result.reservations_at_end == 0
    assert result.admitted >= 1
    for outcome in result.outcomes:
        if outcome.admitted:
            assert outcome.delivery_ratio == pytest.approx(1.0), (
                f"{outcome.leaf_id} was admitted but starved "
                f"(delivery={outcome.delivery_ratio})"
            )
        else:
            assert outcome.gave_up
            assert outcome.receipt_rate == 0.0


def test_a_physical_peers_uplink_holds_in_a_swarm():
    """Four leaves flash-join four peers, each stated at 0.05 packets/ms
    (2 packets per 5δ window): over every leaf it serves, no peer sends
    more than its budget allows.  The per-session throttle this budget
    replaced let each peer of this run send 200 packets in 1014 ms,
    0.197 packets/ms: 3.9× the same statement."""
    uplinks = CapacityPolicy(
        packets_per_delta=0.4,
        window_deltas=5.0,
        per_peer={f"CP{i}": 0.4 for i in range(1, 5)},
    )
    swarm = SwarmSpec(
        session=SessionSpec(
            config=ProtocolConfig(
                n=4, H=4, fault_margin=0, delta=8.0, content_packets=200,
                seed=3,
            ),
            protocol=ProtocolSpec("dcop"),
        ),
        join_plan=JoinStormPlan(leaves=4, mode="flash"),
        capacity=uplinks,
    ).build()
    result = swarm.run()
    assert result.audit_passed, result.audit.summary()
    for pid, hub in swarm.hubs.items():
        budget = swarm.commons.budgets[pid]
        assert budget.per_window == 2
        assert budget.queued_sends > 0  # the budget binds
        sent = sum(
            st.sent_count for agent in hub.agents.values() for st in agent.streams
        )
        assert sent <= budget.rate_per_ms * result.elapsed + budget.per_window


def test_flash_mode_all_arrive_at_once():
    result = swarm_spec(mode="flash").run()
    arrivals = {o.arrived_at for o in result.outcomes}
    assert arrivals == {0.0}
    assert result.audit_passed


# ----------------------------------------------------------------------
# determinism: equal seeds (across schedulers: see
# test_scheduler_equivalence.py, which runs one of these swarms)
# ----------------------------------------------------------------------
def test_same_seed_same_outcomes():
    a = swarm_spec(leaves=5, packets_per_delta=5.0).run()
    b = swarm_spec(leaves=5, packets_per_delta=5.0).run()
    assert [o.to_dict() for o in a.outcomes] == [
        o.to_dict() for o in b.outcomes
    ]
    assert a.seed != a.seed + 1  # sanity
    c = swarm_spec(leaves=5, packets_per_delta=5.0, seed=12).run()
    assert [o.to_dict() for o in a.outcomes] != [
        o.to_dict() for o in c.outcomes
    ]


# ----------------------------------------------------------------------
# admission control: conservation, backoff, starvation
# ----------------------------------------------------------------------
@pytest.fixture
def short_retry(monkeypatch):
    """A rejected join's retry horizon shorter than a session."""
    import repro.streaming.swarm as swarm
    from repro.net.overlay import RetransmitPolicy

    retry = RetransmitPolicy(
        max_retries=2, ack_timeout_deltas=1.5, backoff=2.0, jitter=0.5
    )
    monkeypatch.setattr(swarm, "ADMIT_RETRY", retry)
    return retry


def overloaded_spec(**kw):
    """More demand than the pool carries; with ``short_retry`` it forces
    rejects, retries, and give-ups."""
    kw.setdefault("leaves", 8)
    kw.setdefault("rate_per_delta", 2.0)
    kw.setdefault("packets_per_delta", 3.0)
    return swarm_spec(**kw)


@pytest.mark.usefixtures("short_retry")
def test_reservations_conserve_under_contention():
    result = overloaded_spec().run()
    assert result.audit_passed, result.audit.summary()
    assert result.reservations_at_end == 0
    grants = sum(
        1 for e in result.trace.events if e.kind == "admit.grant"
    )
    releases = sum(
        1 for e in result.trace.events if e.kind == "admit.release"
    )
    assert grants == releases == result.admitted
    assert result.gave_up == result.n_leaves - result.admitted
    assert result.retries > 0


@pytest.mark.usefixtures("short_retry")
def test_rejected_leaves_receive_no_media():
    result = overloaded_spec().run()
    rejected = {o.leaf_id for o in result.outcomes if o.gave_up}
    assert rejected, "the overload scenario must reject someone"
    served = {
        e.subject
        for e in result.trace.events
        if e.kind == "media.rx"
    }
    assert not (rejected & served)


def test_backoff_jitter_stays_in_policy_envelope():
    retry = ADMIT_RETRY
    result = overloaded_spec().run()
    base = retry.ack_timeout_deltas * 8.0  # delta=8.0
    retries = [
        e for e in result.trace.events if e.kind == "admit.retry"
    ]
    assert retries
    for event in retries:
        payload = event.payload()
        attempt = payload["attempt"]
        nominal = base * retry.backoff ** (attempt - 1)
        low = nominal * (1.0 - retry.jitter / 2.0)
        high = nominal * (1.0 + retry.jitter / 2.0)
        assert low <= payload["wait"] <= high


def test_infinite_pool_admits_everyone():
    # no capacity policy ⇒ the reachable pool is unbounded and
    # admission becomes a pass-through
    spec = SwarmSpec(
        session=SessionSpec(config=config(), protocol=ProtocolSpec("dcop")),
        join_plan=JoinStormPlan(leaves=5, rate_per_delta=1.0),
        admission=AdmissionPolicy(),
    )
    result = spec.run()
    assert result.admitted == 5
    assert result.retries == 0
    assert all(o.attempts == 1 for o in result.outcomes)


def test_admission_off_never_rejects():
    result = overloaded_spec(admission=False).run()
    assert result.gave_up == 0
    assert result.admitted == result.n_leaves
    assert result.audit_passed


@pytest.mark.usefixtures("short_retry")
def test_mean_receipt_counts_gave_up_leaves_as_zero():
    result = overloaded_spec().run()
    assert result.gave_up > 0
    expected = math.fsum(
        o.receipt_rate for o in result.outcomes
    ) / len(result.outcomes)
    assert result.mean_receipt_all == pytest.approx(expected)
    assert result.mean_receipt_admitted >= result.mean_receipt_all


# ----------------------------------------------------------------------
# graceful degradation: sheds are priority-ordered
# ----------------------------------------------------------------------
def test_shedding_prefers_parity():
    result = swarm_spec(
        leaves=8,
        rate_per_delta=4.0,
        packets_per_delta=2.0,
        admission=False,
    ).run()
    sheds = [
        e.payload() for e in result.trace.events if e.kind == "capacity.shed"
    ]
    if sheds:  # the scenario saturates queues; parity goes overboard first
        assert sheds[0]["parity"] is True
    assert result.shed_parity >= result.shed_data
    assert result.audit_passed


# ----------------------------------------------------------------------
# a swarm of one is the single-leaf run
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_flash_swarm_of_one_is_the_single_leaf_run(protocol):
    """Lossless only: loss streams are named per directed channel, and the
    leaf is ``leaf`` on one side and ``leaf1`` on the other."""
    proto, ladder = protocol_case(protocol, 20)
    capped = CapacityPolicy(packets_per_delta=6.0)
    for seed, capacity in ((0, ladder), (1, ladder), (0, capped)):
        spec = SessionSpec(
            config=ProtocolConfig(n=20, H=6, content_packets=200, seed=seed),
            protocol=proto,
        )
        alone = spec.replace(upload_capacity=capacity).run()
        swarm = SwarmSpec(
            session=spec,
            join_plan=JoinStormPlan(leaves=1, mode="flash"),
            capacity=capacity,
            audit=False,
        ).build()
        swarm.run()
        together = swarm.sessions["leaf1"]._collect()
        for field in dataclasses.fields(SessionResult):
            # elapsed: the swarm's watch loop polls one last δ
            if field.name not in ("elapsed", "config"):
                assert getattr(together, field.name) == getattr(
                    alone, field.name
                ), (field.name, seed, capacity)


# ----------------------------------------------------------------------
# spec validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["single", "swarm"])
@pytest.mark.parametrize(
    "unrunnable, message",
    [
        ({"media_batch": -1.0}, "media_batch must be >= 0"),
        ({"health_policy": HealthPolicy()}, "set detector_policy too"),
    ],
)
def test_unrunnable_spec_fails_at_build(kind, unrunnable, message):
    spec = SessionSpec(
        config=config(), protocol=ProtocolSpec("dcop"), **unrunnable
    )
    if kind == "swarm":
        spec = SwarmSpec(session=spec, join_plan=JoinStormPlan(leaves=2))
    with pytest.raises(ValueError, match=message):
        spec.build()


def test_swarm_spec_rejects_swarm_owned_template_fields():
    from repro.obs import TraceConfig

    with pytest.raises(ValueError):
        SwarmSpec(
            session=SessionSpec(
                config=config(),
                protocol=ProtocolSpec("dcop"),
                trace=TraceConfig(),
            )
        )
    with pytest.raises(ValueError):
        SwarmSpec(
            session=SessionSpec(
                config=config(),
                protocol=ProtocolSpec("dcop"),
                upload_capacity=CapacityPolicy(packets_per_delta=4),
            )
        )


class TestJoinStormPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            JoinStormPlan(leaves=0)
        with pytest.raises(ValueError):
            JoinStormPlan(rate_per_delta=0)
        with pytest.raises(ValueError):
            JoinStormPlan(mode="warp")
        with pytest.raises(ValueError):
            JoinStormPlan(spike_leaves=2)  # needs spike_at_deltas

    def test_flash_offsets_draw_nothing(self):
        import numpy as np

        plan = JoinStormPlan(leaves=3, mode="flash")
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        offsets = plan.arrival_offsets(8.0, rng)
        assert offsets == [0.0, 0.0, 0.0]
        assert rng.bit_generator.state == before

    def test_poisson_offsets_are_sorted_and_spiked(self):
        import numpy as np

        plan = JoinStormPlan(
            leaves=4, rate_per_delta=0.5, spike_at_deltas=1.0,
            spike_leaves=2,
        )
        offsets = plan.arrival_offsets(8.0, np.random.default_rng(3))
        assert len(offsets) == plan.total_leaves == 6
        assert offsets == sorted(offsets)
        assert offsets.count(8.0) >= 2  # the spike lands together
