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

ALL_PROTOCOLS = [
    "dcop",
    "tcop",
    "broadcast",
    "centralized",
    "schedule_based",
    "single_source",
    "unicast_chain",
    "ams",
    "hetero_schedule",
    "hetero_dcop",
]


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
    **plan_kw,
):
    params = (
        {"bandwidths": [2.0, 1.0, 1.0]}
        if protocol == "hetero_schedule"
        else {}
    )
    if admission and admission_policy is None:
        admission_policy = AdmissionPolicy()
    return SwarmSpec(
        session=SessionSpec(
            config=config(seed=seed),
            protocol=ProtocolSpec(protocol, params),
        ),
        join_plan=JoinStormPlan(
            leaves=leaves, rate_per_delta=rate_per_delta, **plan_kw
        ),
        capacity=CapacityPolicy(packets_per_delta=packets_per_delta),
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
def overloaded_spec(**kw):
    """More demand than the pool carries, with a retry horizon shorter
    than a session: forces rejects, retries, and give-ups."""
    from repro.net.overlay import RetransmitPolicy

    kw.setdefault("leaves", 8)
    kw.setdefault("rate_per_delta", 2.0)
    kw.setdefault("packets_per_delta", 3.0)
    if kw.get("admission", True):
        kw.setdefault(
            "admission_policy",
            AdmissionPolicy(
                retry=RetransmitPolicy(
                    max_retries=2,
                    ack_timeout_deltas=1.5,
                    backoff=2.0,
                    jitter=0.5,
                )
            ),
        )
    return swarm_spec(**kw)


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
    from repro.net.overlay import RetransmitPolicy

    retry = RetransmitPolicy(
        max_retries=3, ack_timeout_deltas=2.0, backoff=2.0, jitter=0.5
    )
    result = overloaded_spec(
        admission_policy=AdmissionPolicy(retry=retry)
    ).run()
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
    params = (
        {"bandwidths": [3.0, 2.0, 2.0, 1.0, 1.0, 1.0]}
        if protocol == "hetero_schedule"
        else {}
    )
    capped = CapacityPolicy(packets_per_delta=6.0)
    for seed, capacity in ((0, None), (1, None), (0, capped)):
        spec = SessionSpec(
            config=ProtocolConfig(n=20, H=6, content_packets=200, seed=seed),
            protocol=ProtocolSpec(protocol, params),
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

        plan = JoinStormPlan(leaves=3, mode="flash", start_deltas=2.0)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        offsets = plan.arrival_offsets(8.0, rng)
        assert offsets == [16.0, 16.0, 16.0]
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
