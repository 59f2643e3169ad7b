"""Tests for the reliable control plane (ack + retransmit + backoff)."""

import pytest

from repro.net.loss import BernoulliLoss
from repro.net.overlay import ControlPlane, Overlay, RetransmitPolicy
from repro.sim.engine import Environment
from repro.sim.rng import RandomStreams
from repro.sim.sched import HeapScheduler

from tests.net import ignore


def build(loss=0.0, policy=None, delta=10.0, seed=0, scheduler=None):
    env = Environment(scheduler=scheduler)
    overlay = Overlay(
        env,
        streams=RandomStreams(seed),
        control_loss_factory=(lambda: BernoulliLoss(loss)) if loss else None,
    )
    overlay.add_node("a", ignore)
    overlay.add_node("b", ignore)
    plane = ControlPlane(overlay, policy or RetransmitPolicy(), delta)
    return env, overlay, plane


def wire(overlay, plane, node_id, inbox):
    """Route a node's deliveries through the control plane (both ends must
    do this — acks land on the original sender)."""

    def on_deliver(message):
        if plane.intercept(message):
            return
        inbox.append(message)

    overlay.nodes[node_id].on_deliver = on_deliver


def test_policy_validation():
    with pytest.raises(ValueError):
        RetransmitPolicy(max_retries=-1)
    with pytest.raises(ValueError):
        RetransmitPolicy(ack_timeout_deltas=0)
    with pytest.raises(ValueError):
        RetransmitPolicy(backoff=0.5)
    with pytest.raises(ValueError):
        RetransmitPolicy(jitter=-0.1)
    with pytest.raises(ValueError):
        ControlPlane(Overlay(Environment()), RetransmitPolicy(), delta=0)


def test_lossless_send_no_retransmissions():
    env, overlay, plane = build()
    inbox = []
    wire(overlay, plane, "b", inbox)
    wire(overlay, plane, "a", [])
    plane.send("a", "b", "control", body="hello")
    env.run()
    assert [m.body for m in inbox] == ["hello"]
    assert sum(overlay.traffic.retransmissions_by_kind.values()) == 0
    assert sum(overlay.traffic.give_ups_by_kind.values()) == 0
    # the ack flowed back and cleared the pending table
    assert plane._pending == {}


class CountingHeap(HeapScheduler):
    """The heap, counting every entry pushed."""

    def __init__(self):
        super().__init__()
        self.pushed = 0

    def push(self, entry):
        self.pushed += 1
        super().push(entry)


def test_a_lossless_send_and_its_ack_cost_three_heap_entries():
    heap = CountingHeap()
    env, overlay, plane = build(scheduler=heap)
    wire(overlay, plane, "b", [])
    wire(overlay, plane, "a", [])
    plane.send("a", "b", "control", body="hello")
    env.run()
    # the message's delivery, the ack's delivery, the attempt's timer
    # (which fires after the ack as a no-op)
    assert heap.pushed == 3
    assert plane._pending == {}
    assert sum(overlay.traffic.retransmissions_by_kind.values()) == 0


def test_jitter_is_drawn_at_the_send_in_send_order():
    """Two sends from one handler draw ``retx/jitter``'s next two
    uniforms, in program order, before the handler returns; each first
    timer fires at ``sent_at + base·(1 + jitter·(u − ½))``."""
    policy = RetransmitPolicy(max_retries=1, ack_timeout_deltas=2.5, jitter=0.5)
    env, overlay, plane = build(policy=policy, delta=10.0, seed=7)
    overlay.nodes["b"].crash()  # no acks: every first timer retransmits
    u1, u2, u3 = RandomStreams(7).get("retx/jitter").random(3)
    retransmits = {}
    original = overlay.send

    def spy(src, dst, kind, body=None, **kw):
        if kind != "ack" and env.now > 3.0:
            retransmits.setdefault(body, env.now)
        return original(src, dst, kind, body=body, **kw)

    overlay.send = spy
    drawn_after = []

    def handler():
        plane.send("a", "b", "control", body="first")
        plane.send("a", "b", "control", body="second")
        drawn_after.append(float(plane._rng.random()))

    env.call_later(3.0, handler)
    env.run()
    base = 2.5 * 10.0
    assert drawn_after == [pytest.approx(u3)]
    assert retransmits["first"] == pytest.approx(3.0 + base * (1 + 0.5 * (u1 - 0.5)))
    assert retransmits["second"] == pytest.approx(3.0 + base * (1 + 0.5 * (u2 - 0.5)))


def test_lossy_send_retransmits_until_delivered():
    # 60% control loss: a single shot usually dies; a deep retry ladder
    # (P[11 straight losses] ≈ 0.4%) pushes everything through
    env, overlay, plane = build(
        loss=0.6,
        seed=5,
        policy=RetransmitPolicy(max_retries=10, backoff=1.2),
    )
    inbox = []
    wire(overlay, plane, "b", inbox)
    wire(overlay, plane, "a", [])
    for i in range(20):
        plane.send("a", "b", "control", body=i)
    env.run()
    assert sorted(m.body for m in inbox) == list(range(20))
    assert overlay.traffic.retransmissions_by_kind["control"] > 0


def test_duplicates_suppressed_not_redelivered():
    """A retransmitted copy whose original got through must be swallowed."""
    env, overlay, plane = build(
        loss=0.45,
        seed=2,
        policy=RetransmitPolicy(max_retries=10, backoff=1.2),
    )
    inbox = []
    wire(overlay, plane, "b", inbox)
    wire(overlay, plane, "a", [])
    for i in range(30):
        plane.send("a", "b", "control", body=i)
    env.run()
    # exactly-once delivery despite retransmissions
    assert sorted(m.body for m in inbox) == list(range(30))
    # with ~45% loss on data and acks some ack is lost → duplicates arise
    assert sum(overlay.traffic.duplicates_suppressed_by_kind.values()) > 0


def test_give_up_after_budget_and_callback():
    env, overlay, plane = build(
        policy=RetransmitPolicy(max_retries=2, ack_timeout_deltas=1.0)
    )
    overlay.nodes["b"].crash()  # b discards everything, never acks
    abandoned = []
    plane.on_give_up = lambda src, dst, kind, body: abandoned.append(
        (src, dst, kind, body)
    )
    plane.send("a", "b", "start", body="payload")
    env.run()
    assert abandoned == [("a", "b", "start", "payload")]
    assert overlay.traffic.give_ups_by_kind["start"] == 1
    assert overlay.traffic.retransmissions_by_kind["start"] == 2
    assert plane._pending == {}


def test_backoff_grows_between_attempts():
    env, overlay, plane = build(
        policy=RetransmitPolicy(
            max_retries=3, ack_timeout_deltas=1.0, backoff=2.0, jitter=0.0
        )
    )
    overlay.nodes["b"].crash()
    times = []
    original = overlay.send

    def spy(src, dst, kind, **kw):
        if kind != "ack":
            times.append(env.now)
        return original(src, dst, kind, **kw)

    overlay.send = spy
    plane.send("a", "b", "control")
    env.run()
    assert len(times) == 4  # original + 3 retries
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert gaps[1] == pytest.approx(2 * gaps[0])
    assert gaps[2] == pytest.approx(2 * gaps[1])


def test_dead_sender_stops_retrying():
    env, overlay, plane = build(
        policy=RetransmitPolicy(max_retries=5, ack_timeout_deltas=1.0)
    )
    overlay.nodes["b"].crash()
    gave_up = []
    plane.on_give_up = lambda *a: gave_up.append(a)
    plane.send("a", "b", "control")

    env.call_later(15.0, overlay.nodes["a"].crash)
    env.run()
    # the sender died mid-ladder: no give-up is reported, no retries leak
    assert gave_up == []
    assert plane._pending == {}


def test_ack_for_unknown_id_is_harmless():
    env, overlay, plane = build()
    from repro.net.message import Message

    assert plane.intercept(
        Message(src="b", dst="a", kind="ack", body=999, size_bytes=32)
    )


def test_unreliable_messages_pass_through_untouched():
    env, overlay, plane = build()
    from repro.net.message import Message

    msg = Message(src="a", dst="b", kind="control", body=1, size_bytes=64)
    assert plane.intercept(msg) is False  # no msg_id → not ours
    assert overlay.traffic.sent_by_kind["ack"] == 0


def test_control_loss_spares_media_packets():
    env, overlay, plane = build(loss=1.0)  # every control message dies
    got = []
    overlay.nodes["b"].on_deliver = lambda m: got.append(m.kind)
    overlay.send("a", "b", "packet", body="media")
    overlay.send("a", "b", "control", body="ctl")
    env.run()
    assert got == ["packet"]
    assert overlay.traffic.dropped_by_kind["control"] == 1


# ----------------------------------------------------------------------
# RTT estimation + adaptive timeouts
# ----------------------------------------------------------------------
def test_rtt_estimator_first_and_smoothed_samples():
    from repro.net.overlay import RttEstimator

    est = RttEstimator()
    assert est.rto() is None
    est.observe(100.0)
    assert est.srtt == 100.0
    assert est.rttvar == 50.0
    assert est.rto() == pytest.approx(300.0)
    est.observe(200.0)
    # classic gains: RTTVAR' = 3/4·50 + 1/4·|100-200|, SRTT' = 7/8·100 + 1/8·200
    assert est.rttvar == pytest.approx(62.5)
    assert est.srtt == pytest.approx(112.5)
    assert est.samples == 2
    with pytest.raises(ValueError):
        est.observe(-1.0)


def test_clean_acks_feed_the_estimator():
    env, overlay, plane = build()
    wire(overlay, plane, "b", [])
    wire(overlay, plane, "a", [])
    assert plane.srtt_of("b") is None
    plane.send("a", "b", "control")
    env.run()
    assert plane.srtt_of("b") is not None and plane.srtt_of("b") > 0
    assert plane.rtt["b"].samples == 1
    assert plane.srtt_of("nobody") is None


def test_karn_rule_discards_retransmitted_samples():
    """The first copy is swallowed (no ack), the retransmission is acked:
    the round-trip is ambiguous and must never reach the estimator."""
    env, overlay, plane = build(
        policy=RetransmitPolicy(max_retries=3, ack_timeout_deltas=1.0)
    )
    wire(overlay, plane, "a", [])
    copies = []

    def on_deliver(message):
        copies.append(message)
        if len(copies) == 1:
            return  # drop the first copy silently — no ack flows back
        plane.intercept(message)

    overlay.nodes["b"].on_deliver = on_deliver
    plane.send("a", "b", "control")
    env.run()
    assert len(copies) >= 2  # a retransmission happened
    assert plane._pending == {}  # and its ack cleared the send
    assert plane.srtt_of("b") is None  # but Karn kept the sample out


def test_adaptive_timeout_tracks_and_clamps_rto():
    from repro.net.overlay import RttEstimator

    env, overlay, plane = build(
        policy=RetransmitPolicy(adaptive=True, ack_timeout_deltas=2.5),
        delta=10.0,
    )
    # cold start: no sample toward b yet — fixed ack timeout applies
    assert plane._timeout_for("b") == pytest.approx(25.0)
    est = plane.rtt["b"] = RttEstimator()
    est.observe(5.0)  # RTO = 5 + 4·2.5 = 15, inside [10, 100]
    assert plane._timeout_for("b") == pytest.approx(15.0)
    # the clamp is [MIN_TIMEOUT_DELTAS, MAX_TIMEOUT_DELTAS] = [1, 10] δ
    est.srtt, est.rttvar = 0.5, 0.1  # RTO 0.9 → clamped up to 1δ
    assert plane._timeout_for("b") == pytest.approx(10.0)
    est.srtt, est.rttvar = 400.0, 10.0  # RTO 440 → clamped down to 10δ
    assert plane._timeout_for("b") == pytest.approx(100.0)


def test_non_adaptive_policy_ignores_rtt():
    from repro.net.overlay import RttEstimator

    env, overlay, plane = build(delta=10.0)
    est = plane.rtt["b"] = RttEstimator()
    est.observe(1.0)
    assert plane._timeout_for("b") == pytest.approx(25.0)


def test_full_jitter_dealigns_equal_policy_senders():
    """Many sends queued at t=0 toward a dead peer: their first
    retransmissions must spread across [1-j/2, 1+j/2]·timeout instead of
    piling onto one instant (the retry-storm fix)."""
    env, overlay, plane = build(
        policy=RetransmitPolicy(
            max_retries=1, ack_timeout_deltas=1.0, jitter=1.0
        ),
        delta=10.0,
        seed=3,
    )
    overlay.nodes["b"].crash()
    times = []
    original = overlay.send

    def spy(src, dst, kind, **kw):
        if kind != "ack" and env.now > 0:
            times.append(env.now)
        return original(src, dst, kind, **kw)

    overlay.send = spy
    for _ in range(40):
        plane.send("a", "b", "control")
    env.run()
    assert len(times) == 40
    # full jitter with j=1: waits live in [5, 15] and use both halves
    assert all(5.0 <= t <= 15.0 for t in times)
    assert min(times) < 9.0
    assert max(times) > 11.0
    assert len(set(times)) > 10  # genuinely spread, not a few buckets
