"""Hypothesis property tests over the coordination protocols.

Random small configurations, lossless channels: the invariants every
protocol must satisfy regardless of n, H, margin, or seed.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ProtocolConfig
from repro.streaming import ProtocolSpec, SessionSpec

PROTOCOLS = ["dcop", "tcop", "centralized", "schedule_based"]


def run_random(protocol, n, h_frac, margin, seed):
    H = max(1, min(n, round(n * h_frac)))
    cfg = ProtocolConfig(
        n=n,
        H=H,
        fault_margin=margin,
        tau=1.0,
        delta=8.0,
        content_packets=120,
        seed=seed,
    )
    session = SessionSpec(cfg, ProtocolSpec(protocol)).build()
    data_seen = Counter()
    original = session.leaf.node.on_deliver

    def spy(msg):
        if msg.kind == "packet" and not msg.body.is_parity:
            data_seen[msg.body.label] += 1
        original(msg)

    session.leaf.node.on_deliver = spy
    return session, session.run(), data_seen


@settings(max_examples=20, deadline=None)
@given(
    protocol=st.sampled_from(PROTOCOLS),
    n=st.integers(min_value=2, max_value=16),
    h_frac=st.floats(min_value=0.1, max_value=1.0),
    margin=st.integers(min_value=0, max_value=2),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_lossless_delivery_is_complete(protocol, n, h_frac, margin, seed):
    """On lossless channels every protocol delivers every data packet."""
    _, result, _ = run_random(protocol, n, h_frac, margin, seed)
    assert result.delivery_ratio == 1.0
    assert result.all_active


@settings(max_examples=20, deadline=None)
@given(
    protocol=st.sampled_from(PROTOCOLS),
    n=st.integers(min_value=2, max_value=14),
    h_frac=st.floats(min_value=0.1, max_value=1.0),
    margin=st.integers(min_value=0, max_value=2),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_data_packets_arrive_exactly_once(
    protocol, n, h_frac, margin, seed
):
    """Assignments partition the data: the leaf never receives the same
    data packet twice (parity may repeat; data must not)."""
    _, _, data_seen = run_random(protocol, n, h_frac, margin, seed)
    assert data_seen
    assert max(data_seen.values()) == 1
    assert set(data_seen) == set(range(1, 121))


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=14),
    h_frac=st.floats(min_value=0.2, max_value=1.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_tcop_rounds_triple_dcop(n, h_frac, seed):
    """TCoP's 3-round handshake: rounds(TCoP) == 3·rounds(DCoP) whenever
    both protocols need the same number of waves (same seed, same
    selections)."""
    _, d, _ = run_random("dcop", n, h_frac, 1, seed)
    _, t, _ = run_random("tcop", n, h_frac, 1, seed)
    assert t.rounds >= d.rounds
    assert t.rounds % 3 == 0


@settings(max_examples=15, deadline=None)
@given(
    protocol=st.sampled_from(["dcop", "tcop"]),
    n=st.integers(min_value=3, max_value=12),
    h_frac=st.floats(min_value=0.2, max_value=1.0),
    margin=st.integers(min_value=1, max_value=2),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_receipt_rate_bounded(protocol, n, h_frac, margin, seed):
    """Rate ≥ 1 (all data arrives) and ≤ the worst-case compounding bound
    (2× per flooding level with the shortest interval, ≤ n levels)."""
    _, result, _ = run_random(protocol, n, h_frac, margin, seed)
    assert result.receipt_rate >= 1.0 - 1e-9
    assert result.receipt_rate <= 2.0 ** min(n, 12)


@settings(max_examples=10, deadline=None)
@given(
    protocol=st.sampled_from(PROTOCOLS),
    n=st.integers(min_value=2, max_value=12),
    h_frac=st.floats(min_value=0.1, max_value=1.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_runs_are_deterministic(protocol, n, h_frac, seed):
    _, a, _ = run_random(protocol, n, h_frac, 1, seed)
    _, b, _ = run_random(protocol, n, h_frac, 1, seed)
    assert a.activation_times == b.activation_times
    assert a.messages_by_kind == b.messages_by_kind
    assert a.receipt_rate == b.receipt_rate
