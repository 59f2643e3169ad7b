"""Tests for the extension ablations (EX-F … EX-N) at reduced scale: the
argument sets ``data/tables.json`` pins (see ``conftest.pinned``)."""

import statistics


def test_heterogeneous_allocator_wins(pinned):
    series = pinned("EX-F")
    assert len(series) == 2
    # homogeneous point coincides, heterogeneous diverges
    assert series.columns["naive_completed_at"][1] > series.columns["slots_completed_at"][1]


def test_ams_overhead_superlinear(pinned):
    series = pinned("EX-G")
    ams = series.columns["ams_ctrl"]
    assert ams[1] > 3.5 * ams[0]  # n doubled → ~4x state traffic
    assert all(d == 1.0 for d in series.columns["ams_delivery_crash"])


def test_multi_leaf_load_spread(pinned):
    series = pinned("EX-H")
    single = series.columns["single_max_load"]
    dcop = series.columns["dcop_max_load"]
    assert single == [120, 360]
    assert dcop[1] < single[1] / 2


def test_rate_adaptation_compensates(pinned):
    series = pinned("EX-I")
    plain = series.columns["plain_completed_at"]
    adaptive = series.columns["adaptive_completed_at"]
    assert plain[0] == adaptive[0]
    assert adaptive[1] < plain[1]
    assert series.columns["adaptations"] == [0, 1]


def test_receipt_capacity_contrast(pinned):
    series = pinned("EX-J")
    assert series.columns["dcop_dropped"] == [0, 0]
    assert series.columns["broadcast_dropped"][0] > 0
    assert series.columns["broadcast_dropped"][1] == 0


def test_hetero_flooding_same_ctrl_cost(pinned):
    series = pinned("EX-K")
    assert all(series.columns["ctrl_equal"])
    assert (
        series.columns["weighted_completed_at"][1]
        <= series.columns["dcop_completed_at"][1]
    )


def test_gray_ablation_breaker_never_costs_receipt(pinned):
    assert len(pinned("EX-N")) == 3
    assert len(pinned("EX-N@defaults")) == 8  # every protocol
    for series in (pinned("EX-N"), pinned("EX-N@defaults")):
        on = series.columns["receipt_on"]
        off = series.columns["receipt_off"]
        assert all(a >= b for a, b in zip(on, off))
        assert all(d == 1.0 for d in series.columns["delivery_on"])
        assert all(f == 0 for f in series.columns["false_quarantines"])
        # the gauntlet actually trips the breaker somewhere
        assert sum(series.columns["quarantines"]) >= 1
    # flap outages are confirmed: the typical confirm lands within the
    # accrual window of one outage (a few heartbeat periods at δ=8),
    # while the tail may span a later flap cycle of the same peer
    every = pinned("EX-N@defaults")
    detections = [v for v in every.columns["detection_ms"] if v is not None]
    assert 0 < statistics.median_low(detections) <= 8 * 8.0
    assert max(detections) <= 100 * 8.0
