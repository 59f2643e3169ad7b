"""Bench EX-M — receipt ratio and re-coordination latency vs partitions.

Partitions of increasing duration (ending with a permanent split) isolate
the 1–2 peers carrying the biggest shares.  With the tolerance stack
active, DCoP and TCoP hold full receipt in the reachable component; the
split→re-flood latency is pinned near the detector's silence-confirm
threshold — and short partitions heal *before* that threshold, so no
re-coordination is spent on them at all.
"""

from repro.experiments import run_experiment
from repro.streaming import DetectorPolicy


def test_bench_partition(bench_scalars):
    series = run_experiment(
        "EX-M",
        values=[5.0, 15.0, "permanent"],
        splits=[1, 2],
        n=10,
        H=4,
        content_packets=150,
    )
    print()
    print(series.render())

    delivery_cols = [
        f"{label}_delivery_k{k}"
        for label in ("dcop", "tcop")
        for k in (1, 2)
    ]
    recoord_cols = [
        f"{label}_recoord_deltas_k{k}"
        for label in ("dcop", "tcop")
        for k in (1, 2)
    ]

    bench_scalars["min_receipt_ratio"] = min(
        v for col in delivery_cols for v in series.series(col)
    )
    observed = [
        v for col in recoord_cols for v in series.series(col)
        if v is not None
    ]
    bench_scalars["max_recoord_deltas"] = max(observed)
    bench_scalars["min_recoord_deltas"] = min(observed)

    # receipt ratio never dents: margin + re-coordination cover the
    # isolated shares, and healed peers finish their own
    for col in delivery_cols:
        assert all(v == 1.0 for v in series.series(col))

    # re-coordination fires within the detector's silence-confirm window
    # (confirm_misses heartbeat periods + scheduling slack)
    bound = DetectorPolicy().confirm_misses + 4
    assert observed, "partition sweep never re-coordinated"
    assert all(0 < v <= bound for v in observed)

    # a 5δ partition heals before the detector commits — both protocols
    # ride it out without re-flooding anything
    for col in recoord_cols:
        assert series.series(col)[0] is None
        # …while the permanent split always pays exactly one re-flood
        assert series.series(col)[-1] is not None
