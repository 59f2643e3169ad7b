"""Bench EX-N — gray-failure gauntlet, quarantine circuit breaker on vs off.

Every protocol runs the same degraded-but-alive environment (a flapping
first pick, a 10%-rate second pick, stuttering links) twice — with and
without the health monitor.  The recorded scalars pin down the PR's
acceptance bar: the breaker never costs receipt, never trips falsely,
and failure detection stays within the accrual window (p50/p95 over the
sweep's confirm latencies).
"""

from conftest import percentile

from repro.experiments import run_experiment


def test_bench_gray(bench_scalars):
    series = run_experiment("EX-N", n=10, H=4, content_packets=150)
    print()
    print(series.render())

    on = series.series("receipt_on")
    off = series.series("receipt_off")
    detections = [v for v in series.series("detection_ms") if v is not None]

    bench_scalars["min_receipt_margin"] = round(
        min(a - b for a, b in zip(on, off)), 4
    )
    bench_scalars["quarantines_total"] = sum(series.series("quarantines"))
    bench_scalars["readmissions_total"] = sum(series.series("readmissions"))
    bench_scalars["false_quarantines_total"] = sum(
        series.series("false_quarantines")
    )
    bench_scalars["false_suspects_total"] = sum(
        series.series("false_suspects")
    )
    bench_scalars["detection_ms_p50"] = percentile(detections, 50)
    bench_scalars["detection_ms_p95"] = percentile(detections, 95)

    # the acceptance bar: quarantine never costs receipt, anywhere
    assert all(a >= b for a, b in zip(on, off))
    # gray faults never dent delivery with the stack on
    assert all(v == 1.0 for v in series.series("delivery_on"))
    # the breaker trips somewhere (the gauntlet is not decorative) and
    # every tripped episode is justified by an injected fault
    assert bench_scalars["quarantines_total"] >= 1
    assert bench_scalars["false_quarantines_total"] == 0
    # flap outages are confirmed: the typical confirm lands within the
    # accrual window of one outage (a few heartbeat periods at δ=8),
    # while the tail may span a later flap cycle of the same peer
    assert detections
    assert 0 < bench_scalars["detection_ms_p50"] <= 8 * 8.0
    assert bench_scalars["detection_ms_p95"] <= 100 * 8.0
