"""Bench SPANS — causal span construction at fig-10 scale.

One DCoP session at the paper's figure-10 operating point (n=100,
H=60) runs with :class:`~repro.obs.spans.SpanConfig` enabled and the
resulting :class:`~repro.obs.spans.SpanReport` headline lands in
``BENCH_spans.json``: the coordination critical-path length in δ units,
both critical-path lengths in ms, and the attributed-latency share.
All of these are trajectory-derived and deterministic under equal
seeds, so ``repro.experiments.regress`` exact-compares them across PRs
(CI additionally gates ``critical_path_deltas_fig10``).

A second, lossy cell (TCoP with media + control loss, retransmits, and
batched media — DCoP's deeply divided streams never fill a batch
window, see the ``batched_media`` workload in ``bench/``) exercises
every decomposition component at once — retransmit backoff, batch
queueing, FEC recovery, playback buffering — and pins that the
per-packet ledger stays exact there too.

The span builder is a passive trace subscriber, so the spans-on run
must follow the exact trajectory of a spans-off run; the bench asserts
scalar equality and records the wall overhead of span construction
(informational, ``wall`` keys).
"""

import time

from repro.core.base import ProtocolConfig
from repro.net.overlay import RetransmitPolicy
from repro.obs.spans import SpanConfig
from repro.streaming.spec import LossSpec, ProtocolSpec, SessionSpec


def _fig10_spec(spans: bool) -> SessionSpec:
    return SessionSpec(
        config=ProtocolConfig(
            n=100, H=60, fault_margin=1, seed=0, content_packets=200
        ),
        protocol=ProtocolSpec("dcop", {}),
        playback=True,
        spans=SpanConfig() if spans else None,
    )


def _lossy_spec() -> SessionSpec:
    return SessionSpec(
        config=ProtocolConfig(
            n=50, H=8, fault_margin=1, seed=1, content_packets=1000
        ),
        protocol=ProtocolSpec("tcop", {}),
        playback=True,
        loss=LossSpec("bernoulli", {"p": 0.05}),
        control_loss=LossSpec("bernoulli", {"p": 0.1}),
        retransmit_policy=RetransmitPolicy(),
        media_batch=5.0,
        spans=SpanConfig(),
    )


def test_bench_spans_fig10(bench_scalars):
    t0 = time.perf_counter()
    plain = _fig10_spec(spans=False).run()
    t_plain = time.perf_counter() - t0
    t0 = time.perf_counter()
    spanned = _fig10_spec(spans=True).run()
    t_spans = time.perf_counter() - t0
    report = spanned.spans

    print()
    print(report.summary(top=3))
    print(
        f"  span construction wall overhead: "
        f"{t_spans - t_plain:+.3f} s ({t_spans / t_plain:.2f}x)"
    )

    head = report.headline()
    bench_scalars["critical_path_deltas_fig10"] = round(
        head["critical_path_deltas"], 4
    )
    bench_scalars["coordination_path_ms_fig10"] = round(
        head["coordination_path_ms"], 3
    )
    bench_scalars["playback_path_ms_fig10"] = round(
        head["playback_path_ms"], 3
    )
    bench_scalars["attributed_share_fig10"] = round(
        head["attributed_share"], 6
    )
    bench_scalars["delivered_fig10"] = head["delivered"]
    bench_scalars["waves_fig10"] = len(report.waves)
    # ``wall`` keys stay informational for regress
    bench_scalars["span_overhead_wall_x_fig10"] = round(
        t_spans / t_plain, 2
    )

    # the ledger accounts for (nearly) all measured end-to-end latency
    assert report.attributed_share >= 0.95
    # coordination completes and every packet (parity included) arrives
    assert spanned.delivery_ratio == 1.0
    assert head["delivered"] >= 200 and head["lost"] == 0
    # span construction is a passive subscriber: identical trajectory
    assert plain.summary() == spanned.summary()
    # the coordination critical path spans every flooding round
    assert len(report.waves) >= 1
    assert report.coordination_path_ms > 0
    assert report.playback_path_ms >= report.coordination_path_ms


def test_bench_spans_lossy_decomposition(bench_scalars):
    result = _lossy_spec().run()
    report = result.spans
    ps = report.packet_stats

    print()
    print(report.summary(top=3))

    head = report.headline()
    bench_scalars["critical_path_deltas_lossy"] = round(
        head["critical_path_deltas"], 4
    )
    bench_scalars["attributed_share_lossy"] = round(
        head["attributed_share"], 6
    )
    bench_scalars["delivered_lossy"] = head["delivered"]
    bench_scalars["recovered_lossy"] = head["recovered"]
    bench_scalars["exchanges_lossy"] = report.exchange_stats["total"]
    bench_scalars["exchanges_acked_lossy"] = report.exchange_stats["acked"]
    bench_scalars["retransmit_attempts_lossy"] = report.exchange_stats[
        "retransmit_attempts"
    ]
    bench_scalars["e2e_mean_ms_lossy"] = round(ps["e2e_mean_ms"], 4)
    bench_scalars["queue_total_ms_lossy"] = round(ps["queue_total_ms"], 3)

    # every decomposition component is exercised and the ledger is exact
    assert report.attributed_share >= 0.95
    assert ps["queue_total_ms"] > 0  # batched media charges queue time
    assert abs(ps["attributed_total_ms"] - ps["e2e_total_ms"]) <= max(
        1e-6, 1e-9 * ps["e2e_total_ms"]
    )
    # control loss forced at least one reliable-exchange retransmit
    assert report.exchange_stats["retransmit_attempts"] >= 1
