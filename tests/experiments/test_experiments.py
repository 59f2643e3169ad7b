"""Integration tests for the experiment harness (reduced scale)."""

import math

import pytest

from repro.core import DCoP, ProtocolConfig
from repro.experiments import replication_specs, run_experiment, run_specs
from repro.experiments.runner import (
    REPLICATION_SEED_STRIDE,
    default_h_values,
    mean_metric,
)
from repro.streaming.spec import SessionSpec
from repro.streaming import JoinStormPlan, ProtocolSpec, SwarmSpec


SMALL = dict(values=[2, 5, 10, 20], n=20, content_packets=150, delta=10.0)


def test_default_h_values_respect_n():
    hs = default_h_values(30)
    assert max(hs) <= 30
    assert hs[0] == 2


def test_run_session_returns_result():
    cfg = ProtocolConfig(n=10, H=4, content_packets=150)
    r = SessionSpec(config=cfg, protocol=ProtocolSpec("dcop")).run()
    assert r.protocol == "DCoP"
    assert r.all_active


def test_sweep_repetitions_vary_seed():
    cfg = ProtocolConfig(n=15, H=5, content_packets=150, seed=3)
    results = run_specs(
        replication_specs([SessionSpec(config=cfg, protocol=ProtocolSpec("dcop"))], 2)
    )
    assert len(results) == 2
    a, b = results
    assert a.config.seed != b.config.seed


def test_replication_specs_replicates_a_swarm():
    # a swarm's seed lives on its template session, where with_seed puts it
    swarm = SwarmSpec(
        session=SessionSpec(
            config=ProtocolConfig(n=6, H=3, content_packets=30, seed=4),
            protocol=ProtocolSpec("dcop"),
        ),
        join_plan=JoinStormPlan(leaves=2, rate_per_delta=1.0),
    )
    specs = replication_specs([swarm], 2)
    assert [s.session.config.seed for s in specs] == [
        4, 4 + REPLICATION_SEED_STRIDE,
    ]
    first, second = run_specs(specs)
    assert first.config.seed == 4
    assert second.config.seed == 4 + REPLICATION_SEED_STRIDE
    assert first.n_leaves == second.n_leaves == 2


def test_sweep_validation():
    with pytest.raises(ValueError):
        replication_specs([], repetitions=0)


def test_mean_metric_skips_none():
    assert mean_metric([None, 4]) == 4.0
    assert math.isnan(mean_metric([None]))


def test_fig10_shape():
    series = run_experiment("fig10", **SMALL)
    rounds = series.columns["rounds"]
    # monotone non-increasing rounds, 1 round at H = n
    assert all(a >= b for a, b in zip(rounds, rounds[1:]))
    assert rounds[-1] == 1
    assert series.columns["control_packets"][-1] == 20


def test_fig11_shape():
    series = run_experiment("fig11", **SMALL)
    rounds = series.columns["rounds"]
    assert all(a >= b for a, b in zip(rounds, rounds[1:]))
    assert rounds[-1] == 3  # leaf handshake costs 3 rounds even at H=n
    dcop = run_experiment("fig10", **SMALL)
    # TCoP always needs at least as many control packets as DCoP
    assert all(
        t >= d
        for t, d in zip(
            series.columns["control_packets_total"],
            dcop.columns["control_packets_total"],
        )
    )


def test_fig12_shape():
    series = run_experiment("fig12", **SMALL)
    dcop = series.columns["dcop_rate"]
    tcop = series.columns["tcop_rate"]
    # rates at/above 1, decreasing toward 1 with H, full delivery
    assert all(r >= 1.0 - 1e-9 for r in dcop + tcop)
    assert dcop[0] > dcop[-1]
    assert tcop[0] > tcop[-1]
    assert all(d == 1.0 for d in series.columns["dcop_delivery"])
    assert all(d == 1.0 for d in series.columns["tcop_delivery"])


def test_protocol_comparison_rows(pinned):
    series = pinned("EX-A")
    assert len(series) == 7
    protos = series.x
    assert "DCoP" in protos and "SingleSource" in protos
    # unicast chain: rounds == n
    idx = protos.index("UnicastChain")
    assert series.columns["rounds"][idx] == 12


def test_fault_tolerance_ordering(pinned):
    series = pinned("EX-B")
    # no crashes: everyone delivers fully
    assert series.columns["dcop_parity"][0] == 1.0
    # with crashes, parity DCoP >= no-parity DCoP >= single source
    p, np_, ss = (
        series.columns["dcop_parity"][1],
        series.columns["dcop_noparity"][1],
        series.columns["single_source"][1],
    )
    assert p >= np_ >= ss


def test_loss_recovery_parity_helps(pinned):
    series = pinned("EX-C")
    assert series.columns["with_parity"][0] == 1.0
    assert series.columns["with_parity"][1] >= series.columns["without_parity"][1]
    assert series.columns["recovered_with_parity"][1] > 0


def test_parity_sweep_tradeoff(pinned):
    series = pinned("EX-D")
    rates = series.columns["receipt_rate"]
    # more margin → more overhead
    assert rates[0] == pytest.approx(1.0)
    assert rates[1] < rates[2]
    # more margin → better delivery under loss
    lossy = series.columns["delivery_lossy"]
    assert lossy[2] >= lossy[0]


def test_scaling_runs(pinned):
    series = pinned("EX-E")
    assert len(series) == 2
    assert all(r >= 1 for r in series.columns["dcop_rounds"])
    # TCoP rounds dominate DCoP rounds at every n
    assert all(
        t >= d
        for t, d in zip(series.columns["tcop_rounds"], series.columns["dcop_rounds"])
    )
