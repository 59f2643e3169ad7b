"""Bench EX-O — flash-crowd overload, admission control on vs off.

A swarm of eight leaves joins one six-peer overlay as a Poisson storm
whose arrival rate sweeps from a trickle to a flash crowd, with every
uplink capped well below the aggregate demand.  The recorded scalars pin
down the PR's acceptance bar: receipt (averaged over *all* arrivals,
gave-up leaves counted as zero) degrades monotonically with load on the
admission-off arm, the admission-on arm is no worse at every load point,
and the capacity auditor certifies every cell.
"""

from repro.experiments import run_experiment

RATES = (0.25, 0.5, 1.0, 2.0, 4.0)


def test_bench_swarm(bench_scalars):
    series = run_experiment("EX-O", values=RATES, packets_per_delta=2.5)
    print()
    print(series.render())

    on = series.series("receipt_on")
    off = series.series("receipt_off")

    bench_scalars["swarm_receipt_on_worst"] = round(min(on), 4)
    bench_scalars["swarm_receipt_off_worst"] = round(min(off), 4)
    bench_scalars["swarm_receipt_margin_min"] = round(
        min(a - b for a, b in zip(on, off)), 4
    )
    bench_scalars["swarm_gave_up_total"] = sum(series.series("gave_up_on"))
    bench_scalars["swarm_retries_total"] = sum(series.series("retries_on"))

    # the acceptance bar: admission never costs receipt, anywhere
    assert all(a >= b for a, b in zip(on, off))
    # the off arm shows the overload: receipt decays monotonically as
    # the storm thickens (the on arm holds a strictly positive margin)
    assert all(a >= b for a, b in zip(off, off[1:]))
    assert bench_scalars["swarm_receipt_margin_min"] > 0
    # admission actually bites under load (refusals and retries happen)
    assert bench_scalars["swarm_gave_up_total"] >= 1
    assert bench_scalars["swarm_retries_total"] >= 1
    # every cell is certified by the capacity auditor
    assert all(v == "pass" for v in series.series("audit_on"))
    assert all(v == "pass" for v in series.series("audit_off"))
