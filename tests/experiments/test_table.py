"""The experiment table: every row's numbers are pinned, every row is
documented, and the shape each table must have is asserted on the table a
user actually sees.

The shape tests carry the assertions of the ``test_bench_*`` modules
the table retired.  Figures are read at the CLI's ``--quick``
grid and EX-L/EX-M at their defaults (``pinned``); EX-A … EX-K at their
defaults too, out of the one ``ablations --quick`` run (``--quick``
overrides nothing on those rows).

Each pinned table is committed as CSV text, ``data/tables/<key>.csv``, so
a table that moves fails with a diff of its cells.  Re-record one only
after a deliberate change to it::

    PYTHONPATH=src:. python tests/experiments/test_table.py KEY [KEY ...]
"""

import difflib
import sys
from pathlib import Path

import pytest

from repro.analysis import parity_overhead
from repro.experiments import (
    EXPERIMENTS,
    PAPER_FIG10_REFERENCE,
    PAPER_FIG11_REFERENCE,
    run_experiment,
)
from repro.streaming import DetectorPolicy

from tests.experiments.conftest import PINNED, TABLES, pinned_csv

DOCS = Path(__file__).parents[2] / "docs" / "experiments.md"


def test_every_row_is_pinned():
    rows = [name for name in PINNED if "@" not in name]
    assert rows == list(EXPERIMENTS)
    # a second argument set always belongs to a row of the table
    assert {name.partition("@")[0] for name in PINNED} == set(rows)


@pytest.mark.parametrize("key", list(PINNED))
def test_table_digest(key, pinned):
    """The table equals its committed CSV; a mismatch prints the diff."""
    csv = pinned(key).to_table().to_csv()
    expected = (TABLES / f"{key}.csv").read_text()
    if csv != expected:
        diff = difflib.unified_diff(
            expected.splitlines(keepends=True),
            csv.splitlines(keepends=True),
            f"pinned/{key}.csv",
            f"run/{key}.csv",
        )
        pytest.fail("".join(diff), pytrace=False)


def test_unknown_override_raises_type_error():
    with pytest.raises(TypeError, match="crash_att"):
        run_experiment("EX-B", crash_att=100.0)
    # a name another row declares is still unknown to this one
    with pytest.raises(TypeError, match="h_fraction"):
        run_experiment("fig10", h_fraction=0.5)


def test_every_key_is_documented():
    text = DOCS.read_text()
    assert [key for key in EXPERIMENTS if f"`{key}`" not in text] == []


@pytest.fixture
def default_table(ablations_quick):
    def table(key):
        assert not EXPERIMENTS[key].quick
        return ablations_quick[1][key]

    return table


# ----------------------------------------------------------------------
# Figures 10–12 (n = 100, the --quick grid)
# ----------------------------------------------------------------------
def test_fig10_paper_points(pinned):
    series = pinned("fig10")
    rounds, hs = series.columns["rounds"], series.x
    # shape: monotone non-increasing rounds
    assert all(a >= b for a, b in zip(rounds, rounds[1:]))
    # paper's quoted points: 2 rounds at H=60, 1 round at H=100
    assert rounds[hs.index(60)] == PAPER_FIG10_REFERENCE[60]["rounds"]
    assert rounds[hs.index(100)] == PAPER_FIG10_REFERENCE[100]["rounds"]
    # at H = n coordination needs exactly n control packets
    assert series.columns["control_packets"][hs.index(100)] == 100


def test_fig11_paper_points(pinned):
    series = pinned("fig11")
    rounds, hs = series.columns["rounds"], series.x
    assert all(a >= b for a, b in zip(rounds, rounds[1:]))
    # paper: six rounds at H=60 (two waves × 3-round handshake)
    assert rounds[hs.index(60)] == PAPER_FIG11_REFERENCE[60]["rounds"]
    assert rounds[hs.index(100)] == 3
    # TCoP transmits more control packets than DCoP across the sweep
    assert all(
        t >= d
        for t, d in zip(
            series.columns["control_packets_total"],
            pinned("fig10").columns["control_packets_total"],
        )
    )


def test_fig12_rates_fall_toward_one(pinned):
    # (TCoP above DCoP at H=60 needs the long-content regime:
    # test_paper_conformance.py::test_receipt_rates_above_one_and_ordered)
    series = pinned("fig12")
    dcop, tcop = series.columns["dcop_rate"], series.columns["tcop_rate"]
    # every rate is at least the content rate and everything is delivered
    assert all(r >= 1.0 - 1e-9 for r in dcop + tcop)
    assert all(d == 1.0 for d in series.columns["dcop_delivery"])
    assert all(d == 1.0 for d in series.columns["tcop_delivery"])
    # smaller H → more parity: the H=2 point towers over the H=100 point
    assert dcop[0] > 2 * dcop[-1]
    assert tcop[0] > 2 * tcop[-1]
    # both curves approach 1 at H = n (single wave, widest division)
    assert dcop[-1] < 1.05
    assert tcop[-1] < 1.05


# ----------------------------------------------------------------------
# EX-A … EX-K at their defaults
# ----------------------------------------------------------------------
def test_protocol_comparison_tradeoffs(default_table):
    series = default_table("EX-A")  # n=50, H=10
    rounds = dict(zip(series.x, series.columns["rounds"]))
    ctrl = dict(zip(series.x, series.columns["ctrl_total"]))
    rate = dict(zip(series.x, series.columns["receipt_rate"]))

    assert rounds["Broadcast"] == 1
    assert rounds["UnicastChain"] == 50
    assert rounds["Centralized"] == 4
    assert rounds["ScheduleBased"] == 1
    assert rounds["TCoP"] == 3 * rounds["DCoP"]

    assert ctrl["Broadcast"] == 50 + 50 * 49
    assert ctrl["UnicastChain"] == 50
    assert ctrl["ScheduleBased"] == 10
    assert ctrl["SingleSource"] == 1
    assert ctrl["TCoP"] > ctrl["DCoP"]

    # redundancy ordering: broadcast ≫ flooding protocols > chain = 1
    assert rate["Broadcast"] > rate["DCoP"] > rate["UnicastChain"] == 1.0
    # every protocol delivers the full content on lossless channels
    assert all(d == 1.0 for d in series.columns["delivery"])


def test_fault_tolerance_dominance(default_table):
    series = default_table("EX-B")
    parity = series.columns["dcop_parity"]
    noparity = series.columns["dcop_noparity"]
    single = series.columns["single_source"]
    # no crashes → everyone perfect
    assert parity[0] == noparity[0] == single[0] == 1.0
    # with crashes: parity ≥ no-parity ≥ single-source at every point
    for k in range(1, len(series)):
        assert parity[k] >= noparity[k] >= single[k]
    # single source with its server crashed loses most of the stream
    assert single[-1] < 0.7
    # multi-source with parity keeps delivery high even at 3 crashes
    assert parity[-1] > 0.85


def test_loss_recovery_across_rates(default_table):
    series = default_table("EX-C")
    with_parity = series.columns["with_parity"]
    without = series.columns["without_parity"]
    recovered = series.columns["recovered_with_parity"]
    # lossless: both perfect, nothing to recover
    assert with_parity[0] == without[0] == 1.0
    # parity strictly helps once losses appear
    for k in range(1, len(series)):
        assert with_parity[k] >= without[k]
        assert recovered[k] > 0
    # at low loss parity recovers essentially everything
    assert with_parity[1] > 0.999
    # without parity, delivery degrades roughly with the loss rate
    assert without[-1] < 0.97


def test_parity_sweep_matches_closed_form(default_table):
    series = default_table("EX-D")  # H=10
    rates = series.columns["receipt_rate"]
    lossy = series.columns["delivery_lossy"]
    # margin 0: no parity, rate exactly 1
    assert rates[0] == pytest.approx(1.0)
    # overhead grows monotonically with the margin …
    assert all(a <= b + 1e-9 for a, b in zip(rates, rates[1:]))
    # … and matches the closed-form single-level formula
    for m, r in zip(series.x, rates):
        assert r == pytest.approx(parity_overhead(10, m), abs=0.03)
    # resilience: more margin never hurts delivery under loss
    assert lossy[-1] >= lossy[0]
    assert max(lossy) > lossy[0]


def test_scaling_rounds_stay_flat(default_table):
    series = default_table("EX-E")
    dcop = series.columns["dcop_rounds"]
    tcop = series.columns["tcop_rounds"]
    ctrl = series.columns["dcop_ctrl"]
    # flooding keeps rounds essentially flat across a 20× population range
    assert series.x[-1] == 20 * series.x[0]
    assert max(dcop) - min(dcop) <= 2
    # TCoP's handshake always costs ≥ DCoP (3 rounds per wave)
    assert all(t >= 3 * d - 3 for t, d in zip(tcop, dcop))
    assert all(t >= d for t, d in zip(tcop, dcop))
    # traffic grows with n
    assert ctrl[-1] > ctrl[0]


def test_heterogeneous_slots_hold_the_timeline(default_table):
    series = default_table("EX-F")
    slots_done = series.columns["slots_completed_at"]
    naive_done = series.columns["naive_completed_at"]
    slots_viol = series.columns["slots_violations"]
    naive_viol = series.columns["naive_violations"]
    # homogeneous: the two allocators coincide
    assert slots_done[0] is not None and naive_done[0] is not None
    assert abs(slots_done[0] - naive_done[0]) < 20
    # the more uneven the peers, the later the naive division completes
    for k in range(1, len(series)):
        assert naive_done[k] > slots_done[k]
    assert naive_done[-1] > 1.5 * slots_done[-1]
    # the slot allocation keeps the content timeline regardless of spread
    assert max(slots_done) - min(slots_done) < 30
    # ordering: the slot allocator always reorders (far) less
    for k in range(1, len(series)):
        assert slots_viol[k] < naive_viol[k]


def test_ams_traffic_grows_quadratically(default_table):
    series = default_table("EX-G")
    ams, dcop, ns = series.columns["ams_ctrl"], series.columns["dcop_ctrl"], series.x
    # AMS dominates DCoP at every n, and the gap widens quadratically:
    # n grows 8x, AMS traffic far more than 8^1.5
    assert all(a > d for a, d in zip(ams, dcop))
    assert ams[-1] / ams[0] > (ns[-1] / ns[0]) ** 1.5
    # both survive the crash
    assert all(d >= 0.99 for d in series.columns["ams_delivery_crash"])
    assert all(d >= 0.99 for d in series.columns["dcop_delivery_crash"])


def test_multi_leaf_load_stays_near_fair_share(default_table):
    series = default_table("EX-H")  # content_packets=300
    single = series.columns["single_max_load"]
    dcop = series.columns["dcop_max_load"]
    # the pinned server ships the whole content to every leaf
    assert single == [k * 300 for k in series.x]
    # DCoP's hottest peer carries a small multiple of the fair share …
    for d, f in zip(dcop, series.columns["fair_share"]):
        assert d < 4 * f + 30
    # … and is far below the single-source server at scale
    assert series.x[-1] == 10
    assert dcop[-1] * 5 < single[-1]


def test_rate_adaptation_holds_the_healthy_timeline(default_table):
    series = default_table("EX-I")
    plain = series.columns["plain_completed_at"]
    adaptive = series.columns["adaptive_completed_at"]
    adaptations = series.columns["adaptations"]
    # healthy point: identical, no adaptation fired
    assert plain[0] == adaptive[0]
    assert adaptations[0] == 0
    healthy = plain[0]
    for k in range(1, len(series)):
        # plain completion degrades with the slowdown …
        assert plain[k] > 1.5 * healthy or k == 1
        assert plain[k] > plain[k - 1] - 1
        # … adaptive stays near the healthy baseline
        assert adaptive[k] < 1.2 * healthy
        assert adaptations[k] >= 1
    # the worst case shows the full effect
    assert plain[-1] > 5 * adaptive[-1]


def test_receipt_capacity_broadcast_overruns(default_table):
    series = default_table("EX-J")
    bc_drops = series.columns["broadcast_dropped"]
    # DCoP never overruns …
    assert all(d == 0 for d in series.columns["dcop_dropped"])
    assert all(d == 1.0 for d in series.columns["dcop_delivery"])
    # … even at ρ_s = 1.5τ, below the default sweep
    tight = run_experiment("EX-J", values=[1.5])
    assert tight.columns["dcop_dropped"] == [0]
    assert tight.columns["dcop_delivery"] == [1.0]
    # broadcast overruns until the capacity approaches n·τ
    assert bc_drops[0] > 100
    assert all(a >= b for a, b in zip(bc_drops, bc_drops[1:]))
    assert bc_drops[-1] == 0
    # and burns capacity on duplicates at every point
    assert all(
        d > b
        for d, b in zip(
            series.columns["dcop_efficiency"],
            series.columns["broadcast_efficiency"],
        )
    )


def test_hetero_flooding_stays_on_the_timeline(default_table):
    series = default_table("EX-K")
    dcop = series.columns["dcop_completed_at"]
    weighted = series.columns["weighted_completed_at"]
    # identical coordination cost at every point
    assert all(series.columns["ctrl_equal"])
    # homogeneous capacities: the two coincide
    assert abs(dcop[0] - weighted[0]) < 5
    # weighted stays on the content timeline across the whole sweep …
    assert max(weighted) - min(weighted) < 20
    # … and never finishes after the equal split on a ladder, while the
    # equal split degrades with its steepness.  Both are held to the same
    # upload budgets, which cost the equal split far less than the old
    # per-session throttle did: the gap at spread 8 is ≈ 11 ms, not 27
    assert all(w <= d for w, d in zip(weighted[1:], dcop[1:]))
    assert dcop[-1] > weighted[-1] + 5
    assert all(a <= b + 1 for a, b in zip(dcop, dcop[1:]))


# ----------------------------------------------------------------------
# the fault-family sweeps: EX-L, EX-M, EX-O
# ----------------------------------------------------------------------
def test_churn_never_dents_delivery(pinned):
    series = pinned("EX-L")
    # the whole point of the stack: churn does not dent delivery
    assert all(v == 1.0 for v in series.columns["dcop_delivery"])
    assert all(v == 1.0 for v in series.columns["tcop_delivery"])

    # once churn actually kills peers, detection latency is reported.
    # Two detection paths exist: heartbeat silence confirms within
    # confirm_misses periods (+ slack), while a peer that dies before its
    # first leaf contact is only caught when a sender's retry ladder
    # gives up — bounded by the full exponential-backoff ladder.
    fast_path = DetectorPolicy().confirm_misses + 4
    ladder = 2.5 * (2**5 - 1) * 1.25 + fast_path  # retx ladder + jitter
    for col in ("dcop_detect_deltas", "tcop_detect_deltas"):
        observed = [v for v in series.columns[col] if v is not None]
        assert observed, f"{col}: churn sweep never detected a crash"
        assert all(0 < v <= ladder for v in observed)
        # the heartbeat fast path dominates at least somewhere
        assert min(observed) <= fast_path

    # handoff (crash → residual re-flood) happens promptly after whichever
    # detection path fired
    for col in ("dcop_handoff_deltas", "tcop_handoff_deltas"):
        for v in series.columns[col]:
            if v is not None:
                assert 0 < v <= ladder + 2

    # the reliable control plane was exercised (5% control loss)
    assert any(v > 0 for v in series.columns["dcop_retx"])
    assert any(v > 0 for v in series.columns["tcop_retx"])


def test_partition_recoordinates_within_the_confirm_window(pinned):
    series = pinned("EX-M")
    delivery = [c for c in series.series_names if "_delivery_" in c]
    recoord = [c for c in series.series_names if "_recoord_deltas_" in c]
    assert len(delivery) == len(recoord) == 4
    # receipt ratio never dents
    for col in delivery:
        assert all(v == 1.0 for v in series.columns[col])
    bound = DetectorPolicy().confirm_misses + 4
    for col in recoord:
        values = series.columns[col]
        # a 5δ partition heals before the detector commits …
        assert values[0] is None
        # … while the permanent split always pays one re-flood, within
        # the detector's silence-confirm window
        assert series.x[-1] == "permanent"
        assert values[-1] is not None
        assert all(0 < v <= bound for v in values if v is not None)


def test_admission_never_costs_receipt(pinned):
    for series in (pinned("EX-O"), pinned("EX-O@flash")):
        on, off = series.columns["receipt_on"], series.columns["receipt_off"]
        assert all(a >= b for a, b in zip(on, off))
        # every cell is certified by the capacity auditor
        assert all(v == "pass" for v in series.columns["audit_on"])
        assert all(v == "pass" for v in series.columns["audit_off"])
    # up to a flash crowd on tight uplinks (4 joins/δ, 2.5 packets/δ) the
    # off arm shows the overload: receipt decays monotonically as the
    # storm thickens, and the on arm holds a strictly positive margin
    flash = pinned("EX-O@flash")
    on, off = flash.columns["receipt_on"], flash.columns["receipt_off"]
    assert all(a >= b for a, b in zip(off, off[1:]))
    assert min(a - b for a, b in zip(on, off)) > 0
    # admission actually bites under load (refusals and retries happen)
    assert sum(flash.columns["gave_up_on"]) >= 1
    assert sum(flash.columns["retries_on"]) >= 1


if __name__ == "__main__":
    for key in sys.argv[1:]:
        (TABLES / f"{key}.csv").write_text(pinned_csv(key))
        print(f"wrote {TABLES / key}.csv")
