"""Wave timelines under churn: re-coordinated rounds must be accounted."""

from repro.core import ProtocolConfig
from repro.net.overlay import RetransmitPolicy
from repro.obs import TraceBus, TraceConfig, wave_timeline
from repro.sim.engine import Environment
from repro.streaming import DetectorSpec, FaultPlan, ProtocolSpec, SessionSpec


def test_timeline_keeps_rows_for_reissued_rounds():
    """The event shape a mid-stream re-coordination produces: the original
    wave's activations stop, a ``recoord.reissue`` fires, and the adopted
    survivors activate in strictly later rounds.  The timeline must carry
    rows out to the re-coordinated rounds — including the silent rounds in
    between — rather than truncating at the interrupted wave."""
    env = Environment()
    bus = TraceBus(TraceConfig(), env)
    bus.emit("peer.activate", "CP1", round=1)
    bus.emit("peer.activate", "CP2", round=2)
    bus.emit("peer.activate", "CP3", round=2)
    # CP3 crashes mid-wave; the leaf re-floods its residual
    bus.emit("peer.crash", "CP3")
    bus.emit("recoord.reissue", "CP3", residual=40, targets=2)
    env.run(until=90.0)
    # the re-coordinated wave activates a dormant orphan two rounds on
    bus.emit("peer.activate", "CP4", round=4)

    table = wave_timeline(bus)
    rounds = [row[0] for row in table.rows]
    assert rounds == [1, 2, 3, 4]  # round 3 is silent, not dropped
    by_round = {row[0]: row for row in table.rows}
    assert by_round[3][1] == 0
    assert by_round[4][1] == 1
    assert by_round[4][2] == 4  # cumulative population includes the reissue
    assert by_round[4][3] == 90.0


def test_end_to_end_churn_timeline_is_complete_and_consistent():
    """A real crash + detector + reissue run: the timeline still has one
    contiguous row per round, counts that sum to the activation log, and
    monotone cumulative control traffic."""
    cfg = ProtocolConfig(
        n=10, H=4, fault_margin=0, tau=1.0, delta=8.0,
        content_packets=200, seed=3,
    )
    victim = SessionSpec(
        config=cfg, protocol=ProtocolSpec("dcop")
    ).build().leaf_select(cfg.H)[0]
    spec = SessionSpec(
        config=cfg,
        protocol=ProtocolSpec("dcop"),
        fault_plan=FaultPlan().crash(victim, 50.0),
        retransmit_policy=RetransmitPolicy(),
        detector_policy=DetectorSpec("fixed"),
        trace=TraceConfig(),
    )
    result = spec.build().run()
    assert result.recoordinations >= 1
    assert result.delivery_ratio == 1.0
    bus = result.trace
    reissues = bus.of_kind("recoord.reissue")
    assert reissues and reissues[0].subject == victim

    table = wave_timeline(bus)
    activations = bus.of_kind("peer.activate")
    rounds = [row[0] for row in table.rows]
    assert rounds == list(range(1, max(rounds) + 1))
    assert max(rounds) == max(e.payload()["round"] for e in activations)
    assert sum(row[1] for row in table.rows) == len(activations)
    assert table.rows[-1][2] == len(activations)
    ctrl = [row[5] for row in table.rows]
    assert ctrl == sorted(ctrl)
    # the reissued residual moved through the control plane after the
    # interrupted wave settled
    assert reissues[0].ts >= max(e.ts for e in activations)
