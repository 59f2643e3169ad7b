"""SessionSpec: registries, pickling, construction from a spec, detach()."""

import pickle
import warnings

import pytest

from repro.core import DCoP, ProtocolConfig
from repro.net.latency import ConstantLatency
from repro.net.linkfault import DuplicateFault
from repro.net.loss import BernoulliLoss, GilbertElliottLoss, NoLoss
from repro.net.overlay import RetransmitPolicy
from repro.obs import TraceConfig
from repro.streaming import (
    FaultPlan,
    SessionSpec,
    StreamingSession,
    available_factories,
)
from repro.streaming.detector import DetectorPolicy
from repro.streaming.faults import ChurnPlan
from repro.streaming.repair import RepairPolicy
from repro.streaming.spec import (
    DetectorSpec,
    LatencySpec,
    LossSpec,
    ProtocolSpec,
)


def _small_config(**kw):
    defaults = dict(n=8, H=3, content_packets=60, delta=5.0, seed=3)
    defaults.update(kw)
    return ProtocolConfig(**defaults)


def _scalars(result):
    """The value fields of a SessionResult (skips the live handles)."""
    from repro.metrics.io import session_result_to_dict

    return session_result_to_dict(result)


# ----------------------------------------------------------------------
# registries
# ----------------------------------------------------------------------
def test_builtin_factories_are_registered():
    assert {"dcop", "tcop", "broadcast", "centralized", "schedule_based",
            "single_source", "unicast_chain", "ams", "hetero_schedule",
            "hetero_dcop"} <= set(available_factories("protocol"))
    assert {"none", "bernoulli", "gilbert_elliott", "bursty"} <= set(
        available_factories("loss")
    )
    assert {"constant", "uniform", "normal"} <= set(
        available_factories("latency")
    )


def test_register_rejects_duplicates_and_unknown_kind_lists_available():
    with pytest.raises(KeyError, match="available: .*bernoulli"):
        LossSpec("definitely_not_registered").factory()


def test_bursty_loss_matches_gilbert_elliott_parameterization():
    model = LossSpec("bursty", {"rate": 0.05}).factory()()
    assert isinstance(model, GilbertElliottLoss)
    assert model.p_bg == 1 / 3.0
    assert model.p_gb == pytest.approx(0.05 * (1 / 3.0) / 0.95)
    assert isinstance(LossSpec("bursty", {"rate": 0.0}).factory()(), NoLoss)


def test_loss_spec_factory_builds_fresh_models_per_channel():
    factory = LossSpec("bursty", {"rate": 0.2}).factory()
    assert factory() is not factory()


# ----------------------------------------------------------------------
# the spec value
# ----------------------------------------------------------------------
def _fully_populated_spec():
    """Every knob set to a declarative (hence picklable) value."""
    return SessionSpec(
        config=_small_config(),
        protocol=ProtocolSpec("tcop"),
        latency=LatencySpec("uniform", {"low": 4.0, "high": 6.0}),
        loss=LossSpec("bursty", {"rate": 0.02}),
        control_loss=LossSpec("bernoulli", {"p": 0.01}),
        buffer_capacity=500.0,
        playback=True,
        fault_plan=FaultPlan().crash("CP2", 40.0),
        repair_policy=RepairPolicy(),
        adaptation_policy=None,
        leaf_receipt_rate=8.0,
        leaf_receive_buffer=32.0,
        peer_capacities={f"CP{i}": 0.5 for i in range(1, 9)},
        retransmit_policy=RetransmitPolicy(),
        detector_policy=DetectorSpec("fixed"),
        churn_plan=ChurnPlan(rate_per_delta=0.01, min_live=4),
        trace=TraceConfig(max_events=500),
    )


def test_fully_populated_spec_pickle_round_trips():
    spec = _fully_populated_spec()
    clone = pickle.loads(pickle.dumps(spec))
    assert clone == spec
    # and the clone actually builds and runs
    result = clone.run()
    assert result.protocol == "TCoP"


def test_equal_specs_produce_identical_results():
    spec = SessionSpec(config=_small_config(), protocol=ProtocolSpec("dcop"))
    clone = pickle.loads(pickle.dumps(spec))
    assert _scalars(spec.run()) == _scalars(clone.run())


def test_replace_and_with_seed_derive_new_frozen_specs():
    spec = SessionSpec(config=_small_config(seed=1))
    reseeded = spec.with_seed(42)
    assert reseeded.config.seed == 42
    assert spec.config.seed == 1
    swapped = spec.replace(protocol=ProtocolSpec("centralized"))
    assert swapped.protocol == ProtocolSpec("centralized")
    with pytest.raises(Exception):  # frozen dataclass
        spec.playback = True


def test_describe_names_the_protocol():
    assert "tcop" in SessionSpec(
        config=_small_config(), protocol=ProtocolSpec("tcop")
    ).describe()


@pytest.mark.parametrize(
    "field, live",
    [
        ("protocol", DCoP()),
        ("protocol", DCoP),
        ("latency", ConstantLatency(10.0)),
        ("loss", lambda: BernoulliLoss(0.1)),
        ("loss", BernoulliLoss(0.1)),
        ("control_loss", lambda: BernoulliLoss(0.1)),
        ("link_fault", lambda: DuplicateFault(p=0.1)),
        ("detector_policy", DetectorPolicy()),
        ("spans", True),
    ],
    ids=[
        "protocol-instance", "protocol-class", "latency", "loss-factory",
        "loss-instance", "control_loss", "link_fault", "detector_policy",
        "spans",
    ],
)
def test_a_live_object_in_a_model_field_is_refused(field, live):
    # each model field takes its one declarative spec; the refusal names
    # the field at construction, before anything is built
    with pytest.raises(TypeError, match=f"SessionSpec.{field} takes a "):
        SessionSpec(config=_small_config(), **{field: live})


def test_a_spec_does_not_alias_its_fault_plan():
    plan = FaultPlan().crash("CP1", 10.0)
    a = SessionSpec(_small_config(), ProtocolSpec("dcop"), fault_plan=plan)
    b = a.with_seed(5)
    plan.crash("CP2", 20.0)  # a new plan; the specs keep theirs
    assert [f.peer_id for f in a.fault_plan.crashes] == ["CP1"]
    assert [f.peer_id for f in b.fault_plan.crashes] == ["CP1"]


def test_build_keeps_the_spec_and_does_not_warn():
    spec = SessionSpec(config=_small_config())
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        session = spec.build()
    assert isinstance(session, StreamingSession)
    assert session.spec is spec


# ----------------------------------------------------------------------
# SessionResult.detach()
# ----------------------------------------------------------------------
def test_detach_exports_trace_and_timeseries_and_pickles():
    spec = SessionSpec(config=_small_config(), trace=TraceConfig())
    result = spec.run()
    from repro.obs.trace import TraceBus

    assert isinstance(result.trace, TraceBus)
    detached = result.detach()
    assert isinstance(detached.trace, dict)
    assert detached.trace["type"] == "trace"
    assert len(detached.trace["events"]) == len(result.trace.events)
    assert isinstance(detached.timeseries, dict)
    assert detached.timeseries["type"] == "series"
    # the detached result is plain data, so it pickles
    clone = pickle.loads(pickle.dumps(detached))
    assert clone.trace == detached.trace
    # scalar fields are untouched
    assert _scalars(detached) == _scalars(result)


def test_detach_is_idempotent_and_a_noop_without_handles():
    spec = SessionSpec(config=_small_config())
    result = spec.run()
    assert result.detach() is result  # nothing to export
    traced = SessionSpec(config=_small_config(), trace=TraceConfig()).run()
    detached = traced.detach()
    assert detached.detach() is detached


def test_detector_registry_resolves_policies():
    assert {"fixed", "accrual"} <= set(available_factories("detector"))
    pol = DetectorSpec("accrual", {"phi_suspect": 1.5}).build()
    assert pol.mode == "accrual"
    assert pol.phi_suspect == 1.5
    assert DetectorSpec("fixed").build() == DetectorPolicy()


def test_gray_link_fault_factories_registered():
    from repro.streaming.spec import LinkFaultSpec, available_factories

    names = set(available_factories("link_fault"))
    assert {"stutter", "spike", "gray"} <= names
    for spec in (
        LinkFaultSpec("stutter", {"period": 80.0, "stall": 16.0}),
        LinkFaultSpec("spike", {"p": 0.1, "magnitude": 5.0}),
        LinkFaultSpec("gray", {"stall": 16.0, "period": 80.0, "spike_p": 0.05}),
    ):
        assert spec.build() is not None
