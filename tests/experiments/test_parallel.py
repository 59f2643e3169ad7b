"""Executors: serial/parallel equivalence, ordering, errors, progress."""

from dataclasses import dataclass, field

import pytest

from repro.core import ProtocolConfig
from repro.experiments import (
    ParallelExecutor,
    ProgressTick,
    SerialExecutor,
    SweepError,
    replication_specs,
    run_experiment,
    run_specs,
)
from repro.experiments.runner import REPLICATION_SEED_STRIDE
from repro.metrics.io import session_result_to_dict
from repro.streaming.spec import ProtocolSpec, SessionSpec


def _spec(n=8, H=3, seed=0, kind="dcop", **cfg_kw):
    return SessionSpec(
        config=ProtocolConfig(
            n=n, H=H, content_packets=60, delta=5.0, seed=seed, **cfg_kw
        ),
        protocol=ProtocolSpec(kind),
    )


def _dicts(results):
    return [session_result_to_dict(r) for r in results]


# ----------------------------------------------------------------------
# determinism and ordering
# ----------------------------------------------------------------------
def test_serial_and_parallel_executors_return_identical_results():
    specs = [_spec(seed=s, kind=k) for s in (0, 7) for k in ("dcop", "tcop")]
    serial = run_specs(specs, executor=SerialExecutor())
    parallel = run_specs(specs, executor=ParallelExecutor(jobs=2))
    assert _dicts(serial) == _dicts(parallel)


def test_parallel_results_come_back_in_submission_order():
    specs = [_spec(n=n) for n in (12, 4, 8, 6)]
    results = run_specs(specs, executor=ParallelExecutor(jobs=4))
    assert [r.config.n for r in results] == [12, 4, 8, 6]


def test_sweep_is_executor_independent():
    specs = replication_specs([_spec(H=h, seed=2) for h in (2, 4)], 2)
    serial = run_specs(specs)
    parallel = run_specs(specs, executor=ParallelExecutor(jobs=2))
    assert _dicts(serial) == _dicts(parallel)
    # and so is the table a replicated row makes of them
    grid = dict(values=[2, 4], n=8, content_packets=60, delta=5.0, seed=2)
    assert (
        run_experiment("fig12", repetitions=2, **grid).to_table().to_csv()
        == run_experiment(
            "fig12", repetitions=2, executor=ParallelExecutor(jobs=2), **grid
        ).to_table().to_csv()
    )


def test_single_spec_skips_the_pool():
    # one spec (or jobs=1) must not pay process startup
    results = run_specs([_spec()], executor=ParallelExecutor(jobs=4))
    assert len(results) == 1
    assert results[0].sync_time is not None


# ----------------------------------------------------------------------
# replication seed derivation
# ----------------------------------------------------------------------
@dataclass
class _TaggedConfig(ProtocolConfig):
    """Config subclass with a derived, non-init field.

    Rebuilding configs with ``ProtocolConfig(**__dict__)`` crashes on
    exactly this shape (and silently downcasts subclasses); seed
    derivation must preserve both."""

    label: str = "tagged"
    budget: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        super().__post_init__()
        self.budget = self.n * self.content_packets


def test_replication_seeds_derive_via_dataclasses_replace():
    cfg = _TaggedConfig(n=8, H=3, content_packets=60, delta=5.0, seed=5)
    specs = replication_specs(
        [SessionSpec(config=cfg, protocol=ProtocolSpec("dcop"))], repetitions=3
    )
    assert [s.config.seed for s in specs] == [
        5 + REPLICATION_SEED_STRIDE * rep for rep in range(3)
    ]
    for spec in specs:
        assert type(spec.config) is _TaggedConfig
        assert spec.config.label == "tagged"
        assert spec.config.budget == 8 * 60
    assert cfg.seed == 5  # original untouched


def test_sweep_runs_config_subclasses():
    cfg = _TaggedConfig(n=8, H=3, content_packets=60, delta=5.0, seed=1)
    reps = run_specs(
        replication_specs([SessionSpec(config=cfg, protocol=ProtocolSpec("dcop"))], 2)
    )
    assert len(reps) == 2
    assert all(r.sync_time is not None for r in reps)
    # distinct seeds → independent replications
    assert reps[0].config.seed != reps[1].config.seed


def test_sweep_rejects_zero_repetitions():
    with pytest.raises(ValueError):
        run_experiment("fig10", repetitions=0)


# ----------------------------------------------------------------------
# error propagation
# ----------------------------------------------------------------------
def _failing_specs():
    return [_spec(seed=0), _spec(seed=1, kind="no_such_protocol"), _spec(seed=2)]


@pytest.mark.parametrize(
    "executor", [SerialExecutor(), ParallelExecutor(jobs=2)],
    ids=["serial", "parallel"],
)
def test_failures_raise_sweep_error_with_spec_and_index(executor):
    specs = _failing_specs()
    with pytest.raises(SweepError) as excinfo:
        run_specs(specs, executor=executor)
    err = excinfo.value
    assert err.index == 1
    assert err.spec == specs[1]
    assert "no_such_protocol" in str(err)
    assert isinstance(err.__cause__, KeyError)


# ----------------------------------------------------------------------
# progress and parameters
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "executor", [SerialExecutor(), ParallelExecutor(jobs=2)],
    ids=["serial", "parallel"],
)
def test_progress_ticks_cover_the_whole_sweep(executor):
    specs = [_spec(seed=s) for s in range(4)]
    ticks = []
    run_specs(specs, executor=executor, progress=ticks.append)
    assert all(isinstance(t, ProgressTick) for t in ticks)
    assert all(t.total == 4 for t in ticks)
    dones = [t.done for t in ticks]
    assert dones == sorted(dones)
    assert dones[-1] == 4


def test_parallel_executor_validates_jobs():
    with pytest.raises(ValueError):
        ParallelExecutor(jobs=0)
    assert ParallelExecutor(jobs=3).jobs == 3
    assert ParallelExecutor().jobs >= 1


def test_executors_close_without_error():
    for executor in (SerialExecutor(), ParallelExecutor(jobs=2)):
        executor.map([_spec()])
        executor.close()


# ----------------------------------------------------------------------
# auto-selection from measured cores
# ----------------------------------------------------------------------
def test_available_cores_is_positive():
    from repro.experiments import available_cores

    assert available_cores() >= 1


def test_auto_executor_serial_on_one_core_parallel_otherwise():
    from repro.experiments import auto_executor

    assert isinstance(auto_executor(jobs=1), SerialExecutor)
    many = auto_executor(jobs=4)
    assert isinstance(many, ParallelExecutor)
    assert many.jobs == 4
    # a single spec never pays the pool, whatever the box looks like
    assert isinstance(auto_executor(n_specs=1, jobs=8), SerialExecutor)
    # and the fan-out never exceeds the work available
    assert auto_executor(n_specs=3, jobs=8).jobs == 3


def test_auto_executor_defaults_to_measured_cores():
    from repro.experiments import auto_executor, available_cores

    executor = auto_executor()
    if available_cores() < 2:
        assert isinstance(executor, SerialExecutor)
    else:
        assert isinstance(executor, ParallelExecutor)
        assert executor.jobs == available_cores()
