"""``run_specs``: equivalence across ``jobs``, ordering, errors."""

from dataclasses import dataclass, field

import pytest

from repro.core import ProtocolConfig
from repro.experiments import (
    SweepError,
    replication_specs,
    run_experiment,
    run_specs,
)
from repro.experiments.runner import REPLICATION_SEED_STRIDE
from repro.metrics.io import session_result_to_dict
from repro.streaming.spec import ProtocolSpec, SessionSpec

from tests.experiments.conftest import PINNED, TABLES


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
    serial = run_specs(specs, jobs=1)
    parallel = run_specs(specs, jobs=2)
    assert _dicts(serial) == _dicts(parallel)


def test_parallel_results_come_back_in_submission_order():
    specs = [_spec(n=n) for n in (12, 4, 8, 6)]
    results = run_specs(specs, jobs=4)
    assert [r.config.n for r in results] == [12, 4, 8, 6]


def test_sweep_is_executor_independent():
    specs = replication_specs([_spec(H=h, seed=2) for h in (2, 4)], 2)
    serial = run_specs(specs)
    parallel = run_specs(specs, jobs=2)
    assert _dicts(serial) == _dicts(parallel)
    # and so is the table a replicated row makes of them
    grid = dict(values=[2, 4], n=8, content_packets=60, delta=5.0, seed=2)
    assert (
        run_experiment("fig12", repetitions=2, **grid).to_table().to_csv()
        == run_experiment("fig12", repetitions=2, jobs=2, **grid)
        .to_table()
        .to_csv()
    )


def test_single_spec_skips_the_pool():
    # one spec (or jobs=1) must not pay process startup
    results = run_specs([_spec()], jobs=4)
    assert len(results) == 1
    assert results[0].sync_time is not None


@pytest.mark.parametrize("key", ["EX-F", "EX-H", "EX-I", "EX-J"])
def test_row_crosses_a_process_boundary(key, monkeypatch):
    # these rows' columns once read the live session, so they ran in
    # process whatever jobs said; now their one sweep fans out and its
    # detached results make the pinned table
    from repro.experiments import runner

    calls = []
    real = runner.run_specs

    def record(specs, jobs=1):
        calls.append(jobs)
        return real(specs, jobs)

    monkeypatch.setattr(runner, "run_specs", record)
    table = run_experiment(key, jobs=2, **PINNED[key]["args"]).to_table()
    assert calls == [2]
    assert table.to_csv() == (TABLES / f"{key}.csv").read_text()


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


@pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "parallel"])
def test_failures_raise_sweep_error_with_spec_and_index(jobs):
    specs = _failing_specs()
    with pytest.raises(SweepError) as excinfo:
        run_specs(specs, jobs)
    err = excinfo.value
    assert err.index == 1
    assert err.spec == specs[1]
    assert "no_such_protocol" in str(err)
    assert isinstance(err.__cause__, KeyError)


# ----------------------------------------------------------------------
# jobs
# ----------------------------------------------------------------------
def test_run_specs_validates_jobs():
    for bad in (0, -2):
        with pytest.raises(ValueError):
            run_specs([_spec()], bad)


def test_available_cores_is_positive():
    from repro.experiments import available_cores

    assert available_cores() >= 1


def test_auto_jobs_equal_serial():
    specs = [_spec(seed=s) for s in range(3)]
    assert _dicts(run_specs(specs, "auto")) == _dicts(run_specs(specs))
