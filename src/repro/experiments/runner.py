"""The experiment table's row type and the one sweep path.

Every experiment — the paper's three figures and the EX-* ablations — has
the same shape: sweep one axis, run a few *arms* (protocols, policies
on/off, …) at every sweep point, tabulate some columns.  An
:class:`Experiment` row declares exactly that, and
:meth:`Experiment.run` is the only sweep loop in the package: it builds
the flat spec list, hands it to :func:`run_specs` **once** (``jobs``
worker processes; results are identical for every ``jobs``) and
tabulates a :class:`~repro.metrics.series.SweepSeries` from the detached
results.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from dataclasses import dataclass, field, fields
from inspect import cleandoc
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Union

from repro.core.base import ProtocolConfig
from repro.metrics.series import SweepSeries
from repro.metrics.stats import mean
from repro.streaming.spec import ProtocolSpec, SessionSpec
from repro.streaming.swarm import SwarmSpec

Spec = Union[SessionSpec, SwarmSpec]

#: seed stride between successive replications of one spec
REPLICATION_SEED_STRIDE = 7919


@dataclass(frozen=True)
class Experiment:
    """One row of the experiment table (``repro.experiments.EXPERIMENTS``).

    ``config`` (``ProtocolConfig`` fields, *including the row's own
    seed*) and ``params`` (experiment-specific knobs such as ``crash_at``)
    are the row's defaults; together they are the only names
    :meth:`run` accepts as overrides.  A row whose ``params`` declare
    ``repetitions`` is replicated with derived seeds and its columns are
    averaged over the replications (:func:`mean_metric`).
    """

    key: str
    #: ``str.format`` template over the resolved parameters; the part
    #: before " — " is the name the CLI prints and saves the table under
    title: str
    #: what the experiment shows and why it is set up the way it is
    doc: str
    #: x-axis name
    x: str
    #: default sweep values, or a function of the resolved parameters
    values: Union[Sequence[Any], Callable[[Dict[str, Any]], Sequence[Any]]]
    config: Mapping[str, Any]
    #: ``(x, cfg, p) → {arm label: SessionSpec | SwarmSpec}`` — the runs
    #: at sweep point ``x``; ``cfg`` is the row's config at that point,
    #: ``p`` every resolved parameter
    arms: Callable[[Any, ProtocolConfig, Dict[str, Any]], Dict[Any, Spec]]
    #: ``{arm label: detached result} → {column name: value}``
    columns: Callable[[Dict[Any, Any]], Dict[str, Any]]
    params: Mapping[str, Any] = field(default_factory=dict)
    #: ``(x, p) → config fields`` that follow the sweep point (H = x, …)
    at: Optional[Callable[[Any, Dict[str, Any]], Dict[str, Any]]] = None
    #: overrides (and optionally ``values``) the CLI's ``--quick`` applies
    quick: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        stray = set(self.config) - {f.name for f in fields(ProtocolConfig)}
        if stray:
            raise ValueError(
                f"{self.key}: not ProtocolConfig fields: {sorted(stray)}"
            )
        object.__setattr__(self, "doc", cleandoc(self.doc))

    @property
    def name(self) -> str:
        """``"Figure 10"`` / ``"EX-A"`` — the title up to the dash."""
        return self.title.partition(" — ")[0]

    def run(
        self,
        values: Optional[Sequence[Any]] = None,
        jobs: Union[int, str] = 1,
        **overrides: Any,
    ) -> SweepSeries:
        """Sweep ``values`` (default: the row's own) over ``jobs`` worker
        processes (:func:`run_specs`) and tabulate.

        ``overrides`` replace the row's ``config``/``params`` defaults; a
        name the row does not declare raises :class:`TypeError`, as a
        mistyped keyword argument would.
        """
        p = {**self.config, **self.params}
        unknown = sorted(set(overrides) - set(p))
        if unknown:
            raise TypeError(
                f"{self.key} got unexpected parameter(s) {unknown}; "
                f"it takes {sorted(p)}"
            )
        p.update(overrides)
        if values is None:
            values = self.values(p) if callable(self.values) else self.values
        xs = list(values)
        if not xs:
            raise ValueError(f"{self.key}: nothing to sweep")
        repetitions = p.get("repetitions", 1)

        labels: List[Any] = []
        specs: List[Spec] = []
        for x in xs:
            fields_at_x = {k: p[k] for k in self.config}
            if self.at is not None:
                fields_at_x.update(self.at(x, p))
            arms = self.arms(x, ProtocolConfig(**fields_at_x), p)
            labels = list(arms)
            specs.extend(arms.values())
        results = run_specs(replication_specs(specs, repetitions), jobs)

        rows = []
        per_point = len(labels) * repetitions
        for i in range(len(xs)):
            # one point's results: arm-major, replications adjacent
            point = results[i * per_point : (i + 1) * per_point]
            reps = [
                self.columns(dict(zip(labels, point[rep::repetitions])))
                for rep in range(repetitions)
            ]
            if "repetitions" in p:
                rows.append(
                    {k: mean_metric([r[k] for r in reps]) for k in reps[0]}
                )
            else:
                rows.append(reps[0])
        series = SweepSeries(
            self.x, list(rows[0]), title=self.title.format(**p)
        )
        for x, row in zip(xs, rows):
            series.add(x, **row)
        return series


def available_cores() -> int:
    """CPU cores actually available to this process.

    ``os.cpu_count()`` reports the machine; a container or CI runner may
    pin the process to a subset.  Scheduler affinity is the honest
    number where the platform exposes it.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return len(getaffinity(0)) or 1
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return os.cpu_count() or 1


class SweepError(RuntimeError):
    """A sweep run failed; carries the failing spec and its index.

    The run's original exception is chained as ``__cause__``.
    """

    def __init__(self, spec: Spec, index: int, cause: BaseException):
        self.spec = spec
        self.index = index
        super().__init__(
            f"sweep run #{index} failed for {spec.describe()}: "
            f"{type(cause).__name__}: {cause}"
        )


def _execute_spec(spec: Spec) -> Any:
    """Build, run and detach one spec (module-level, so it pickles
    under every multiprocessing start method)."""
    return spec.run().detach()


def run_specs(specs: Iterable[Spec], jobs: Union[int, str] = 1) -> List[Any]:
    """Run every spec and return the detached results in submission order.

    ``jobs`` is the number of worker processes, or ``"auto"`` for
    :func:`available_cores`; fewer than two workers (or fewer than two
    specs) runs in this process, with no pool.  A spec's outcome depends
    only on the spec, so the results are identical for every ``jobs``.
    A failed run raises :class:`SweepError` and cancels the runs not yet
    started.
    """
    specs = list(specs)
    if jobs == "auto":
        jobs = available_cores()
    if not isinstance(jobs, int) or jobs < 1:
        raise ValueError(f"jobs must be an int >= 1 or 'auto', not {jobs!r}")
    workers = min(jobs, len(specs))
    if workers < 2:
        results = []
        for index, spec in enumerate(specs):
            try:
                results.append(_execute_spec(spec))
            except Exception as exc:
                raise SweepError(spec, index, exc) from exc
        return results
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_execute_spec, spec) for spec in specs]
        done, pending = wait(futures, return_when=FIRST_EXCEPTION)
        failed = [
            i for i, f in enumerate(futures)
            if f in done and f.exception() is not None
        ]
        if failed:
            for f in pending:
                f.cancel()
            index = failed[0]
            cause = futures[index].exception()
            raise SweepError(specs[index], index, cause) from cause
        return [f.result() for f in futures]


def replication_specs(
    specs: Sequence[Spec], repetitions: int = 1
) -> List[Spec]:
    """Every spec ``repetitions`` times, flat, replications adjacent.

    Replication ``rep`` runs with seed
    ``seed + REPLICATION_SEED_STRIDE * rep``, where ``seed`` is the
    config's that ``with_seed`` rewrites — a swarm's template session's —
    derived through :func:`dataclasses.replace` so the config's concrete
    type (and any non-init/derived fields a subclass adds) is preserved.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    if repetitions == 1:
        return list(specs)
    return [
        spec.with_seed(
            getattr(spec, "session", spec).config.seed
            + REPLICATION_SEED_STRIDE * rep
        )
        for spec in specs
        for rep in range(repetitions)
    ]


def mean_metric(values: Sequence[Any]) -> float:
    """Average one column over replications.

    ``None`` values (e.g. ``rounds`` of an unsynchronized run) are skipped;
    all-None yields ``float('nan')``.
    """
    values = [float(v) for v in values if v is not None]
    if not values:
        return float("nan")
    return mean(values)


def default_h_values(n: int = 100) -> list[int]:
    """The H grid used for Figures 10-12 (2 ≤ H ≤ n, as in §4)."""
    grid = [2, 3, 5, 8, 10, 15, 20, 30, 40, 50, 60, 70, 80, 90, 100]
    return [h for h in grid if h <= n]


def first_picks(cfg: ProtocolConfig, protocol: ProtocolSpec, m: int) -> list[str]:
    """The ``m`` contents peers the leaf of a ``(cfg, protocol)`` session
    will contact first — what fault-injecting rows aim their faults at.

    Probes a throwaway session with the same seed: same config + seed ⇒
    same first picks in the real run, provided ``m`` is the size the
    protocol itself will draw (a different size is a different sample).
    """
    return SessionSpec(config=cfg, protocol=protocol).build().leaf_select(m)
