"""The experiment table's row type and the one sweep driver.

Every experiment — the paper's three figures and the EX-* ablations — has
the same shape: sweep one axis, run a few *arms* (protocols, policies
on/off, …) at every sweep point, tabulate some columns.  An
:class:`Experiment` row declares exactly that, and
:meth:`Experiment.run` is the only sweep loop in the package: it builds
the flat spec list, hands it to an executor **once**
(:func:`~repro.experiments.parallel.run_specs`; serial by default, a
:class:`~repro.experiments.parallel.ParallelExecutor` fans the cells out
across cores with identical results) and tabulates a
:class:`~repro.metrics.series.SweepSeries`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from inspect import cleandoc
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Union

from repro.core.base import ProtocolConfig
from repro.experiments.parallel import run_specs
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
    #: ``{arm label: result} → {column name: value}``
    columns: Callable[[Dict[Any, Any]], Dict[str, Any]]
    params: Mapping[str, Any] = field(default_factory=dict)
    #: ``(x, p) → config fields`` that follow the sweep point (H = x, …)
    at: Optional[Callable[[Any, Dict[str, Any]], Dict[str, Any]]] = None
    #: overrides (and optionally ``values``) the CLI's ``--quick`` applies
    quick: Mapping[str, Any] = field(default_factory=dict)
    #: ``(live session, result) → what the columns read for that arm``.
    #: For rows that need state only the live session has: they run
    #: in-process, one session at a time, and ignore ``executor``
    #: (workers return detached results only).
    measure: Optional[Callable[[Any, Any], Any]] = None

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
        executor=None,
        **overrides: Any,
    ) -> SweepSeries:
        """Sweep ``values`` (default: the row's own) and tabulate.

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
        flat = replication_specs(specs, repetitions)
        if self.measure is None:
            results = run_specs(flat, executor=executor)
        else:
            results = [self._measured(spec) for spec in flat]

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

    def _measured(self, spec: Spec) -> Any:
        session = spec.build()
        return self.measure(session, session.run())


def replication_specs(
    specs: Sequence[Spec], repetitions: int = 1
) -> List[Spec]:
    """Every spec ``repetitions`` times, flat, replications adjacent.

    Replication ``rep`` runs with seed
    ``spec.config.seed + REPLICATION_SEED_STRIDE * rep``, derived through
    :func:`dataclasses.replace` (``with_seed``) so the config's concrete
    type (and any non-init/derived fields a subclass adds) is preserved.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    if repetitions == 1:
        return list(specs)
    return [
        spec.with_seed(spec.config.seed + REPLICATION_SEED_STRIDE * rep)
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
