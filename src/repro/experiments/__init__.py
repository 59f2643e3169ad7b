"""Experiment harness: one table of experiments, one sweep driver.

:data:`EXPERIMENTS` holds every experiment — the paper's Figures 10–12 and
the ablations EX-A … EX-O — as one :class:`Experiment` row each (what to
sweep, which arms to run, which columns to report);
:func:`run_experiment` runs a row and returns a
:class:`~repro.metrics.SweepSeries` whose table prints the same rows the
paper's figure plots.  The paper's quoted reference points are embedded
as ``PAPER_*_REFERENCE`` dicts so EXPERIMENTS.md can be regenerated
mechanically.

Rows describe their runs as picklable
:class:`~repro.streaming.SessionSpec` values and execute them through an
executor: :class:`SerialExecutor` (default) or :class:`ParallelExecutor`
(``executor=ParallelExecutor(jobs=N)`` fans runs out across cores with
identical results).

A table that must not change is pinned as CSV text under
``tests/experiments/data/tables/``; host cost is measured from outside, by
``bench/``.
"""

from repro.experiments.parallel import (
    ParallelExecutor,
    ProgressTick,
    SerialExecutor,
    SweepError,
    auto_executor,
    available_cores,
    run_specs,
)
from repro.experiments.runner import Experiment, first_picks, replication_specs
from repro.experiments.fig10 import FIG10, PAPER_FIG10_REFERENCE
from repro.experiments.fig11 import FIG11, PAPER_FIG11_REFERENCE
from repro.experiments.fig12 import FIG12, PAPER_FIG12_REFERENCE
from repro.experiments.ablations import ABLATIONS

#: the experiment table: key → row, figures first, in printing order
EXPERIMENTS = {row.key: row for row in (FIG10, FIG11, FIG12, *ABLATIONS)}


def run_experiment(key, values=None, executor=None, **overrides):
    """Run the table row ``key`` (see :meth:`Experiment.run`)."""
    return EXPERIMENTS[key].run(values, executor, **overrides)


__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "PAPER_FIG10_REFERENCE",
    "PAPER_FIG11_REFERENCE",
    "PAPER_FIG12_REFERENCE",
    "ParallelExecutor",
    "ProgressTick",
    "SerialExecutor",
    "SweepError",
    "auto_executor",
    "available_cores",
    "first_picks",
    "replication_specs",
    "run_experiment",
    "run_specs",
]
